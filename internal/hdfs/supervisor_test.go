package hdfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// replicaCount sums live registered replicas across all blocks, and
// independently counts the physical copies held by live nodes — the two
// must always agree, or a replica is being double-counted.
func replicaCount(t *testing.T, c *Cluster) (registered, physical int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for bid, meta := range c.blocks {
		registered += len(meta.replicas)
		for nid := range meta.replicas {
			n := c.nodes[nid]
			if n == nil {
				t.Fatalf("block %d registered on unknown node %s", bid, nid)
			}
			if !n.alive {
				t.Fatalf("block %d registered on dead node %s", bid, nid)
			}
			if _, has := n.blocks[bid]; !has {
				t.Fatalf("block %d registered on %s but not held there", bid, nid)
			}
		}
	}
	for _, n := range c.nodes {
		if !n.alive {
			continue
		}
		for bid := range n.blocks {
			if _, live := c.blocks[bid]; live {
				physical++
			}
		}
	}
	return registered, physical
}

// TestReviveAfterReplicateMissingReconciles is the satellite requirement:
// fail a node, heal the cluster with ReplicateMissing, then revive the node
// — its stale block report must not push any block past the replication
// factor or double-count a replica.
func TestReviveAfterReplicateMissingReconciles(t *testing.T) {
	c := newTestCluster(t, 5, Config{BlockSize: 64, Replication: 3})
	if err := c.Write("/f", payload(64*4)); err != nil {
		t.Fatal(err)
	}
	if err := c.FailDataNode("dn-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplicateMissing(); err != nil {
		t.Fatal(err)
	}
	if under, lost := c.UnderReplicated(); under != 0 || lost != 0 {
		t.Fatalf("under=%d lost=%d after heal", under, lost)
	}

	restored, err := c.ReviveDataNode("dn-0")
	if err != nil {
		t.Fatal(err)
	}
	// Everything was healed elsewhere, so the block report restores
	// nothing — every stale copy is redundant and must be discarded.
	if restored != 0 {
		t.Fatalf("restored = %d stale replicas", restored)
	}
	reg, phys := replicaCount(t, c)
	wantReplicas := 4 * 3 // 4 blocks × replication 3
	if reg != wantReplicas || phys != wantReplicas {
		t.Fatalf("registered=%d physical=%d, want %d", reg, phys, wantReplicas)
	}
	if got, err := c.Read("/f"); err != nil || len(got) != 64*4 {
		t.Fatalf("read after revive: %d bytes, %v", len(got), err)
	}
}

// TestReviveBeforeReplicateRestoresReplicas: without an intervening heal,
// the revived node's copies are still useful and must be re-registered.
func TestReviveBeforeReplicateRestoresReplicas(t *testing.T) {
	c := newTestCluster(t, 3, Config{BlockSize: 64, Replication: 3})
	if err := c.Write("/f", payload(64*2)); err != nil {
		t.Fatal(err)
	}
	if err := c.FailDataNode("dn-1"); err != nil {
		t.Fatal(err)
	}
	if under, _ := c.UnderReplicated(); under != 2 {
		t.Fatalf("under = %d", under)
	}
	restored, err := c.ReviveDataNode("dn-1")
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored = %d", restored)
	}
	if under, _ := c.UnderReplicated(); under != 0 {
		t.Fatalf("under = %d after revive", under)
	}
	reg, phys := replicaCount(t, c)
	if reg != 6 || phys != 6 {
		t.Fatalf("registered=%d physical=%d", reg, phys)
	}
}

// TestReviveDiscardsDeletedBlocks: blocks whose file was deleted while the
// node was down are garbage on revival.
func TestReviveDiscardsDeletedBlocks(t *testing.T) {
	c := newTestCluster(t, 4, Config{BlockSize: 64, Replication: 2})
	if err := c.Write("/doomed", payload(100)); err != nil {
		t.Fatal(err)
	}
	// Find a holder of the file's blocks and fail it.
	c.mu.Lock()
	var holder string
	for _, meta := range c.blocks {
		for nid := range meta.replicas {
			holder = nid
		}
	}
	c.mu.Unlock()
	if err := c.FailDataNode(holder); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/doomed"); err != nil {
		t.Fatal(err)
	}
	restored, err := c.ReviveDataNode(holder)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("restored %d replicas of a deleted file", restored)
	}
	st := c.Status()
	if st.Blocks != 0 || st.StoredBytes != 0 {
		t.Fatalf("status = %+v", st)
	}
}

// TestFailTwiceAcrossDelete: a node that is down when a file is deleted
// keeps stale copies of its blocks; failing it again (a flap with no revive
// between) must skip them, not dereference their missing block entries.
func TestFailTwiceAcrossDelete(t *testing.T) {
	c := newTestCluster(t, 3, Config{BlockSize: 64, Replication: 3})
	if err := c.Write("/doomed", payload(100)); err != nil {
		t.Fatal(err)
	}
	// Replication 3 on three nodes: dn-0 holds a copy of every block.
	if err := c.FailDataNode("dn-0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/doomed"); err != nil {
		t.Fatal(err)
	}
	if err := c.FailDataNode("dn-0"); err != nil {
		t.Fatal(err)
	}
	if restored, err := c.ReviveDataNode("dn-0"); err != nil || restored != 0 {
		t.Fatalf("revive = %d, %v", restored, err)
	}
	if st := c.Status(); st.Blocks != 0 || st.StoredBytes != 0 || st.UnderReplicated != 0 || st.LiveNodes != 3 {
		t.Fatalf("status = %+v", st)
	}
}

// TestSupervisorHealsAfterFailure drives the supervisor synchronously.
func TestSupervisorHealsAfterFailure(t *testing.T) {
	c := newTestCluster(t, 5, Config{BlockSize: 64, Replication: 3})
	if err := c.Write("/f", payload(300)); err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(c)
	// Healthy cluster: tick is a no-op.
	if created, err := sup.Tick(); err != nil || created != 0 {
		t.Fatalf("tick on healthy cluster: %d, %v", created, err)
	}
	if err := c.FailDataNode("dn-0"); err != nil {
		t.Fatal(err)
	}
	created, err := sup.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if created == 0 {
		t.Fatal("supervisor created no replicas")
	}
	if under, lost := c.UnderReplicated(); under != 0 || lost != 0 {
		t.Fatalf("under=%d lost=%d after supervisor tick", under, lost)
	}
	st := sup.Stats()
	if st.Ticks != 2 || st.RepairTicks != 1 || st.ReplicasCreated != created {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSupervisorBackgroundLoopUnderConcurrentWrites ticks the supervisor
// from its own goroutine against concurrent writers and a mid-flight node
// failure — this is the test the race detector gates.
func TestSupervisorBackgroundLoopUnderConcurrentWrites(t *testing.T) {
	c := newTestCluster(t, 6, Config{BlockSize: 64, Replication: 3})
	sup := NewSupervisor(c)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				path := fmt.Sprintf("/w%d/f%d", w, i)
				if err := c.Write(path, payload(150)); err != nil {
					t.Errorf("write %s: %v", path, err)
					return
				}
			}
		}(w)
	}
	// The healer ticks beside the writers until they finish, then until the
	// cluster is whole: every block a writer lands short of a replica is
	// repaired by a later pass, so the loop ends without a deadline.
	writersDone := make(chan struct{})
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		for {
			if _, err := sup.Tick(); err != nil {
				t.Errorf("tick: %v", err)
				return
			}
			select {
			case <-writersDone:
				if under, lost := c.UnderReplicated(); under == 0 && lost == 0 {
					return
				}
			default:
			}
		}
	}()
	if err := c.FailDataNode("dn-5"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(writersDone)
	<-healed

	if under, lost := c.UnderReplicated(); under != 0 || lost != 0 {
		t.Fatalf("not healed: under=%d lost=%d", under, lost)
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 25; i++ {
			if _, err := c.Read(fmt.Sprintf("/w%d/f%d", w, i)); err != nil {
				t.Fatalf("read after heal: %v", err)
			}
		}
	}
}

// TestFaultHookOnDataNodeIO: injected replica faults fail over (reads) or
// pick other targets (writes), and clearing the hook restores health.
func TestFaultHookOnDataNodeIO(t *testing.T) {
	c := newTestCluster(t, 5, Config{BlockSize: 64, Replication: 2})
	if err := c.Write("/f", payload(64)); err != nil {
		t.Fatal(err)
	}
	// Fail reads on one replica holder: the read fails over silently.
	c.mu.Lock()
	var holders []string
	for _, meta := range c.blocks {
		for nid := range meta.replicas {
			holders = append(holders, nid)
		}
	}
	c.mu.Unlock()
	bad := holders[0]
	c.SetFaultHook(func(op, node string) error {
		if op == "read" && node == bad {
			return errors.New("injected read fault")
		}
		return nil
	})
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("read did not fail over: %v", err)
	}
	// Fail every read: the error is transient, not data loss.
	c.SetFaultHook(func(op, node string) error {
		if op == "read" {
			return errors.New("injected read fault")
		}
		return nil
	})
	if _, err := c.Read("/f"); err == nil || errors.Is(err, ErrDataLoss) {
		t.Fatalf("all-replica fault err = %v (must be transient, not data loss)", err)
	}
	// Fail writes on two specific nodes: placement routes around them.
	c.SetFaultHook(func(op, node string) error {
		if op == "write" && (node == "dn-0" || node == "dn-1") {
			return errors.New("injected write fault")
		}
		return nil
	})
	if err := c.Write("/g", payload(64)); err != nil {
		t.Fatalf("write did not route around faulted nodes: %v", err)
	}
	c.SetFaultHook(nil)
	if _, err := c.Read("/g"); err != nil {
		t.Fatal(err)
	}
}

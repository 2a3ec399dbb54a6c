package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newTestCluster(t *testing.T, nodes int, cfg Config) *Cluster {
	t.Helper()
	c := NewCluster(cfg, rand.New(rand.NewSource(1)))
	for i := 0; i < nodes; i++ {
		if err := c.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		size int
	}{
		{"empty", 0},
		{"sub-block", 100},
		{"exact-block", 4096},
		{"multi-block", 4096*3 + 17},
	}
	c := newTestCluster(t, 5, DefaultConfig())
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := "/data/" + tt.name
			data := payload(tt.size)
			if err := c.Write(path, data); err != nil {
				t.Fatal(err)
			}
			got, err := c.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read %d bytes, want %d; content mismatch", len(got), len(data))
			}
		})
	}
}

func TestWriteDuplicateAndReadMissing(t *testing.T) {
	c := newTestCluster(t, 3, DefaultConfig())
	if err := c.Write("/f", payload(10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("/f", payload(10)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate err = %v", err)
	}
	if _, err := c.Read("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing err = %v", err)
	}
	if _, err := c.Stat("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat missing err = %v", err)
	}
}

func TestReplicationPlacement(t *testing.T) {
	c := newTestCluster(t, 5, Config{BlockSize: 64, Replication: 3})
	if err := c.Write("/f", payload(200)); err != nil { // 4 blocks
		t.Fatal(err)
	}
	info, err := c.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks != 4 {
		t.Fatalf("blocks = %d, want 4", info.Blocks)
	}
	st := c.Status()
	if st.UnderReplicated != 0 {
		t.Fatalf("under-replicated = %d", st.UnderReplicated)
	}
	// 4 blocks × 3 replicas; total stored bytes = 3 × 200.
	if st.StoredBytes != 600 {
		t.Fatalf("stored bytes = %d, want 600", st.StoredBytes)
	}
}

// TestReadTriesReplicasInIDOrder: a read tries a block's replicas in
// ascending datanode id order, so every run of a seed reads, and blames an
// injected fault on, the same datanode.
func TestReadTriesReplicasInIDOrder(t *testing.T) {
	c := newTestCluster(t, 5, DefaultConfig())
	if err := c.Write("/f", payload(100)); err != nil {
		t.Fatal(err)
	}
	var tried []string
	c.SetFaultHook(func(op, node string) error {
		if op == "read" {
			tried = append(tried, node)
		}
		return nil
	})
	first := map[string]int{}
	for i := 0; i < 20; i++ {
		tried = tried[:0]
		if _, err := c.Read("/f"); err != nil {
			t.Fatal(err)
		}
		first[tried[0]]++
	}
	if len(first) != 1 {
		t.Fatalf("20 reads of one block tried different datanodes first: %v", first)
	}
	// With every replica read faulting, the read fails over through all
	// three, lowest id first.
	c.SetFaultHook(func(op, node string) error {
		tried = append(tried, node)
		return errors.New("injected")
	})
	tried = tried[:0]
	if _, err := c.Read("/f"); err == nil {
		t.Fatal("read succeeded with every replica faulting")
	}
	if len(tried) != 3 || !sort.StringsAreSorted(tried) {
		t.Fatalf("replicas tried in order %v, want 3 ascending ids", tried)
	}
}

func TestWriteFailsWithoutEnoughNodes(t *testing.T) {
	c := newTestCluster(t, 2, Config{BlockSize: 64, Replication: 3})
	if err := c.Write("/f", payload(10)); !errors.Is(err, ErrNotEnoughNodes) {
		t.Fatalf("err = %v", err)
	}
	// Failed write must not leave orphan blocks.
	if st := c.Status(); st.Blocks != 0 {
		t.Fatalf("orphan blocks = %d", st.Blocks)
	}
}

func TestSurvivesSingleNodeFailure(t *testing.T) {
	c := newTestCluster(t, 4, Config{BlockSize: 32, Replication: 3})
	data := payload(500)
	if err := c.Write("/f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.FailDataNode("dn-0"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after node failure")
	}
	under, lost := c.UnderReplicated()
	if lost != 0 {
		t.Fatalf("lost = %d", lost)
	}
	if under == 0 {
		t.Fatal("expected some under-replicated blocks after failure")
	}
	created, err := c.ReplicateMissing()
	if err != nil {
		t.Fatal(err)
	}
	if created == 0 {
		t.Fatal("re-replication created nothing")
	}
	under, _ = c.UnderReplicated()
	if under != 0 {
		t.Fatalf("still under-replicated: %d", under)
	}
}

func TestDataLossWhenAllReplicasFail(t *testing.T) {
	c := newTestCluster(t, 3, Config{BlockSize: 32, Replication: 3})
	if err := c.Write("/f", payload(64)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.FailDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read("/f"); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("err = %v, want ErrDataLoss", err)
	}
	if _, err := c.ReplicateMissing(); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("replicate err = %v, want ErrDataLoss", err)
	}
}

func TestSequentialFailureWithRereplication(t *testing.T) {
	// With prompt re-replication the cluster survives losing every original
	// replica holder one at a time — the paper's availability claim.
	c := newTestCluster(t, 6, Config{BlockSize: 32, Replication: 3})
	data := payload(300)
	if err := c.Write("/f", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.FailDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReplicateMissing(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Read("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost despite re-replication")
	}
}

func TestReviveDataNode(t *testing.T) {
	c := newTestCluster(t, 3, Config{BlockSize: 32, Replication: 2})
	if err := c.FailDataNode("dn-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReviveDataNode("dn-1"); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.LiveNodes != 3 {
		t.Fatalf("status = %+v", st)
	}
	if err := c.FailDataNode("nope"); !errors.Is(err, ErrNoDataNode) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.ReviveDataNode("nope"); !errors.Is(err, ErrNoDataNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteFreesBlocks(t *testing.T) {
	c := newTestCluster(t, 3, Config{BlockSize: 32, Replication: 2})
	if err := c.Write("/f", payload(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Blocks != 0 || st.StoredBytes != 0 || st.Files != 0 {
		t.Fatalf("after delete: %+v", st)
	}
	if err := c.Delete("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestListAndExists(t *testing.T) {
	c := newTestCluster(t, 3, DefaultConfig())
	for _, p := range []string{"/b", "/a", "/c"} {
		if err := c.Write(p, payload(5)); err != nil {
			t.Fatal(err)
		}
	}
	got := c.List()
	if len(got) != 3 || got[0] != "/a" || got[2] != "/c" {
		t.Fatalf("List = %v", got)
	}
	if !c.Exists("/a") || c.Exists("/zz") {
		t.Fatal("Exists inconsistent")
	}
}

func TestAddDataNodeDuplicate(t *testing.T) {
	c := newTestCluster(t, 1, DefaultConfig())
	if err := c.AddDataNode("dn-0"); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("err = %v", err)
	}
}

// Property: any payload round-trips through write/read regardless of how it
// aligns with the block size.
func TestRoundTripProperty(t *testing.T) {
	i := 0
	f := func(data []byte) bool {
		i++
		c := NewCluster(Config{BlockSize: 16, Replication: 2}, rand.New(rand.NewSource(int64(i))))
		for n := 0; n < 3; n++ {
			if err := c.AddDataNode(fmt.Sprintf("dn-%d", n)); err != nil {
				return false
			}
		}
		path := fmt.Sprintf("/p%d", i)
		if err := c.Write(path, data); err != nil {
			return false
		}
		got, err := c.Read(path)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersCountBlockIO(t *testing.T) {
	c := newTestCluster(t, 4, DefaultConfig())
	if err := c.Write("/f", payload(4096*2+1)); err != nil { // three blocks
		t.Fatal(err)
	}
	if got := c.Counters(); got.BlockWrites != 3 || got.BlockReads != 0 {
		t.Fatalf("after write: %+v", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Read("/f"); err != nil {
			t.Fatal(err)
		}
	}
	// A replica read that faults and fails over is not a successful read:
	// each block still counts once.
	c.SetFaultHook(func(op, node string) error {
		if op == "read" && node == "dn-0" {
			return errors.New("injected")
		}
		return nil
	})
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters(); got.BlockWrites != 3 || got.BlockReads != 9 || got.ReplicasCreated != 0 {
		t.Fatalf("after three reads: %+v", got)
	}
}

package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// recount derives the Report from the node and block maps alone, the way
// Status did before the tallies existed, and checks each node's byte tally
// against the blocks it holds.
func recount(t *testing.T, c *Cluster) Report {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{Files: len(c.files), Blocks: len(c.blocks)}
	for _, n := range c.nodes {
		held := 0
		for _, b := range n.blocks {
			held += len(b)
		}
		if n.bytes != held {
			t.Fatalf("node %s: tally %d bytes, holds %d", n.id, n.bytes, held)
		}
		if n.alive {
			r.LiveNodes++
			r.StoredBytes += held
		}
	}
	for _, meta := range c.blocks {
		if len(meta.replicas) == 0 {
			r.LostBlocks++
		}
		if len(meta.replicas) < c.cfg.Replication {
			r.UnderReplicated++
		}
	}
	return r
}

// TestModelRandomHistories runs seeded histories of every call that places,
// drops, fails, revives or heals a replica, with replica I/O faults injected,
// and after each step compares Status and UnderReplicated with a recount over
// every node and block.
func TestModelRandomHistories(t *testing.T) {
	var sawUnder, sawLost, sawFault bool
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCluster(Config{BlockSize: 64, Replication: 3}, rand.New(rand.NewSource(seed+100)))
		const nodes = 5
		for i := 0; i < nodes; i++ {
			if err := c.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		faults := rand.New(rand.NewSource(seed + 200))
		c.SetFaultHook(func(op, node string) error {
			if faults.Intn(8) == 0 {
				sawFault = true
				return errors.New("model: replica fault")
			}
			return nil
		})
		var paths []string
		for step := 0; step < 800; step++ {
			node := fmt.Sprintf("dn-%d", rng.Intn(nodes))
			switch op := rng.Intn(20); {
			case op < 8:
				path := fmt.Sprintf("/f-%d", step)
				// Too few live nodes, or a fault on every candidate: the
				// write rolls back and the tallies must not have moved.
				if err := c.Write(path, payload(rng.Intn(300))); err == nil {
					paths = append(paths, path)
				} else if !errors.Is(err, ErrNotEnoughNodes) {
					t.Fatalf("seed %d step %d: write: %v", seed, step, err)
				}
			case op < 12:
				if len(paths) == 0 {
					continue
				}
				i := rng.Intn(len(paths))
				if err := c.Delete(paths[i]); err != nil {
					t.Fatalf("seed %d step %d: delete: %v", seed, step, err)
				}
				paths = append(paths[:i], paths[i+1:]...)
			case op < 15:
				// Also hits nodes that are already down.
				if err := c.FailDataNode(node); err != nil {
					t.Fatalf("seed %d step %d: fail: %v", seed, step, err)
				}
			case op < 18:
				if _, err := c.ReviveDataNode(node); err != nil {
					t.Fatalf("seed %d step %d: revive: %v", seed, step, err)
				}
			default:
				if _, err := c.ReplicateMissing(); err != nil && !errors.Is(err, ErrDataLoss) {
					t.Fatalf("seed %d step %d: replicate: %v", seed, step, err)
				}
			}
			want := recount(t, c)
			if got := c.Status(); got != want {
				t.Fatalf("seed %d step %d: Status = %+v, recount = %+v", seed, step, got, want)
			}
			if under, lost := c.UnderReplicated(); under != want.UnderReplicated || lost != want.LostBlocks {
				t.Fatalf("seed %d step %d: UnderReplicated = %d, %d, recount = %d, %d",
					seed, step, under, lost, want.UnderReplicated, want.LostBlocks)
			}
			sawUnder = sawUnder || want.UnderReplicated > 0
			sawLost = sawLost || want.LostBlocks > 0
		}
	}
	// Guard against a history that stopped exercising what it is here for.
	if !sawUnder || !sawLost || !sawFault {
		t.Fatalf("under-replicated seen = %v, lost seen = %v, fault seen = %v: history too tame",
			sawUnder, sawLost, sawFault)
	}
}

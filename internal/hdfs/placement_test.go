package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleLiveNodes is liveNodes as it was before the cluster kept its nodes
// in id order: a fresh slice from the node map, sorted by id, shuffled, and
// stably sorted by block count.
func (c *Cluster) oracleLiveNodes() []*dataNode {
	var ns []*dataNode
	for _, n := range c.nodes {
		if n.alive {
			ns = append(ns, n)
		}
	}
	// Canonical order before the seeded shuffle: feeding map-iteration
	// order into the shuffle would make placement (and which node's error
	// surfaces on a failed write) differ across runs of the same seed.
	sort.Slice(ns, func(i, j int) bool { return ns[i].id < ns[j].id })
	c.rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
	sort.SliceStable(ns, func(i, j int) bool { return len(ns[i].blocks) < len(ns[j].blocks) })
	return ns
}

// placements is every block's replica holders, sorted, by block id.
func placements(c *Cluster) map[BlockID][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[BlockID][]string, len(c.blocks))
	for bid, meta := range c.blocks {
		ids := make([]string, 0, len(meta.replicas))
		for _, id := range meta.replicas {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		out[bid] = ids
	}
	return out
}

// TestPlacementMatchesOracle drives two clusters through one generated
// history — datanodes added in random id order, failed and revived, files of
// zero to three blocks written and deleted, re-replication passes, replica
// faults from one seed — one placing with liveNodes and one with the oracle.
// After every step both must hold the same replicas of the same blocks, have
// returned the same error, and draw the same next number from their rngs.
func TestPlacementMatchesOracle(t *testing.T) {
	var sawFault, sawHeal, sawMultiBlock bool
	for seed := int64(1); seed <= 6; seed++ {
		newCluster := func(place func(*Cluster) []*dataNode) *Cluster {
			c := NewCluster(Config{BlockSize: 32, Replication: 3}, rand.New(rand.NewSource(seed+100)))
			c.placement = place
			faults := rand.New(rand.NewSource(seed + 200))
			c.SetFaultHook(func(op, node string) error {
				if faults.Intn(10) == 0 {
					sawFault = true
					return fmt.Errorf("placement: %s fault on %s", op, node)
				}
				return nil
			})
			return c
		}
		got, want := newCluster((*Cluster).liveNodes), newCluster((*Cluster).oracleLiveNodes)
		rng := rand.New(rand.NewSource(seed))
		// Ids whose string order is not their numeric order ("dn-10" sorts
		// before "dn-2"), added in a random order: three up front, the rest
		// as the history goes.
		ids := rng.Perm(12)
		added := 0
		var paths []string
		for step := 0; step < 600; step++ {
			var op string
			var errGot, errWant error
			node := fmt.Sprintf("dn-%d", ids[rng.Intn(max(added, 1))])
			switch k := rng.Intn(20); {
			case added < 3 || k == 0 && added < len(ids):
				op = "add"
				id := fmt.Sprintf("dn-%d", ids[added])
				added++
				errGot, errWant = got.AddDataNode(id), want.AddDataNode(id)
			case k < 9:
				op = "write"
				path := fmt.Sprintf("/f-%d", step)
				data := payload(rng.Intn(3*32 + 1))
				sawMultiBlock = sawMultiBlock || len(data) > 32
				errGot, errWant = got.Write(path, data), want.Write(path, data)
				if errGot == nil {
					paths = append(paths, path)
				}
			case k < 12:
				if len(paths) == 0 {
					continue
				}
				op = "delete"
				i := rng.Intn(len(paths))
				errGot, errWant = got.Delete(paths[i]), want.Delete(paths[i])
				paths = append(paths[:i], paths[i+1:]...)
			case k < 15:
				op = "fail " + node
				errGot, errWant = got.FailDataNode(node), want.FailDataNode(node)
			case k < 18:
				op = "revive " + node
				_, errGot = got.ReviveDataNode(node)
				_, errWant = want.ReviveDataNode(node)
			default:
				op = "replicate"
				var created int
				created, errGot = got.ReplicateMissing()
				_, errWant = want.ReplicateMissing()
				sawHeal = sawHeal || created > 0
			}
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("%s: error %v, oracle %v", where, errGot, errWant)
			}
			if errGot != nil && !errors.Is(errGot, ErrNotEnoughNodes) && !errors.Is(errGot, ErrDataLoss) {
				t.Fatalf("%s: %v", where, errGot)
			}
			pg, pw := placements(got), placements(want)
			if !reflect.DeepEqual(pg, pw) {
				t.Fatalf("%s: replicas\n got %v\nwant %v", where, pg, pw)
			}
			if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
				t.Fatalf("%s: next draw %d, oracle %d", where, g, w)
			}
		}
	}
	if !sawFault || !sawHeal || !sawMultiBlock {
		t.Fatalf("fault seen = %v, heal seen = %v, multi-block file seen = %v: history too tame",
			sawFault, sawHeal, sawMultiBlock)
	}
}

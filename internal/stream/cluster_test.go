package stream

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
)

// newTestCluster boots a cluster with one topic "events".
func newTestCluster(t *testing.T, cfg ClusterConfig, partitions int) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("events", partitions); err != nil {
		t.Fatal(err)
	}
	return c
}

// produceN appends n keyed records and returns their payloads.
func produceN(t *testing.T, c *Cluster, n int) []string {
	t.Helper()
	var vals []string
	for i := 0; i < n; i++ {
		v := strconv.Itoa(i)
		if _, _, err := c.Produce("events", "k"+v, []byte(v)); err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		vals = append(vals, v)
	}
	return vals
}

// drain polls everything a fresh pass can see, committing each batch.
func drain(t *testing.T, c *Cluster, group string) []Record {
	t.Helper()
	var out []Record
	for {
		recs, err := c.Poll(group, "events", 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return out
		}
		out = append(out, recs...)
		if err := c.CommitPolled(group, "events"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterConfigValidation(t *testing.T) {
	for _, cfg := range []ClusterConfig{
		{Nodes: 0, Replication: 1},
		{Nodes: 2, Replication: 3},
		{Nodes: 3, Replication: 2, MinISR: 3},
		{Nodes: 1, Replication: 0},
	} {
		if _, err := NewCluster(cfg); !errors.Is(err, ErrBadCluster) {
			t.Fatalf("NewCluster(%+v) err = %v, want ErrBadCluster", cfg, err)
		}
	}
}

func TestClusterProducePollRoundTrip(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3}, 4)
	want := produceN(t, c, 20)
	got := drain(t, c, "g")
	if len(got) != len(want) {
		t.Fatalf("polled %d records, want %d", len(got), len(want))
	}
	if lag, _ := c.Lag("g", "events"); lag != 0 {
		t.Fatalf("lag after drain = %d", lag)
	}
}

func TestClusterPollRedeliversUntilCommit(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3}, 2)
	produceN(t, c, 6)

	first, err := c.Poll("g", "events", 64)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Poll("g", "events", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 6 || len(again) != 6 {
		t.Fatalf("uncommitted re-poll: first %d, again %d, want 6 and 6", len(first), len(again))
	}
	if err := c.CommitPolled("g", "events"); err != nil {
		t.Fatal(err)
	}
	after, err := c.Poll("g", "events", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Fatalf("polled %d records after commit, want 0", len(after))
	}
}

func TestClusterEmptyKeyRoundRobin(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 2}, 4)
	counts := make(map[int]int)
	for i := 0; i < 8; i++ {
		p, _, err := c.Produce("events", "", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		counts[p]++
	}
	for p := 0; p < 4; p++ {
		if counts[p] != 2 {
			t.Fatalf("empty-key spread = %v, want 2 per partition", counts)
		}
	}
}

func TestBrokerEmptyKeyRoundRobin(t *testing.T) {
	b := newTestBroker(t, 4)
	counts := make(map[int]int)
	for i := 0; i < 8; i++ {
		p, _, err := b.Produce("events", "", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		counts[p]++
	}
	for p := 0; p < 4; p++ {
		if counts[p] != 2 {
			t.Fatalf("empty-key spread = %v, want 2 per partition", counts)
		}
	}
}

func TestClusterCleanFailoverLosesNothing(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3}, 1)
	produceN(t, c, 10)

	leader, epoch, err := c.LeaderEpoch("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode(leader); err != nil {
		t.Fatal(err)
	}
	// Leaderless until the controller runs: produce must fail retryably,
	// never ack into the void.
	if _, _, err := c.Produce("events", "k", []byte("x")); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("produce to leaderless partition err = %v, want ErrNoLeader", err)
	}
	c.Tick()
	newLeader, newEpoch, err := c.LeaderEpoch("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	if newLeader == leader || newLeader == -1 {
		t.Fatalf("leader after failover = %d (was %d)", newLeader, leader)
	}
	if newEpoch != epoch+1 {
		t.Fatalf("epoch after failover = %d, want %d", newEpoch, epoch+1)
	}
	if st := c.Stats(); st.Elections != 1 || st.UncleanElections != 0 || st.LastFailoverTicks != 1 {
		t.Fatalf("stats after clean failover = %+v", st)
	}
	// Every acknowledged record survives the failover.
	if got := drain(t, c, "audit"); len(got) != 10 {
		t.Fatalf("post-failover drain = %d records, want 10", len(got))
	}
	// And the partition accepts writes again.
	if _, _, err := c.Produce("events", "k", []byte("x")); err != nil {
		t.Fatalf("produce after election: %v", err)
	}
}

// TestClusterElectionTable is the table-driven election test: ISR shrink to
// one, full-ISR loss (unavailable, not lossy), and stale-epoch fencing.
func TestClusterElectionTable(t *testing.T) {
	failNodes := func(bad ...int) func(string, int) error {
		return func(op string, node int) error {
			for _, b := range bad {
				if node == b && op == "replicate" {
					return fmt.Errorf("injected replication failure on %d", node)
				}
			}
			return nil
		}
	}

	t.Run("isr-shrinks-to-one-and-still-acks", func(t *testing.T) {
		c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3, MinISR: 1}, 1)
		c.SetFaultHook(failNodes(1, 2))
		if _, _, err := c.Produce("events", "k", []byte("x")); err != nil {
			t.Fatalf("minISR=1 produce: %v", err)
		}
		st := c.State().Partitions[0]
		if len(st.ISR) != 1 || st.ISR[0] != 0 {
			t.Fatalf("ISR = %v, want [0]", st.ISR)
		}
		if s := c.Stats(); s.ISRShrinks != 2 {
			t.Fatalf("ISRShrinks = %d, want 2", s.ISRShrinks)
		}
		if c.UnderReplicated() != 1 {
			t.Fatalf("UnderReplicated = %d, want 1", c.UnderReplicated())
		}
		// Clearing the hook lets the next tick catch both followers up and
		// restore full replication.
		c.SetFaultHook(nil)
		c.Tick()
		if c.UnderReplicated() != 0 {
			t.Fatalf("UnderReplicated after catch-up = %d, want 0", c.UnderReplicated())
		}
	})

	t.Run("min-isr-two-rejects-without-appending", func(t *testing.T) {
		c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3, MinISR: 2}, 1)
		c.SetFaultHook(failNodes(1, 2))
		_, _, err := c.Produce("events", "k", []byte("x"))
		if !errors.Is(err, ErrNotEnoughReplicas) {
			t.Fatalf("err = %v, want ErrNotEnoughReplicas", err)
		}
		st := c.State().Partitions[0]
		if st.HighWatermark != 0 {
			t.Fatalf("rejected produce advanced the log: hw = %d", st.HighWatermark)
		}
		if len(st.ISR) != 3 {
			t.Fatalf("rejected produce shrank the ISR: %v", st.ISR)
		}
		// One surviving follower is enough for MinISR=2.
		c.SetFaultHook(failNodes(2))
		if _, _, err := c.Produce("events", "k", []byte("x")); err != nil {
			t.Fatalf("produce with 2 survivors: %v", err)
		}
	})

	t.Run("full-isr-loss-is-unavailable-then-recovers", func(t *testing.T) {
		c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3}, 1)
		produceN(t, c, 5)
		for n := 0; n < 3; n++ {
			if err := c.CrashNode(n); err != nil {
				t.Fatal(err)
			}
		}
		c.Tick()
		// No live ISR member: the partition must stay unavailable rather than
		// silently electing nothing or losing data.
		if _, _, err := c.Produce("events", "k", []byte("x")); !errors.Is(err, ErrNoLeader) {
			t.Fatalf("produce err = %v, want ErrNoLeader", err)
		}
		if st := c.Stats(); st.Elections != 0 {
			t.Fatalf("elected a leader with no live ISR member: %+v", st)
		}
		// One ISR member returns: clean election, zero loss.
		if err := c.RestartNode(1); err != nil {
			t.Fatal(err)
		}
		c.Tick()
		leader, _, _ := c.LeaderEpoch("events", 0)
		if leader != 1 {
			t.Fatalf("leader = %d, want restarted node 1", leader)
		}
		if got := drain(t, c, "audit"); len(got) != 5 {
			t.Fatalf("drain after recovery = %d records, want 5", len(got))
		}
	})

	t.Run("stale-epoch-produce-is-fenced", func(t *testing.T) {
		c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3}, 1)
		leader, epoch, err := c.LeaderEpoch("events", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ProduceWithEpoch("events", 0, epoch, "k", []byte("x"), nil); err != nil {
			t.Fatalf("current-epoch produce: %v", err)
		}
		if _, err := c.ProduceWithEpoch("events", 0, epoch-1, "k", []byte("x"), nil); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("stale produce err = %v, want ErrStaleEpoch", err)
		}
		// After a failover the old leader's cached epoch is fenced too.
		if err := c.CrashNode(leader); err != nil {
			t.Fatal(err)
		}
		c.Tick()
		if _, err := c.ProduceWithEpoch("events", 0, epoch, "k", []byte("x"), nil); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("pre-failover epoch err = %v, want ErrStaleEpoch", err)
		}
		if s := c.Stats(); s.StaleProduces != 2 {
			t.Fatalf("StaleProduces = %d, want 2", s.StaleProduces)
		}
	})
}

func TestClusterRestartCatchUpAndISRRejoin(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3}, 1)
	produceN(t, c, 3)
	leader, _, _ := c.LeaderEpoch("events", 0)
	follower := (leader + 1) % 3
	if err := c.CrashNode(follower); err != nil {
		t.Fatal(err)
	}
	// Writes while the follower is down shrink the ISR around it.
	for i := 0; i < 4; i++ {
		if _, _, err := c.Produce("events", "k", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if c.UnderReplicated() != 1 {
		t.Fatalf("UnderReplicated = %d, want 1", c.UnderReplicated())
	}
	if err := c.RestartNode(follower); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	st := c.State().Partitions[0]
	if len(st.ISR) != 3 {
		t.Fatalf("ISR after catch-up = %v, want all three", st.ISR)
	}
	for i, end := range st.ReplicaEnds {
		if end != st.HighWatermark {
			t.Fatalf("replica %d end = %d, hw = %d", i, end, st.HighWatermark)
		}
	}
	if s := c.Stats(); s.CatchUpRecords != 4 || s.ISRExpands != 1 {
		t.Fatalf("stats = %+v, want 4 caught-up records and 1 rejoin", s)
	}
}

func TestClusterUncleanElectionTruncates(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2, Replication: 2, AllowUnclean: true}, 1)
	produceN(t, c, 2)
	leader, _, _ := c.LeaderEpoch("events", 0)
	follower := 1 - leader
	// Drop the follower from the ISR, then keep writing: the leader's log
	// runs ahead of the follower's.
	c.SetFaultHook(func(op string, node int) error {
		if op == "replicate" && node == follower {
			return errors.New("injected lag")
		}
		return nil
	})
	for i := 0; i < 3; i++ {
		if _, _, err := c.Produce("events", "k", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c.SetFaultHook(nil)
	if err := c.CrashNode(leader); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	newLeader, _, _ := c.LeaderEpoch("events", 0)
	if newLeader != follower {
		t.Fatalf("unclean election picked %d, want lagging survivor %d", newLeader, follower)
	}
	st := c.Stats()
	if st.UncleanElections != 1 {
		t.Fatalf("UncleanElections = %d, want 1", st.UncleanElections)
	}
	// The new leader never saw the last 3 acked records: documented loss.
	if hw := c.State().Partitions[0].HighWatermark; hw != 2 {
		t.Fatalf("hw after unclean election = %d, want 2", hw)
	}
	// The old leader returns with the longer log and must truncate to the
	// new leader's high watermark before rejoining the ISR.
	if err := c.RestartNode(leader); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	if s := c.Stats(); s.Truncated != 3 {
		t.Fatalf("Truncated = %d, want 3", s.Truncated)
	}
	final := c.State().Partitions[0]
	if len(final.ISR) != 2 {
		t.Fatalf("ISR after truncation = %v, want both", final.ISR)
	}
	for i, end := range final.ReplicaEnds {
		if end != final.HighWatermark {
			t.Fatalf("replica %d end = %d, hw = %d", i, end, final.HighWatermark)
		}
	}
	// A committed consumer position past the truncated end clamps instead of
	// erroring forever.
	if got := drain(t, c, "late"); len(got) != 2 {
		t.Fatalf("drain after truncation = %d, want 2", len(got))
	}
}

// TestClusterDivergentSuffixTruncatedOnCatchUp: a deposed leader that comes
// back *shorter* than the new leader's log still holds records the unclean
// election superseded. Catch-up must cut them before appending, or a later
// clean failover to that replica serves them in place of acknowledged ones.
func TestClusterDivergentSuffixTruncatedOnCatchUp(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2, Replication: 2, AllowUnclean: true}, 1)
	produceN(t, c, 2)
	leader, _, _ := c.LeaderEpoch("events", 0)
	follower := 1 - leader
	produce := func(v string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := c.Produce("events", "k", []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.SetFaultHook(func(op string, node int) error {
		if op == "replicate" && node == follower {
			return errors.New("injected lag")
		}
		return nil
	})
	produce("old", 3)
	c.SetFaultHook(nil)
	if err := c.CrashNode(leader); err != nil {
		t.Fatal(err)
	}
	c.Tick() // the follower wins uncleanly at offset 2
	produce("new", 4)
	if err := c.RestartNode(leader); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	if s := c.Stats(); s.Truncated != 3 || s.CatchUpRecords != 4 {
		t.Fatalf("Truncated = %d, CatchUpRecords = %d; want 3 and 4", s.Truncated, s.CatchUpRecords)
	}
	// A clean failover back to the old leader must serve the new epoch's log.
	if err := c.CrashNode(follower); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	if l, _, _ := c.LeaderEpoch("events", 0); l != leader {
		t.Fatalf("leader = %d, want the caught-up node %d", l, leader)
	}
	var got []string
	for _, r := range drain(t, c, "fresh") {
		got = append(got, string(r.Value))
	}
	if want := "[0 1 new new new new]"; fmt.Sprint(got) != want {
		t.Fatalf("fresh group reads %v, want %s", got, want)
	}
}

// TestClusterUncleanElectionRanksByLogHeld: a replica's records past its
// divergence point are gone, so an unclean election ranks the live replicas
// by how much of the log they hold, not by their raw ends.
func TestClusterUncleanElectionRanksByLogHeld(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3, AllowUnclean: true}, 1)
	lagging := map[int]bool{}
	c.SetFaultHook(func(op string, node int) error {
		if op == "replicate" && lagging[node] {
			return errors.New("injected lag")
		}
		return nil
	})
	produce := func(v string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := c.Produce("events", "k", []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	produceN(t, c, 2)
	lagging[1], lagging[2] = true, true
	produce("a", 3) // node 0 alone: ends 5, 2, 2
	lagging[1], lagging[2] = false, false
	if err := c.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	c.Tick() // node 1 wins uncleanly at 2; node 0 diverges there; node 2 rejoins
	produce("b", 2)
	lagging[2] = true
	produce("b", 1) // ends 5 (2 of them the log's), 5, 4
	if err := c.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	if l, _, _ := c.LeaderEpoch("events", 0); l != 2 {
		t.Fatalf("unclean leader = %d, want node 2, which holds 4 records of the log to node 0's 2", l)
	}
	var got []string
	for _, r := range drain(t, c, "fresh") {
		got = append(got, string(r.Value))
	}
	if want := "[0 1 b b]"; fmt.Sprint(got) != want {
		t.Fatalf("fresh group reads %v, want %s", got, want)
	}
}

func TestClusterConsumerResumesAcrossFailover(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 3, Replication: 3}, 2)
	var want []string
	for i := 0; i < 12; i++ {
		v := strconv.Itoa(i)
		if _, _, err := c.Produce("events", "k"+v, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	// Consume part of the log, commit, then lose a leader.
	first, err := c.Poll("g", "events", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CommitPolled("g", "events"); err != nil {
		t.Fatal(err)
	}
	leader, _, _ := c.LeaderEpoch("events", 0)
	if err := c.CrashNode(leader); err != nil {
		t.Fatal(err)
	}
	c.Tick()
	rest := drain(t, c, "g")
	seen := make(map[string]int)
	for _, r := range append(first, rest...) {
		seen[string(r.Value)]++
	}
	for _, v := range want {
		if seen[v] != 1 {
			t.Fatalf("record %q seen %d times across failover, want exactly once (seen=%v)", v, seen[v], seen)
		}
	}
}

func TestClusterCrashRestartValidation(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Nodes: 2, Replication: 2}, 1)
	if err := c.CrashNode(9); !errors.Is(err, ErrBadNode) {
		t.Fatalf("crash out of range err = %v", err)
	}
	if err := c.RestartNode(0); !errors.Is(err, ErrNodeUp) {
		t.Fatalf("restart up node err = %v", err)
	}
	if err := c.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode(0); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("double crash err = %v", err)
	}
	if c.NodesUp() != 1 || c.NodeUp(0) || !c.NodeUp(1) {
		t.Fatalf("liveness view wrong: up=%d", c.NodesUp())
	}
}

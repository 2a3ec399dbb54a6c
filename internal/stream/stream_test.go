package stream

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

// newSingleNode boots the plain single-node log: one node, replication 1.
func newSingleNode(tb testing.TB) *Cluster {
	tb.Helper()
	c, err := NewCluster(ClusterConfig{Nodes: 1, Replication: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func newTestBroker(t *testing.T, partitions int) *Cluster {
	t.Helper()
	b := newSingleNode(t)
	if err := b.CreateTopic("events", partitions); err != nil {
		t.Fatal(err)
	}
	return b
}

// drainAll polls a fresh group to the end of the topic, committing after
// every batch, and returns everything it saw.
func drainAll(tb testing.TB, b *Cluster, group, topic string, max int) []Record {
	tb.Helper()
	var all []Record
	for {
		recs, err := b.Poll(group, topic, max)
		if err != nil {
			tb.Fatal(err)
		}
		if len(recs) == 0 {
			return all
		}
		all = append(all, recs...)
		if err := b.CommitPolled(group, topic); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestCreateTopicErrors(t *testing.T) {
	b := newSingleNode(t)
	if err := b.CreateTopic("t", 0); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("zero partitions err = %v", err)
	}
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 2); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("duplicate err = %v", err)
	}
	if _, err := b.Partitions("missing"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown topic err = %v", err)
	}
}

func TestProducePollRoundTrip(t *testing.T) {
	b := newTestBroker(t, 1)
	for i := 0; i < 5; i++ {
		p, off, err := b.Produce("events", "k", []byte(strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		if p != 0 || off != int64(i) {
			t.Fatalf("produce %d: partition=%d offset=%d", i, p, off)
		}
	}
	recs, err := b.Poll("g", "events", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Value) != "0" || string(recs[1].Value) != "1" {
		t.Fatalf("poll = %v", recs)
	}
	// Nothing was committed, so the same batch comes back.
	again, err := b.Poll("g", "events", 2)
	if err != nil || len(again) != 2 || again[0].Offset != 0 {
		t.Fatalf("uncommitted re-poll = %v, %v", again, err)
	}
	if err := b.CommitPolled("g", "events"); err != nil {
		t.Fatal(err)
	}
	rest := drainAll(t, b, "g", "events", 10)
	if len(rest) != 3 || string(rest[0].Value) != "2" {
		t.Fatalf("after commit = %v", rest)
	}
	// Polling at the log end is empty, not an error.
	empty, err := b.Poll("g", "events", 10)
	if err != nil || len(empty) != 0 {
		t.Fatalf("poll at end = %v, %v", empty, err)
	}
	if _, err := b.Committed("g", "events", 5); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("bad partition err = %v", err)
	}
	if err := b.CommitPolled("g", "missing"); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown topic err = %v", err)
	}
}

func TestKeyOrderingWithinPartition(t *testing.T) {
	b := newTestBroker(t, 8)
	const perKey = 20
	keys := []string{"camera-1", "camera-2", "camera-3", "camera-4"}
	for i := 0; i < perKey; i++ {
		for _, k := range keys {
			if _, _, err := b.Produce("events", k, []byte(fmt.Sprintf("%s:%d", k, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// All records of one key land in one partition, in production order.
	all := drainAll(t, b, "g", "events", 16)
	for _, k := range keys {
		var seq []string
		parts := make(map[int]bool)
		for _, r := range all {
			if r.Key == k {
				seq = append(seq, string(r.Value))
				parts[r.Partition] = true
			}
		}
		if len(seq) != perKey || len(parts) != 1 {
			t.Fatalf("key %s: %d records across %d partitions, want %d in one", k, len(seq), len(parts), perKey)
		}
		for i, v := range seq {
			if v != fmt.Sprintf("%s:%d", k, i) {
				t.Fatalf("key %s out of order at %d: %s", k, i, v)
			}
		}
	}
}

func TestConsumerGroupPollAndLag(t *testing.T) {
	b := newTestBroker(t, 4)
	const n = 40
	for i := 0; i < n; i++ {
		if _, _, err := b.Produce("events", strconv.Itoa(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	lag, err := b.Lag("g1", "events")
	if err != nil {
		t.Fatal(err)
	}
	if lag != n {
		t.Fatalf("initial lag = %d", lag)
	}
	if seen := len(drainAll(t, b, "g1", "events", 7)); seen != n {
		t.Fatalf("group consumed %d, want %d", seen, n)
	}
	lag, _ = b.Lag("g1", "events")
	if lag != 0 {
		t.Fatalf("final lag = %d", lag)
	}
	// A different group sees everything again.
	lag2, _ := b.Lag("g2", "events")
	if lag2 != n {
		t.Fatalf("fresh group lag = %d", lag2)
	}
}

func TestProduceIsolatesValueBuffer(t *testing.T) {
	b := newTestBroker(t, 1)
	buf := []byte("original")
	if _, _, err := b.Produce("events", "k", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "mutated!")
	recs, _ := b.Poll("g", "events", 1)
	if len(recs) != 1 || string(recs[0].Value) != "original" {
		t.Fatal("broker must copy the value at the boundary")
	}
}

func TestConcurrentProducersConsistent(t *testing.T) {
	b := newTestBroker(t, 4)
	const producers, each = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := b.Produce("events", strconv.Itoa(p), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	total, err := b.Lag("g", "events")
	if err != nil {
		t.Fatal(err)
	}
	if total != producers*each {
		t.Fatalf("total records = %d, want %d", total, producers*each)
	}
}

// Property: offsets within a partition are dense, starting at 0.
func TestOffsetsDenseProperty(t *testing.T) {
	f := func(keys []string) bool {
		if len(keys) > 200 {
			keys = keys[:200]
		}
		b := newSingleNode(t)
		if err := b.CreateTopic("t", 3); err != nil {
			return false
		}
		for _, k := range keys {
			if _, _, err := b.Produce("t", k, nil); err != nil {
				return false
			}
		}
		// A poll walks each partition in offset order, so the next offset
		// seen on a partition must be exactly the count seen so far.
		var next [3]int64
		recs := drainAll(t, b, "g", "t", 50)
		for _, r := range recs {
			if r.Partition < 0 || r.Partition >= 3 || r.Offset != next[r.Partition] {
				return false
			}
			next[r.Partition]++
		}
		return len(recs) == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConsumerGroupRebalance: a second member joining a group mid-consumption
// must pick up exactly where the group's committed offsets stand — between
// the two members every record is delivered exactly once, nothing is
// re-polled, and the group's committed offsets reach the log end.
func TestConsumerGroupRebalance(t *testing.T) {
	const partitions, records = 4, 200
	b := newTestBroker(t, partitions)
	for i := 0; i < records; i++ {
		if _, _, err := b.Produce("events", fmt.Sprintf("key-%d", i), []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[string]string) // "partition/offset" → which member got it
	var ends [partitions]int64      // log end per partition, from the offsets seen
	drain := func(member string, max int) int {
		recs, err := b.Poll("g", "events", max)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			key := fmt.Sprintf("%d/%d", r.Partition, r.Offset)
			if prev, dup := seen[key]; dup {
				t.Fatalf("record %s delivered to both %s and %s", key, prev, member)
			}
			seen[key] = member
			if r.Offset+1 > ends[r.Partition] {
				ends[r.Partition] = r.Offset + 1
			}
		}
		// Each member commits what it was handed before the other polls.
		if err := b.CommitPolled("g", "events"); err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}

	// Member A consumes part of the backlog alone.
	got := drain("member-a", 70)
	if got != 70 {
		t.Fatalf("member-a first drain = %d", got)
	}
	// Member B joins the same group mid-consumption; both keep polling in
	// alternation until the group has drained the topic.
	for {
		n := drain("member-b", 25)
		n += drain("member-a", 25)
		if n == 0 {
			break
		}
	}

	if len(seen) != records {
		t.Fatalf("group consumed %d distinct records, want %d", len(seen), records)
	}
	for p := 0; p < partitions; p++ {
		committed, err := b.Committed("g", "events", p)
		if err != nil {
			t.Fatal(err)
		}
		if committed != ends[p] {
			t.Fatalf("partition %d committed = %d, end = %d", p, committed, ends[p])
		}
	}
	if lag, err := b.Lag("g", "events"); err != nil || lag != 0 {
		t.Fatalf("post-drain lag = %d, err %v", lag, err)
	}
	// A third poll after the rebalance-drain re-delivers nothing.
	if recs, err := b.Poll("g", "events", records); err != nil || len(recs) != 0 {
		t.Fatalf("post-drain poll = %d records, err %v", len(recs), err)
	}
}

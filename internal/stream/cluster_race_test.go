package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestClusterConcurrentChaos hammers one cluster from four directions at
// once — producers, a polling/committing consumer, a leader-killing chaos
// goroutine, and the controller tick loop — and then audits the surviving
// log. Run under -race this is the memory-safety proof for the whole
// replication path; the invariant checked afterwards is the durability one:
// every acknowledged produce is readable exactly once by a fresh group.
func TestClusterConcurrentChaos(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 3, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("events", 4); err != nil {
		t.Fatal(err)
	}

	const (
		producers   = 4
		perProducer = 150
	)
	var (
		finite sync.WaitGroup // producers + chaos: run to completion
		loops  sync.WaitGroup // consumer + ticker: run until stop closes
		acked  atomic.Int64
		stop   = make(chan struct{})
	)

	// Producers: keep writing through failovers, retrying the retryable
	// unavailability errors a real client would.
	for pr := 0; pr < producers; pr++ {
		finite.Add(1)
		go func(pr int) {
			defer finite.Done()
			for i := 0; i < perProducer; i++ {
				key := fmt.Sprintf("p%d-%d", pr, i)
				for {
					_, _, err := c.Produce("events", key, []byte(key))
					if err == nil {
						acked.Add(1)
						break
					}
					if !errors.Is(err, ErrNoLeader) {
						t.Errorf("produce %s: %v", key, err)
						return
					}
					c.Tick() // a stuck producer nudges the controller, like a client forcing a metadata refresh
				}
			}
		}(pr)
	}

	// Consumer: poll-then-commit loop on its own group.
	loops.Add(1)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			recs, err := c.Poll("live", "events", 32)
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			if len(recs) > 0 {
				if err := c.CommitPolled("live", "events"); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}
	}()

	// Chaos: crash whoever currently leads partition 0, tick an election
	// through, restart, and let catch-up run — in a tight loop.
	finite.Add(1)
	go func() {
		defer finite.Done()
		for i := 0; i < 40; i++ {
			leader, _, err := c.LeaderEpoch("events", 0)
			if err != nil {
				t.Errorf("leader lookup: %v", err)
				return
			}
			if leader == -1 {
				c.Tick()
				continue
			}
			if err := c.CrashNode(leader); err != nil {
				continue // lost the race with another state change; fine
			}
			c.Tick()
			if err := c.RestartNode(leader); err != nil {
				t.Errorf("restart %d: %v", leader, err)
				return
			}
			c.Tick()
		}
	}()

	// Controller heartbeat alongside everything else.
	loops.Add(1)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Tick()
			}
		}
	}()

	finite.Wait()
	close(stop)
	loops.Wait()
	if t.Failed() {
		return
	}

	// Quiesce: restart anything dead, tick until fully replicated.
	for id := 0; id < c.NodeCount(); id++ {
		if !c.NodeUp(id) {
			if err := c.RestartNode(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8 && (c.UnderReplicated() > 0 || c.Leaderless() > 0); i++ {
		c.Tick()
	}
	if c.UnderReplicated() > 0 || c.Leaderless() > 0 {
		t.Fatalf("cluster did not converge: underReplicated=%d leaderless=%d",
			c.UnderReplicated(), c.Leaderless())
	}

	// Durability audit: every acked record present exactly once.
	seen := make(map[string]int)
	for {
		recs, err := c.Poll("audit", "events", 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			seen[string(r.Value)]++
		}
		if err := c.CommitPolled("audit", "events"); err != nil {
			t.Fatal(err)
		}
	}
	if int64(len(seen)) != acked.Load() {
		t.Fatalf("audit saw %d distinct records, acked %d", len(seen), acked.Load())
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("record %s appears %d times in the log", k, n)
		}
	}
}

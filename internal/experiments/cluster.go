package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/stream"
	"repro/internal/viz"
)

// E22ClusterFailover kills the broker node leading a tweets partition at a
// seeded random tick mid-ingest and proves the replicated cluster's failover
// contract: the partition is unavailable (never silently lossy) until the
// next controller tick, a clean leader is elected from the ISR within the
// 3-tick budget with a bumped epoch that fences the old leader's producers,
// ingestion continues through the under-replicated window, the restarted
// node catches back up until the cluster is fully replicated again, and a
// full-log audit finds every acknowledged record exactly once — zero loss,
// zero duplicates. The broker-under-replicated alert rule must fire during
// the window and resolve after catch-up.
func E22ClusterFailover(rng *rand.Rand) (*Result, error) {
	seed := rng.Int63()
	inf, err := core.New(chaosConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	tweets := newTweetSource(seed)

	killTick := 3 + rng.Intn(4) // leader dies at a random tick in [3,6]
	restartTick := killTick + 3
	totalTicks := killTick + 6

	const ruleName = "broker-under-replicated"
	timeline := viz.NewTable("failover timeline — one monitor tick per row",
		"tick", "phase", "leaderless", "under-replicated", "elections", ruleName, "stored (cum)")
	fencing := viz.NewTable("epoch fencing probes", "probe", "outcome")

	var (
		total    core.PipelineStats
		victim   = -1
		ledByVic int
		probeP   = -1 // alerts partition led by the victim: the fencing probe target
		oldEpoch int64
		ruleHit  bool
	)

	for tick := 1; tick <= totalTicks; tick++ {
		// Controller pass first (elections, catch-up), then scrape + alerts,
		// then this tick's traffic — so after a kill, exactly one tick of
		// unavailability separates leadership loss from re-election.
		inf.MonitorTick()

		phase := "steady"
		switch {
		case tick == killTick:
			phase = "kill leader"
		case victim != -1 && tick == killTick+1:
			phase = "re-elected"
		case victim != -1 && tick < restartTick:
			phase = "node down"
		case victim != -1 && tick == restartTick:
			phase = "restart"
		case victim != -1 && tick > restartTick:
			phase = "catch-up"
		}

		if victim != -1 && tick == killTick+1 {
			// The election must have completed on this tick's controller pass.
			if n := inf.Broker.Leaderless(); n != 0 {
				return nil, fmt.Errorf("E22: %d partitions still leaderless one tick after the kill", n)
			}
			st := inf.Broker.Stats()
			if st.Elections < ledByVic {
				return nil, fmt.Errorf("E22: %d elections for %d lost leaderships", st.Elections, ledByVic)
			}
			if st.MaxFailoverTicks > 3 {
				return nil, fmt.Errorf("E22: failover took %d ticks, budget is 3", st.MaxFailoverTicks)
			}
			if st.UncleanElections != 0 {
				return nil, fmt.Errorf("E22: %d unclean elections in a clean-failover scenario", st.UncleanElections)
			}
			// The old leader's cached epoch is now fenced; the refreshed
			// epoch is accepted.
			if _, err := inf.Broker.ProduceWithEpoch("alerts", probeP, oldEpoch, "probe", []byte("x"), nil); !errors.Is(err, stream.ErrStaleEpoch) {
				return nil, fmt.Errorf("E22: stale-epoch produce after failover: %v, want ErrStaleEpoch", err)
			}
			fencing.AddRow(fmt.Sprintf("produce with pre-failover epoch %d", oldEpoch), "rejected: stale epoch")
			_, newEpoch, err := inf.Broker.LeaderEpoch("alerts", probeP)
			if err != nil {
				return nil, err
			}
			if newEpoch != oldEpoch+1 {
				return nil, fmt.Errorf("E22: epoch after failover = %d, want %d", newEpoch, oldEpoch+1)
			}
			if _, err := inf.Broker.ProduceWithEpoch("alerts", probeP, newEpoch, "probe", []byte("x"), nil); err != nil {
				return nil, fmt.Errorf("E22: produce with refreshed epoch %d: %v", newEpoch, err)
			}
			fencing.AddRow(fmt.Sprintf("produce with refreshed epoch %d", newEpoch), "accepted")
		}

		// Ingest this tick's tweet batch — including straight through the
		// under-replicated window.
		batch, err := tweets.batch(inf, 40)
		if err != nil {
			return nil, err
		}
		// Generated ids restart at tw-000000 each batch; qualify them by tick
		// so the exactly-once audit can tell 14 batches of 40 apart.
		for j := range batch {
			batch[j].ID = fmt.Sprintf("t%02d-%s", tick, batch[j].ID)
		}
		ps, err := inf.IngestTweets(batch)
		if err != nil {
			return nil, fmt.Errorf("E22: ingest at tick %d: %w", tick, err)
		}
		total.Collected += ps.Collected
		total.Stored += ps.Stored
		total.Dropped += ps.Dropped
		total.DeadLettered += ps.DeadLettered
		total.Retries += ps.Retries

		if tick == killTick {
			// Aim at whoever leads tweets partition 0 right now, remembering
			// an alerts partition it also leads for the fencing probes.
			victim, _, err = inf.Broker.LeaderEpoch("tweets", 0)
			if err != nil {
				return nil, err
			}
			for _, p := range inf.Broker.State().Partitions {
				if p.Leader == victim {
					ledByVic++
					if p.Topic == "alerts" && probeP == -1 {
						probeP = p.Partition
						oldEpoch = p.Epoch
					}
				}
			}
			if probeP == -1 {
				return nil, fmt.Errorf("E22: victim node %d leads no alerts partition to probe", victim)
			}
			if err := inf.Broker.CrashNode(victim); err != nil {
				return nil, err
			}
			// Between the crash and the next controller tick the partition
			// has no leader: produce fails retryably instead of acking into
			// the void.
			if _, err := inf.Broker.ProduceWithEpoch("alerts", probeP, oldEpoch, "probe", []byte("x"), nil); !errors.Is(err, stream.ErrNoLeader) {
				return nil, fmt.Errorf("E22: produce to leaderless partition: %v, want ErrNoLeader", err)
			}
			fencing.AddRow("produce during the leaderless window", "rejected: no leader")
		}
		if tick == restartTick {
			if err := inf.Broker.RestartNode(victim); err != nil {
				return nil, err
			}
		}

		state := ruleState(inf, ruleName).State
		if state == "firing" {
			ruleHit = true
		}
		timeline.AddRow(tick, phase, inf.Broker.Leaderless(), inf.Broker.UnderReplicated(),
			inf.Broker.Stats().Elections, state, total.Stored)
	}

	// Convergence: everything back up, fully replicated, every replica at
	// its partition's high watermark.
	if up := inf.Broker.NodesUp(); up != inf.Broker.NodeCount() {
		return nil, fmt.Errorf("E22: %d/%d nodes up at end", up, inf.Broker.NodeCount())
	}
	if n := inf.Broker.UnderReplicated(); n != 0 {
		return nil, fmt.Errorf("E22: %d partitions under-replicated after catch-up", n)
	}
	for _, p := range inf.Broker.State().Partitions {
		for i, end := range p.ReplicaEnds {
			if end != p.HighWatermark {
				return nil, fmt.Errorf("E22: %s/%d replica %d at %d, hw %d",
					p.Topic, p.Partition, i, end, p.HighWatermark)
			}
		}
	}
	if !ruleHit {
		return nil, fmt.Errorf("E22: %s never fired during the under-replicated window", ruleName)
	}
	if st := ruleState(inf, ruleName); st.State != "inactive" {
		return nil, fmt.Errorf("E22: %s still %q after catch-up", ruleName, st.State)
	}

	// Delivery audit: the pipeline lost nothing end to end…
	if total.Stored != total.Collected || total.Dropped != 0 || total.DeadLettered != 0 {
		return nil, fmt.Errorf("E22: delivery broke across failover: %+v", total)
	}
	docs, err := inf.DocDB.Collection("tweets").Find(docstore.Query{})
	if err != nil {
		return nil, err
	}
	if len(docs) != total.Collected {
		return nil, fmt.Errorf("E22: docstore holds %d tweets, collected %d", len(docs), total.Collected)
	}
	// …and the replicated log itself holds every acknowledged tweet exactly
	// once, read back by a fresh consumer group through the current leaders.
	seen := make(map[string]int)
	audited := 0
	for {
		recs, err := inf.Broker.Poll("e22-audit", "tweets", 256)
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			break
		}
		audited += len(recs)
		for _, r := range recs {
			seen[r.Headers["id"]]++
		}
		if err := inf.Broker.CommitPolled("e22-audit", "tweets"); err != nil {
			return nil, err
		}
	}
	if len(seen) != total.Collected || audited != total.Collected {
		return nil, fmt.Errorf("E22: audit read %d records, %d distinct ids; want %d of each",
			audited, len(seen), total.Collected)
	}
	for id, n := range seen {
		if n != 1 {
			return nil, fmt.Errorf("E22: tweet %s appears %d times in the log", id, n)
		}
	}

	st := inf.Broker.Stats()
	summary := viz.NewTable("failover summary", "metric", "value")
	summary.AddRow("kill tick (seeded random)", killTick)
	summary.AddRow("victim node", victim)
	summary.AddRow("partitions it led", ledByVic)
	summary.AddRow("elections (all clean)", st.Elections)
	summary.AddRow("failover latency (ticks)", st.MaxFailoverTicks)
	summary.AddRow("ISR shrinks / expands", fmt.Sprintf("%d / %d", st.ISRShrinks, st.ISRExpands))
	summary.AddRow("records caught up on restart", st.CatchUpRecords)
	summary.AddRow("acked records audited", audited)
	summary.AddRow("duplicates / losses", "0 / 0")
	summary.AddRow("dead-lettered / dropped", fmt.Sprintf("%d / %d", total.DeadLettered, total.Dropped))

	return &Result{
		ID: "E22", Title: "replicated broker — leader kill, ISR election, zero acked-record loss",
		Tables: []*viz.Table{timeline, fencing, summary},
		Notes: []string{
			fmt.Sprintf("node %d (leading %d partitions) was killed at seeded tick %d; every partition re-elected a clean ISR leader on the next controller tick — %d tick(s) of unavailability, inside the 3-tick budget",
				victim, ledByVic, killTick, st.MaxFailoverTicks),
			"produce during the leaderless window fails retryably (never acks into the void), and the pre-failover epoch is fenced afterwards — a zombie leader's producers cannot corrupt the new log",
			fmt.Sprintf("ingestion ran through the whole window: %d/%d tweets stored, and a fresh consumer group read every acknowledged record from the replicated log exactly once",
				total.Stored, total.Collected),
			"the broker-under-replicated alert fired while the dead node's replicas lagged and resolved once catch-up restored the full ISR",
		},
	}, nil
}

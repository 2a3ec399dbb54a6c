package hdfs

import "sync"

// SupervisorStats counts supervisor activity.
type SupervisorStats struct {
	Ticks           int
	RepairTicks     int // ticks that found under-replication
	ReplicasCreated int
	Errors          int
}

// Supervisor is the namenode's self-healing loop: it watches for
// under-replicated blocks and re-replicates them automatically, so a
// datanode failure degrades redundancy only until the next pass instead of
// waiting for an operator to call ReplicateMissing by hand. Tick is the only
// way it runs: the caller owns the schedule, so healing replays per seed.
type Supervisor struct {
	c *Cluster

	mu       sync.Mutex
	stats    SupervisorStats
	onRepair func(created int, err error)
}

// SetOnRepair installs a callback invoked after every tick that found
// under-replication — the state change an operator event log wants to
// record. The callback runs outside the supervisor's lock.
func (s *Supervisor) SetOnRepair(fn func(created int, err error)) {
	s.mu.Lock()
	s.onRepair = fn
	s.mu.Unlock()
}

// NewSupervisor builds a supervisor for the cluster.
func NewSupervisor(c *Cluster) *Supervisor { return &Supervisor{c: c} }

// Tick runs one scan-and-heal pass and returns how many replicas it
// created. A cluster with no under-replicated blocks is a cheap no-op.
func (s *Supervisor) Tick() (created int, err error) {
	under, _ := s.c.UnderReplicated()
	if under > 0 {
		created, err = s.c.ReplicateMissing()
	}
	s.mu.Lock()
	s.stats.Ticks++
	if under > 0 {
		s.stats.RepairTicks++
	}
	s.stats.ReplicasCreated += created
	if err != nil {
		s.stats.Errors++
	}
	fn := s.onRepair
	s.mu.Unlock()
	if under > 0 && fn != nil {
		fn(created, err)
	}
	return created, err
}

// Stats returns a snapshot of counters.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

package stream

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/profile"
)

// This file implements the replicated, multi-node broker the paper's
// fault-tolerant streaming backbone calls for ("even though some machines
// may fail, we can still access the data"): a Cluster of BrokerNodes each
// hosting partition replicas, with a deterministic per-partition leader
// elected from the in-sync replica set (ISR), epoch-numbered leadership for
// fencing stale producers, leader-side ack-after-ISR-replication produce,
// follower catch-up with high-watermark truncation on leader change, and
// consumer groups whose polls transparently redirect to new leaders.
//
// The replication model mirrors Kafka's ISR design at simulation scale:
//
//   - Every partition is assigned Replication replicas across distinct
//     nodes; the first assigned replica is the initial leader at epoch 1.
//   - A produce is acknowledged only after the record is appended to the
//     leader and every follower still in the ISR. A follower that is down,
//     or whose replication round is failed by the fault hook, is dropped
//     from the ISR before the append (the ISR shrinks); the append itself
//     is atomic across the surviving ISR, so an acknowledged record is on
//     every ISR member and any future leader elected from the ISR has it.
//   - If fewer than MinISR replicas (including the leader) would carry the
//     record, the produce is rejected with ErrNotEnoughReplicas and nothing
//     is appended — unavailable, never silently lossy.
//   - When a leader's node crashes the partition becomes leaderless;
//     the next Tick elects a new leader from the live ISR members and bumps
//     the epoch. If no ISR member is alive the partition stays unavailable
//     until one restarts (clean mode), or — with AllowUnclean — the live
//     replica holding most of the log is elected at the documented risk
//     of losing acknowledged records.
//   - Tick also drives follower catch-up: a live replica first truncates to
//     its divergence point (records past it were written under an epoch an
//     unclean election superseded), then takes the leader's missing suffix
//     (subject to the fault hook), and a caught-up replica rejoins the ISR.
//
// A partition stores each record once: one log in fixed-size segments that
// are allocated as the log reaches them and never grown or copied. A replica
// is an offset into that log, its end, plus a divergence bound that only an
// unclean election sets: the replica's records from the bound on are not the
// log's. The high watermark of a partition is its leader's end: because the
// ISR append is atomic, every ISR member is always exactly at the HW, and
// consumers are never served a record that could disappear in a clean
// failover.

// Replication/election sentinel errors.
var (
	ErrBadCluster        = fmt.Errorf("stream: invalid cluster configuration")
	ErrBadNode           = fmt.Errorf("stream: node id out of range")
	ErrNodeDown          = fmt.Errorf("stream: node is down")
	ErrNodeUp            = fmt.Errorf("stream: node already up")
	ErrNoLeader          = fmt.Errorf("stream: partition has no leader")
	ErrNotEnoughReplicas = fmt.Errorf("stream: in-sync replicas below min.insync")
	ErrStaleEpoch        = fmt.Errorf("stream: produce fenced by stale leader epoch")
)

// ClusterConfig sizes a replicated broker cluster.
type ClusterConfig struct {
	// Nodes is the number of broker nodes (>= Replication).
	Nodes int
	// Replication is the number of replicas per partition.
	Replication int
	// MinISR is the minimum in-sync replica count (leader included) needed
	// to acknowledge a produce. 0 defaults to 1: the leader alone may ack,
	// trading durability for availability exactly like Kafka's default
	// min.insync.replicas.
	MinISR int
	// AllowUnclean permits electing a non-ISR (lagging) replica when every
	// ISR member is dead. Acknowledged records past the new leader's log
	// end are lost and counted in Stats().Truncated. Default false: the
	// partition stays unavailable instead.
	AllowUnclean bool
	// Now supplies record timestamps (nil = time.Now).
	Now func() time.Time
}

// ClusterStats counts replication and election activity since boot.
type ClusterStats struct {
	Elections         int // leader elections (clean + unclean)
	UncleanElections  int // elections that picked a non-ISR replica
	ISRShrinks        int // followers dropped from an ISR
	ISRExpands        int // followers that caught up and rejoined an ISR
	Crashes           int // node crashes
	Restarts          int // node restarts
	CatchUpRecords    int // records lagging followers caught up on
	Truncated         int // records discarded by truncation to a divergence point
	UnavailableErrors int // produces rejected: no leader or ISR below min
	StaleProduces     int // produces fenced by a stale epoch
	Ticks             int // controller ticks run
	LastFailoverTicks int // ticks from the most recent leadership loss to re-election
	MaxFailoverTicks  int // worst failover observed
}

// ClusterEvent is one replication/election state change, delivered to the
// observer installed with SetObserver.
type ClusterEvent struct {
	Kind          string // leader-lost | leader-elected | isr-shrink | isr-expand | truncate | node-crash | node-restart
	Topic         string
	Partition     int
	Node          int
	Epoch         int64
	FailoverTicks int  // leader-elected only
	Unclean       bool // leader-elected only
	Detail        string
}

// NodeState is one broker node's externally visible state.
type NodeState struct {
	ID       int  `json:"id"`
	Up       bool `json:"up"`
	Crashes  int  `json:"crashes"`
	Restarts int  `json:"restarts"`
	Replicas int  `json:"replicas"` // partition replicas hosted
	Leading  int  `json:"leading"`  // partitions currently led
}

// PartitionState is one partition's replication state.
type PartitionState struct {
	Topic         string  `json:"topic"`
	Partition     int     `json:"partition"`
	Leader        int     `json:"leader"` // -1 when leaderless
	Epoch         int64   `json:"epoch"`
	Replicas      []int   `json:"replicas"`
	ISR           []int   `json:"isr"`
	HighWatermark int64   `json:"highWatermark"`
	ReplicaEnds   []int64 `json:"replicaEnds"` // log end per replica, Replicas order
}

// ClusterState is the full cluster snapshot served at /api/cluster.
type ClusterState struct {
	Nodes           []NodeState      `json:"nodes"`
	Partitions      []PartitionState `json:"partitions"`
	UnderReplicated int              `json:"underReplicated"` // partitions with ISR below replication factor
	Leaderless      int              `json:"leaderless"`
	Stats           ClusterStats     `json:"stats"`
}

// brokerNode is one broker process's up/down state.
type brokerNode struct {
	up       bool
	crashes  int
	restarts int
}

const (
	segmentLen = 1024          // entries per log segment
	noBound    = math.MaxInt64 // divergence bound of a replica holding only the log's records
)

// entry is a record as its partition log stores it: what the record's
// address (topic, partition, offset) cannot give.
type entry struct {
	key     string
	value   []byte
	headers map[string]string
	time    time.Time
}

// replica is one node's copy of a partition: the log's first end records,
// those from bound on overwritten since an unclean election.
type replica struct {
	end, bound int64
}

// valid is how much of the log the replica holds.
func (r replica) valid() int64 { return min(r.end, r.bound) }

// clusterPart is the controller's metadata for one partition and its log.
type clusterPart struct {
	replicas   []int // node ids, assignment order; replicas[0] is the initial leader
	isr        []int // in-sync subset, ascending
	leader     int   // node id, -1 while leaderless
	epoch      int64
	lostAtTick int                  // controller tick when leadership was last lost
	segs       []*[segmentLen]entry // the log; the leader's end is its length
	reps       []replica            // by node id; only replicas' entries are used
}

// at returns the log entry at offset off.
func (part *clusterPart) at(off int64) *entry { return &part.segs[off/segmentLen][off%segmentLen] }

// clusterTopic holds a topic's partitions plus the round-robin cursor for
// empty-key produce.
type clusterTopic struct {
	parts []*clusterPart
	rr    uint64
}

// clusterGroup is a consumer group's offsets: committed is durable progress,
// polled is the extent of the last uncommitted Poll (redelivered until
// CommitPolled).
type clusterGroup struct {
	committed map[string][]int64
	polled    map[string][]int64
}

// Cluster is a replicated multi-node broker behind the Bus interface. It is
// safe for concurrent use; the controller (failure detection, elections,
// catch-up) runs inside Tick so failover latency is measured in ticks of
// the simulated clock, never in wall time.
type Cluster struct {
	mu        sync.Mutex
	cfg       ClusterConfig
	nodes     []*brokerNode
	topics    map[string]*clusterTopic
	groups    map[string]*clusterGroup
	now       func() time.Time
	stats     ClusterStats
	faultHook func(op string, node int) error
	observer  func(ClusterEvent)

	// Continuous-profiling regions, resolved once by SetProfiler; the nil
	// handles before wiring cost one branch per produce/poll.
	profAppend    *profile.Region
	profReplicate *profile.Region
	profPoll      *profile.Region
}

var _ Bus = (*Cluster)(nil)

// NewCluster boots cfg.Nodes empty broker nodes.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.MinISR == 0 {
		cfg.MinISR = 1
	}
	if cfg.Nodes < 1 || cfg.Replication < 1 || cfg.Replication > cfg.Nodes || cfg.MinISR > cfg.Replication {
		return nil, fmt.Errorf("%w: nodes=%d replication=%d minISR=%d",
			ErrBadCluster, cfg.Nodes, cfg.Replication, cfg.MinISR)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Cluster{
		cfg:    cfg,
		nodes:  make([]*brokerNode, cfg.Nodes),
		topics: make(map[string]*clusterTopic),
		groups: make(map[string]*clusterGroup),
		now:    cfg.Now,
	}
	for i := range c.nodes {
		c.nodes[i] = &brokerNode{up: true}
	}
	return c, nil
}

// SetClock overrides the cluster's record-timestamp clock.
func (c *Cluster) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// SetProfiler resolves the cluster's continuous-profiling regions: the
// leader-side append ("broker/append", with the ISR fan-out attributed to
// "broker/append/replicate") and the consumer read ("broker/poll"). nil
// detaches.
func (c *Cluster) SetProfiler(p *profile.Profiler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p == nil {
		c.profAppend, c.profReplicate, c.profPoll = nil, nil, nil
		return
	}
	c.profAppend = p.Region("broker/append")
	c.profReplicate = p.Region("broker/append/replicate")
	c.profPoll = p.Region("broker/poll")
}

// SetFaultHook installs the replication-lag injection seam. The hook is
// consulted once per follower per replication round with op "replicate"
// (leader-side fan-out during produce) or "catchup" (follower fetch during
// Tick); a non-nil error makes that follower miss the round. nil disables.
func (c *Cluster) SetFaultHook(hook func(op string, node int) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faultHook = hook
}

// SetObserver installs the replication/election event callback. The observer
// runs with the cluster lock held and must not call back into the cluster.
func (c *Cluster) SetObserver(fn func(ClusterEvent)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observer = fn
}

func (c *Cluster) emit(ev ClusterEvent) {
	if c.observer != nil {
		c.observer(ev)
	}
}

// CreateTopic registers a topic, assigning each partition's replicas
// round-robin across the nodes (replica j of partition p lands on node
// (p+j) mod Nodes) so leadership spreads evenly.
func (c *Cluster) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("%w: %d partitions", ErrBadPartition, partitions)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.topics[name]; ok {
		return fmt.Errorf("%w: %s", ErrTopicExists, name)
	}
	t := &clusterTopic{parts: make([]*clusterPart, partitions)}
	for p := range t.parts {
		replicas := make([]int, c.cfg.Replication)
		reps := make([]replica, c.cfg.Nodes)
		for j := range replicas {
			replicas[j] = (p + j) % c.cfg.Nodes
			reps[replicas[j]].bound = noBound
		}
		isr := append([]int(nil), replicas...)
		sort.Ints(isr)
		t.parts[p] = &clusterPart{replicas: replicas, isr: isr, leader: replicas[0], epoch: 1, reps: reps}
	}
	c.topics[name] = t
	return nil
}

// Topics lists topic names in sorted order.
func (c *Cluster) Topics() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.topics))
	for n := range c.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Partitions returns the partition count for a topic.
func (c *Cluster) Partitions(topicName string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	return len(t.parts), nil
}

// NodeCount returns the number of broker nodes (up or down).
func (c *Cluster) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// NodeUp reports whether a node is currently alive.
func (c *Cluster) NodeUp(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return id >= 0 && id < len(c.nodes) && c.nodes[id].up
}

// CrashNode takes a broker node down. Partitions it led become leaderless
// immediately (the crash is observable; re-election waits for the next
// Tick, which is how failover latency is measured); its ISR memberships are
// kept until a produce proves it missed data, so a full restart before any
// traffic loses nothing and costs no epoch bump.
func (c *Cluster) CrashNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("%w: %d of %d", ErrBadNode, id, len(c.nodes))
	}
	n := c.nodes[id]
	if !n.up {
		return fmt.Errorf("%w: node %d", ErrNodeDown, id)
	}
	n.up = false
	n.crashes++
	c.stats.Crashes++
	c.emit(ClusterEvent{Kind: "node-crash", Node: id})
	for name, t := range c.topics {
		for p, part := range t.parts {
			if part.leader == id {
				part.leader = -1
				part.lostAtTick = c.stats.Ticks
				c.emit(ClusterEvent{Kind: "leader-lost", Topic: name, Partition: p, Node: id, Epoch: part.epoch})
			}
		}
	}
	return nil
}

// RestartNode brings a crashed node back with its logs intact. It rejoins
// each partition as a follower and is caught up (and re-admitted to the
// ISR) by subsequent Ticks; if it is the only remaining ISR member of a
// leaderless partition, the next Tick re-elects it with no data loss.
func (c *Cluster) RestartNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("%w: %d of %d", ErrBadNode, id, len(c.nodes))
	}
	n := c.nodes[id]
	if n.up {
		return fmt.Errorf("%w: node %d", ErrNodeUp, id)
	}
	n.up = true
	n.restarts++
	c.stats.Restarts++
	c.emit(ClusterEvent{Kind: "node-restart", Node: id})
	return nil
}

// Produce appends a record through the partition leader, routing non-empty
// keys by hash (per-key order is preserved within a partition). Empty keys
// are routed round-robin across partitions to avoid hotspotting one
// partition — which means records produced with an empty key carry no
// relative ordering guarantee at all; callers that need ordering must key
// their records.
func (c *Cluster) Produce(topicName, key string, value []byte) (int, int64, error) {
	return c.ProduceH(topicName, key, value, nil)
}

// ProduceH is Produce with per-record headers. The record is acknowledged
// only after it is appended to the leader and every in-sync follower; see
// the package commentary on ISR shrink and MinISR rejection.
func (c *Cluster) ProduceH(topicName, key string, value []byte, headers map[string]string) (int, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[topicName]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	var p int
	if key == "" {
		p = int(t.rr % uint64(len(t.parts)))
		t.rr++
	} else {
		p = partitionFor(key, len(t.parts))
	}
	off, err := c.produceLocked(topicName, t, p, key, value, headers)
	return p, off, err
}

// ProduceWithEpoch appends to an explicit partition on behalf of a producer
// holding cached routing metadata: the call is fenced by the leader epoch it
// presents and rejected with ErrStaleEpoch if leadership has moved on —
// exactly how a zombie leader's writes are kept out of the log after a
// failover.
func (c *Cluster) ProduceWithEpoch(topicName string, partitionID int, epoch int64, key string, value []byte, headers map[string]string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	if partitionID < 0 || partitionID >= len(t.parts) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadPartition, partitionID, len(t.parts))
	}
	if t.parts[partitionID].epoch != epoch {
		c.stats.StaleProduces++
		return 0, fmt.Errorf("%w: presented %d, current %d", ErrStaleEpoch, epoch, t.parts[partitionID].epoch)
	}
	return c.produceLocked(topicName, t, partitionID, key, value, headers)
}

// LeaderEpoch returns a partition's current leader (-1 while leaderless)
// and epoch — the routing metadata an epoch-fenced producer caches.
func (c *Cluster) LeaderEpoch(topicName string, partitionID int) (leader int, epoch int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[topicName]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	if partitionID < 0 || partitionID >= len(t.parts) {
		return 0, 0, fmt.Errorf("%w: %d of %d", ErrBadPartition, partitionID, len(t.parts))
	}
	part := t.parts[partitionID]
	return part.leader, part.epoch, nil
}

// produceLocked runs the leader-side replication protocol for one record.
// Replication outcomes are decided before anything is appended, so the
// append is atomic across the surviving ISR: an acknowledged record is on
// every ISR member, and a rejected produce leaves no partial state for a
// retry to duplicate.
func (c *Cluster) produceLocked(topicName string, t *clusterTopic, p int, key string, value []byte, headers map[string]string) (int64, error) {
	spAppend := c.profAppend.Start()
	part := t.parts[p]
	if part.leader == -1 || !c.nodes[part.leader].up {
		spAppend.End()
		if part.leader != -1 {
			// Defensive: a crash always clears leadership, but never ack
			// through a dead leader.
			part.leader = -1
			part.lostAtTick = c.stats.Ticks
		}
		c.stats.UnavailableErrors++
		return 0, fmt.Errorf("%w: %s/%d (epoch %d)", ErrNoLeader, topicName, p, part.epoch)
	}
	// Decide each in-sync follower's replication round first. Everything
	// from here to the acknowledged append is the replication protocol and
	// is attributed to broker/append/replicate. Both spans end together on
	// each exit (a deferred End would bill the caller's epilogue to
	// replication) and share the append span's start reading — two clock
	// reads per record instead of four, at the cost of billing the
	// nanoseconds of the leader check above to replicate instead of append.
	spReplicate := c.profReplicate.StartAt(spAppend.StartTime())
	var buf [8]int
	survivors := buf[:0] // a subsequence of the ISR, so ascending too
	var dropped []int
	for _, n := range part.isr {
		if n == part.leader {
			survivors = append(survivors, n)
			continue
		}
		if !c.nodes[n].up {
			dropped = append(dropped, n)
			continue
		}
		if c.faultHook != nil {
			if err := c.faultHook("replicate", n); err != nil {
				dropped = append(dropped, n)
				continue
			}
		}
		survivors = append(survivors, n)
	}
	if len(survivors) < c.cfg.MinISR {
		at := profile.Now()
		spReplicate.EndAt(at)
		spAppend.EndAt(at)
		// Not enough in-sync copies would carry the record: reject without
		// touching any log or the ISR, so a later retry can succeed cleanly.
		c.stats.UnavailableErrors++
		return 0, fmt.Errorf("%w: %s/%d would ack on %d < %d replicas",
			ErrNotEnoughReplicas, topicName, p, len(survivors), c.cfg.MinISR)
	}
	off := part.reps[part.leader].end
	if off/segmentLen == int64(len(part.segs)) {
		part.segs = append(part.segs, new([segmentLen]entry))
	}
	v := make([]byte, len(value))
	copy(v, value)
	var h map[string]string
	if len(headers) > 0 {
		h = make(map[string]string, len(headers))
		for k, val := range headers {
			h[k] = val
		}
	}
	*part.at(off) = entry{key: key, value: v, headers: h, time: c.now()}
	for _, n := range survivors {
		part.reps[n].end = off + 1
	}
	if len(dropped) > 0 {
		part.isr = append(part.isr[:0], survivors...)
		c.stats.ISRShrinks += len(dropped)
		for _, n := range dropped {
			c.emit(ClusterEvent{Kind: "isr-shrink", Topic: topicName, Partition: p, Node: n, Epoch: part.epoch,
				Detail: fmt.Sprintf("missed offset %d", off)})
		}
	}
	at := profile.Now()
	spReplicate.EndAt(at)
	spAppend.EndAt(at)
	return off, nil
}

// group returns (creating) a consumer group's state.
func (c *Cluster) group(name string) *clusterGroup {
	g, ok := c.groups[name]
	if !ok {
		g = &clusterGroup{committed: make(map[string][]int64), polled: make(map[string][]int64)}
		c.groups[name] = g
	}
	return g
}

func (c *Cluster) groupOffsets(g *clusterGroup, m map[string][]int64, topicName string, parts int) []int64 {
	offs, ok := m[topicName]
	if !ok {
		offs = make([]int64, parts)
		m[topicName] = offs
	}
	return offs
}

// Poll reads up to max records for a consumer group starting at its
// committed offsets, reading each partition from its current leader up to
// the high watermark. Nothing is committed: polling again before
// CommitPolled redelivers the same records, so a consumer that crashes
// between poll and processing loses nothing (at-least-once). Leaderless
// partitions are skipped and served transparently after the next election — the
// consumer never learns a failover happened.
func (c *Cluster) Poll(groupName, topicName string, max int) ([]Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := c.profPoll.Start()
	defer sp.End()
	t, ok := c.topics[topicName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	g := c.group(groupName)
	committed := c.groupOffsets(g, g.committed, topicName, len(t.parts))
	polled := c.groupOffsets(g, g.polled, topicName, len(t.parts))
	copy(polled, committed)
	size := 0
	for p, part := range t.parts {
		if part.leader != -1 && c.nodes[part.leader].up && committed[p] < part.reps[part.leader].end {
			size = min(max, size+int(part.reps[part.leader].end-committed[p]))
		}
	}
	var out []Record
	if size > 0 {
		out = make([]Record, 0, size)
	}
	for p, part := range t.parts {
		if len(out) >= max {
			break
		}
		if part.leader == -1 || !c.nodes[part.leader].up {
			continue
		}
		end := part.reps[part.leader].end
		start := committed[p]
		if start > end {
			// Only possible after an unclean election truncated acknowledged
			// records; resume from the new log end rather than erroring the
			// consumer forever, and keep the next commit from moving back
			// past it.
			start = end
			committed[p], polled[p] = end, end
		}
		for o := start; o < end && len(out) < max; o++ {
			e := part.at(o)
			out = append(out, Record{Topic: topicName, Partition: p, Offset: o, Key: e.key, Value: e.value, Headers: e.headers, Time: e.time})
			polled[p] = o + 1
		}
	}
	return out, nil
}

// CommitPolled advances the group's committed offsets over exactly what the
// last Poll for this topic returned. Calling it after processing a batch
// completes the poll-then-commit flow; skipping it (a consumer crash)
// redelivers the batch — the documented duplicate bound is therefore one
// uncommitted batch per consumer-group failure.
func (c *Cluster) CommitPolled(groupName, topicName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[topicName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	g := c.group(groupName)
	polled, ok := g.polled[topicName]
	if !ok {
		return nil
	}
	committed := c.groupOffsets(g, g.committed, topicName, len(t.parts))
	for p := range committed {
		if polled[p] > committed[p] {
			committed[p] = polled[p]
		}
	}
	return nil
}

// Committed returns a group's committed offset for a partition.
func (c *Cluster) Committed(groupName, topicName string, partitionID int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	if partitionID < 0 || partitionID >= len(t.parts) {
		return 0, fmt.Errorf("%w: %d", ErrBadPartition, partitionID)
	}
	g, ok := c.groups[groupName]
	if !ok {
		return 0, nil
	}
	offs, ok := g.committed[topicName]
	if !ok {
		return 0, nil
	}
	return offs[partitionID], nil
}

// Lag returns the records a group has not yet committed across a topic,
// measured against each partition's high watermark (leaderless partitions
// use their most advanced live replica).
func (c *Cluster) Lag(groupName, topicName string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTopic, topicName)
	}
	g := c.groups[groupName]
	var lag int64
	for p, part := range t.parts {
		end := c.hwLocked(part)
		var committed int64
		if g != nil {
			if offs, ok := g.committed[topicName]; ok {
				committed = offs[p]
			}
		}
		if end > committed {
			lag += end - committed
		}
	}
	return lag, nil
}

// hwLocked computes a partition's high watermark: the leader's log end, or
// the most advanced live replica's end while leaderless.
func (c *Cluster) hwLocked(part *clusterPart) int64 {
	if part.leader != -1 && c.nodes[part.leader].up {
		return part.reps[part.leader].end
	}
	var hw int64
	for _, n := range part.replicas {
		if c.nodes[n].up && part.reps[n].end > hw {
			hw = part.reps[n].end
		}
	}
	return hw
}

// Tick runs one controller pass on the simulated tick clock: elect leaders
// for leaderless partitions from their live ISR members (epoch bump,
// failover latency measured in ticks), catch lagging live followers up to
// their leader — truncating any replica to its divergence point first —
// and re-admit caught-up followers to the ISR. The core monitoring loop
// calls it once per scrape tick, so "election within N ticks" and "alert
// within N ticks" share a clock.
func (c *Cluster) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Ticks++
	for name, t := range c.topics {
		for p, part := range t.parts {
			c.electLocked(name, part, p)
			c.catchUpLocked(name, part, p)
		}
	}
}

// electLocked fills a leaderless partition's leadership from the live ISR
// (or, with AllowUnclean, the most caught-up live replica).
func (c *Cluster) electLocked(topicName string, part *clusterPart, p int) {
	if part.leader != -1 && c.nodes[part.leader].up {
		return
	}
	if part.leader != -1 {
		// Leader died without CrashNode clearing it (defensive).
		part.leader = -1
		part.lostAtTick = c.stats.Ticks - 1
	}
	newLeader, unclean := -1, false
	// Clean election: first live ISR member in assignment order. ISR
	// members hold identical logs, so assignment order is a deterministic
	// tie-break, not a durability choice.
	for _, n := range part.replicas {
		if c.nodes[n].up && contains(part.isr, n) {
			newLeader = n
			break
		}
	}
	var best int64 = -1
	if newLeader == -1 && c.cfg.AllowUnclean {
		// Unclean election: the live replica holding most of the log,
		// accepting the loss of acknowledged records beyond that.
		for _, n := range part.replicas {
			if c.nodes[n].up && part.reps[n].valid() > best {
				best, newLeader, unclean = part.reps[n].valid(), n, true
			}
		}
	}
	if newLeader == -1 {
		return // unavailable until an ISR member (or any replica, unclean) returns
	}
	part.leader = newLeader
	part.epoch++
	if unclean {
		// The new leader defines the log: the log ends where the leader's
		// share of it ends, every replica past that diverges there, and the
		// leader alone is in sync until the others truncate and catch up.
		for _, n := range part.replicas {
			part.reps[n].bound = min(part.reps[n].bound, best)
		}
		c.truncateLocked(topicName, part, p, newLeader)
		for o := best; o < int64(len(part.segs))*segmentLen; o = (o/segmentLen + 1) * segmentLen {
			clear(part.segs[o/segmentLen][o%segmentLen:]) // release what the dropped entries hold
		}
		part.isr = append(part.isr[:0], newLeader)
		c.stats.UncleanElections++
	}
	c.stats.Elections++
	failover := c.stats.Ticks - part.lostAtTick
	c.stats.LastFailoverTicks = failover
	if failover > c.stats.MaxFailoverTicks {
		c.stats.MaxFailoverTicks = failover
	}
	c.emit(ClusterEvent{Kind: "leader-elected", Topic: topicName, Partition: p, Node: newLeader,
		Epoch: part.epoch, FailoverTicks: failover, Unclean: unclean})
}

// truncateLocked cuts node n's replica back to its divergence point: the
// records past it were acknowledged, if at all, under a superseded epoch.
func (c *Cluster) truncateLocked(topicName string, part *clusterPart, p, n int) {
	r := &part.reps[n]
	if to := r.valid(); r.end > to {
		c.stats.Truncated += int(r.end - to)
		c.emit(ClusterEvent{Kind: "truncate", Topic: topicName, Partition: p, Node: n, Epoch: part.epoch,
			Detail: fmt.Sprintf("%d records past offset %d", r.end-to, to)})
		r.end = to
	}
	r.bound = noBound
}

// catchUpLocked truncates divergent live followers, advances lagging ones
// to the leader's end, and restores caught-up followers to the ISR.
func (c *Cluster) catchUpLocked(topicName string, part *clusterPart, p int) {
	if part.leader == -1 || !c.nodes[part.leader].up {
		return
	}
	hw := part.reps[part.leader].end
	for _, n := range part.replicas {
		if n == part.leader || !c.nodes[n].up {
			continue
		}
		c.truncateLocked(topicName, part, p, n)
		r := &part.reps[n]
		if r.end < hw {
			if c.faultHook != nil {
				if err := c.faultHook("catchup", n); err != nil {
					continue // this round failed; retry next tick
				}
			}
			c.stats.CatchUpRecords += int(hw - r.end)
			r.end = hw
		}
		if r.end == hw && !contains(part.isr, n) {
			part.isr = append(part.isr, n)
			sort.Ints(part.isr)
			c.stats.ISRExpands++
			c.emit(ClusterEvent{Kind: "isr-expand", Topic: topicName, Partition: p, Node: n, Epoch: part.epoch})
		}
	}
}

// Stats returns a snapshot of the replication/election counters.
func (c *Cluster) Stats() ClusterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// NodesUp counts live broker nodes.
func (c *Cluster) NodesUp() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, nd := range c.nodes {
		if nd.up {
			n++
		}
	}
	return n
}

// UnderReplicated counts partitions whose ISR is below the replication
// factor — the canonical Kafka health signal.
func (c *Cluster) UnderReplicated() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.topics {
		for _, part := range t.parts {
			if len(part.isr) < c.cfg.Replication {
				n++
			}
		}
	}
	return n
}

// Leaderless counts partitions currently without a live leader.
func (c *Cluster) Leaderless() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.topics {
		for _, part := range t.parts {
			if part.leader == -1 || !c.nodes[part.leader].up {
				n++
			}
		}
	}
	return n
}

// State snapshots the whole cluster for /api/cluster and the watch
// dashboard: nodes, per-partition leadership/ISR/high-watermark, and the
// replication counters. Ordering is deterministic (topics sorted,
// partitions in index order).
func (c *Cluster) State() ClusterState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClusterState{Stats: c.stats}
	leading := make([]int, len(c.nodes))
	hosting := make([]int, len(c.nodes))
	names := make([]string, 0, len(c.topics))
	for n := range c.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.topics[name]
		for p, part := range t.parts {
			ps := PartitionState{
				Topic: name, Partition: p,
				Leader: part.leader, Epoch: part.epoch,
				Replicas:      append([]int(nil), part.replicas...),
				ISR:           append([]int(nil), part.isr...),
				HighWatermark: c.hwLocked(part),
			}
			if part.leader != -1 && !c.nodes[part.leader].up {
				ps.Leader = -1
			}
			for _, n := range part.replicas {
				ps.ReplicaEnds = append(ps.ReplicaEnds, part.reps[n].end)
				hosting[n]++
			}
			if ps.Leader == -1 {
				st.Leaderless++
			} else {
				leading[ps.Leader]++
			}
			if len(part.isr) < c.cfg.Replication {
				st.UnderReplicated++
			}
			st.Partitions = append(st.Partitions, ps)
		}
	}
	for i, n := range c.nodes {
		st.Nodes = append(st.Nodes, NodeState{
			ID: i, Up: n.up, Crashes: n.crashes, Restarts: n.restarts,
			Replicas: hosting[i], Leading: leading[i],
		})
	}
	return st
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

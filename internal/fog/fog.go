// Package fog simulates the paper's four-tier fog-computing hardware layer
// (Fig. 3): edge devices, fog nodes, analysis servers, and the federated
// cloud, connected by links with latency and bandwidth. A discrete-event
// simulator with per-node and per-link FIFO queueing measures end-to-end
// latency, upstream bytes, and tier utilization for workloads expressed as
// compute/transfer step sequences — which is exactly what is needed to
// quantify the early-exit offload architecture of Figs. 5 and 7.
package fog

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"repro/internal/profile"
)

// Sentinel errors.
var (
	ErrNodeExists  = errors.New("fog: node already exists")
	ErrNoNode      = errors.New("fog: node not found")
	ErrNoLink      = errors.New("fog: link not found")
	ErrBadCapacity = errors.New("fog: non-positive capacity")
	ErrBadJob      = errors.New("fog: invalid job")
)

// Tier enumerates the four tiers of the paper's architecture.
type Tier int

const (
	// Edge devices: smartphones, Raspberry Pis (data collection, light filtering).
	Edge Tier = iota + 1
	// Fog nodes: embedded devices such as NVIDIA Jetson (first model layers).
	Fog
	// Server: analysis servers (full models, training).
	Server
	// Cloud: federated cloud (long-term storage, mining).
	Cloud
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case Edge:
		return "edge"
	case Fog:
		return "fog"
	case Server:
		return "server"
	case Cloud:
		return "cloud"
	default:
		return "unknown"
	}
}

// Node is one device in the topology.
type Node struct {
	Tier Tier
	// OpsPerMs is compute throughput; a ComputeStep of N ops takes N/OpsPerMs
	// milliseconds.
	OpsPerMs float64
}

// Link is a directed connection with propagation latency and bandwidth.
type Link struct {
	LatencyMs float64
	// BytesPerMs is link bandwidth; a TransferStep of B bytes occupies the
	// link for B/BytesPerMs milliseconds after the latency.
	BytesPerMs float64
}

// Topology is the device/link graph.
type Topology struct {
	nodes map[string]*Node
	links map[string]*Link // key "from→to"

	// Continuous-profiling region for Run, resolved once by SetProfiler.
	profRun *profile.Region
}

// SetProfiler attributes event-driven simulation runs ("fog/simulate") to a
// continuous-profiling region. nil detaches. Not safe to call concurrently
// with Run (topologies are built, wired, then run).
func (t *Topology) SetProfiler(p *profile.Profiler) {
	if p == nil {
		t.profRun = nil
		return
	}
	t.profRun = p.Region("fog/simulate")
}

// NewTopology creates an empty topology.
func NewTopology() *Topology {
	return &Topology{nodes: make(map[string]*Node), links: make(map[string]*Link)}
}

// AddNode registers a device.
func (t *Topology) AddNode(id string, tier Tier, opsPerMs float64) error {
	if opsPerMs <= 0 {
		return fmt.Errorf("%w: node %s ops %g", ErrBadCapacity, id, opsPerMs)
	}
	if _, ok := t.nodes[id]; ok {
		return fmt.Errorf("%w: %s", ErrNodeExists, id)
	}
	t.nodes[id] = &Node{Tier: tier, OpsPerMs: opsPerMs}
	return nil
}

// AddLink registers a directed link.
func (t *Topology) AddLink(from, to string, latencyMs, bytesPerMs float64) error {
	if bytesPerMs <= 0 || latencyMs < 0 {
		return fmt.Errorf("%w: link %s→%s", ErrBadCapacity, from, to)
	}
	if _, ok := t.nodes[from]; !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, from)
	}
	if _, ok := t.nodes[to]; !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, to)
	}
	t.links[from+"→"+to] = &Link{LatencyMs: latencyMs, BytesPerMs: bytesPerMs}
	return nil
}

// Node returns a node by id.
func (t *Topology) Node(id string) (*Node, error) {
	n, ok := t.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, id)
	}
	return n, nil
}

// Link returns a link by endpoints.
func (t *Topology) Link(from, to string) (*Link, error) {
	l, ok := t.links[from+"→"+to]
	if !ok {
		return nil, fmt.Errorf("%w: %s→%s", ErrNoLink, from, to)
	}
	return l, nil
}

// NodesByTier lists node ids in a tier, sorted.
func (t *Topology) NodesByTier(tier Tier) []string {
	var out []string
	for id, n := range t.nodes {
		if n.Tier == tier {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Step is one stage of a job: either compute on a node or transfer over a
// link.
type Step interface{ isStep() }

// ComputeStep executes Ops operations on node NodeID.
type ComputeStep struct {
	NodeID string
	Ops    float64
}

func (ComputeStep) isStep() {}

// TransferStep moves Bytes over the From→To link.
type TransferStep struct {
	From, To string
	Bytes    int
}

func (TransferStep) isStep() {}

// Job is a released-at-time sequence of steps (e.g., one frame's inference).
type Job struct {
	ID        string
	ReleaseMs float64
	Steps     []Step
	// Headers carry propagated metadata — most importantly trace context —
	// through the simulator: results retain them, so a job's per-step
	// timeline can be replayed as spans into the trace that released it.
	Headers map[string]string
}

// StepTiming is one step's position on the simulated timeline: the stage
// label ("fog" for compute, "fog→server" for transfers), when its queueing
// wait began, and how the time split between waiting and service.
type StepTiming struct {
	Stage     string
	ReadyMs   float64 // when the step became runnable (wait starts here)
	WaitMs    float64
	ServiceMs float64
}

// JobResult records one job's outcome.
type JobResult struct {
	ID            string
	StartMs       float64
	FinishMs      float64
	LatencyMs     float64
	UpstreamBytes int
	Headers       map[string]string
	// Timeline lists the job's steps in execution order. Waits and services
	// chain gaplessly from release to finish, so Σ(Wait+Service) equals
	// LatencyMs exactly.
	Timeline []StepTiming
}

// PathStat attributes latency to one stage of the tiered path: WaitMs is
// time spent queued for the stage's resource, ServiceMs is time spent being
// processed by it.
type PathStat struct {
	WaitMs    float64
	ServiceMs float64
}

// Results aggregates a simulation run.
type Results struct {
	Jobs       []JobResult
	MeanMs     float64
	P95Ms      float64
	TotalBytes int
	// BusyByTier maps tier → busy compute milliseconds.
	BusyByTier map[Tier]float64
	// BytesByLink maps "from→to" → bytes transferred.
	BytesByLink map[string]int
	MakespanMs  float64
	// Attribution decomposes latency per stage: keys are tier names
	// ("edge", "fog", ...) for compute steps and tier pairs
	// ("edge→fog", ...) for transfer steps. Because each job's steps chain
	// readyAt → start (wait) → end (service) with release as the first
	// readyAt, Σ(WaitMs+ServiceMs) over all keys equals Σ job latencies
	// exactly — the table accounts for every millisecond of end-to-end
	// latency by construction.
	Attribution map[string]*PathStat
}

// resource tracks FIFO availability of a node or link.
type resource struct {
	freeAt float64
}

// event-driven simulation: jobs are independent chains, so a simple
// time-ordered dispatch over shared resources suffices. We process jobs in
// release order; each step waits for its resource's freeAt.
type jobState struct {
	job      *Job
	stepIdx  int
	readyAt  float64
	started  float64
	bytes    int
	timeline []StepTiming
}

// pq orders job states by readiness time (then id for determinism).
type pq []*jobState

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].readyAt != p[j].readyAt {
		return p[i].readyAt < p[j].readyAt
	}
	return p[i].job.ID < p[j].job.ID
}
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)   { *p = append(*p, x.(*jobState)) }
func (p *pq) Pop() any     { old := *p; n := len(old); x := old[n-1]; *p = old[:n-1]; return x }

// Run simulates the jobs to completion and returns aggregate results.
func (t *Topology) Run(jobs []Job) (*Results, error) {
	sp := t.profRun.Start()
	defer sp.End()
	nodeRes := make(map[string]*resource, len(t.nodes))
	for id := range t.nodes {
		nodeRes[id] = &resource{}
	}
	linkRes := make(map[string]*resource, len(t.links))
	for key := range t.links {
		linkRes[key] = &resource{}
	}

	states := make(pq, 0, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if len(j.Steps) == 0 {
			return nil, fmt.Errorf("%w: job %s has no steps", ErrBadJob, j.ID)
		}
		states = append(states, &jobState{job: j, readyAt: j.ReleaseMs, started: -1})
	}
	heap.Init(&states)

	res := &Results{
		BusyByTier:  make(map[Tier]float64),
		BytesByLink: make(map[string]int),
		Attribution: make(map[string]*PathStat),
	}
	attribute := func(stage string, waitMs, serviceMs float64) {
		ps, ok := res.Attribution[stage]
		if !ok {
			ps = &PathStat{}
			res.Attribution[stage] = ps
		}
		ps.WaitMs += waitMs
		ps.ServiceMs += serviceMs
	}

	var latencies []float64
	for states.Len() > 0 {
		st := heap.Pop(&states).(*jobState)
		step := st.job.Steps[st.stepIdx]
		var end float64
		switch s := step.(type) {
		case ComputeStep:
			node, err := t.Node(s.NodeID)
			if err != nil {
				return nil, fmt.Errorf("job %s step %d: %w", st.job.ID, st.stepIdx, err)
			}
			r := nodeRes[s.NodeID]
			start := max(st.readyAt, r.freeAt)
			dur := s.Ops / node.OpsPerMs
			end = start + dur
			r.freeAt = end
			attribute(node.Tier.String(), start-st.readyAt, dur)
			st.timeline = append(st.timeline, StepTiming{
				Stage: node.Tier.String(), ReadyMs: st.readyAt, WaitMs: start - st.readyAt, ServiceMs: dur,
			})
			res.BusyByTier[node.Tier] += dur
			if st.started < 0 {
				st.started = start
			}
		case TransferStep:
			link, err := t.Link(s.From, s.To)
			if err != nil {
				return nil, fmt.Errorf("job %s step %d: %w", st.job.ID, st.stepIdx, err)
			}
			key := s.From + "→" + s.To
			r := linkRes[key]
			start := max(st.readyAt, r.freeAt)
			dur := link.LatencyMs + float64(s.Bytes)/link.BytesPerMs
			end = start + dur
			r.freeAt = end
			stage := t.nodes[s.From].Tier.String() + "→" + t.nodes[s.To].Tier.String()
			attribute(stage, start-st.readyAt, dur)
			st.timeline = append(st.timeline, StepTiming{
				Stage: stage, ReadyMs: st.readyAt, WaitMs: start - st.readyAt, ServiceMs: dur,
			})
			st.bytes += s.Bytes
			res.BytesByLink[key] += s.Bytes
			res.TotalBytes += s.Bytes
			if st.started < 0 {
				st.started = start
			}
		default:
			return nil, fmt.Errorf("%w: job %s has unknown step %T", ErrBadJob, st.job.ID, step)
		}
		st.stepIdx++
		st.readyAt = end
		if st.stepIdx < len(st.job.Steps) {
			heap.Push(&states, st)
			continue
		}
		jr := JobResult{
			ID:            st.job.ID,
			StartMs:       st.started,
			FinishMs:      end,
			LatencyMs:     end - st.job.ReleaseMs,
			UpstreamBytes: st.bytes,
			Headers:       st.job.Headers,
			Timeline:      st.timeline,
		}
		res.Jobs = append(res.Jobs, jr)
		latencies = append(latencies, jr.LatencyMs)
		if end > res.MakespanMs {
			res.MakespanMs = end
		}
	}

	sort.Slice(res.Jobs, func(i, j int) bool { return res.Jobs[i].ID < res.Jobs[j].ID })
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		res.MeanMs = sum / float64(len(latencies))
		res.P95Ms = latencies[int(float64(len(latencies)-1)*0.95)]
	}
	return res, nil
}

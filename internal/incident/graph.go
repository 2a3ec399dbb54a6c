package incident

import (
	"sort"
	"strings"
)

// The dependency graph is derived live from trace spans: every span folds
// in once when it ends, whether or not its trace is still in the tracer's
// ring, contributing "stage" nodes (the trace root, e.g. ingest-frame, and
// one node per distinct child span name under it, e.g. ingest-frame/store)
// joined by parent→child edges, and a small declared binding table attaches
// "backend" nodes (broker, hbase, hdfs, docstore) underneath the stages
// that call into them. Edges carry RED-style stats: traversal counts (rate),
// error counts folded in from dead-letter events, and span durations
// (diagnostic only — wall-clock, excluded from canonical replay output).

// Node kinds.
const (
	KindStage   = "stage"
	KindBackend = "backend"
)

type node struct {
	name   string
	kind   string
	tier   string
	spans  int64
	errors int64
	in     int // in-degree; stage nodes with 0 are ingest roots
}

type edge struct {
	from, to   int
	traversals int64
	errors     int64
	totalMs    float64
	maxMs      float64
	firstTick  int64
}

type graph struct {
	nodes     []node
	index     map[string]int
	edges     []edge
	edgeIndex map[[2]int]int
}

func newGraph() *graph {
	return &graph{index: make(map[string]int), edgeIndex: make(map[[2]int]int)}
}

// nodeFor returns the index of the named node, creating it on first sight.
// Kind and tier stick from the first observation.
func (g *graph) nodeFor(name, kind, tier string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	g.nodes = append(g.nodes, node{name: name, kind: kind, tier: tier})
	g.index[name] = len(g.nodes) - 1
	return len(g.nodes) - 1
}

// edgeFor returns the index of the from→to edge, creating it on first sight.
func (g *graph) edgeFor(from, to int, tick int64) int {
	k := [2]int{from, to}
	if i, ok := g.edgeIndex[k]; ok {
		return i
	}
	g.edges = append(g.edges, edge{from: from, to: to, firstTick: tick})
	g.edgeIndex[k] = len(g.edges) - 1
	g.nodes[to].in++
	return len(g.edges) - 1
}

// roots collects the stage nodes with no callers — the ingestion entry
// points — sorted by name for deterministic traversal order.
func (g *graph) roots() []int {
	var out []int
	for i := range g.nodes {
		if g.nodes[i].kind == KindStage && g.nodes[i].in == 0 {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return g.nodes[out[a]].name < g.nodes[out[b]].name })
	return out
}

// depths runs a BFS from the given symptom nodes along dependency edges
// (caller → callee) and returns the minimum hop count to every reachable
// node. Symptom order does not affect the result: depth is a minimum.
func (g *graph) depths(symptoms []int) map[int]int {
	depth := make(map[int]int, len(g.nodes))
	queue := make([]int, 0, len(symptoms))
	for _, s := range symptoms {
		if _, ok := depth[s]; !ok {
			depth[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.edges {
			if e.from != n {
				continue
			}
			if _, ok := depth[e.to]; !ok {
				depth[e.to] = depth[n] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return depth
}

// attributeError folds one backend failure into RED error counts: the
// backend node itself, plus every binding edge into it whose calling stage
// belongs to the failing pipeline root (when known). sourceRoot may be ""
// when the emitting pipeline could not be identified.
func (g *graph) attributeError(backend, sourceRoot string) {
	bi, ok := g.index[backend]
	if !ok {
		return
	}
	g.nodes[bi].errors++
	if sourceRoot == "" {
		return
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.to != bi {
			continue
		}
		from := g.nodes[e.from].name
		if from == sourceRoot || strings.HasPrefix(from, sourceRoot+"/") {
			e.errors++
		}
	}
}

// NodeView is one exported dependency-graph node.
type NodeView struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Tier   string `json:"tier,omitempty"`
	Spans  int64  `json:"spans"`
	Errors int64  `json:"errors"`
}

// EdgeView is one exported dependency edge with its RED stats. RatePerTick
// is traversals per monitor tick since the edge was first seen; MeanMs and
// MaxMs are span-duration diagnostics (wall clock — not replayable).
type EdgeView struct {
	From        string  `json:"from"`
	To          string  `json:"to"`
	Traversals  int64   `json:"traversals"`
	Errors      int64   `json:"errors"`
	RatePerTick float64 `json:"ratePerTick"`
	MeanMs      float64 `json:"meanMs,omitempty"`
	MaxMs       float64 `json:"maxMs,omitempty"`
}

// GraphView is the exported adjacency: nodes sorted by name, edges sorted
// by (from, to).
type GraphView struct {
	Tick  int64      `json:"tick"`
	Nodes []NodeView `json:"nodes"`
	Edges []EdgeView `json:"edges"`
}

func (g *graph) export(tick int64) GraphView {
	gv := GraphView{Tick: tick, Nodes: make([]NodeView, 0, len(g.nodes)), Edges: make([]EdgeView, 0, len(g.edges))}
	for i := range g.nodes {
		n := &g.nodes[i]
		gv.Nodes = append(gv.Nodes, NodeView{
			Name: n.name, Kind: n.kind, Tier: n.tier, Spans: n.spans, Errors: n.errors,
		})
	}
	sort.Slice(gv.Nodes, func(a, b int) bool { return gv.Nodes[a].Name < gv.Nodes[b].Name })
	for i := range g.edges {
		e := &g.edges[i]
		ticks := tick - e.firstTick + 1
		if ticks < 1 {
			ticks = 1
		}
		ev := EdgeView{
			From: g.nodes[e.from].name, To: g.nodes[e.to].name,
			Traversals: e.traversals, Errors: e.errors,
			RatePerTick: float64(e.traversals) / float64(ticks),
			MaxMs:       e.maxMs,
		}
		if e.traversals > 0 {
			ev.MeanMs = e.totalMs / float64(e.traversals)
		}
		gv.Edges = append(gv.Edges, ev)
	}
	sort.Slice(gv.Edges, func(a, b int) bool {
		if gv.Edges[a].From != gv.Edges[b].From {
			return gv.Edges[a].From < gv.Edges[b].From
		}
		return gv.Edges[a].To < gv.Edges[b].To
	})
	return gv
}

package graphproc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataproc"
	"repro/internal/socialgraph"
)

func TestPageRankValidation(t *testing.T) {
	eng := dataproc.NewEngine(2)
	if _, err := PageRank(eng, nil, 10, 0.85, 2); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := PageRank(eng, []Edge{{From: "a", To: "b"}}, 0, 0.85, 2); !errors.Is(err, ErrBadParams) {
		t.Fatalf("iters err = %v", err)
	}
	if _, err := PageRank(eng, []Edge{{From: "a", To: "b"}}, 5, 1.5, 2); !errors.Is(err, ErrBadParams) {
		t.Fatalf("damping err = %v", err)
	}
}

func TestPageRankHubDominates(t *testing.T) {
	// Star graph: everyone links to "hub"; hub links back to a.
	eng := dataproc.NewEngine(4)
	edges := []Edge{
		{From: "a", To: "hub"}, {From: "b", To: "hub"},
		{From: "c", To: "hub"}, {From: "d", To: "hub"},
		{From: "hub", To: "a"},
	}
	ranks, err := PageRank(eng, edges, 30, 0.85, 3)
	if err != nil {
		t.Fatal(err)
	}
	top := TopK(ranks, 2)
	if top[0].Node != "hub" {
		t.Fatalf("top node = %s (%v)", top[0].Node, ranks)
	}
	if top[1].Node != "a" {
		t.Fatalf("second node = %s: hub's sole out-link should rank next", top[1].Node)
	}
	// Ranks form (approximately) a distribution.
	sum := 0.0
	for _, v := range ranks {
		sum += v
	}
	if math.Abs(sum-1) > 0.05 {
		t.Fatalf("rank sum = %g", sum)
	}
}

func TestPageRankSymmetricCycleUniform(t *testing.T) {
	eng := dataproc.NewEngine(2)
	edges := []Edge{
		{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "a"},
	}
	ranks, err := PageRank(eng, edges, 40, 0.85, 2)
	if err != nil {
		t.Fatal(err)
	}
	for n, v := range ranks {
		if math.Abs(v-1.0/3) > 1e-6 {
			t.Fatalf("cycle rank %s = %g, want 1/3", n, v)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	eng := dataproc.NewEngine(4)
	// Two components: {a,b,c} and {x,y}; bidirectional edges.
	und := func(a, b string) []Edge { return []Edge{{From: a, To: b}, {From: b, To: a}} }
	var edges []Edge
	edges = append(edges, und("a", "b")...)
	edges = append(edges, und("b", "c")...)
	edges = append(edges, und("x", "y")...)
	labels, err := ConnectedComponents(eng, edges, 3)
	if err != nil {
		t.Fatal(err)
	}
	if labels["a"] != "a" || labels["b"] != "a" || labels["c"] != "a" {
		t.Fatalf("component 1 labels: %v", labels)
	}
	if labels["x"] != "x" || labels["y"] != "x" {
		t.Fatalf("component 2 labels: %v", labels)
	}
}

func TestConnectedComponentsLongChain(t *testing.T) {
	eng := dataproc.NewEngine(2)
	// Chain z9—z8—...—z0: min label must propagate the full length.
	var edges []Edge
	names := []string{"z0", "z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "z9"}
	for i := 0; i+1 < len(names); i++ {
		edges = append(edges, Edge{From: names[i], To: names[i+1]}, Edge{From: names[i+1], To: names[i]})
	}
	labels, err := ConnectedComponents(eng, edges, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if labels[n] != "z0" {
			t.Fatalf("label[%s] = %s", n, labels[n])
		}
	}
}

func TestFromGraphAndGangAnalytics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := socialgraph.Generate(socialgraph.GenConfig{
		Groups: 5, Members: 60, IntraDegree: 4, CrossDegree: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	edges := FromGraph(g)
	if len(edges) != g.NumEdges()*2 {
		t.Fatalf("edges = %d, want %d", len(edges), g.NumEdges()*2)
	}
	eng := dataproc.NewEngine(4)
	ranks, err := PageRank(eng, edges, 15, 0.85, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != g.NumNodes() {
		t.Fatalf("ranked %d of %d nodes", len(ranks), g.NumNodes())
	}
	// On an undirected graph PageRank correlates with degree: the top-ranked
	// node should have above-average degree.
	top := TopK(ranks, 1)[0]
	d, err := g.Degree(top.Node)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge is listed once per direction, so the degrees sum to it.
	mean := float64(len(edges)) / float64(g.NumNodes())
	if float64(d) < mean {
		t.Fatalf("top-ranked node degree %d below mean %g", d, mean)
	}
	// The generated network with cross links is one component.
	labels, err := ConnectedComponents(eng, edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	roots := make(map[string]bool)
	for _, l := range labels {
		roots[l] = true
	}
	if len(roots) != 1 {
		t.Fatalf("components = %d, want 1", len(roots))
	}
}

func TestTopK(t *testing.T) {
	ranks := map[string]float64{"a": 0.1, "b": 0.5, "c": 0.3}
	top := TopK(ranks, 2)
	if len(top) != 2 || top[0].Node != "b" || top[1].Node != "c" {
		t.Fatalf("top = %v", top)
	}
	all := TopK(ranks, 10)
	if len(all) != 3 {
		t.Fatalf("topk overflow = %v", all)
	}
}

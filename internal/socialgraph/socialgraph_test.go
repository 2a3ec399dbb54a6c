package socialgraph

import (
	"errors"
	"math/rand"
	"testing"
)

func lineGraph() *Graph {
	// a—b—c—d—e
	g := NewGraph()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "d")
	g.AddEdge("d", "e")
	return g
}

func TestGraphBasics(t *testing.T) {
	g := lineGraph()
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("graph = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	// Edges are undirected and exact: a—b shows from both ends, a—c from
	// neither.
	if nbrs, err := g.Neighbors("a"); err != nil || len(nbrs) != 1 || nbrs[0] != "b" {
		t.Fatalf("neighbors(a) = %v, %v", nbrs, err)
	}
	if nbrs, err := g.Neighbors("b"); err != nil || len(nbrs) != 2 || nbrs[0] != "a" || nbrs[1] != "c" {
		t.Fatalf("neighbors(b) = %v, %v", nbrs, err)
	}
	nbrs, err := g.Neighbors("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 2 || nbrs[0] != "b" || nbrs[1] != "d" {
		t.Fatalf("neighbors(c) = %v", nbrs)
	}
	if _, err := g.Neighbors("zzz"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing node err = %v", err)
	}
	d, err := g.Degree("a")
	if err != nil || d != 1 {
		t.Fatalf("degree(a) = %d, %v", d, err)
	}
	// Self-loops are ignored.
	g.AddEdge("a", "a")
	if d2, _ := g.Degree("a"); d2 != 1 {
		t.Fatalf("self-loop changed degree to %d", d2)
	}
}

func TestKDegreeAssociates(t *testing.T) {
	g := lineGraph()
	hops, err := g.KDegreeAssociates("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 {
		t.Fatalf("hops = %d", len(hops))
	}
	if len(hops[0]) != 1 || hops[0][0] != "b" {
		t.Fatalf("1st degree = %v", hops[0])
	}
	if len(hops[1]) != 1 || hops[1][0] != "c" {
		t.Fatalf("2nd degree = %v", hops[1])
	}
	if len(hops[2]) != 1 || hops[2][0] != "d" {
		t.Fatalf("3rd degree = %v", hops[2])
	}
	if _, err := g.KDegreeAssociates("nope", 2); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestKDegreeExcludesCloserHops(t *testing.T) {
	// Triangle plus tail: a-b, b-c, a-c, c-d. From a: 1st = {b, c}, 2nd = {d}.
	g := NewGraph()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("a", "c")
	g.AddEdge("c", "d")
	hops, err := g.KDegreeAssociates("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops[0]) != 2 {
		t.Fatalf("1st = %v", hops[0])
	}
	if len(hops[1]) != 1 || hops[1][0] != "d" {
		t.Fatalf("2nd = %v", hops[1])
	}
}

func TestDegreesStats(t *testing.T) {
	g := lineGraph()
	st := g.Degrees()
	if st.Min != 1 || st.Max != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st := NewGraph().Degrees(); st != (DegreeStats{}) {
		t.Fatalf("empty graph stats = %+v", st)
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(GenConfig{}, rng); !errors.Is(err, ErrBadGen) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Generate(GenConfig{Groups: 10, Members: 5}, rng); !errors.Is(err, ErrBadGen) {
		t.Fatalf("members<groups err = %v", err)
	}
}

func TestPaperNetworkStatistics(t *testing.T) {
	// The §IV.B claims: 67 groups, 982 members, ~14 first-degree associates,
	// ~200 second-degree associates.
	g, err := Generate(PaperConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 982 {
		t.Fatalf("members = %d", g.NumNodes())
	}
	groups := make(map[int]bool)
	for _, id := range g.Nodes() {
		grp, err := g.Group(id)
		if err != nil {
			t.Fatal(err)
		}
		groups[grp] = true
	}
	if len(groups) != 67 {
		t.Fatalf("groups = %d", len(groups))
	}
	first, second := g.MeanAssociates()
	if first < 11 || first > 18 {
		t.Fatalf("mean first-degree = %g, want ≈ 14", first)
	}
	if second < 130 || second > 260 {
		t.Fatalf("mean second-degree = %g, want ≈ 200", second)
	}
	t.Logf("first=%.1f second=%.1f", first, second)
}

func TestCommunitiesRecoverGroups(t *testing.T) {
	// Two dense cliques joined by one bridge edge must land in two
	// communities.
	g := NewGraph()
	cliqueA := []string{"a1", "a2", "a3", "a4", "a5"}
	cliqueB := []string{"b1", "b2", "b3", "b4", "b5"}
	for i := range cliqueA {
		for j := i + 1; j < len(cliqueA); j++ {
			g.AddEdge(cliqueA[i], cliqueA[j])
			g.AddEdge(cliqueB[i], cliqueB[j])
		}
	}
	g.AddEdge("a1", "b1")
	labels := g.Communities(20, rand.New(rand.NewSource(3)))
	for _, c := range cliqueA[1:] {
		if labels[c] != labels["a2"] {
			t.Fatalf("clique A split: %v", labels)
		}
	}
	for _, c := range cliqueB[1:] {
		if labels[c] != labels["b2"] {
			t.Fatalf("clique B split: %v", labels)
		}
	}
	if labels["a2"] == labels["b2"] {
		t.Fatal("cliques merged into one community")
	}
}

func TestCrossGroupEdgesDriveSecondDegreeReach(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	noCross, err := Generate(GenConfig{Groups: 20, Members: 300, IntraDegree: 5, CrossDegree: 0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	withCross, err := Generate(GenConfig{Groups: 20, Members: 300, IntraDegree: 5, CrossDegree: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, secondNo := noCross.MeanAssociates()
	_, secondWith := withCross.MeanAssociates()
	if secondWith <= secondNo {
		t.Fatalf("cross links should widen 2nd-degree reach: %g vs %g", secondWith, secondNo)
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	g := lineGraph()
	if _, err := g.KDegreeAssociates("zzz", 2); !errors.Is(err, ErrNoNode) {
		t.Fatalf("KDegreeAssociates err = %v", err)
	}
	if _, err := g.Degree("zzz"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Degree err = %v", err)
	}
	if _, err := g.Group("zzz"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Group err = %v", err)
	}
}

func TestGroupLabels(t *testing.T) {
	g := NewGraph()
	g.AddNode("x", 3)
	g.AddEdge("x", "y") // y is created by the edge, in group 0
	if grp, err := g.Group("x"); err != nil || grp != 3 {
		t.Fatalf("Group(x) = %d, %v", grp, err)
	}
	if grp, err := g.Group("y"); err != nil || grp != 0 {
		t.Fatalf("Group(y) = %d, %v", grp, err)
	}
	// Re-adding a node relabels it and keeps its edges.
	g.AddNode("x", 5)
	if grp, _ := g.Group("x"); grp != 5 {
		t.Fatalf("relabelled Group(x) = %d", grp)
	}
	if d, _ := g.Degree("x"); d != 1 {
		t.Fatalf("relabel dropped edges: degree %d", d)
	}
	if nodes := g.Nodes(); len(nodes) != 2 || nodes[0] != "x" || nodes[1] != "y" {
		t.Fatalf("Nodes = %v", nodes)
	}
}

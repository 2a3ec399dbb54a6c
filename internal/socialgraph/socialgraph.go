// Package socialgraph implements the co-offense / gang-affiliation network
// analysis of the paper's §IV.B: k-degree associate expansion ("first-degree
// associates, individuals who are linked in place and time through criminal
// incident reports"; "best-practices suggest that investigative techniques
// extend to second-degree affiliates"), degree statistics, and label-
// propagation community detection. A calibrated generator reproduces the
// paper's published network shape: 67 groups, 982 members, ~14 first-degree
// and ~200 second-degree associates per member.
package socialgraph

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Sentinel errors.
var (
	ErrNoNode = errors.New("socialgraph: node not found")
	ErrBadGen = errors.New("socialgraph: invalid generator parameters")
)

// Graph is an undirected social graph with string node ids.
type Graph struct {
	adj map[string]map[string]struct{}
	// Group labels nodes by gang/group id (metadata, optional).
	group map[string]int
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{adj: make(map[string]map[string]struct{}), group: make(map[string]int)}
}

// AddNode registers a node (idempotent) with an optional group label.
func (g *Graph) AddNode(id string, group int) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = make(map[string]struct{})
	}
	g.group[id] = group
}

// AddEdge links two nodes, creating them if needed (group 0).
func (g *Graph) AddEdge(a, b string) {
	if a == b {
		return
	}
	if _, ok := g.adj[a]; !ok {
		g.AddNode(a, 0)
	}
	if _, ok := g.adj[b]; !ok {
		g.AddNode(b, 0)
	}
	g.adj[a][b] = struct{}{}
	g.adj[b][a] = struct{}{}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, nbrs := range g.adj {
		n += len(nbrs)
	}
	return n / 2
}

// Nodes lists node ids, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Group returns a node's group label.
func (g *Graph) Group(id string) (int, error) {
	grp, ok := g.group[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoNode, id)
	}
	return grp, nil
}

// Neighbors returns the sorted first-degree associates of a node.
func (g *Graph) Neighbors(id string) ([]string, error) {
	nbrs, ok := g.adj[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, id)
	}
	out := make([]string, 0, len(nbrs))
	for n := range nbrs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Degree returns a node's degree.
func (g *Graph) Degree(id string) (int, error) {
	nbrs, ok := g.adj[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoNode, id)
	}
	return len(nbrs), nil
}

// KDegreeAssociates returns, for each hop 1..k, the set of nodes at exactly
// that shortest-path distance from id.
func (g *Graph) KDegreeAssociates(id string, k int) ([][]string, error) {
	if _, ok := g.adj[id]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, id)
	}
	visited := map[string]struct{}{id: {}}
	frontier := []string{id}
	out := make([][]string, 0, k)
	for hop := 0; hop < k; hop++ {
		var next []string
		for _, node := range frontier {
			for nbr := range g.adj[node] {
				if _, seen := visited[nbr]; !seen {
					visited[nbr] = struct{}{}
					next = append(next, nbr)
				}
			}
		}
		sort.Strings(next)
		out = append(out, next)
		frontier = next
	}
	return out, nil
}

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Min, Max float64
}

// Degrees computes degree statistics over the whole graph.
func (g *Graph) Degrees() DegreeStats {
	if len(g.adj) == 0 {
		return DegreeStats{}
	}
	first := true
	var st DegreeStats
	for _, nbrs := range g.adj {
		d := float64(len(nbrs))
		if first {
			st.Min, st.Max = d, d
			first = false
		}
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	return st
}

// MeanAssociates returns the mean count of exactly-1st- and exactly-2nd-
// degree associates over all nodes — the §IV.B statistics.
func (g *Graph) MeanAssociates() (first, second float64) {
	n := 0
	for id := range g.adj {
		hops, err := g.KDegreeAssociates(id, 2)
		if err != nil {
			continue
		}
		first += float64(len(hops[0]))
		second += float64(len(hops[1]))
		n++
	}
	if n > 0 {
		first /= float64(n)
		second /= float64(n)
	}
	return first, second
}

// Communities runs synchronous label propagation for maxIters rounds and
// returns the detected community label per node.
func (g *Graph) Communities(maxIters int, rng *rand.Rand) map[string]int {
	labels := make(map[string]int, len(g.adj))
	nodes := g.Nodes()
	for i, id := range nodes {
		labels[id] = i
	}
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		order := rng.Perm(len(nodes))
		for _, oi := range order {
			id := nodes[oi]
			counts := make(map[int]int)
			for nbr := range g.adj[id] {
				counts[labels[nbr]]++
			}
			if len(counts) == 0 {
				continue
			}
			bestLabel, bestCount := labels[id], 0
			// Deterministic tie-break: smallest label among max counts.
			var keys []int
			for l := range counts {
				keys = append(keys, l)
			}
			sort.Ints(keys)
			for _, l := range keys {
				if counts[l] > bestCount {
					bestLabel, bestCount = l, counts[l]
				}
			}
			if bestLabel != labels[id] {
				labels[id] = bestLabel
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return labels
}

// GenConfig parameterizes the gang-network generator, defaulting to the
// paper's published statistics.
type GenConfig struct {
	Groups  int
	Members int
	// IntraDegree is the target number of within-group co-offense links per
	// member; CrossDegree the cross-group links.
	IntraDegree int
	CrossDegree int
}

// PaperConfig returns the §IV.B network: 67 groups, 982 members, calibrated
// so that mean first-degree ≈ 14 (measured ≈ 14.5) and mean second-degree
// approaches the paper's "approximately 200" (measured ≈ 172).
func PaperConfig() GenConfig {
	return GenConfig{Groups: 67, Members: 982, IntraDegree: 3, CrossDegree: 5}
}

// MemberID names the i-th member.
func MemberID(i int) string { return fmt.Sprintf("m%04d", i) }

// Generate builds a random gang network under cfg.
func Generate(cfg GenConfig, rng *rand.Rand) (*Graph, error) {
	if cfg.Groups <= 0 || cfg.Members < cfg.Groups || cfg.IntraDegree < 0 || cfg.CrossDegree < 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadGen, cfg)
	}
	g := NewGraph()
	groupOf := make([]int, cfg.Members)
	groupMembers := make([][]int, cfg.Groups)
	for i := 0; i < cfg.Members; i++ {
		grp := i % cfg.Groups
		groupOf[i] = grp
		groupMembers[grp] = append(groupMembers[grp], i)
		g.AddNode(MemberID(i), grp)
	}
	// Intra-group links.
	for i := 0; i < cfg.Members; i++ {
		peers := groupMembers[groupOf[i]]
		for t := 0; t < cfg.IntraDegree; t++ {
			j := peers[rng.Intn(len(peers))]
			if j != i {
				g.AddEdge(MemberID(i), MemberID(j))
			}
		}
	}
	// Cross-group links.
	for i := 0; i < cfg.Members; i++ {
		for t := 0; t < cfg.CrossDegree; t++ {
			j := rng.Intn(cfg.Members)
			if groupOf[j] != groupOf[i] {
				g.AddEdge(MemberID(i), MemberID(j))
			}
		}
	}
	return g, nil
}

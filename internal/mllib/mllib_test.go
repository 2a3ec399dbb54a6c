package mllib

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataproc"
)

func vectorsToDataset(e *dataproc.Engine, vs []Vector, parts int) *dataproc.Dataset {
	rows := make([]any, len(vs))
	for i, v := range vs {
		rows[i] = v
	}
	return e.Parallelize(rows, parts)
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := dataproc.NewEngine(4)
	var pts []Vector
	centers := []Vector{{0, 0}, {10, 10}, {0, 10}}
	for i := 0; i < 150; i++ {
		c := centers[i%3]
		pts = append(pts, Vector{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5})
	}
	m, err := KMeans(vectorsToDataset(e, pts, 4), 3, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(m.Centroids))
	}
	// Every true center must be near exactly one learned centroid.
	used := make(map[int]bool)
	for _, c := range centers {
		idx := m.Predict(c)
		if used[idx] {
			t.Fatalf("two true centers mapped to centroid %d", idx)
		}
		used[idx] = true
		if d := sqDist(m.Centroids[idx], c); d > 1.0 {
			t.Fatalf("centroid %d at distance² %g from true center %v", idx, d, c)
		}
	}
	// All same-cluster points agree.
	for i := 0; i < 30; i += 3 {
		if m.Predict(pts[i]) != m.Predict(pts[i+3]) {
			t.Fatal("points from same true cluster assigned differently")
		}
	}
	if m.Inertia <= 0 {
		t.Fatalf("inertia = %g", m.Inertia)
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := dataproc.NewEngine(1)
	if _, err := KMeans(vectorsToDataset(e, nil, 1), 2, 5, rng); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := KMeans(vectorsToDataset(e, []Vector{{1}}, 1), 0, 5, rng); !errors.Is(err, ErrBadK) {
		t.Fatalf("k=0 err = %v", err)
	}
	if _, err := KMeans(vectorsToDataset(e, []Vector{{1}}, 1), 5, 5, rng); !errors.Is(err, ErrBadK) {
		t.Fatalf("k>n err = %v", err)
	}
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := dataproc.NewEngine(4)
	// y = 3x₁ - 2x₂ + 1 + noise
	var rows []any
	for i := 0; i < 300; i++ {
		x := Vector{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := 3*x[0] - 2*x[1] + 1 + rng.NormFloat64()*0.01
		rows = append(rows, RegressionPoint{Features: x, Target: y})
	}
	m, err := LinearRegression(e.Parallelize(rows, 4), 2, 500, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Weights[0]-3) > 0.1 || math.Abs(m.Weights[1]+2) > 0.1 || math.Abs(m.Bias-1) > 0.1 {
		t.Fatalf("fit = %v + %g", m.Weights, m.Bias)
	}
}

func TestKMeansSameSeedSameModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []Vector
	for i := 0; i < 60; i++ {
		pts = append(pts, Vector{rng.Float64() * 10, rng.Float64() * 10})
	}
	fit := func() *KMeansModel {
		m, err := KMeans(vectorsToDataset(dataproc.NewEngine(3), pts, 3), 4, 30, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := fit(), fit()
	if a.Iters != b.Iters || a.Inertia != b.Inertia {
		t.Fatalf("runs diverged: iters %d/%d inertia %g/%g", a.Iters, b.Iters, a.Inertia, b.Inertia)
	}
	for i := range a.Centroids {
		for j := range a.Centroids[i] {
			if a.Centroids[i][j] != b.Centroids[i][j] {
				t.Fatalf("centroid %d differs: %v vs %v", i, a.Centroids[i], b.Centroids[i])
			}
		}
	}
}

// serialLloyd is the oracle for KMeans: the same initial centroids (a
// permutation of rows, in the order the dataset yields them) and the same
// stopping rule, on one goroutine with no dataproc.
func serialLloyd(rows []Vector, k, maxIters int, seed int64) []Vector {
	perm := rand.New(rand.NewSource(seed)).Perm(len(rows))
	cents := make([]Vector, k)
	for i := range cents {
		cents[i] = rows[perm[i]].clone()
	}
	prev := math.Inf(1)
	for iter := 0; iter < maxIters; iter++ {
		sums := make([]Vector, k)
		counts := make([]int, k)
		cost := 0.0
		for _, x := range rows {
			best, bestD := 0, math.Inf(1)
			for i, c := range cents {
				if d := sqDist(x, c); d < bestD {
					best, bestD = i, d
				}
			}
			if sums[best] == nil {
				sums[best] = make(Vector, len(x))
			}
			for j := range x {
				sums[best][j] += x[j]
			}
			counts[best]++
			cost += bestD
		}
		for i := range cents {
			if counts[i] > 0 {
				c := make(Vector, len(sums[i]))
				for j := range c {
					c[j] = sums[i][j] / float64(counts[i])
				}
				cents[i] = c
			}
		}
		if math.Abs(prev-cost) < 1e-9 {
			break
		}
		prev = cost
	}
	return cents
}

// TestKMeansMatchesSerialOracle: with integer coordinates every per-cluster
// sum is exact, so the distributed map/reduce must land on the serial
// oracle's centroids bit for bit, however the rows are partitioned.
func TestKMeansMatchesSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var pts []Vector
	for i := 0; i < 90; i++ {
		base := float64(20 * (i % 3))
		pts = append(pts, Vector{base + float64(rng.Intn(5)), base + float64(rng.Intn(5))})
	}
	for _, parts := range []int{1, 2, 5} {
		// Parallelize deals rows round-robin; the dataset yields them
		// partition by partition.
		var order []Vector
		for p := 0; p < parts; p++ {
			for i := p; i < len(pts); i += parts {
				order = append(order, pts[i])
			}
		}
		want := serialLloyd(order, 3, 50, 3)
		m, err := KMeans(vectorsToDataset(dataproc.NewEngine(parts), pts, parts), 3, 50, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if m.Centroids[i][j] != want[i][j] {
					t.Fatalf("%d partitions: centroid %d = %v, oracle %v", parts, i, m.Centroids[i], want[i])
				}
			}
		}
	}
}

// TestKMeansMoreIterationsNeverRaiseInertia checks Lloyd's monotonicity:
// from the same initial centroids, a longer run ends at a cost no higher.
func TestKMeansMoreIterationsNeverRaiseInertia(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts []Vector
	for i := 0; i < 120; i++ {
		pts = append(pts, Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
	}
	prev := math.Inf(1)
	for _, iters := range []int{1, 2, 4, 8, 16} {
		m, err := KMeans(vectorsToDataset(dataproc.NewEngine(2), pts, 2), 5, iters, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		if m.Inertia > prev+1e-9 {
			t.Fatalf("maxIters %d: inertia %g rose above %g", iters, m.Inertia, prev)
		}
		prev = m.Inertia
	}
}

func TestKMeansOneCentroidPerPoint(t *testing.T) {
	pts := []Vector{{0, 0}, {5, 0}, {0, 5}, {5, 5}}
	m, err := KMeans(vectorsToDataset(dataproc.NewEngine(2), pts, 2), len(pts), 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Inertia != 0 {
		t.Fatalf("inertia = %g, want 0 with k = n", m.Inertia)
	}
	seen := make(map[int]bool)
	for _, p := range pts {
		idx := m.Predict(p)
		if seen[idx] {
			t.Fatalf("two points share centroid %d", idx)
		}
		seen[idx] = true
		if sqDist(m.Centroids[idx], p) != 0 {
			t.Fatalf("centroid %v is not on point %v", m.Centroids[idx], p)
		}
	}
}

func TestLinearRegressionEmpty(t *testing.T) {
	e := dataproc.NewEngine(1)
	if _, err := LinearRegression(e.Parallelize(nil, 1), 2, 10, 0.1); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestLinearModelPredict(t *testing.T) {
	m := &LinearModel{Weights: Vector{2, -1, 0.5}, Bias: 3}
	if got := m.Predict(Vector{1, 4, 2}); got != 2 {
		t.Fatalf("Predict = %g, want 2", got)
	}
	// Zero epochs leave the zero model, which predicts 0 everywhere.
	rows := []any{RegressionPoint{Features: Vector{1}, Target: 5}}
	z, err := LinearRegression(dataproc.NewEngine(1).Parallelize(rows, 1), 1, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.Predict(Vector{7}); got != 0 {
		t.Fatalf("zero-epoch Predict = %g", got)
	}
}

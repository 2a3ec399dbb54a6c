// Package mllib provides the "traditional machine learning and data mining
// capability" the paper's software layer promises (Spark MLlib analog):
// k-means clustering and linear regression, with the iterative steps
// expressed as dataproc map/reduce jobs so they execute distributed across
// partitions.
package mllib

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/dataproc"
)

// Sentinel errors.
var (
	ErrNoData = errors.New("mllib: empty training set")
	ErrBadK   = errors.New("mllib: invalid cluster count")
)

// Vector is a dense feature vector.
type Vector []float64

func (v Vector) clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

func dot(a, b Vector) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sqDist(a, b Vector) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeansModel holds fitted cluster centroids.
type KMeansModel struct {
	Centroids []Vector
	Inertia   float64 // sum of squared distances to assigned centroids
	Iters     int
}

// Predict returns the index of the nearest centroid.
func (m *KMeansModel) Predict(x Vector) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range m.Centroids {
		if d := sqDist(x, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

type centroidAcc struct {
	sum   Vector
	count int
	cost  float64
}

// KMeans fits k clusters over a dataset of Vector rows using Lloyd's
// algorithm. Assignment and centroid aggregation run as dataproc jobs.
func KMeans(ds *dataproc.Dataset, k, maxIters int, rng *rand.Rand) (*KMeansModel, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadK, k)
	}
	rows, err := ds.Collect()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, ErrNoData
	}
	if len(rows) < k {
		return nil, fmt.Errorf("%w: k=%d > n=%d", ErrBadK, k, len(rows))
	}
	dim := len(rows[0].(Vector))
	// Initialize centroids from a random sample of distinct points.
	perm := rng.Perm(len(rows))
	centroids := make([]Vector, k)
	for i := 0; i < k; i++ {
		centroids[i] = rows[perm[i]].(Vector).clone()
	}

	model := &KMeansModel{}
	prevCost := math.Inf(1)
	for iter := 0; iter < maxIters; iter++ {
		model.Iters = iter + 1
		cs := centroids // capture for closures
		assigned := ds.Map(func(r any) any {
			x := r.(Vector)
			best, bestD := 0, math.Inf(1)
			for i, c := range cs {
				if d := sqDist(x, c); d < bestD {
					best, bestD = i, d
				}
			}
			return dataproc.Pair{Key: strconv.Itoa(best), Value: centroidAcc{sum: x.clone(), count: 1, cost: bestD}}
		})
		reduced, err := assigned.ReduceByKey(func(a, b any) any {
			aa, bb := a.(centroidAcc), b.(centroidAcc)
			sum := aa.sum.clone()
			for i := range sum {
				sum[i] += bb.sum[i]
			}
			return centroidAcc{sum: sum, count: aa.count + bb.count, cost: aa.cost + bb.cost}
		}).CollectPairs()
		if err != nil {
			return nil, err
		}
		cost := 0.0
		next := make([]Vector, k)
		for i := range next {
			next[i] = centroids[i] // keep empty clusters in place
		}
		for _, p := range reduced {
			idx, err := strconv.Atoi(p.Key)
			if err != nil || idx < 0 || idx >= k {
				return nil, fmt.Errorf("%w: centroid key %q", ErrBadK, p.Key)
			}
			acc := p.Value.(centroidAcc)
			c := make(Vector, dim)
			for j := range c {
				c[j] = acc.sum[j] / float64(acc.count)
			}
			next[idx] = c
			cost += acc.cost
		}
		centroids = next
		model.Inertia = cost
		if math.Abs(prevCost-cost) < 1e-9 {
			break
		}
		prevCost = cost
	}
	model.Centroids = centroids
	return model, nil
}

type gradAcc struct {
	gw    Vector
	gb    float64
	count int
}

// LinearModel is a fitted least-squares regressor.
type LinearModel struct {
	Weights Vector
	Bias    float64
}

// Predict evaluates the regression at x.
func (m *LinearModel) Predict(x Vector) float64 { return dot(m.Weights, x) + m.Bias }

// RegressionPoint pairs features with a continuous target.
type RegressionPoint struct {
	Features Vector
	Target   float64
}

// LinearRegression fits least squares by full-batch gradient descent; the
// gradient of each epoch is computed as a distributed map-reduce over the
// dataset partitions.
func LinearRegression(ds *dataproc.Dataset, dim int, epochs int, lr float64) (*LinearModel, error) {
	n, err := ds.Count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, ErrNoData
	}
	w := make(Vector, dim)
	b := 0.0
	for epoch := 0; epoch < epochs; epoch++ {
		wc, bc := w.clone(), b
		total, err := ds.Map(func(r any) any {
			p := r.(RegressionPoint)
			diff := dot(wc, p.Features) + bc - p.Target
			g := make(Vector, len(p.Features))
			for i, x := range p.Features {
				g[i] = diff * x
			}
			return dataproc.Pair{Key: "g", Value: gradAcc{gw: g, gb: diff, count: 1}}
		}).ReduceByKey(func(a, c any) any {
			aa, cc := a.(gradAcc), c.(gradAcc)
			gw := aa.gw.clone()
			for i := range gw {
				gw[i] += cc.gw[i]
			}
			return gradAcc{gw: gw, gb: aa.gb + cc.gb, count: aa.count + cc.count}
		}).CollectPairs()
		if err != nil {
			return nil, err
		}
		for _, p := range total {
			acc := p.Value.(gradAcc)
			inv := 1.0 / float64(acc.count)
			for i := range w {
				w[i] -= lr * acc.gw[i] * inv
			}
			b -= lr * acc.gb * inv
		}
	}
	return &LinearModel{Weights: w, Bias: b}, nil
}

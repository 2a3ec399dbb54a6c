package fusion

import (
	"fmt"
	"math"
	"sort"
)

// GCCAResult holds a fitted multi-view generalized CCA: a shared
// representation G (n×k) plus per-view projection matrices mapping each
// view into the shared space.
type GCCAResult struct {
	// Shared is the common representation, one row per sample, k columns.
	Shared [][]float64
	// Projections[v] is a (d_v × k) matrix for view v.
	Projections [][][]float64
}

// GCCA computes MAX-VAR generalized canonical correlation analysis over m
// views (each n×d_v): it finds the shared representation G maximizing the
// total correlation with every view's best linear reconstruction — the
// classical core of the paper's cited "deep generalized canonical
// correlation analysis" [19], with linear maps instead of deep encoders.
// reg is a per-view ridge term.
func GCCA(views [][][]float64, k int, reg float64) (*GCCAResult, error) {
	if len(views) < 2 {
		return nil, fmt.Errorf("%w: GCCA needs >= 2 views", ErrNumeric)
	}
	n := len(views[0])
	if n == 0 {
		return nil, fmt.Errorf("%w: empty views", ErrNumeric)
	}
	for v, view := range views {
		if len(view) != n {
			return nil, fmt.Errorf("%w: view %d has %d rows, want %d", ErrNumeric, v, len(view), n)
		}
	}
	if k <= 0 || k >= n {
		return nil, fmt.Errorf("%w: k=%d for n=%d", ErrNumeric, k, n)
	}
	// M = Σ_v X_v (X_vᵀX_v + rI)⁻¹ X_vᵀ  (n×n, symmetric PSD).
	m := make([]float64, n*n)
	centeredViews := make([][]float64, len(views))
	dims := make([]int, len(views))
	for vi, view := range views {
		d := len(view[0])
		dims[vi] = d
		xc := centered(view, n, d)
		centeredViews[vi] = xc
		// XᵀX + rI (d×d).
		xtx := matMulSq(transpose(xc, n, d), d, n, xc, d)
		for i := 0; i < d; i++ {
			xtx[i*d+i] += reg
		}
		inv, err := invertSPD(xtx, d)
		if err != nil {
			return nil, fmt.Errorf("view %d: %w", vi, err)
		}
		// P = X inv Xᵀ.
		xi := matMulSq(xc, n, d, inv, d)
		p := matMulSq(xi, n, d, transpose(xc, n, d), n)
		for i := range m {
			m[i] += p[i]
		}
	}
	w, vecs, err := symEig(m, n)
	if err != nil {
		return nil, err
	}
	type pair struct {
		lambda float64
		col    int
	}
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{lambda: w[i], col: i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].lambda > pairs[j].lambda })

	res := &GCCAResult{Shared: make([][]float64, n)}
	for i := range res.Shared {
		res.Shared[i] = make([]float64, k)
	}
	for c := 0; c < k; c++ {
		// Columns of G are the top eigenvectors, scaled to unit norm (they
		// already are from Jacobi).
		for i := 0; i < n; i++ {
			res.Shared[i][c] = vecs[i*n+pairs[c].col]
		}
	}
	// Per-view projections: W_v = (X_vᵀX_v + rI)⁻¹ X_vᵀ G.
	for vi := range views {
		d := dims[vi]
		xc := centeredViews[vi]
		xtx := matMulSq(transpose(xc, n, d), d, n, xc, d)
		for i := 0; i < d; i++ {
			xtx[i*d+i] += reg
		}
		inv, err := invertSPD(xtx, d)
		if err != nil {
			return nil, err
		}
		g := make([]float64, n*k)
		for i := 0; i < n; i++ {
			copy(g[i*k:(i+1)*k], res.Shared[i])
		}
		wv := matMulSq(matMulSq(inv, d, d, transpose(xc, n, d), n), d, n, g, k)
		proj := make([][]float64, d)
		for i := 0; i < d; i++ {
			proj[i] = append([]float64(nil), wv[i*k:(i+1)*k]...)
		}
		res.Projections = append(res.Projections, proj)
	}
	return res, nil
}

// invertSPD inverts a symmetric positive-definite matrix via its
// eigendecomposition, regularizing tiny eigenvalues.
func invertSPD(a []float64, n int) ([]float64, error) {
	w, v, err := symEig(a, n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n*n)
	for kk := 0; kk < n; kk++ {
		lambda := w[kk]
		if lambda < 1e-12 {
			lambda = 1e-12
		}
		inv := 1 / lambda
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out[i*n+j] += inv * v[i*n+kk] * v[j*n+kk]
			}
		}
	}
	return out, nil
}

// ProjectView maps one view sample (centered by the caller or raw for
// approximately centered data) into the shared space with a fitted
// projection.
func ProjectView(proj [][]float64, x []float64) []float64 {
	if len(proj) == 0 {
		return nil
	}
	k := len(proj[0])
	out := make([]float64, k)
	for i, row := range proj {
		if i >= len(x) {
			break
		}
		for c := 0; c < k; c++ {
			out[c] += x[i] * row[c]
		}
	}
	return out
}

// CorrelationWith returns |corr| between a shared-space column and an
// external signal (for validating recovered structure).
func CorrelationWith(shared [][]float64, col int, signal []float64) float64 {
	n := len(shared)
	if n == 0 || col >= len(shared[0]) || len(signal) < n {
		return 0
	}
	var sx, sy, sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		x, y := shared[i][col], signal[i]
		sx += x
		sy += y
		sxy += x * y
		sxx += x * x
		syy += y * y
	}
	num := sxy - sx*sy/float64(n)
	den := (sxx - sx*sx/float64(n)) * (syy - sy*sy/float64(n))
	if den <= 0 {
		return 0
	}
	return math.Abs(num / math.Sqrt(den))
}

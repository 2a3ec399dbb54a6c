package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets (cumulative at
// exposition, non-cumulative internally) and keeps a running sum, which is
// enough to derive rates, means, and quantile estimates. Observe is
// lock-free and allocation-free so it can sit on produce/poll and storage
// hot paths.
type Histogram struct {
	bounds []float64       // ascending upper bounds; observations > last land in overflow
	counts []atomic.Uint64 // len(bounds)+1; last slot is the overflow (+Inf) bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated

	// Exemplars ride on ObserveExemplar only, behind their own lock so the
	// plain Observe hot path stays lock-free.
	exMu      sync.Mutex
	exemplars []Exemplar
}

// Exemplar links one observation to the trace that produced it, retained for
// the worst (highest) buckets seen so a p99 outlier on a dashboard resolves
// to an inspectable trace.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"traceId"`
	Bucket  int     `json:"bucket"` // bucket index; len(bounds) is the +Inf bucket
}

// maxExemplars bounds retained exemplars per histogram.
const maxExemplars = 4

// DefBuckets covers latencies from 100µs to ~100s in seconds — wide enough
// for both in-process microsecond operations and simulated multi-second
// paths.
func DefBuckets() []float64 { return ExpBuckets(1e-4, 2, 21) }

// ExpBuckets returns n exponentially growing upper bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// NewHistogram builds a histogram with the given ascending upper bounds
// (nil or empty means DefBuckets). Prefer Registry.Histogram, which also
// registers it for exposition.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveExemplar records v like Observe and, when traceID is non-empty,
// offers it as an exemplar: the histogram keeps the most recent observations
// from its worst buckets, evicting the lowest-bucket entry when full. Slower
// than Observe (one small lock), so use it on per-item paths, not per-byte
// ones.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	bucket := 0
	for bucket < len(h.bounds) && v > h.bounds[bucket] {
		bucket++
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if len(h.exemplars) < maxExemplars {
		h.exemplars = append(h.exemplars, Exemplar{Value: v, TraceID: traceID, Bucket: bucket})
		return
	}
	lo := 0
	for i := 1; i < len(h.exemplars); i++ {
		if h.exemplars[i].Bucket < h.exemplars[lo].Bucket {
			lo = i
		}
	}
	if bucket < h.exemplars[lo].Bucket {
		return
	}
	copy(h.exemplars[lo:], h.exemplars[lo+1:])
	h.exemplars[len(h.exemplars)-1] = Exemplar{Value: v, TraceID: traceID, Bucket: bucket}
}

// Exemplars returns the retained exemplars, worst bucket first.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	out := make([]Exemplar, len(h.exemplars))
	copy(out, h.exemplars)
	h.exMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Bucket > out[j].Bucket })
	return out
}

// WorstExemplar returns the exemplar from the highest bucket — the first
// stored of them, as Exemplars()[0] is — without copying; ok is false when
// none were retained.
func (h *Histogram) WorstExemplar() (Exemplar, bool) {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if len(h.exemplars) == 0 {
		return Exemplar{}, false
	}
	worst := h.exemplars[0]
	for _, e := range h.exemplars[1:] {
		if e.Bucket > worst.Bucket {
			worst = e
		}
	}
	return worst, true
}

// mergeFrom folds src's bucket counts, observation count, and sum into h.
// Both histograms must share bucket bounds (vec children always do: the
// family hands every child the same bounds). Used when a vec child is
// demoted into its family's rollup series; exemplars stay behind.
func (h *Histogram) mergeFrom(src *Histogram) {
	for i := range src.counts {
		if n := src.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	if n := src.count.Load(); n > 0 {
		h.count.Add(n)
	}
	if s := src.Sum(); s != 0 {
		for {
			old := h.sum.Load()
			nw := math.Float64bits(math.Float64frombits(old) + s)
			if h.sum.CompareAndSwap(old, nw) {
				break
			}
		}
	}
}

// CountAtOrBelow returns how many observations landed in buckets whose upper
// bound is <= bound — the "good" numerator for latency-threshold SLOs.
func (h *Histogram) CountAtOrBelow(bound float64) uint64 {
	var n uint64
	for i, ub := range h.bounds {
		if ub > bound {
			break
		}
		n += h.counts[i].Load()
	}
	return n
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns non-cumulative per-bucket counts; the last entry is
// the overflow (+Inf) bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the bucket holding that rank. With zero observations it returns 0.
// Ranks falling in the overflow bucket return the largest finite bound —
// the histogram cannot see past its buckets, and a capped answer is more
// useful to dashboards than +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

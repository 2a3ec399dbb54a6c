package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// referenceWritePrometheus is the fmt-based encoder WritePrometheus replaced,
// kept verbatim as the oracle: the append encoder must write the same bytes.
func referenceWritePrometheus(r *Registry, w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.sortedMetrics() {
		family := baseName(m.name)
		if family != lastFamily {
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", family, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, m.kind)
			lastFamily = family
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", m.name, referenceFormatFloat(m.gauge.Value()))
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", m.name, referenceFormatFloat(m.fn()))
		case kindHistogram:
			referenceWriteHistogram(&b, m)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func referenceWriteHistogram(b *strings.Builder, m *metric) {
	family := baseName(m.name)
	labels := m.name[len(family):] // "" or "{k=\"v\"}"
	bounds := m.hist.Bounds()
	counts := m.hist.BucketCounts()
	byBucket := make(map[int]Exemplar)
	for _, ex := range m.hist.Exemplars() {
		if _, ok := byBucket[ex.Bucket]; !ok {
			byBucket[ex.Bucket] = ex
		}
	}
	line := func(i int, le string, cum uint64) {
		fmt.Fprintf(b, "%s_bucket%s %d", family, referenceMergeLabel(labels, "le", le), cum)
		if ex, ok := byBucket[i]; ok {
			fmt.Fprintf(b, " # {trace_id=%q} %s", ex.TraceID, referenceFormatFloat(ex.Value))
		}
		b.WriteByte('\n')
	}
	var cum uint64
	for i, bound := range bounds {
		cum += counts[i]
		line(i, referenceFormatFloat(bound), cum)
	}
	cum += counts[len(counts)-1]
	line(len(bounds), "+Inf", cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", family, labels, referenceFormatFloat(m.hist.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", family, labels, m.hist.Count())
}

func referenceMergeLabel(labels, key, value string) string {
	pair := fmt.Sprintf("%s=%q", key, value)
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func referenceFormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// assertMatchesReference renders r with both encoders and requires equal
// bytes. The live encoder runs first, so its rebalance settles vec membership
// and the reference's finds nothing to change.
func assertMatchesReference(t testing.TB, r *Registry, what string) {
	t.Helper()
	var got, want bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := referenceWritePrometheus(r, &want); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: exposition line %d differs from the reference encoder's\n got %q\nwant %q", what, i+1, gl, wl)
		}
	}
	t.Fatalf("%s: %d bytes, reference %d", what, got.Len(), want.Len())
}

// Values chosen to separate the float formats an encoder could pick: 'g'
// switches to an exponent below 1e-4 and from 1e21 on, 'f' and 'e' never or
// always do.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1e-5, 1e-300, 5e-324, 1e6, 1e21, 123456789,
	math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

var hostileStrings = []string{
	"", "cam-7", `quo"te`, `back\slash`, "new\nline", "tab\there", "Δ camera ✓",
	"\xff\xfe invalid", "\x00nul", `all " \ ` + "\n at once",
}

// randomRegistry builds a registry mixing every instrument kind: plain and
// labelled counters, gauges and histograms (custom and default bounds),
// Counter/GaugeFuncs returning the hostile floats, help text with spaces
// (and none), histograms holding several exemplars per bucket under hostile
// trace ids, and vec families over all three kinds with K from 2 to 16. It
// returns a function that records more into every instrument.
func randomRegistry(rng *rand.Rand) (*Registry, func()) {
	r := NewRegistry()
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	pickF := func() float64 { return hostileFloats[rng.Intn(len(hostileFloats))] }
	help := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		return pick([]string{"one word", "a help text with  spaces", "trailing space ", `quoted "help" \ text`})
	}
	labels := func() LabelSet {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return LabelSet{{Key: "camera", Value: pick(hostileStrings)}}
		}
		return LabelSet{{Key: "tier", Value: pick(hostileStrings)}, {Key: "camera", Value: pick(hostileStrings)}}
	}
	bounds := func() []float64 {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []float64{1e-5, 1e-3, 0.5, 1, 1e6, 1e21}
		}
		return ExpBuckets(0.001*float64(1+rng.Intn(9)), 1.5+rng.Float64(), 1+rng.Intn(12))
	}
	observe := func(h *Histogram) {
		for n := rng.Intn(12); n > 0; n-- {
			v := rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(10)-6))
			if rng.Intn(10) == 0 {
				v = pickF()
			}
			if rng.Intn(2) == 0 {
				h.ObserveExemplar(v, pick(hostileStrings))
			} else {
				h.Observe(v)
			}
		}
	}

	var record []func()
	for i, n := 0, 5+rng.Intn(20); i < n; i++ {
		family := fmt.Sprintf("cityinfra_rand_%02d", rng.Intn(12))
		name := FormatName(family, labels())
		kind := []metricKind{kindCounter, kindGauge, kindCounterFunc, kindHistogram, kindHistogram}[rng.Intn(5)]
		if m, ok := r.metrics[name]; ok && m.kind != kind {
			continue // the name is taken by another kind
		}
		switch kind {
		case kindCounter:
			c := r.Counter(name, help())
			record = append(record, func() { c.Add(rng.Intn(1000)) })
		case kindGauge:
			g := r.Gauge(name, help())
			record = append(record, func() { g.Set(pickF()) })
		case kindCounterFunc:
			v := pickF()
			if rng.Intn(2) == 0 {
				r.CounterFunc(name, help(), func() float64 { return v })
			} else {
				r.GaugeFunc(name, help(), func() float64 { return v })
			}
		default:
			h := r.Histogram(name, help(), bounds())
			record = append(record, func() { observe(h) })
		}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		name, k := fmt.Sprintf("cityinfra_vec_%d", i), 2+rng.Intn(15)
		width := k + rng.Intn(2*k)
		value := func() string {
			if rng.Intn(8) == 0 {
				return pick(hostileStrings)
			}
			return fmt.Sprintf("cam-%03d", rng.Intn(width))
		}
		switch rng.Intn(3) {
		case 0:
			v := r.CounterVec(name+"_total", help(), "camera", k)
			record = append(record, func() {
				for j := rng.Intn(3 * width); j > 0; j-- {
					v.With(value()).Add(1 + rng.Intn(5))
				}
			})
		case 1:
			v := r.GaugeVec(name, help(), "camera", k)
			record = append(record, func() {
				for j := rng.Intn(2 * width); j > 0; j-- {
					v.With(value()).Set(pickF())
				}
			})
		default:
			v := r.HistogramVec(name+"_seconds", help(), "camera", bounds(), k)
			record = append(record, func() {
				for j := rng.Intn(3 * width); j > 0; j-- {
					v.With(value()).Observe(rng.ExpFloat64())
				}
			})
		}
	}
	recordAll := func() {
		for _, f := range record {
			f()
		}
	}
	recordAll()
	return r, recordAll
}

// TestExpositionMatchesReference: on seeded random registries, before and
// after further recording (which promotes and demotes vec children), the
// append encoder writes exactly the reference encoder's bytes.
func TestExpositionMatchesReference(t *testing.T) {
	var folds, sharedBuckets, labelledHists uint64
	for seed := int64(1); seed <= 200; seed++ {
		r, record := randomRegistry(rand.New(rand.NewSource(seed)))
		for round := 0; round < 4; round++ {
			assertMatchesReference(t, r, fmt.Sprintf("seed %d round %d", seed, round))
			record()
		}
		folds += r.Counter(RolledUpMetric, "").Value()
		for _, m := range r.sortedMetrics() {
			if m.kind != kindHistogram {
				continue
			}
			if strings.Contains(m.name, "{") {
				labelledHists++
			}
			seen := map[int]bool{}
			for _, ex := range m.hist.Exemplars() {
				if seen[ex.Bucket] {
					sharedBuckets++
				}
				seen[ex.Bucket] = true
			}
		}
	}
	// Guard against histories that stopped exercising what the encoder can
	// get wrong: vec churn between calls, a bucket holding more than one
	// exemplar, a label block for le to merge into.
	t.Logf("vec folds %d, exemplars sharing a bucket %d, labelled histograms %d", folds, sharedBuckets, labelledHists)
	if folds < 100 || sharedBuckets < 100 || labelledHists < 100 {
		t.Fatalf("history too tame: vec folds %d, exemplars sharing a bucket %d, labelled histograms %d",
			folds, sharedBuckets, labelledHists)
	}
}

// FuzzExpositionMatchesReference drives label values, trace ids and observed
// values from the fuzzer through every instrument kind, then holds the
// exposition to the reference encoder's bytes.
func FuzzExpositionMatchesReference(f *testing.F) {
	for i, s := range hostileStrings {
		f.Add(s, hostileStrings[(i+3)%len(hostileStrings)], hostileFloats[i%len(hostileFloats)])
	}
	f.Fuzz(func(t *testing.T, label, traceID string, v float64) {
		r := NewRegistry()
		ls := LabelSet{{Key: "camera", Value: label}}
		r.Counter(FormatName("fz_total", ls), "fuzzed counter").Add(int(math.Float64bits(v) % 1000))
		r.Gauge(FormatName("fz_level", ls), "").Set(v)
		r.GaugeFunc("fz_func", "fuzzed func", func() float64 { return v })
		for _, name := range []string{"fz_seconds", FormatName("fz_seconds", ls)} {
			h := r.Histogram(name, "fuzzed histogram", []float64{1e-5, 0.5, 1, 1e21})
			h.ObserveExemplar(v, traceID)
			h.ObserveExemplar(v, label)
			h.Observe(-v)
		}
		cv := r.CounterVec("fz_vec_total", "", "camera", 2)
		hv := r.HistogramVec("fz_vec_seconds", "", "camera", nil, 2)
		for i, value := range []string{label, traceID, "a", "b"} {
			cv.With(value).Add(i + 1)
			hv.With(value).Observe(v)
		}
		assertMatchesReference(t, r, "fuzzed registry")
		cv.With(label).Add(10)
		hv.With(traceID).Observe(v)
		assertMatchesReference(t, r, "fuzzed registry after promotion")
	})
}

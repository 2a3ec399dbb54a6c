package telemetry

import (
	"strings"
	"testing"
)

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{
		"plain",
		`back\slash`,
		`quo"te`,
		"new\nline",
		`all \ of " them` + "\n together \\n",
		"",
		"unicode Δ camera-7",
	}
	for _, v := range cases {
		esc := EscapeLabelValue(v)
		if strings.ContainsRune(esc, '\n') {
			t.Errorf("EscapeLabelValue(%q) = %q still contains a raw newline", v, esc)
		}
		got, err := UnescapeLabelValue(esc)
		if err != nil {
			t.Fatalf("UnescapeLabelValue(%q): %v", esc, err)
		}
		if got != v {
			t.Errorf("round trip %q -> %q -> %q", v, esc, got)
		}
	}
	for _, bad := range []string{`\x`, `half\`, `\u0041`} {
		if _, err := UnescapeLabelValue(bad); err == nil {
			t.Errorf("UnescapeLabelValue(%q): want error", bad)
		}
	}
}

func TestParseNameCanonical(t *testing.T) {
	full := FormatName("cityinfra_frames_total", LabelSet{
		{Key: "tier", Value: "fog"},
		{Key: "camera", Value: `cam "7"` + "\n" + `\end`},
	})
	family, labels, err := ParseName(full)
	if err != nil {
		t.Fatalf("ParseName(%q): %v", full, err)
	}
	if family != "cityinfra_frames_total" {
		t.Fatalf("family = %q", family)
	}
	// Canonical order is key-sorted.
	if labels[0].Key != "camera" || labels[1].Key != "tier" {
		t.Fatalf("labels not key-sorted: %+v", labels)
	}
	if got := labels.Get("camera"); got != `cam "7"`+"\n"+`\end` {
		t.Fatalf("camera label = %q", got)
	}
	// Re-rendering the parsed set reproduces the canonical name.
	if again := FormatName(family, labels); again != full {
		t.Fatalf("FormatName(ParseName(x)) = %q, want %q", again, full)
	}

	for _, bad := range []string{
		`m{camera="cam-7"`,         // unclosed brace
		`m{}`,                      // empty matcher
		`m{camera=}`,               // missing quotes
		`m{camera="a\q"}`,          // bad escape
		`m{camera="a}`,             // unterminated value
		`m{1bad="v"}`,              // bad label name
		`m{camera="a",}`,           // trailing comma
		`m{camera="a" tier="fog"}`, // missing comma
	} {
		if _, _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q): want error", bad)
		}
	}
}

func TestFormatNameEscapes(t *testing.T) {
	name := FormatName("m_total", LabelSet{{"path", "C:\\tmp\"x\"\nend"}})
	want := `m_total{path="C:\\tmp\"x\"\nend"}`
	if name != want {
		t.Fatalf("FormatName = %q, want %q", name, want)
	}
	_, labels, err := ParseName(name)
	if err != nil {
		t.Fatalf("ParseName(FormatName(...)): %v", err)
	}
	if got := labels.Get("path"); got != "C:\\tmp\"x\"\nend" {
		t.Fatalf("parsed value = %q", got)
	}
}

func TestCounterVecBoundedCardinality(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("fleet_frames_total", "frames per camera", "camera", 3)
	// 8 cameras, camera i adds i+1 so the heavy hitters are unambiguous.
	handles := make([]*LabeledCounter, 8)
	for i := range handles {
		handles[i] = vec.With(camID(i))
		handles[i].Add(i + 1)
	}
	reg.Snapshot() // triggers rebalance
	if n := vec.SeriesCount(); n != 4 {
		t.Fatalf("SeriesCount = %d, want K+1 = 4", n)
	}
	// The top 3 by count (cam-5, cam-6, cam-7) must be the materialized set.
	for i, h := range handles {
		wantReal := i >= 5
		if h.Real() != wantReal {
			t.Errorf("camera %d Real = %v, want %v", i, h.Real(), wantReal)
		}
		if h.Value() != uint64(i+1) {
			t.Errorf("camera %d exact Value = %d, want %d", i, h.Value(), i+1)
		}
	}
	// Exposed series: exactly the top-3 children plus the rollup, and the
	// exposed totals sum to the total observations.
	var exposed, total uint64
	names := map[string]bool{}
	for _, p := range reg.Snapshot() {
		if strings.HasPrefix(p.Name, "fleet_frames_total{") {
			names[p.Name] = true
			exposed += uint64(p.Value)
		}
	}
	for _, h := range handles {
		total += h.Value()
	}
	if len(names) != 4 {
		t.Fatalf("exposed %d series %v, want 4", len(names), names)
	}
	if !names[`fleet_frames_total{camera="~other"}`] {
		t.Fatalf("missing rollup series in %v", names)
	}
	if exposed != total {
		t.Fatalf("exposed sum %d != total observations %d", exposed, total)
	}
	// Demotions were accounted: 8 admissions into 3 slots = at least the
	// churn of the 5 tail children ever having been materialized.
	if v := reg.Counter(RolledUpMetric, "").Value(); v == 0 {
		t.Fatalf("%s = 0, want > 0 after demotions", RolledUpMetric)
	}
}

func TestCounterVecPromotionKeepsMonotonicity(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("v_total", "v", "camera", 2)
	a, b, c := vec.With("a"), vec.With("b"), vec.With("c")
	a.Add(10)
	b.Add(10)
	reg.Snapshot()
	// c is tail; it out-observes b and must be promoted at the next snapshot.
	c.Add(25)
	prev := seriesValues(reg, "v_total")
	reg.Snapshot()
	cur := seriesValues(reg, "v_total")
	if !c.Real() || b.Real() {
		t.Fatalf("want c promoted and b demoted; c.Real=%v b.Real=%v", c.Real(), b.Real())
	}
	// Every series present in both snapshots must be monotone non-decreasing
	// (the rollup absorbs folds; promoted series restart fresh).
	for name, v := range cur {
		if pv, ok := prev[name]; ok && v < pv {
			t.Errorf("series %s went backwards: %g -> %g", name, pv, v)
		}
	}
	_ = a
}

func TestHistogramVecRollupFolding(t *testing.T) {
	reg := NewRegistry()
	vec := reg.HistogramVec("lat_seconds", "latency", "camera", ExpBuckets(0.001, 2, 10), 2)
	h1, h2, h3 := vec.With("a"), vec.With("b"), vec.With("c")
	for i := 0; i < 4; i++ {
		h1.Observe(0.002)
	}
	for i := 0; i < 3; i++ {
		h2.Observe(0.004)
	}
	// c arrives past the budget: its observations land in the rollup.
	for i := 0; i < 10; i++ {
		h3.Observe(0.01)
	}
	if h3.Count() != 10 || h3.Real() {
		t.Fatalf("exact tail accounting: count %d real %v", h3.Count(), h3.Real())
	}
	reg.Snapshot() // c (10 obs) promotes, b (3 obs) demotes into rollup
	if !h3.Real() || h2.Real() {
		t.Fatalf("want c promoted and b demoted; c.Real=%v b.Real=%v", h3.Real(), h2.Real())
	}
	// Total observation count across exposed histogram series must equal 17.
	var exposed uint64
	for _, p := range reg.Snapshot() {
		if strings.HasPrefix(p.Name, "lat_seconds{") {
			exposed += p.Count
		}
	}
	if exposed != 17 {
		t.Fatalf("exposed histogram count = %d, want 17", exposed)
	}
	if h2.Sum() == 0 || h2.Mean() == 0 {
		t.Fatalf("demoted child lost exact accounting: sum %g mean %g", h2.Sum(), h2.Mean())
	}
}

func TestGaugeVecSignalPromotion(t *testing.T) {
	reg := NewRegistry()
	vec := reg.GaugeVec("burn", "burn rate", "camera", 2)
	quiet1, quiet2 := vec.With("a"), vec.With("b")
	hot := vec.With("hot")
	// Only the hot camera writes (write-on-signal): it must take a slot.
	hot.Set(4.5)
	hot.Set(6.5)
	reg.Snapshot()
	if !hot.Real() {
		t.Fatalf("hot camera not materialized after signal writes")
	}
	if hot.Value() != 6.5 {
		t.Fatalf("hot.Value = %g", hot.Value())
	}
	_, _ = quiet1, quiet2
}

func camID(i int) string {
	return "cam-" + string(rune('0'+i))
}

func seriesValues(reg *Registry, family string) map[string]float64 {
	out := map[string]float64{}
	for _, p := range reg.Snapshot() {
		if strings.HasPrefix(p.Name, family+"{") {
			out[p.Name] = p.Value
		}
	}
	return out
}

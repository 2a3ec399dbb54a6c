package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
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

// FuzzNameRoundTrip holds ParseName to FormatName. A name FormatName writes
// from a valid family, distinct valid keys and any values parses back to the
// family and the key-sorted labels; and any input ParseName accepts formats
// back to a name that parses to the same family and labels.
func FuzzNameRoundTrip(f *testing.F) {
	f.Add("cityinfra_frames_total", "camera", "cam-7", "tier", "fog", "", "", `cityinfra_frames_total{camera="cam-7",tier="fog"}`)
	for _, v := range []string{`"`, `\`, "\n", "{", "}", ",", "=", `a="b",c="d"`, `\n`, `\"`, "\xff", ""} {
		f.Add("fam", "k", v, "z", v+v, "a", "x"+v, `f{k="`+EscapeLabelValue(v)+`"}`)
	}
	for _, raw := range []string{
		`f{ k = "v" , b="\\\"" }`, `f{}`, `{k="v"}`, `f{k="v",}`, `f{k="v"`, `f{k=v}`, `f{1k="v"}`,
		`f{k="\q"}`, `f{k="v"}x}`, `f}{k="v"}`, `f{k="a}b"}`, `f{k="v"}}`, "f{k=\"line\nbreak\"}",
		`f{a="2",a="1"}`, `f{a="0",b="1",a="2",b="3",a="4",b="5",a="6",b="7",a="8",b="9",a="10",b="11",a="12",b="13"}`,
	} {
		f.Add("f", "k", "v", "", "", "", "", raw)
	}
	f.Fuzz(func(t *testing.T, family, k1, v1, k2, v2, k3, v3, raw string) {
		fam := fuzzIdent(family, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:0123456789")
		if fam == "" {
			fam = "f"
		}
		var ls LabelSet
		for _, l := range []Label{{fuzzIdent(k1, identChars), v1}, {fuzzIdent(k2, identChars), v2}, {fuzzIdent(k3, identChars), v3}} {
			if l.Key != "" && !slices.ContainsFunc(ls, func(m Label) bool { return m.Key == l.Key }) {
				ls = append(ls, l)
			}
		}
		full := FormatName(fam, ls)
		want := slices.Clone(ls)
		slices.SortFunc(want, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
		gotFam, got, err := ParseName(full)
		if err != nil || gotFam != fam || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseName(FormatName(%q, %q)) = %q, %q, %v", fam, ls, gotFam, got, err)
		}

		rawFam, rawLabels, err := ParseName(raw)
		if err != nil {
			return
		}
		again := FormatName(rawFam, rawLabels)
		fam2, labels2, err := ParseName(again)
		if err != nil || fam2 != rawFam || !reflect.DeepEqual(labels2, rawLabels) {
			t.Fatalf("ParseName(%q) = %q, %q; formatted %q; parsed again %q, %q, %v", raw, rawFam, rawLabels, again, fam2, labels2, err)
		}
	})
}

const identChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789"

// fuzzIdent maps s onto an identifier over chars, whose digits (its last
// ten) may not lead: each byte picks a char, and a leading digit gets an
// underscore before it.
func fuzzIdent(s, chars string) string {
	b := make([]byte, 0, len(s)+1)
	for i := 0; i < len(s); i++ {
		b = append(b, chars[int(s[i])%len(chars)])
	}
	if len(b) > 0 && b[0] >= '0' && b[0] <= '9' {
		b = append([]byte{'_'}, b...)
	}
	return string(b)
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
	if h3.c.obs.Load() != 10 || h3.c.real.Load() {
		t.Fatalf("exact tail accounting: count %d real %v", h3.c.obs.Load(), h3.c.real.Load())
	}
	reg.Snapshot() // c (10 obs) promotes, b (3 obs) demotes into rollup
	if !h3.c.real.Load() || h2.c.real.Load() {
		t.Fatalf("want c promoted and b demoted; c.Real=%v b.Real=%v", h3.c.real.Load(), h2.c.real.Load())
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
	if h2.c.obs.Load() != 3 {
		t.Fatalf("demoted child lost exact accounting: count %d", h2.c.obs.Load())
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
	if !hot.c.real.Load() {
		t.Fatalf("hot camera not materialized after signal writes")
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

// referenceRebalance is rebalance before the one-pass membership check: a
// full sort by (count desc, incumbent first, label) on every call, kept as
// the oracle the check must agree with.
func referenceRebalance(f *vecFamily) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.children) <= f.maxK {
		return
	}
	kids := make([]*vecChild, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool {
		oi, oj := kids[i].obs.Load(), kids[j].obs.Load()
		if oi != oj {
			return oi > oj
		}
		ri, rj := kids[i].real.Load(), kids[j].real.Load()
		if ri != rj {
			return ri
		}
		return kids[i].value < kids[j].value
	})
	for _, c := range kids[f.maxK:] {
		if c.real.Load() {
			f.demote(c)
		}
	}
	for _, c := range kids[:f.maxK] {
		if !c.real.Load() {
			f.materialize(c)
		}
	}
}

// vecTwin is one vec family of each kind in two registries: live rebalances
// the way Snapshot does, ref is re-ranked by referenceRebalance first.
type vecTwin struct {
	live, ref *Registry
	fams      [3][2]*vecFamily // [kind][live, ref]
}

func newVecTwin(k int, bounds []float64) *vecTwin {
	tw := &vecTwin{live: NewRegistry(), ref: NewRegistry()}
	for i, r := range []*Registry{tw.live, tw.ref} {
		tw.fams[0][i] = r.CounterVec("twin_frames_total", "frames", "camera", k).f
		tw.fams[1][i] = r.GaugeVec("twin_burn", "burn", "camera", k).f
		tw.fams[2][i] = r.HistogramVec("twin_latency_seconds", "latency", "camera", bounds, k).f
	}
	return tw
}

// record adds n observations for one label to both twins: one Add for a
// counter, n Sets for a gauge, n Observes for a histogram.
func (tw *vecTwin) record(kind int, label string, n int, v float64) {
	for _, f := range tw.fams[kind] {
		switch kind {
		case 0:
			(&CounterVec{f}).With(label).Add(n)
		case 1:
			for i := 0; i < n; i++ {
				(&GaugeVec{f}).With(label).Set(v)
			}
		default:
			for i := 0; i < n; i++ {
				(&HistogramVec{f}).With(label).Observe(v)
			}
		}
	}
}

// membership returns a family's materialized labels and the exact counts of
// its least-observed member and most-observed tail child.
func membership(f *vecFamily) (members map[string]bool, minMember, maxTail uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	members = map[string]bool{}
	minMember = ^uint64(0)
	for v, c := range f.children {
		if n := c.obs.Load(); c.real.Load() {
			members[v] = true
			minMember = min(minMember, n)
		} else {
			maxTail = max(maxTail, n)
		}
	}
	return members, minMember, maxTail
}

// TestRebalanceMatchesFullRerank drives seeded histories of With/Add/Set/
// Observe on all three vec kinds — random traffic, exact ties between a tail
// child and the least-observed member, a tail child overtaking it by one,
// gauges written only by a few signalling labels, children first seen
// mid-history — into a live registry and a twin whose families are re-ranked
// by the full sort. After every snapshot both must agree on every child's
// Real(), SeriesCount(), the rolled-up counter, the snapshot and the exposed
// bytes; and the live family must have kept its membership exactly when the
// one-pass check says the sort could be skipped.
func TestRebalanceMatchesFullRerank(t *testing.T) {
	var skips, resorts int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(15)
		tw := newVecTwin(k, ExpBuckets(0.001, 2, 8))
		var labels [3][]string
		addLabel := func(kind int) string {
			l := fmt.Sprintf("cam-%03d", len(labels[kind]))
			labels[kind] = append(labels[kind], l)
			return l
		}
		for kind := range labels {
			for i, n := 0, k+1+rng.Intn(k); i < n; i++ {
				addLabel(kind)
			}
		}
		for step := 0; step < 400; step++ {
			kind := rng.Intn(3)
			f := tw.fams[kind][0]
			v := rng.ExpFloat64() * 0.01
			switch op := rng.Intn(20); {
			case op < 2: // a child first seen mid-history
				tw.record(kind, addLabel(kind), 1+rng.Intn(3), v)
			case op < 6: // a tail child ties the least-observed member, or overtakes it by one
				_, minMember, _ := membership(f)
				ls, from := labels[kind], rng.Intn(len(labels[kind]))
				for i := range ls {
					c := f.children[ls[(from+i)%len(ls)]]
					if c != nil && !c.real.Load() && c.obs.Load() <= minMember {
						tw.record(kind, c.value, int(minMember-c.obs.Load())+op%2, v)
						break
					}
				}
			default:
				ls := labels[kind]
				if kind == 1 {
					ls = ls[:1+len(ls)/4] // gauges are written only on signal
				}
				tw.record(kind, ls[rng.Intn(len(ls))], 1+rng.Intn(3), v)
			}
			if rng.Intn(3) != 0 {
				continue
			}

			var skipped [3]bool
			var before [3]map[string]bool
			for kind := range tw.fams {
				f := tw.fams[kind][0]
				members, minMember, maxTail := membership(f)
				before[kind] = members
				if len(f.children) > f.maxK {
					if skipped[kind] = minMember >= maxTail; skipped[kind] {
						skips++
					} else {
						resorts++
					}
				}
				referenceRebalance(tw.fams[kind][1])
			}
			refPoints, livePoints := tw.ref.Snapshot(), tw.live.Snapshot()
			what := fmt.Sprintf("seed %d (K=%d) step %d", seed, k, step)
			for kind := range tw.fams {
				lf, rf := tw.fams[kind][0], tw.fams[kind][1]
				members, _, _ := membership(lf)
				if len(lf.children) > lf.maxK && skipped[kind] != reflect.DeepEqual(members, before[kind]) {
					t.Fatalf("%s: family %s: check said skip=%v, but membership went %v -> %v",
						what, lf.name, skipped[kind], before[kind], members)
				}
				for l, c := range lf.children {
					if c.real.Load() != rf.children[l].real.Load() {
						t.Fatalf("%s: %s: Real %v, reference %v", what, c.full, c.real.Load(), rf.children[l].real.Load())
					}
				}
				if lf.seriesCount() != rf.seriesCount() {
					t.Fatalf("%s: %s: SeriesCount %d, reference %d", what, lf.name, lf.seriesCount(), rf.seriesCount())
				}
			}
			if !reflect.DeepEqual(livePoints, refPoints) {
				t.Fatalf("%s: snapshot differs from the reference twin's\n got %+v\nwant %+v", what, livePoints, refPoints)
			}
			var lb, rb bytes.Buffer
			if err := tw.live.WritePrometheus(&lb); err != nil {
				t.Fatal(err)
			}
			if err := tw.ref.WritePrometheus(&rb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lb.Bytes(), rb.Bytes()) {
				t.Fatalf("%s: exposition differs from the reference twin's", what)
			}
		}
	}
	// Both paths must be exercised, and by more than a handful of snapshots.
	t.Logf("%d family snapshots skipped the sort, %d re-sorted", skips, resorts)
	if skips < 200 || resorts < 200 {
		t.Fatalf("history too tame: %d family snapshots skipped the sort, %d re-sorted (want ≥ 200 each)", skips, resorts)
	}
}

// TestVecRecordingWhileScraping: under -race, four goroutines record through
// labelled handles of all three vec kinds — churning membership — while two
// call WritePrometheus and Snapshot. Once recording stops, the exposition
// matches the reference encoder's, every family holds at most K+1 series and
// the exposed counter total never exceeds what was recorded.
func TestVecRecordingWhileScraping(t *testing.T) {
	const k, width, perWorker = 4, 40, 3000
	r := NewRegistry()
	cv := r.CounterVec("race_frames_total", "", "camera", k)
	gv := r.GaugeVec("race_burn", "", "camera", k)
	hv := r.HistogramVec("race_latency_seconds", "", "camera", nil, k)
	stop := make(chan struct{})
	var scrapers, recorders sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				r.Snapshot()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		recorders.Add(1)
		go func(w int) {
			defer recorders.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				// A skewed pick that drifts with i, so the heavy hitters change.
				l := fmt.Sprintf("cam-%02d", (rng.Intn(width)*rng.Intn(width)/width+i/100)%width)
				cv.With(l).Inc()
				gv.With(l).Set(float64(i))
				hv.With(l).Observe(rng.ExpFloat64())
			}
		}(w)
	}
	recorders.Wait()
	close(stop)
	scrapers.Wait()

	assertMatchesReference(t, r, "after concurrent recording")
	for _, n := range []int{cv.SeriesCount(), gv.SeriesCount(), hv.SeriesCount()} {
		if n > k+1 {
			t.Fatalf("a family holds %d series, want ≤ K+1 = %d", n, k+1)
		}
	}
	var exposed float64
	for _, p := range r.Snapshot() {
		if strings.HasPrefix(p.Name, "race_frames_total{") {
			exposed += p.Value
		}
	}
	if exposed > 4*perWorker {
		t.Fatalf("exposed counter total %g exceeds the %d recorded", exposed, 4*perWorker)
	}
}

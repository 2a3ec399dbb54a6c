package tsdb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// oracleScrape is the name-keyed Scrape that slot bindings replaced, kept as
// the oracle: every point is looked up by name in the series map, and a
// histogram's five series names are built again on every scrape.
func oracleScrape(st *Store) int {
	points := st.reg.Snapshot()
	at := st.now().UnixNano()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.scrapes++
	updated := 0
	add := func(name, kind string, v float64) {
		s, ok := st.series[name]
		if !ok {
			s = &series{kind: kind, buf: make([]Sample, st.cap)}
			family, labels, err := telemetry.ParseName(name)
			if err != nil {
				family, labels = name, nil
			}
			s.family, s.labels = family, labels
			st.series[name] = s
		}
		s.append(Sample{TimeUnixNs: at, Value: v})
		updated++
	}
	for _, p := range points {
		switch p.Type {
		case "counter":
			add(p.Name, "counter", p.Value)
		case "gauge":
			add(p.Name, "gauge", p.Value)
		case "histogram":
			add(suffixName(p.Name, "_count"), "counter", float64(p.Count))
			add(suffixName(p.Name, "_sum"), "counter", p.Sum)
			add(suffixName(p.Name, "_p50"), "gauge", p.P50)
			add(suffixName(p.Name, "_p95"), "gauge", p.P95)
			add(suffixName(p.Name, "_p99"), "gauge", p.P99)
			if p.ExemplarTrace != "" {
				st.exemplars[p.Name] = p.ExemplarTrace
			}
		}
	}
	return updated
}

// oracleSamples is the Samples that binary search replaced: copy the whole
// ring in chronological order, then filter it.
func oracleSamples(st *Store, name string, from, to time.Time) ([]Sample, error) {
	st.mu.RLock()
	s, ok := st.series[name]
	if !ok {
		st.mu.RUnlock()
		return nil, ErrUnknownSeries
	}
	n := s.len()
	start := 0
	if s.full {
		start = s.next
	}
	all := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		all = append(all, s.buf[(start+i)%len(s.buf)])
	}
	st.mu.RUnlock()
	lo, hi := from.UnixNano(), to.UnixNano()
	out := all[:0:0]
	for _, sm := range all {
		if sm.TimeUnixNs >= lo && sm.TimeUnixNs <= hi {
			out = append(out, sm)
		}
	}
	return out, nil
}

// TestStoreHistoriesMatchOracle drives seeded random registry histories —
// plain instruments registered mid-run, funcs re-registered over another
// kind, vec families whose children promote and demote (shifting every
// snapshot slot behind them), a clock that now and then steps back — into a
// store scraping through slot bindings and an oracle store scraping by name.
// After every scrape the inventories, each series' Samples over random
// windows (held to the copying oracleSamples), every query's EvalAll, and
// every alert rule's evaluation (parsed once, matches cached) must agree.
func TestStoreHistoriesMatchOracle(t *testing.T) {
	exprs := []string{
		"h_plain_0_total",
		"rate(h_plain_0_total[30s])",
		"h_vec_total",
		"sum(rate(h_vec_total[20s]))",
		"sum by (camera) (delta(h_vec_total[40s]))",
		`h_vec_total{camera="cam-03"}`,
		"max_over_time(h_vec_seconds_p99[1m])",
		"avg by (camera) (avg_over_time(h_vec_seconds_count[30s]))",
		"quantile_over_time(0.9, h_plain_1_seconds_p50[2m])",
		"min_over_time(h_level[25s])",
		"h_level",
	}
	var rebinds, backSteps int
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := telemetry.NewRegistry()
		live, clk := newTestStore(reg, 8+rng.Intn(24))
		oracle := NewStore(reg, Config{Capacity: live.cap, Now: clk.now})
		engine := NewEngine(live, nil, nil)
		for i, expr := range exprs {
			if err := engine.AddRule(Rule{Name: fmt.Sprintf("r%d", i), Expr: expr, Op: CmpGT, Threshold: 1}, nil); err != nil {
				t.Fatal(err)
			}
		}
		counters := reg.CounterVec("h_vec_total", "", "camera", 1+rng.Intn(4))
		hists := reg.HistogramVec("h_vec_seconds", "", "camera", []float64{0.1, 1, 10}, 1+rng.Intn(4))
		camera := func() string { return fmt.Sprintf("cam-%02d", rng.Intn(8)) }
		for step := 0; step < 60; step++ {
			for n := rng.Intn(8); n > 0; n-- {
				switch rng.Intn(6) {
				case 0:
					reg.Counter(fmt.Sprintf("h_plain_%d_total", rng.Intn(3)), "").Add(rng.Intn(50))
				case 1:
					reg.Histogram(fmt.Sprintf("h_plain_%d_seconds", rng.Intn(3)), "", nil).
						ObserveExemplar(rng.ExpFloat64(), fmt.Sprintf("trace-%d", rng.Intn(99)))
				case 2:
					v := float64(rng.Intn(100))
					if rng.Intn(2) == 0 {
						reg.GaugeFunc("h_level", "", func() float64 { return v })
					} else {
						reg.CounterFunc("h_level", "", func() float64 { return v })
					}
				case 3:
					hists.With(camera()).Observe(rng.ExpFloat64())
				default:
					counters.With(camera()).Add(1 + rng.Intn(30))
				}
			}
			if rng.Intn(12) == 0 {
				clk.advance(-time.Duration(rng.Intn(3)) * time.Second)
				backSteps++
			} else {
				clk.advance(time.Duration(1+rng.Intn(10)) * time.Second)
			}
			slots := append([]*binding(nil), live.slots...)
			got, want := live.Scrape(), oracleScrape(oracle)
			for i, b := range live.slots {
				if i < len(slots) && slots[i] != b {
					rebinds++
				}
			}
			what := fmt.Sprintf("seed %d step %d", seed, step)
			if got != want {
				t.Fatalf("%s: Scrape updated %d series, oracle %d", what, got, want)
			}
			inv := live.Inventory()
			if oinv := oracle.Inventory(); !reflect.DeepEqual(inv, oinv) {
				t.Fatalf("%s: inventory\n%+v\noracle\n%+v", what, inv, oinv)
			}
			now := clk.now()
			for _, info := range inv {
				if ex, oex := live.ExemplarTrace(info.Name), oracle.ExemplarTrace(info.Name); ex != oex {
					t.Fatalf("%s: %s exemplar %q, oracle %q", what, info.Name, ex, oex)
				}
				from := now.Add(-time.Duration(rng.Intn(90)) * time.Second)
				to := from.Add(time.Duration(rng.Intn(120)-20) * time.Second)
				s, err := live.Samples(info.Name, from, to)
				os, oerr := oracleSamples(oracle, info.Name, from, to)
				if err != oerr || !reflect.DeepEqual(s, os) {
					t.Fatalf("%s: %s Samples(%v, %v) = %v %v, oracle %v %v", what, info.Name, from, to, s, err, os, oerr)
				}
			}
			for _, expr := range exprs {
				v, err := live.EvalAll(expr, now)
				ov, oerr := oracle.EvalAll(expr, now)
				if fmt.Sprint(err) != fmt.Sprint(oerr) || !reflect.DeepEqual(v, ov) {
					t.Fatalf("%s: EvalAll(%s) = %+v %v, oracle %+v %v", what, expr, v, err, ov, oerr)
				}
			}
			engine.Eval()
			for i, rs := range engine.States() {
				v, err := oracle.Eval(exprs[i], now)
				if rs.LastEvalOK != (err == nil) || err != nil && rs.LastError != err.Error() || err == nil && rs.LastValue != v.Value {
					t.Fatalf("%s: rule %s: ok %v value %v error %q, oracle Eval %v %v",
						what, exprs[i], rs.LastEvalOK, rs.LastValue, rs.LastError, v.Value, err)
				}
			}
		}
	}
	t.Logf("slot re-binds %d, clock steps back %d", rebinds, backSteps)
	if rebinds < 200 || backSteps < 50 {
		t.Fatalf("history too tame: %d slot re-binds, %d clock steps back", rebinds, backSteps)
	}
}

// TestSamplesReadsOnlyTheWindow pins the binary search's edges on a ring
// that has wrapped: windows before, across and after the retained span.
func TestSamplesReadsOnlyTheWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("w_total", "")
	st, clk := newTestStore(reg, 5)
	for i := 0; i < 8; i++ {
		c.Inc()
		st.Scrape()
		clk.advance(time.Second)
	}
	t0 := time.Unix(1_000_000, 0)
	var edges []time.Time
	for s := 0; s <= 9; s++ {
		edges = append(edges, t0.Add(time.Duration(s)*time.Second), t0.Add(time.Duration(s)*time.Second-1))
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Before(edges[j]) })
	for _, from := range edges {
		for _, to := range edges {
			got, _ := st.Samples("w_total", from, to)
			want, _ := oracleSamples(st, "w_total", from, to)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Samples(%v, %v) = %v, oracle %v", from.Sub(t0), to.Sub(t0), got, want)
			}
		}
	}
}

// TestScrapesWhileQueryingAndChurning: under -race, two goroutines scrape
// (the snapshot buffer and slot bindings are shared between scrapes) while
// another registers series and churns a vec's membership and a fourth
// queries and evaluates a rule with a cached match.
func TestScrapesWhileQueryingAndChurning(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStore(reg, Config{Capacity: 16})
	engine := NewEngine(st, nil, nil)
	if err := engine.AddRule(Rule{Name: "r", Expr: "sum(rate(c_vec_total[1m]))", Op: CmpGT, Threshold: 1}, nil); err != nil {
		t.Fatal(err)
	}
	vec := reg.CounterVec("c_vec_total", "", "camera", 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g {
				case 0, 1:
					st.Scrape()
				case 2:
					vec.With(fmt.Sprintf("cam-%d", i%7)).Add(i)
					reg.Counter(fmt.Sprintf("c_plain_%d_total", i%13), "").Inc()
				default:
					engine.Eval()
					if _, err := st.EvalAll("c_vec_total", st.Now()); err != nil && !errors.Is(err, ErrUnknownSeries) {
						t.Error(err)
						return
					}
					st.Inventory()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := st.Scrapes(); n != 400 {
		t.Fatalf("%d scrapes, want 400", n)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// contract is the part of BENCHMARK.json the harness must agree with.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smokeUnits keeps every workload to a few hundred milliseconds natively:
// sweeps, rounds, refreshes.
var smokeUnits = map[string]int{"frames-sweep": 3, "frames-chaos": 3, "feeds-batch": 10, "dashboard-mix": 10}

func TestWorkloadsMatchContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload small, untraced and traced, and holds the
// run to its reference checks, the printed metric names to BENCHMARK.json,
// and the spans to a well-formed tree.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	wantEndToEnd := map[string]string{}
	for _, m := range c.EndToEnd {
		wantEndToEnd[m.Name] = m.Unit
	}
	wantPerLayer := map[string]string{}
	for _, m := range c.PerLayer {
		wantPerLayer[m.Name] = m.Unit
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{w: w, seed: 42, units: smokeUnits[w.name], reps: 2}
			res, err := runOne(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, wantEndToEnd)

			cfg.reps, cfg.trace, cfg.untraced = 1, true, res.Metrics["throughput_per_s"].Value
			cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			res, err = runOne(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, wantPerLayer)
			if n := int(res.Metrics["trace.spans"].Value); n == 0 {
				t.Error("a traced run recorded no spans")
			}
			checkSpans(t, cfg.traceOut)
		})
	}
}

func checkResult(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%t failed=%d attempted=%d; want a correct run with no failures", res.Correct, res.Failed, res.Attempted)
	}
	var got, wanted []string
	for name, v := range res.Metrics {
		got = append(got, name+" "+v.Unit)
	}
	for name, unit := range want {
		wanted = append(wanted, name+" "+unit)
	}
	sort.Strings(got)
	sort.Strings(wanted)
	if len(got) != len(wanted) {
		t.Fatalf("run reports %d metrics, BENCHMARK.json names %d:\n%v\n%v", len(got), len(wanted), got, wanted)
	}
	for i := range got {
		if got[i] != wanted[i] {
			t.Errorf("metric %d: run reports %q, BENCHMARK.json names %q", i, got[i], wanted[i])
		}
	}
}

// checkSpans reads a span file back: every child lies inside its parent and
// shares its trace, and within each trace the self times add up to the
// root's duration.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Trace, ID, Parent int
		Name              string
		Start             int64 `json:"start_ns"`
		End               int64 `json:"end_ns"`
	}
	var spans []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s line
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	self := make([]int64, len(spans)+1)
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start || s.Name == "" {
			t.Fatalf("span %d is malformed: %+v", i+1, s)
		}
		self[s.ID] += s.End - s.Start
		if s.Parent == 0 {
			if s.Trace != s.ID {
				t.Fatalf("root span %d carries trace %d", s.ID, s.Trace)
			}
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d names a later parent: %+v", s.ID, s)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
			t.Fatalf("span %+v does not lie inside its parent %+v", s, p)
		}
		self[s.Parent] -= s.End - s.Start
	}
	perTrace := map[int]int64{}
	for _, s := range spans {
		if self[s.ID] < 0 {
			t.Fatalf("span %d has children that outlast it", s.ID)
		}
		perTrace[s.Trace] += self[s.ID]
	}
	for _, s := range spans {
		if s.Parent == 0 && perTrace[s.Trace] != s.End-s.Start {
			t.Fatalf("trace %d: self times add up to %d ns, the root lasts %d ns", s.Trace, perTrace[s.Trace], s.End-s.Start)
		}
	}
}

func TestSpellTrace(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"--trace", "0", "-seed", "7"}, []string{"-trace=0", "-seed", "7"}},
		{[]string{"--workload", "feeds-batch", "--trace", "1"}, []string{"--workload", "feeds-batch", "-trace=1"}},
		{[]string{"-trace", "-runs", "3"}, []string{"-trace=1", "-runs", "3"}},
	} {
		got := spellTrace(c.in)
		if len(got) != len(c.want) {
			t.Errorf("spellTrace(%q) = %q, want %q", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("spellTrace(%q) = %q, want %q", c.in, got, c.want)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	want := [3]float64{3.5, 13.5, 31}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

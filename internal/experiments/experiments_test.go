package experiments

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// update rewrites the golden files from the current code:
//
//	go test ./internal/experiments -run TestSameSeedSameBytes -update
var update = flag.Bool("update", false, "rewrite testdata/E<n>.seed<S>.txt from the current code")

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 26 {
		t.Fatalf("registry has %d experiments, want 26 (E1..E26)", len(ids))
	}
	titles := Titles()
	for _, id := range ids {
		if titles[id] == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", 1); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v", err)
	}
}

// TestSweepOrder pins the direction rule the E3, E5 and E7 checks share: a
// flat step passes either way, and a step against dir fails with both
// thresholds of the step named. The goldens only ever feed it sweeps that
// hold, so a flipped sign would go unseen without this.
func TestSweepOrder(t *testing.T) {
	ths := []float64{0, 0.5, 1}
	for _, c := range []struct {
		name    string
		vals    []float64
		dir     float64
		wantErr string
	}{
		{"rising never falls", []float64{1, 2, 3}, +1, ""},
		{"flat never falls", []float64{2, 2, 2}, +1, ""},
		{"flat never rises", []float64{2, 2, 2}, -1, ""},
		{"falling never rises", []float64{3, 2, 1}, -1, ""},
		{"dip against never falls", []float64{1, 3, 2}, +1, "from 3 to 2 as the threshold rises from 0.5 to 1"},
		{"rise against never rises", []float64{3, 1, 2}, -1, "from 1 to 2 as the threshold rises from 0.5 to 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := sweepOrder("E0", "col", ths, c.vals, c.dir)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("err = %v, want nil", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), "E0: col moves "+c.wantErr)):
				t.Fatalf("err = %v, want one naming %q", err, c.wantErr)
			}
		})
	}
}

// firstRuns caches Run(id, 42): the per-experiment tests below read the run
// TestSameSeedSameBytes compared, so an experiment executes once per
// `go test`. Its subtests run in parallel, hence the lock.
var (
	firstRunsMu sync.Mutex
	firstRuns   = map[string]*Result{}
)

// Each experiment must produce non-empty tables. Heavier experiments are
// exercised individually so test failures localize.
func runAndCheck(t *testing.T, id string) *Result {
	t.Helper()
	firstRunsMu.Lock()
	res := firstRuns[id]
	firstRunsMu.Unlock()
	if res == nil {
		var err error
		if res, err = Run(id, 42); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		firstRunsMu.Lock()
		firstRuns[id] = res
		firstRunsMu.Unlock()
	}
	if res.ID != id {
		t.Fatalf("result id = %s", res.ID)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tb := range res.Tables {
		if tb.NumRows() == 0 {
			t.Fatalf("%s produced an empty table", id)
		}
	}
	if !strings.Contains(res.String(), res.ID) {
		t.Fatalf("%s: String() missing id", id)
	}
	return res
}

// training lists the experiments that train a model; they are the slow ones
// and are skipped in -short.
var training = map[string]bool{"E5": true, "E7": true, "E8": true, "E15": true}

// stopwatchCells lists the experiments whose tables print a wall-clock
// reading, so they have no golden file. Nothing in them is compared against
// a budget.
var stopwatchCells = map[string]string{
	"E14": "dataproc.go prints dataproc wall time per parallelism",
	"E23": "attribution table and burn timeline print profiler self time in ms",
}

// goldenPath names the file that holds Run(id, seed).String().
func goldenPath(id string, seed int64) string {
	return filepath.Join("testdata", fmt.Sprintf("%s.seed%d.txt", id, seed))
}

// goldenSeeds lists the seeds id has golden files for. Only seed 42 is
// compared here; CI diffs `cmd/experiments -seed 43|44` against the others.
func goldenSeeds(id string) []int64 {
	if n, _ := strconv.Atoi(id[1:]); n >= 18 {
		return []int64{42, 43, 44}
	}
	return []int64{42}
}

// TestSameSeedSameBytes holds every experiment outside stopwatchCells to its
// golden output at seed 42. This is the "same work" check behind every
// refactor, and the reason no experiment re-runs itself to prove
// determinism. The experiments run as parallel subtests, so under -race it
// also shows that they share no state. A change that moves an output on
// purpose rewrites the files with -update and names them in CHANGES.md.
func TestSameSeedSameBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are pinned on amd64: Go may fuse x*y+z into one FMA instruction elsewhere, which can move the last digit of a printed float")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if why, ok := stopwatchCells[id]; ok {
				t.Skip(why)
			}
			if training[id] && testing.Short() {
				t.Skip("training experiment skipped in -short")
			}
			t.Parallel()
			got := runAndCheck(t, id).String()
			if *update {
				writeGoldens(t, id, got)
				return
			}
			path := goldenPath(id, 42)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (write it with -update)", err)
			}
			if got != string(want) {
				t.Fatalf("%s differs from %s (rewrite it with -update if the change is meant):\n--- got\n%s--- want\n%s", id, path, got, want)
			}
		})
	}
}

// writeGoldens writes id's golden files, seed42 being its output at seed 42.
func writeGoldens(t *testing.T, id, seed42 string) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range goldenSeeds(id) {
		out := seed42
		if seed != 42 {
			res, err := Run(id, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			out = res.String()
		}
		if err := os.WriteFile(goldenPath(id, seed), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	other, err := Run("E2", 43)
	if err != nil {
		t.Fatal(err)
	}
	if runAndCheck(t, "E2").String() == other.String() {
		t.Fatal("different seeds should differ")
	}
}

func TestE1(t *testing.T)  { runAndCheck(t, "E1") }
func TestE2(t *testing.T)  { runAndCheck(t, "E2") }
func TestE3(t *testing.T)  { runAndCheck(t, "E3") }
func TestE4(t *testing.T)  { runAndCheck(t, "E4") }
func TestE6(t *testing.T)  { runAndCheck(t, "E6") }
func TestE9(t *testing.T)  { runAndCheck(t, "E9") }
func TestE10(t *testing.T) { runAndCheck(t, "E10") }
func TestE11(t *testing.T) { runAndCheck(t, "E11") }
func TestE12(t *testing.T) { runAndCheck(t, "E12") }
func TestE13(t *testing.T) { runAndCheck(t, "E13") }
func TestE14(t *testing.T) { runAndCheck(t, "E14") }

func TestE15(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment skipped in -short")
	}
	runAndCheck(t, "E15")
}

func TestE16(t *testing.T) { runAndCheck(t, "E16") }
func TestE17(t *testing.T) { runAndCheck(t, "E17") }

func TestE18(t *testing.T) {
	res := runAndCheck(t, "E18")
	// The runner itself enforces 100% exactly-once delivery in the hardened
	// arm and a fully healed cluster; reaching here means both held. Check
	// the sweep shape: 4 rates × 2 arms.
	if res.Tables[0].NumRows() != 8 {
		t.Fatalf("sweep rows = %d", res.Tables[0].NumRows())
	}
}

func TestE19(t *testing.T) {
	res := runAndCheck(t, "E19")
	// The runner fails internally if any threshold's attribution leaks
	// latency; reaching here means wait+service summed to end-to-end at all
	// three thresholds. Check the summary shape: one row per threshold.
	if res.Tables[1].NumRows() != 3 {
		t.Fatalf("summary rows = %d", res.Tables[1].NumRows())
	}
}

func TestE20(t *testing.T) {
	res := runAndCheck(t, "E20")
	// The runner enforces the hard claims internally: every baseline trace's
	// breakdown sums exactly to its root duration, the chaos arm moves the
	// delivery burn rate, the worst exemplar resolves, and the simulator
	// replay's attribution equals simulated latency. Check the table shape:
	// attribution must cover all four tiers.
	out := res.String()
	for _, tier := range []string{"edge", "fog", "server", "cloud"} {
		if !strings.Contains(out, tier) {
			t.Fatalf("E20 attribution missing tier %s:\n%s", tier, out)
		}
	}
	if res.Tables[1].NumRows() != 2 {
		t.Fatalf("slo rows = %d", res.Tables[1].NumRows())
	}
}

func TestE21(t *testing.T) {
	res := runAndCheck(t, "E21")
	// The runner enforces the hard claims internally: the delivery-rate rule
	// fires within 3 chaos ticks and resolves after the window drains, rate()
	// matches registry deltas to float round-off, the firing event's exemplar
	// resolves, and the exported gauges track engine state. Check the
	// timeline covers all three phases.
	out := res.String()
	for _, phase := range []string{"baseline", "chaos", "recovery", "firing", "resolve"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("E21 output missing %q:\n%s", phase, out)
		}
	}
}

func TestE22(t *testing.T) {
	res := runAndCheck(t, "E22")
	// The runner enforces the hard claims internally: election within the
	// 3-tick budget, stale-epoch fencing, the under-replicated alert firing
	// and resolving, and the exactly-once full-log audit. Check the timeline
	// walks every failover phase and the fencing probes are all present.
	out := res.String()
	for _, want := range []string{
		"kill leader", "re-elected", "node down", "restart", "catch-up",
		"rejected: no leader", "rejected: stale epoch", "accepted",
		"duplicates / losses", "firing",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E22 output missing %q:\n%s", want, out)
		}
	}
}

func TestE23(t *testing.T) {
	res := runAndCheck(t, "E23")
	// The runner enforces the hard claims internally: the ingest region tree
	// telescopes exactly, and an injected CPU burn localizes to ingest/store
	// and fires the hot-region anomaly rule within 3 ticks. Check the
	// timeline walks both phases and the localization table names the burned
	// region.
	out := res.String()
	for _, want := range []string{"warmup", "burn", "ingest/store", "firing", "telescoping"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E23 output missing %q:\n%s", want, out)
		}
	}
}

func TestE24(t *testing.T) {
	res := runAndCheck(t, "E24")
	// The runner enforces the hard claims internally: every chaos phase
	// draws its matching mitigation within 3 monitor ticks, the clean tail
	// restores every knob, and the controlled arm lands strictly less
	// cumulative damage than the static baseline. Check the rendered output
	// names all three mitigations and both arms.
	out := res.String()
	for _, want := range []string{
		"threshold-lower", "migrate-fog", "shed", "threshold-raise",
		"baseline", "controlled", "hdfs-partition", "bus-partition", "hbase-partition",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E24 output missing %q:\n%s", want, out)
		}
	}
}

func TestE25(t *testing.T) {
	res := runAndCheck(t, "E25")
	// The runner enforces the hard claims internally: every scenario opens
	// an incident within 3 ticks of fault onset, resolves it after the
	// partition clears, top-ranks the injected backend in >= 90% of
	// incidents, and the canonical record replays byte-identically. Check
	// the rendered output names all four scenarios and their suspects.
	out := res.String()
	for _, want := range []string{
		"hdfs-partition", "bus-partition", "hbase-partition", "docstore-partition",
		"hdfs", "broker", "hbase", "docstore", "byte-identically",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E25 output missing %q:\n%s", want, out)
		}
	}
}

func TestE26(t *testing.T) {
	res := runAndCheck(t, "E26")
	// The runner enforces the hard claims internally: the targeted blackout
	// fires camera-delivery-rate within 3 ticks, localizes to exactly the
	// blacked-out camera with zero collateral, and keeps every family within
	// K+1 registry series with exact Σ per-camera counts. Check the rendered
	// output walks all three phases and both accounting tables.
	out := res.String()
	for _, want := range []string{
		"warmup", "fault", "recovery", "firing", "~other",
		"cityinfra_camera_frames_undelivered_total", "rolled up",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E26 output missing %q:\n%s", want, out)
		}
	}
}

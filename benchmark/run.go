package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. endToEnd and perLayer are the whole
// vocabulary: BENCHMARK.json repeats them, and the smoke test holds the two
// together.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_tail_us", "us"},
	{"cpu_us_per_item", "us"},
	{"allocs_per_item", "count"},
	{"alloc_bytes_per_item", "B"},
	{"retained_heap_mb", "MB"},
	{"setup_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, as the driver's contract words it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is one workload run in this process.
type runConfig struct {
	w     *workload
	seed  int64
	units int // sweeps, rounds or refreshes per repetition
	// An untraced run repeats set-up, timed phase and checks reps times,
	// each on a fresh infrastructure, and reports each metric's median: the
	// machines this runs on have slow spells of a second or more, and one
	// slow spell must not make a run. A traced run makes one repetition.
	reps int
	// Within a repetition set-up itself is repeated until setupFor has been
	// spent on it (11 times at most) and the last one is driven: setup_s is
	// the median of them all, steady even where one takes milliseconds.
	setupFor time.Duration
	trace    bool
	traceOut string
	// untraced is throughput_per_s of an untraced run of the same work, the
	// base of trace.overhead_share. Traced runs only.
	untraced float64
}

// phase is what the harness reads off the process on either side of the
// timed phase.
type phase struct {
	cpu    time.Duration // user + system
	mem    runtime.MemStats
	gcCPU  float64 // seconds
	ingest float64 // profiler seconds attributed to region "ingest"
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func snapshot(d driver) phase {
	p := phase{cpu: processCPU()}
	p.ingest = d.infra().Profiler.Region("ingest").WallSeconds()
	p.gcCPU = gcCPUSeconds()
	runtime.ReadMemStats(&p.mem)
	return p
}

// beyond is how many of n samples lie above the percentile p; the sample at
// index n-1-beyond of the sorted samples is the percentile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

func percentile(sorted []time.Duration, p float64) time.Duration {
	return sorted[len(sorted)-1-beyond(len(sorted), p)]
}

const mb = 1 << 20

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runOne runs cfg.reps repetitions and prints each metric's median over
// them: the end-to-end metrics, or with cfg.trace the per-layer ones.
func runOne(cfg runConfig, out io.Writer) (result, error) {
	res := result{Correct: true}
	values := map[string][]float64{}
	for rep := 1; rep <= cfg.reps; rep++ {
		one, err := repetition(cfg, rep, out)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", cfg.w.name, err)
		}
		for name, v := range one.values {
			values[name] = append(values[name], v)
		}
		values["setup_s"] = append(values["setup_s"], one.setups...)
		res.Attempted += one.attempted
		res.Failed += one.failed
		for _, line := range one.mismatches {
			res.Correct = false
			fmt.Fprintf(out, "  MISMATCH %s\n", line)
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, def := range defs {
		v := 0.0 // a layer the workload does not exercise
		if len(values[def.name]) > 0 {
			v = quartiles(values[def.name])[1]
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", def.name, v, def.unit)
	}
	fmt.Fprintf(out, "  %-34s %14.6f share (%d of %d)\n", "failed_share", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// measured is one repetition's outcome.
type measured struct {
	values            map[string]float64 // every metric but setup_s
	setups            []float64          // seconds
	attempted, failed int
	mismatches        []string
}

// repetition sets the workload up on a fresh infrastructure, drives it, and
// checks it against the reference.
func repetition(cfg runConfig, rep int, out io.Writer) (measured, error) {
	w := cfg.w
	var (
		one measured
		d   driver
	)
	for spent := 0.0; d == nil || (spent < cfg.setupFor.Seconds() && len(one.setups) < 11); {
		// Drop the previous infrastructure first, so every set-up and every
		// repetition starts on a settled heap.
		d = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = w.setup(cfg.seed, cfg.units); err != nil {
			return one, fmt.Errorf("set-up: %w", err)
		}
		one.setups = append(one.setups, time.Since(t0).Seconds())
		spent += one.setups[len(one.setups)-1]
	}
	inf := d.infra()
	m := &meter{samples: make([]time.Duration, 0, 1<<16)}
	var base layerCounts
	if cfg.trace {
		m.rec = newRecorder()
		inf.Bus = &tracedBus{next: inf.Bus, rec: m.rec}
		base = countLayers(inf)
	}
	if rep == 1 {
		fmt.Fprintf(out, "%s seed=%d gomaxprocs=%d trace=%t: %s\n", w.name, cfg.seed, runtime.GOMAXPROCS(0), cfg.trace, d.describe())
	}

	runtime.GC()
	before := snapshot(d)
	t0 := time.Now()
	d.drive(m)
	elapsed := time.Since(t0)
	after := snapshot(d)
	// What the stores, the broker logs and the rings keep: the heap after a
	// collection, with the infrastructure still live.
	runtime.GC()
	var settled runtime.MemStats
	runtime.ReadMemStats(&settled)

	items := float64(m.items)
	sorted := append([]time.Duration(nil), m.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	one.values = map[string]float64{
		"throughput_per_s":     items / elapsed.Seconds(),
		"latency_p50_us":       us(percentile(sorted, 0.5)),
		"latency_tail_us":      us(percentile(sorted, w.tail)),
		"cpu_us_per_item":      us(after.cpu-before.cpu) / items,
		"allocs_per_item":      float64(after.mem.Mallocs-before.mem.Mallocs) / items,
		"alloc_bytes_per_item": float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / items,
		"retained_heap_mb":     float64(settled.HeapAlloc) / mb,
	}
	one.attempted, one.failed = m.attempted, m.failed()
	one.mismatches = d.check(m)
	if m.firstBad != "" {
		one.mismatches = append(one.mismatches, m.firstBad)
	}
	fmt.Fprintf(out, "  repetition %d: %d %s in %.2f s; %d latency samples, one per %s: p50 %.1f us, p%g %.1f us with %d beyond it\n",
		rep, m.items, w.items, elapsed.Seconds(), len(sorted), w.sample, one.values["latency_p50_us"],
		100*w.tail, one.values["latency_tail_us"], beyond(len(sorted), w.tail))

	if cfg.trace {
		layers, err := layerMetrics(cfg, d, m, base, before, after, elapsed)
		if err != nil {
			return one, err
		}
		fmt.Fprintf(out, "  traced against %.1f/s untraced; Ingest* and MonitorTick calls cover %.1f %% of elapsed; %d spans -> %s\n",
			cfg.untraced, 100*(m.ingest+m.ticks).Seconds()/elapsed.Seconds(), len(m.rec.spans), cfg.traceOut)
		one.values = layers
		if err := m.rec.write(cfg.traceOut); err != nil {
			return one, fmt.Errorf("write spans: %w", err)
		}
	}
	runtime.KeepAlive(d)
	return one, nil
}

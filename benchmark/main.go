// Command benchmark is this repository's performance instrument: four
// closed-loop workloads over the four-tier stack, end-to-end metrics with
// tracing off, and per-layer metrics from a traced run. README.md in this
// directory says how to run it and read it; BENCHMARK.json at the repository
// root is the contract it is held to.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// gomaxprocs is pinned so that a run means the same on any machine with at
// least two cores: one P for the single client goroutine, one for the
// garbage collector.
const gomaxprocs = 2

// An untraced run makes this many repetitions; -seconds is shared out
// between them.
const repetitions = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	runs     int
	agree    bool
}

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// spellTrace lets -trace stand alone, as a person types it, and also take a
// separate 0 or 1, as the driver passes it; package flag allows only one of
// the two for one flag.
func spellTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if args[i] != "-trace" && args[i] != "--trace" {
			out = append(out, args[i])
			continue
		}
		v := "1"
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			i++
			v = args[i]
		}
		out = append(out, "-trace="+v)
	}
	return out
}

var errIncorrect = errors.New("a reference check failed")

func run(args []string, out io.Writer) error {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all four, each in a fresh process)")
	fs.Int64Var(&o.seed, "seed", 42, "seeds core.New, every input generator and the fault injector")
	fs.IntVar(&o.seconds, "seconds", 15, "nominal time measured, over all repetitions; it fixes the item counts, which do not stretch or shrink with speed")
	fs.BoolVar(&o.trace, "trace", false, "record spans and print the per-layer metrics in place of the end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_out/spans-<workload>.jsonl)")
	fs.IntVar(&o.runs, "runs", 1, "repeat each workload this many times in fresh processes and print median and quartiles")
	fs.BoolVar(&o.agree, "agree", false, "run two sets of -runs (at least 3) and fail if a median differs by more than its bound in BENCHMARK.json")
	if err := fs.Parse(spellTrace(args)); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 || o.runs < 1 {
		return errors.New("-seconds and -runs must be at least 1")
	}
	var names []string
	switch {
	case o.workload == "":
		for _, w := range workloads {
			names = append(names, w.name)
		}
	case findWorkload(o.workload) == nil:
		return fmt.Errorf("unknown workload %q", o.workload)
	default:
		names = []string{o.workload}
	}

	switch {
	case o.agree:
		return agree(o, names, out)
	case o.runs > 1:
		for _, name := range names {
			if _, err := repeat(o, name, out); err != nil {
				return err
			}
		}
		return nil
	case o.workload == "":
		for _, name := range names {
			if _, err := spawn(o, name, o.trace, out); err != nil {
				return err
			}
		}
		return nil
	}

	w := findWorkload(o.workload)
	cfg := runConfig{
		w: w, seed: o.seed, units: w.unitsPerSecond * o.seconds / repetitions,
		reps: repetitions, setupFor: time.Second / repetitions,
	}
	if o.trace {
		cfg.trace, cfg.traceOut, cfg.reps = true, o.traceOut, 1
		if cfg.traceOut == "" {
			cfg.traceOut = ".bench_out/spans-" + w.name + ".jsonl"
		}
		// The same work, untraced, in a process of its own: the base the
		// tracing overhead is measured against.
		ref, err := spawn(o, w.name, false, out)
		if err != nil {
			return err
		}
		cfg.untraced = ref.Metrics["throughput_per_s"].Value
	}
	res, err := runOne(cfg, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// spawn runs one workload in a fresh process of this binary, so that no
// workload's heap paces another's garbage collector. It copies what the
// child printed, less the result line, to out (nil discards it).
func spawn(o options, name string, trace bool, out io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	if trace {
		args = append(args, "-trace=1")
		if o.traceOut != "" {
			args = append(args, "-trace-out", o.traceOut)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	text, last := splitLast(stdout)
	if out != nil {
		out.Write(text)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

// splitLast separates the last line of b from what precedes it.
func splitLast(b []byte) (head, last []byte) {
	b = bytes.TrimRight(b, "\n")
	i := bytes.LastIndexByte(b, '\n')
	return b[:i+1], b[i+1:]
}

// quartiles are Python's statistics.quantiles(v, n=4), the rule the
// driver's acceptance check uses; the middle one is the median.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// repeat runs one workload o.runs times on the same seed and prints, per
// metric, the median, the quartiles and their distance as a share of the
// median. It returns the medians.
func repeat(o options, name string, out io.Writer) (map[string]float64, error) {
	values := map[string][]float64{}
	for i := 0; i < o.runs; i++ {
		res, err := spawn(o, name, o.trace, nil)
		if err != nil {
			return nil, err
		}
		for metric, v := range res.Metrics {
			values[metric] = append(values[metric], v.Value)
		}
		values["failed"] = append(values["failed"], float64(res.Failed))
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(out, "%s: %d runs, seed %d, trace=%t\n  %-32s %14s %14s %14s %8s\n", name, o.runs, o.seed, o.trace, "metric", "median", "q1", "q3", "iqr/med")
	medians := map[string]float64{}
	for _, def := range append(defs[:len(defs):len(defs)], metricDef{"failed", "count"}) {
		q := quartiles(values[def.name])
		medians[def.name] = q[1]
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / math.Abs(q[1])
		}
		fmt.Fprintf(out, "  %-32s %14.4f %14.4f %14.4f %8.4f %s\n", def.name, q[1], q[0], q[2], spread, def.unit)
	}
	return medians, nil
}

// agree runs two sets of repeats of the same commit and fails when an
// end-to-end median moves between them by more than the bound BENCHMARK.json
// (in the working directory) allows a change to worsen it by.
func agree(o options, names []string, out io.Writer) error {
	if o.runs < 3 || o.trace {
		return errors.New("-agree needs -runs of at least 3 and no -trace")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-agree reads the bounds from the repository root: %w", err)
	}
	var contract struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	apart := 0
	for _, name := range names {
		first, err := repeat(o, name, out)
		if err != nil {
			return err
		}
		second, err := repeat(o, name, out)
		if err != nil {
			return err
		}
		for _, metric := range contract.EndToEnd {
			a, b := first[metric.Name], second[metric.Name]
			moved := math.Abs(b-a) / a
			verdict := "agree"
			if moved > metric.Bound {
				verdict = "APART"
				apart++
			}
			fmt.Fprintf(out, "  %-32s %14.4f %14.4f moved %.4f, bound %.2f: %s\n", metric.Name, a, b, moved, metric.Bound, verdict)
		}
	}
	if apart > 0 {
		return fmt.Errorf("%d medians moved by more than their bound between two sets of runs of one commit", apart)
	}
	return nil
}

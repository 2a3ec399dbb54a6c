package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/dataproc"
	"repro/internal/mllib"
	"repro/internal/viz"
)

// e14Archive is where E14's month of crimes lands in HDFS.
const e14Archive = "/warehouse/crimes/e14.json"

// E14DataprocMLlib runs Fig. 4's analysis box as the paper places it: after
// storage. It boots the stack, ingests a month of crimes (HBase rows plus an
// HDFS archive), reads the archive back, and runs a word count over the
// crime descriptions and a k-means clustering of their locations on the
// stack's own YARN-backed engine, one partition per HDFS block of the
// archive as Spark's input splits are.
func E14DataprocMLlib(rng *rand.Rand) (*Result, error) {
	cfg := core.DefaultConfig()
	inf, err := core.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	incidents, err := citydata.GenerateCrimes(citydata.CrimeConfig{
		Count: 2000, Districts: 12, GangFraction: 0.3,
		Start: cfg.Epoch, Span: 30 * 24 * time.Hour,
	}, nil, rng)
	if err != nil {
		return nil, err
	}
	if _, err := inf.IngestCrimes(incidents, e14Archive); err != nil {
		return nil, err
	}

	raw, err := inf.HDFS.Read(e14Archive)
	if err != nil {
		return nil, err
	}
	info, err := inf.HDFS.Stat(e14Archive)
	if err != nil {
		return nil, err
	}
	var stored []citydata.Incident
	if err := json.Unmarshal(raw, &stored); err != nil {
		return nil, fmt.Errorf("E14: decode %s: %w", e14Archive, err)
	}
	if len(stored) != len(incidents) {
		return nil, fmt.Errorf("E14: read back %d records from %s, ingested %d", len(stored), e14Archive, len(incidents))
	}
	parts := info.Blocks

	// Word count over the archived descriptions.
	docs := make([]any, len(stored))
	words := 0
	for i, inc := range stored {
		d := fmt.Sprintf("%s %s district %d", inc.Offense, inc.Address, inc.District)
		docs[i] = d
		words += len(strings.Fields(d))
	}
	before := inf.Engine.Metrics()
	counts, err := inf.Engine.Parallelize(docs, parts).
		FlatMap(func(v any) []any {
			var out []any
			for _, w := range strings.Fields(v.(string)) {
				out = append(out, dataproc.Pair{Key: w, Value: 1})
			}
			return out
		}).
		ReduceByKey(func(a, b any) any { return a.(int) + b.(int) }).
		CollectPairs()
	if err != nil {
		return nil, err
	}
	wc, err := e14Job(inf, before, 1, parts)
	if err != nil {
		return nil, err
	}
	counted := 0
	for _, p := range counts {
		counted += p.Value.(int)
	}
	if counted != words {
		return nil, fmt.Errorf("E14: word count totals %d words, the decoded descriptions hold %d", counted, words)
	}

	// MLlib: cluster the archived crime locations into hotspots.
	const k, maxIters = 5, 100
	pts := make([]any, len(stored))
	for i, inc := range stored {
		pts[i] = mllib.Vector{inc.Location.Lat, inc.Location.Lon}
	}
	before = inf.Engine.Metrics()
	km, err := mllib.KMeans(inf.Engine.Parallelize(pts, parts), k, maxIters, rng)
	if err != nil {
		return nil, err
	}
	kmJob, err := e14Job(inf, before, km.Iters, parts)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, k)
	for _, p := range pts {
		sizes[km.Predict(p.(mllib.Vector))]++
	}
	clustered := 0
	for i, n := range sizes {
		if n == 0 {
			return nil, fmt.Errorf("E14: k-means cluster %d is empty", i)
		}
		clustered += n
	}
	if clustered != len(stored) {
		return nil, fmt.Errorf("E14: k-means clusters hold %d incidents, the archive %d", clustered, len(stored))
	}

	archive := viz.NewTable("crime archive read back from HDFS",
		"archive bytes", "blocks = partitions", "records read back", "distinct words")
	archive.AddRow(len(raw), parts, len(stored), len(counts))
	jobs := viz.NewTable("jobs on the stack's YARN-backed engine", "job", "iterations", "tasks", "shuffles")
	jobs.AddRow("word count", 1, wc.TasksRun, wc.ShufflesRun)
	jobs.AddRow(fmt.Sprintf("k-means (k=%d)", k), km.Iters, kmJob.TasksRun, kmJob.ShufflesRun)
	hotspots := viz.NewTable(fmt.Sprintf("k-means crime hotspots (k=%d)", k), "cluster", "lat", "lon", "incidents")
	for i, c := range km.Centroids {
		hotspots.AddRow(i, c[0], c[1], sizes[i])
	}
	return &Result{
		ID: "E14", Title: "dataproc & MLlib over the stored crime archive",
		Tables: []*viz.Table{archive, jobs, hotspots},
		Notes: []string{
			"paper claim: Spark as distributed processing engine on YARN, reading what the collection path stored; MLlib for traditional data mining",
			fmt.Sprintf("k-means ran %d of at most %d iterations, inertia %.4g", km.Iters, maxIters, km.Inertia),
		},
	}, nil
}

// e14Job returns what one job cost inf.Engine since before and checks its
// shape: each of its iterations is two stages, one task per partition each,
// with one shuffle between them, and every container it leased from inf.RM
// is back.
func e14Job(inf *core.Infrastructure, before dataproc.Metrics, iters, parts int) (dataproc.Metrics, error) {
	after := inf.Engine.Metrics()
	d := dataproc.Metrics{TasksRun: after.TasksRun - before.TasksRun, ShufflesRun: after.ShufflesRun - before.ShufflesRun}
	if d.TasksRun != 2*iters*parts || d.ShufflesRun != iters {
		return d, fmt.Errorf("E14: %d iterations over %d partitions ran %d tasks and %d shuffles, want %d and %d",
			iters, parts, d.TasksRun, d.ShufflesRun, 2*iters*parts, iters)
	}
	if run, pend := inf.RM.Running(), inf.RM.Pending(); run != 0 || pend != 0 {
		return d, fmt.Errorf("E14: %d containers still leased and %d requests queued after the job", run, pend)
	}
	return d, nil
}

package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/citydata"
	"repro/internal/dataproc"
	"repro/internal/mllib"
	"repro/internal/viz"
	"repro/internal/yarn"
)

// E14DataprocMLlib measures the batch-analytics engine: word-count scaling
// with partitions/parallelism and a k-means clustering of crime locations.
func E14DataprocMLlib(rng *rand.Rand) (*Result, error) {
	// Build a corpus of crime descriptions.
	incidents, err := citydata.GenerateCrimes(citydata.CrimeConfig{
		Count: 2000, Districts: 12, GangFraction: 0.3,
		Start: time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC), Span: 30 * 24 * time.Hour,
	}, nil, rng)
	if err != nil {
		return nil, err
	}
	docs := make([]any, len(incidents))
	for i, inc := range incidents {
		docs[i] = fmt.Sprintf("%s %s district %d", inc.Offense, inc.Address, inc.District)
	}

	scaling := viz.NewTable("dataproc word-count scaling", "parallelism", "partitions", "wall", "tasks")
	for _, par := range []int{1, 2, 4, 8} {
		rm := yarn.NewResourceManager()
		for i := 0; i < 4; i++ {
			if err := rm.AddNode(fmt.Sprintf("nm-%d", i), yarn.Resources{Cores: 4, MemMB: 4096}); err != nil {
				return nil, err
			}
		}
		app := rm.Submit("wordcount")
		eng := dataproc.NewEngine(par, dataproc.WithYARN(rm, app, yarn.Resources{Cores: 1, MemMB: 256}))
		start := time.Now()
		_, err = eng.Parallelize(docs, par*2).
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
		scaling.AddRow(par, par*2, time.Since(start).Round(time.Microsecond).String(), eng.Metrics().TasksRun)
	}

	// MLlib: cluster crime locations into hotspots.
	eng := dataproc.NewEngine(4)
	pts := make([]any, len(incidents))
	for i, inc := range incidents {
		pts[i] = mllib.Vector{inc.Location.Lat, inc.Location.Lon}
	}
	km, err := mllib.KMeans(eng.Parallelize(pts, 4), 5, 30, rng)
	if err != nil {
		return nil, err
	}
	hotspots := viz.NewTable("k-means crime hotspots (k=5)", "cluster", "lat", "lon", "incidents")
	counts := make([]int, 5)
	for _, p := range pts {
		counts[km.Predict(p.(mllib.Vector))]++
	}
	for i, c := range km.Centroids {
		hotspots.AddRow(i, c[0], c[1], counts[i])
	}
	return &Result{
		ID: "E14", Title: "dataproc scaling & MLlib on crime data",
		Tables: []*viz.Table{scaling, hotspots},
		Notes: []string{
			"paper claim: Spark as distributed processing engine on YARN; MLlib for traditional data mining",
			fmt.Sprintf("k-means converged in %d iterations, inertia %.4g", km.Iters, km.Inertia),
		},
	}, nil
}

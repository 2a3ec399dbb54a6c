// Package dataproc implements a Spark-style distributed data-processing
// engine: lazy, partitioned datasets with narrow transformations (map,
// flatMap) executed per-partition in parallel, and wide transformations
// (reduceByKey, groupByKey, join) that introduce hash shuffles. Task slots
// are leased from a yarn.ResourceManager when one is attached, reproducing
// the paper's HDFS + YARN + Spark software stack.
//
// Datasets carry values as `any`; pair operations use the Pair type. The
// engine is deliberately eager at action boundaries (Collect/Count) and
// lazy elsewhere, with optional caching, like the system it models.
package dataproc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/yarn"
)

// ErrBadPlan is returned when a dataset's rows do not fit the operation,
// such as a shuffle over rows that are not Pairs.
var ErrBadPlan = errors.New("dataproc: invalid plan")

// Pair is a keyed record used by shuffle operations.
type Pair struct {
	Key   string
	Value any
}

// Engine executes dataset plans.
type Engine struct {
	parallelism int
	rm          *yarn.ResourceManager
	app         yarn.ApplicationID
	taskRes     yarn.Resources

	mu          sync.Mutex
	tasksRun    int
	shufflesRun int
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithYARN makes the engine lease one container per concurrent task from rm
// under the given application.
func WithYARN(rm *yarn.ResourceManager, app yarn.ApplicationID, perTask yarn.Resources) EngineOption {
	return func(e *Engine) {
		e.rm = rm
		e.app = app
		e.taskRes = perTask
	}
}

// NewEngine creates an engine running up to parallelism concurrent tasks.
func NewEngine(parallelism int, opts ...EngineOption) *Engine {
	if parallelism < 1 {
		parallelism = 1
	}
	e := &Engine{parallelism: parallelism}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Metrics reports execution counters.
type Metrics struct {
	TasksRun    int
	ShufflesRun int
}

// Metrics returns a snapshot of execution counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Metrics{TasksRun: e.tasksRun, ShufflesRun: e.shufflesRun}
}

// Dataset is a lazy, partitioned collection.
type Dataset struct {
	eng     *Engine
	nParts  int
	compute func() ([][]any, error)

	mu     sync.Mutex
	cached [][]any
	cache  bool
}

// Parallelize creates a dataset from a slice, split into nParts partitions.
func (e *Engine) Parallelize(data []any, nParts int) *Dataset {
	if nParts < 1 {
		nParts = 1
	}
	src := make([]any, len(data))
	copy(src, data)
	return &Dataset{
		eng:    e,
		nParts: nParts,
		compute: func() ([][]any, error) {
			parts := make([][]any, nParts)
			for i, v := range src {
				p := i % nParts
				parts[p] = append(parts[p], v)
			}
			return parts, nil
		},
	}
}

// ParallelizePairs creates a keyed dataset from pairs.
func (e *Engine) ParallelizePairs(pairs []Pair, nParts int) *Dataset {
	data := make([]any, len(pairs))
	for i, p := range pairs {
		data[i] = p
	}
	return e.Parallelize(data, nParts)
}

// Cache marks the dataset for materialization reuse.
func (d *Dataset) Cache() *Dataset {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cache = true
	return d
}

// materialize computes (or returns cached) partition data.
func (d *Dataset) materialize() ([][]any, error) {
	d.mu.Lock()
	if d.cached != nil {
		out := d.cached
		d.mu.Unlock()
		return out, nil
	}
	d.mu.Unlock()
	parts, err := d.compute()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.cache && d.cached == nil {
		d.cached = parts
	}
	d.mu.Unlock()
	return parts, nil
}

// runTasks executes fn once per partition with bounded parallelism, leasing
// YARN containers when configured.
func (e *Engine) runTasks(parts [][]any, fn func(p int, rows []any) ([]any, error)) ([][]any, error) {
	out := make([][]any, len(parts))
	errs := make([]error, len(parts))
	sem := make(chan struct{}, e.parallelism)
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if e.rm != nil {
				ch, err := e.rm.Request(e.app, e.taskRes)
				if err != nil {
					errs[p] = fmt.Errorf("task %d container: %w", p, err)
					return
				}
				cid := <-ch
				defer func() {
					_ = e.rm.Release(cid)
				}()
			}
			rows, err := fn(p, parts[p])
			if err != nil {
				errs[p] = fmt.Errorf("task %d: %w", p, err)
				return
			}
			out[p] = rows
		}(p)
	}
	wg.Wait()
	e.mu.Lock()
	e.tasksRun += len(parts)
	e.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Map applies f to every element (narrow).
func (d *Dataset) Map(f func(any) any) *Dataset {
	parent := d
	return &Dataset{
		eng:    d.eng,
		nParts: d.nParts,
		compute: func() ([][]any, error) {
			parts, err := parent.materialize()
			if err != nil {
				return nil, err
			}
			return parent.eng.runTasks(parts, func(_ int, rows []any) ([]any, error) {
				out := make([]any, len(rows))
				for i, r := range rows {
					out[i] = f(r)
				}
				return out, nil
			})
		},
	}
}

// FlatMap expands each element into zero or more elements (narrow).
func (d *Dataset) FlatMap(f func(any) []any) *Dataset {
	parent := d
	return &Dataset{
		eng:    d.eng,
		nParts: d.nParts,
		compute: func() ([][]any, error) {
			parts, err := parent.materialize()
			if err != nil {
				return nil, err
			}
			return parent.eng.runTasks(parts, func(_ int, rows []any) ([]any, error) {
				var out []any
				for _, r := range rows {
					out = append(out, f(r)...)
				}
				return out, nil
			})
		},
	}
}

func hashKey(k string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(k))
	return int(h.Sum32() % uint32(n))
}

// shuffle redistributes pair rows by key hash into nParts buckets; it is the
// stage boundary of every wide transformation.
func (e *Engine) shuffle(parts [][]any, nParts int) ([][]any, error) {
	buckets := make([][]any, nParts)
	for _, rows := range parts {
		for _, r := range rows {
			p, ok := r.(Pair)
			if !ok {
				return nil, fmt.Errorf("%w: shuffle over non-pair element %T", ErrBadPlan, r)
			}
			b := hashKey(p.Key, nParts)
			buckets[b] = append(buckets[b], r)
		}
	}
	e.mu.Lock()
	e.shufflesRun++
	e.mu.Unlock()
	return buckets, nil
}

// ReduceByKey merges values of equal keys with f (wide).
func (d *Dataset) ReduceByKey(f func(a, b any) any) *Dataset {
	parent := d
	return &Dataset{
		eng:    d.eng,
		nParts: d.nParts,
		compute: func() ([][]any, error) {
			parts, err := parent.materialize()
			if err != nil {
				return nil, err
			}
			buckets, err := parent.eng.shuffle(parts, parent.nParts)
			if err != nil {
				return nil, err
			}
			return parent.eng.runTasks(buckets, func(_ int, rows []any) ([]any, error) {
				acc := make(map[string]any)
				order := make([]string, 0)
				for _, r := range rows {
					p := r.(Pair)
					if cur, ok := acc[p.Key]; ok {
						acc[p.Key] = f(cur, p.Value)
					} else {
						acc[p.Key] = p.Value
						order = append(order, p.Key)
					}
				}
				out := make([]any, 0, len(acc))
				for _, k := range order {
					out = append(out, Pair{Key: k, Value: acc[k]})
				}
				return out, nil
			})
		},
	}
}

// GroupByKey collects all values per key into []any (wide).
func (d *Dataset) GroupByKey() *Dataset {
	parent := d
	return &Dataset{
		eng:    d.eng,
		nParts: d.nParts,
		compute: func() ([][]any, error) {
			parts, err := parent.materialize()
			if err != nil {
				return nil, err
			}
			buckets, err := parent.eng.shuffle(parts, parent.nParts)
			if err != nil {
				return nil, err
			}
			return parent.eng.runTasks(buckets, func(_ int, rows []any) ([]any, error) {
				groups := make(map[string][]any)
				order := make([]string, 0)
				for _, r := range rows {
					p := r.(Pair)
					if _, ok := groups[p.Key]; !ok {
						order = append(order, p.Key)
					}
					groups[p.Key] = append(groups[p.Key], p.Value)
				}
				out := make([]any, 0, len(groups))
				for _, k := range order {
					out = append(out, Pair{Key: k, Value: groups[k]})
				}
				return out, nil
			})
		},
	}
}

// Collect materializes the dataset into one slice (action).
func (d *Dataset) Collect() ([]any, error) {
	parts, err := d.materialize()
	if err != nil {
		return nil, err
	}
	var out []any
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// CollectPairs materializes a keyed dataset (action).
func (d *Dataset) CollectPairs() ([]Pair, error) {
	rows, err := d.Collect()
	if err != nil {
		return nil, err
	}
	out := make([]Pair, 0, len(rows))
	for _, r := range rows {
		p, ok := r.(Pair)
		if !ok {
			return nil, fmt.Errorf("%w: CollectPairs over %T", ErrBadPlan, r)
		}
		out = append(out, p)
	}
	return out, nil
}

// Count returns the number of elements (action).
func (d *Dataset) Count() (int, error) {
	parts, err := d.materialize()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n, nil
}

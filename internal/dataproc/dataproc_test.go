package dataproc

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/yarn"
)

func intsToAny(xs []int) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

func TestMapCollect(t *testing.T) {
	e := NewEngine(4)
	ds := e.Parallelize(intsToAny([]int{1, 2, 3, 4, 5, 6}), 3)
	got, err := ds.
		Map(func(v any) any { return v.(int) * 10 }).
		Map(func(v any) any { return v.(int) + 1 }).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int, len(got))
	for i, v := range got {
		vals[i] = v.(int)
	}
	sort.Ints(vals)
	want := []int{11, 21, 31, 41, 51, 61}
	if len(vals) != len(want) {
		t.Fatalf("got %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("got %v, want %v", vals, want)
		}
	}
}

func TestFlatMapAndCount(t *testing.T) {
	e := NewEngine(2)
	ds := e.Parallelize([]any{"a b", "c d e"}, 2)
	words := ds.FlatMap(func(v any) []any {
		var out []any
		for _, w := range strings.Fields(v.(string)) {
			out = append(out, w)
		}
		return out
	})
	n, err := words.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("count = %d", n)
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	e := NewEngine(4)
	docs := []any{
		"crime traffic crime",
		"traffic jam traffic",
		"crime",
	}
	counts, err := e.Parallelize(docs, 3).
		FlatMap(func(v any) []any {
			var out []any
			for _, w := range strings.Fields(v.(string)) {
				out = append(out, Pair{Key: w, Value: 1})
			}
			return out
		}).
		ReduceByKey(func(a, b any) any { return a.(int) + b.(int) }).
		CollectPairs()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, p := range counts {
		got[p.Key] = p.Value.(int)
	}
	want := map[string]int{"crime": 3, "traffic": 3, "jam": 1}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("wordcount[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("extra keys: %v", got)
	}
}

func TestGroupByKey(t *testing.T) {
	e := NewEngine(2)
	pairs := []Pair{
		{Key: "br", Value: 1}, {Key: "no", Value: 2},
		{Key: "br", Value: 3}, {Key: "br", Value: 4},
	}
	grouped, err := e.ParallelizePairs(pairs, 2).GroupByKey().CollectPairs()
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string][]any)
	for _, p := range grouped {
		byKey[p.Key] = p.Value.([]any)
	}
	if len(byKey["br"]) != 3 || len(byKey["no"]) != 1 {
		t.Fatalf("groups = %v", byKey)
	}
	sum := 0
	for _, v := range byKey["br"] {
		sum += v.(int)
	}
	if sum != 8 {
		t.Fatalf("br sum = %d", sum)
	}
}

func TestCacheMaterializesOnce(t *testing.T) {
	e := NewEngine(2)
	calls := 0
	base := e.Parallelize(intsToAny([]int{1, 2, 3, 4}), 2)
	counted := base.Map(func(v any) any {
		calls++
		return v
	}).Cache()
	if _, err := counted.Count(); err != nil {
		t.Fatal(err)
	}
	if _, err := counted.Count(); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("map ran %d times, want 4 (cached second pass)", calls)
	}
}

func TestShuffleRejectsNonPairs(t *testing.T) {
	e := NewEngine(2)
	_, err := e.Parallelize(intsToAny([]int{1}), 1).
		ReduceByKey(func(a, b any) any { return a }).
		Collect()
	if !errors.Is(err, ErrBadPlan) {
		t.Fatalf("err = %v", err)
	}
	_, err = e.Parallelize(intsToAny([]int{1}), 1).CollectPairs()
	if !errors.Is(err, ErrBadPlan) {
		t.Fatalf("collectpairs err = %v", err)
	}
}

func TestMetricsCountStagesAndShuffles(t *testing.T) {
	e := NewEngine(2)
	_, err := e.ParallelizePairs([]Pair{{Key: "a", Value: 1}, {Key: "b", Value: 2}}, 2).
		Map(func(v any) any { return v }).
		ReduceByKey(func(a, b any) any { return a }).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.ShufflesRun != 1 {
		t.Fatalf("shuffles = %d", m.ShufflesRun)
	}
	if m.TasksRun == 0 {
		t.Fatal("no tasks recorded")
	}
}

func TestEngineWithYARNLeasesContainers(t *testing.T) {
	rm := yarn.NewResourceManager()
	if err := rm.AddNode("n1", yarn.Resources{Cores: 4, MemMB: 4096}); err != nil {
		t.Fatal(err)
	}
	app := rm.Submit("dataproc")
	e := NewEngine(2, WithYARN(rm, app, yarn.Resources{Cores: 1, MemMB: 512}))
	got, err := e.Parallelize(intsToAny([]int{1, 2, 3, 4, 5, 6, 7, 8}), 8).
		Map(func(v any) any { return v.(int) + 1 }).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("collect = %v", got)
	}
	if rm.Running() != 0 {
		t.Fatalf("leaked containers: %d", rm.Running())
	}
	if rm.Pending() != 0 {
		t.Fatalf("stuck pending: %d", rm.Pending())
	}
}

// Property: distributed word count matches a serial oracle for arbitrary
// corpora, partition counts, and parallelism.
func TestWordCountMatchesSerialOracleProperty(t *testing.T) {
	f := func(docs []string, parts, par uint8) bool {
		p := int(parts%8) + 1
		w := int(par%4) + 1
		if len(docs) > 100 {
			docs = docs[:100]
		}
		// Serial oracle.
		want := make(map[string]int)
		rows := make([]any, len(docs))
		for i, d := range docs {
			rows[i] = d
			for _, word := range strings.Fields(d) {
				want[word]++
			}
		}
		eng := NewEngine(w)
		got, err := eng.Parallelize(rows, p).
			FlatMap(func(v any) []any {
				var out []any
				for _, word := range strings.Fields(v.(string)) {
					out = append(out, Pair{Key: word, Value: 1})
				}
				return out
			}).
			ReduceByKey(func(a, b any) any { return a.(int) + b.(int) }).
			CollectPairs()
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for _, pr := range got {
			if want[pr.Key] != pr.Value.(int) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelizeKeepsEveryRow(t *testing.T) {
	data := intsToAny([]int{5, 1, 4, 1, 5, 9, 2, 6})
	for _, parts := range []int{0, 1, 3, 20} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			ds := NewEngine(2).Parallelize(data, parts)
			n, err := ds.Count()
			if err != nil {
				t.Fatal(err)
			}
			if n != len(data) {
				t.Fatalf("Count = %d, want %d", n, len(data))
			}
			rows, err := ds.Collect()
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int, len(rows))
			for i, r := range rows {
				got[i] = r.(int)
			}
			sort.Ints(got)
			if fmt.Sprint(got) != "[1 1 2 4 5 5 6 9]" {
				t.Fatalf("rows = %v", got)
			}
		})
	}
}

func TestParallelizeCopiesInput(t *testing.T) {
	data := intsToAny([]int{1, 2, 3})
	ds := NewEngine(1).Parallelize(data, 2)
	data[0] = 100
	rows, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.(int) == 100 {
			t.Fatal("a write to the caller's slice reached the dataset")
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := NewEngine(2).Parallelize(nil, 3)
	if n, err := ds.Count(); err != nil || n != 0 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	pairs, err := ds.Map(func(v any) any { return Pair{Key: "k", Value: v} }).
		ReduceByKey(func(a, b any) any { return a.(int) + b.(int) }).
		CollectPairs()
	if err != nil || len(pairs) != 0 {
		t.Fatalf("reduce over nothing = %v, %v", pairs, err)
	}
}

func TestReduceByKeyMatchesSerialSum(t *testing.T) {
	var pairs []Pair
	want := make(map[string]int)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i%7)
		pairs = append(pairs, Pair{Key: k, Value: i})
		want[k] += i
	}
	for _, parts := range []int{1, 4, 9} {
		got, err := NewEngine(3).ParallelizePairs(pairs, parts).
			ReduceByKey(func(a, b any) any { return a.(int) + b.(int) }).
			CollectPairs()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d partitions: %d keys, want %d", parts, len(got), len(want))
		}
		for _, p := range got {
			if p.Value.(int) != want[p.Key] {
				t.Fatalf("%d partitions: %s = %d, want %d", parts, p.Key, p.Value, want[p.Key])
			}
		}
	}
}

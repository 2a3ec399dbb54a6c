// Package lib holds one declaration per resolution rule of the
// reachability guard, and one field per rule of the field guard; cmd/app is
// the program that reads it.
package lib

import (
	"container/heap"
	"fmt"
	"sort"
)

// Dataset.Join shares its name with strings.Join, which the program calls.
type Dataset struct{ rows []string }

func (d *Dataset) Join(other *Dataset) *Dataset {
	return &Dataset{rows: append(d.rows, other.rows...)}
}

// Counter.Inc is reached only as a method value; its n is only incremented.
type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

// Square.Area is reached only through Shape; nothing calls Perimeter.
type Shape interface {
	Area() float64
	Perimeter() float64
}

type Square struct{ Side float64 }

func (s Square) Area() float64      { return s.Side * s.Side }
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Box.Get is reached through the instantiation Box[int]; Unused is not.
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T  { return b.v }
func (b *Box[T]) Unused() {}

// Step is a sealed interface: Move's marker method is reached with it.
type Step interface{ isStep() }

type Move struct{}

func (Move) isStep() {}

// Options.Shortcut is a field the program reads; Config.Shortcut is a method
// of the same name that nothing calls.
type Options struct{ Shortcut int }

type Config struct{}

func (Config) Shortcut() int { return 0 }

// Ledger's first five fields are only written: by assignment, by an index
// assignment, by appending to themselves and as a composite-literal key;
// viaTest is read only by a test. viaLegacy is read only by Legacy, which
// no program reaches but the guard's caller lists. Tagged is read through
// its tag.
type Ledger struct {
	total     int
	seen      map[string]bool
	entries   []string
	note      string
	viaTest   int
	viaLegacy int
	Tagged    int `json:"tagged"`
}

func NewLedger() *Ledger {
	return &Ledger{seen: map[string]bool{}, note: "opened"}
}

func (l *Ledger) Add(entry string, n int) {
	l.total = n
	l.seen[entry] = true
	l.entries = append(l.entries, entry)
	l.viaTest, l.viaLegacy = n, n
}

func Legacy(l *Ledger) int { return l.viaLegacy }

// Report is converted to an empty interface, which reads its fields and
// those of Detail through the pointer.
type Report struct {
	hits   int
	detail *Detail
}

type Detail struct{ why string }

func Print(hits int) {
	fmt.Println(Report{hits: hits, detail: &Detail{why: "printed"}})
}

// cell is a map key and version is compared with ==: both read every field.
type cell struct{ row, col int }

type version struct{ major, minor int }

func Count(row, col int) int {
	m := map[cell]int{{row: row, col: col}: 1}
	if (version{major: 1}) == (version{minor: 2}) {
		return 0
	}
	return len(m)
}

// SortJobs hands jobs to sort.Slice as an empty interface, and Queue.Pop
// returns a *Task as one; neither reads a field, so sorted and queued, which
// are only written, stay unread.
type Job struct {
	Prio   int
	sorted bool
}

func SortJobs(jobs []Job) {
	for i := range jobs {
		jobs[i].sorted = true
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Prio < jobs[j].Prio })
}

type Task struct {
	Prio   int
	queued int
}

type Queue []*Task

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i].Prio < q[j].Prio }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

func (q *Queue) Push(x any) {
	t := x.(*Task)
	t.queued++
	*q = append(*q, t)
}

func (q *Queue) Pop() any {
	old := *q
	t := old[len(old)-1]
	*q = old[:len(old)-1]
	return t
}

func Next(prios ...int) int {
	q := &Queue{}
	for _, p := range prios {
		heap.Push(q, &Task{Prio: p})
	}
	return heap.Pop(q).(*Task).Prio
}

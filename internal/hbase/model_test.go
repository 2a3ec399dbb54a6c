package hbase

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// oracleCompact is the compaction this package shipped before the k-way
// merge: newest version per key through a map keyed by the concatenated
// coordinates, tombstones dropped, then a sort of the whole table. It is kept
// as the reference the merge must reproduce cell for cell.
func oracleCompact(files []*storeFile) []Cell {
	newest := make(map[string]Cell)
	// files is newest-first; iterate oldest-first so newer versions win.
	for i := len(files) - 1; i >= 0; i-- {
		for _, c := range files[i].cells {
			key := c.Row + "\x00" + c.Family + "\x00" + c.Qualifier
			if cur, ok := newest[key]; !ok || c.Timestamp > cur.Timestamp {
				newest[key] = c
			}
		}
	}
	cells := make([]Cell, 0, len(newest))
	for _, c := range newest {
		if !c.Tombstone {
			cells = append(cells, c)
		}
	}
	sortCells(cells)
	return cells
}

// modelTable drives a Table and a plain map side by side.
type modelTable struct {
	t     *testing.T
	tb    *Table
	model map[cellID]string // live cells only

	// Store files as of the last flush or compact event: what the next
	// compaction merges.
	files []*storeFile
}

var (
	errModelWAL   = errors.New("model: wal fault")
	errModelFlush = errors.New("model: flush fault")
)

func newModelTable(t *testing.T, faults *rand.Rand, rate float64) *modelTable {
	m := &modelTable{
		t:     t,
		tb:    newTestTable(t, Config{FlushThreshold: 9, CompactThreshold: 3}),
		model: make(map[cellID]string),
	}
	m.tb.SetFaultHook(func(op string) error {
		if faults.Float64() >= rate {
			return nil
		}
		if op == "wal" {
			return errModelWAL
		}
		return errModelFlush
	})
	// The hook runs under the table's lock on the test's own goroutine, so it
	// may read the table's fields.
	m.tb.SetEventHook(func(event, _ string) {
		switch event {
		case "flush":
			m.checkSortedRun(m.tb.files[0])
		case "compact":
			m.checkAgainstOracle(m.tb.files[0])
		}
		m.files = append(m.files[:0], m.tb.files...)
	})
	return m
}

// checkSortedRun pins what mergeRuns and the binary searches rely on: a
// store file ascends strictly by compareCells.
func (m *modelTable) checkSortedRun(sf *storeFile) {
	for i := 1; i < len(sf.cells); i++ {
		if compareCells(&sf.cells[i-1], &sf.cells[i]) >= 0 {
			m.t.Errorf("%s: cells %d and %d out of order", sf.path, i-1, i)
			return
		}
	}
}

// checkAgainstOracle compares a freshly compacted store file, in memory and
// as persisted, with what the map-and-sort compaction makes of the same
// inputs.
func (m *modelTable) checkAgainstOracle(sf *storeFile) {
	want := oracleCompact(m.files)
	if !reflect.DeepEqual(sf.cells, want) {
		m.t.Errorf("%s: merged run differs from the oracle's\n got %v\nwant %v", sf.path, sf.cells, want)
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(want); err != nil {
		m.t.Fatal(err)
	}
	got, err := m.tb.fs.Read(sf.path)
	if err != nil {
		m.t.Errorf("read %s: %v", sf.path, err)
		return
	}
	if !bytes.Equal(got, buf.Bytes()) {
		m.t.Errorf("%s: persisted bytes differ from the oracle's encoding", sf.path)
	}
}

// applied reports whether a mutation that returned err reached the table: a
// faulted WAL append rejects it whole, a faulted threshold flush or
// compaction happens after it was accepted.
func (m *modelTable) applied(err error) bool {
	switch {
	case err == nil, errors.Is(err, errModelFlush):
		return true
	case errors.Is(err, errModelWAL):
		return false
	}
	m.t.Fatalf("unexpected error: %v", err)
	return false
}

func (m *modelTable) tolerateFlushFault(err error) {
	if err != nil && !errors.Is(err, errModelFlush) {
		m.t.Fatalf("unexpected error: %v", err)
	}
}

// expect builds what Scan(start, end) must return, from the model alone.
func (m *modelTable) expect(start, end string) []RowResult {
	var cells []Cell
	for id, v := range m.model {
		if id.row >= start && (end == "" || id.row < end) {
			cells = append(cells, Cell{Row: id.row, Family: id.family, Qualifier: id.qualifier, Value: []byte(v)})
		}
	}
	sortCells(cells)
	var out []RowResult
	for _, c := range cells {
		if n := len(out); n > 0 && out[n-1].Row == c.Row {
			out[n-1].Cells = append(out[n-1].Cells, c)
		} else {
			out = append(out, RowResult{Row: c.Row, Cells: []Cell{c}})
		}
	}
	return out
}

func (m *modelTable) checkRows(what string, got, want []RowResult) {
	m.t.Helper()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].Row == want[i].Row && len(got[i].Cells) == len(want[i].Cells)
		for j := 0; ok && j < len(got[i].Cells); j++ {
			g, w := got[i].Cells[j], want[i].Cells[j]
			ok = g.Row == w.Row && g.Family == w.Family && g.Qualifier == w.Qualifier &&
				bytes.Equal(g.Value, w.Value) && !g.Tombstone
		}
	}
	if !ok {
		m.t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
	}
}

// check asserts that every read path agrees with the model.
func (m *modelTable) check(keys []cellID, start, end, prefix string) {
	m.t.Helper()
	for _, id := range keys {
		got, err := m.tb.Get(id.row, id.family, id.qualifier)
		want, live := m.model[id]
		switch {
		case live && (err != nil || string(got) != want):
			m.t.Fatalf("Get(%v) = %q, %v; want %q", id, got, err, want)
		case !live && !errors.Is(err, ErrNotFound):
			m.t.Fatalf("Get(%v) = %q, %v; want ErrNotFound", id, got, err)
		}
	}
	all, err := m.tb.Scan("", "")
	if err != nil {
		m.t.Fatal(err)
	}
	m.checkRows("Scan(all)", all, m.expect("", ""))
	ranged, err := m.tb.Scan(start, end)
	if err != nil {
		m.t.Fatal(err)
	}
	m.checkRows(fmt.Sprintf("Scan(%q, %q)", start, end), ranged, m.expect(start, end))
	prefixed, err := m.tb.ScanPrefix(prefix)
	if err != nil {
		m.t.Fatal(err)
	}
	var want []RowResult
	for _, r := range m.expect("", "") {
		if strings.HasPrefix(r.Row, prefix) {
			want = append(want, r)
		}
	}
	m.checkRows(fmt.Sprintf("ScanPrefix(%q)", prefix), prefixed, want)
}

// TestModelRandomHistories runs seeded histories of every mutating call, with
// WAL and flush faults injected, against a plain map; after each step every
// read path must agree with the map, every flushed run must be sorted, and
// every compaction must reproduce the map-and-sort oracle byte for byte.
func TestModelRandomHistories(t *testing.T) {
	rows := []string{"a", "a0", "a1", "a\xff", "a\xff0", "b", "b0", "b00", "b1", "c"}
	var keys []cellID
	for _, row := range rows {
		for _, fam := range []string{"meta", "video"} {
			for _, q := range []string{"p", "q"} {
				keys = append(keys, cellID{row, fam, q})
			}
		}
	}
	bounds := append([]string{""}, rows...)
	prefixes := []string{"", "a", "a\xff", "b0", "c", "z"}

	var compactions, walFaults, flushFaults int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModelTable(t, rand.New(rand.NewSource(seed+100)), 0.1)
		for step := 0; step < 600; step++ {
			id := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(20); {
			case op < 11:
				val := fmt.Sprintf("v%d", step)
				err := m.tb.Put(id.row, id.family, id.qualifier, []byte(val))
				if m.applied(err) {
					m.model[id] = val
				}
				if errors.Is(err, errModelWAL) {
					walFaults++
				} else if err != nil {
					flushFaults++
				}
			case op < 16:
				if m.applied(m.tb.Delete(id.row, id.family, id.qualifier)) {
					delete(m.model, id)
				}
			case op < 17:
				m.tolerateFlushFault(m.tb.Flush())
			case op < 18:
				m.tolerateFlushFault(m.tb.Compact())
			default:
				wal := m.tb.Stats().WALEntries
				if n, err := m.tb.CrashAndRecover(); err != nil || n != wal {
					t.Fatalf("CrashAndRecover = %d, %v; want %d", n, err, wal)
				}
			}
			start, end := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
			m.check(keys, start, end, prefixes[rng.Intn(len(prefixes))])
			if t.Failed() {
				t.Fatalf("seed %d step %d", seed, step)
			}
		}
		compactions += m.tb.Stats().Compactions
	}
	// Guard against a history that stopped exercising what it is here for.
	if compactions < 20 || walFaults == 0 || flushFaults == 0 {
		t.Fatalf("compactions = %d, wal faults = %d, flush faults = %d: history too tame",
			compactions, walFaults, flushFaults)
	}
}

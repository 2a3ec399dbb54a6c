package hbase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// oracleCompact is the compaction this package shipped before the k-way
// merge: newest version per key through a map keyed by the concatenated
// coordinates, then a sort of the result; tombstones are dropped when major
// says the merge reached the oldest file. It is kept as the reference the
// merge must reproduce cell for cell.
func oracleCompact(files []*storeFile, major bool) []Cell {
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
		if !major || !c.Tombstone {
			cells = append(cells, c)
		}
	}
	sortCells(cells)
	return cells
}

// decodeStoreFile is the reference reader of the store-file layout: uvarint
// cell count, then per cell length-prefixed row, family, qualifier and value,
// varint timestamp, one tombstone byte. It panics on a short buffer, which
// fails the test that feeds it one.
func decodeStoreFile(b []byte) []Cell {
	field := func() []byte {
		n, w := binary.Uvarint(b)
		f := b[w : w+int(n)]
		b = b[w+int(n):]
		return f
	}
	n, w := binary.Uvarint(b)
	b = b[w:]
	cells := make([]Cell, 0, n)
	for ; n > 0; n-- {
		c := Cell{Row: string(field()), Family: string(field()), Qualifier: string(field())}
		if v := field(); len(v) > 0 {
			c.Value = append([]byte(nil), v...)
		}
		ts, w := binary.Varint(b)
		c.Timestamp, c.Tombstone = ts, b[w] == 1
		b = b[w+1:]
		cells = append(cells, c)
	}
	if len(b) != 0 {
		panic(fmt.Sprintf("decodeStoreFile: %d bytes after the last cell", len(b)))
	}
	return cells
}

// TestStoreFileCodecSizesExactly walks the lengths and timestamps at which a
// varint grows a byte: the encoder's size pass must agree with what it then
// appends, and the reference decoder must read the run back.
func TestStoreFileCodecSizesExactly(t *testing.T) {
	var cells []Cell
	for i, n := range []int{0, 1, 127, 128, 16383, 16384} {
		for j, ts := range []int64{0, 63, 64, 8191, 8192, 1 << 40, -1, -65} {
			c := Cell{Row: strings.Repeat("r", n), Family: "f", Timestamp: ts, Tombstone: (i+j)%2 == 1}
			if !c.Tombstone && n > 0 {
				c.Value = bytes.Repeat([]byte{byte(j)}, n)
			}
			cells = append(cells, c)
		}
	}
	for _, run := range [][]Cell{cells, cells[:1], {}} {
		b := encodeStoreFile(run)
		if len(b) != cap(b) {
			t.Errorf("%d cells: encoded %d bytes into a buffer sized for %d", len(run), len(b), cap(b))
		}
		if got := decodeStoreFile(b); !reflect.DeepEqual(got, run) {
			t.Errorf("%d cells: decoded run differs from the encoded one", len(run))
		}
	}
}

// modelTable drives a Table and a plain map side by side.
type modelTable struct {
	t     *testing.T
	tb    *Table
	model map[cellID]string // live cells only

	// Store files as of the last flush or compact event: what the next
	// compaction picks from.
	files []*storeFile

	compacting   bool // inside Table.Compact
	mergeFaulted bool // the last merge attempt drew a fault…
	faultedAt    int  // …when the table had flushed this many times
	mergeFaults  int
	minors       int // merges that left older files alone
	cascaded     int // minor merges whose inputs were merged runs themselves
}

var (
	errModelWAL   = errors.New("model: wal fault")
	errModelFlush = errors.New("model: flush fault")
)

func newModelTable(t *testing.T, faults *rand.Rand, rate float64) *modelTable {
	m := &modelTable{
		t:     t,
		tb:    newTestTable(t, Config{FlushThreshold: 5, CompactThreshold: 3}),
		model: make(map[cellID]string),
	}
	// The hooks run under the table's lock on the test's own goroutine, so
	// they may read the table's fields.
	m.tb.SetFaultHook(func(op string) error {
		faulted := faults.Float64() < rate
		// A flush draws only on a non-empty memstore and empties it before
		// its merges draw; Compact draws for its merge whatever the memstore
		// holds.
		if op == "flush" && (m.compacting || m.tb.memCount == 0) {
			m.mergeFaulted, m.faultedAt = faulted, m.tb.flushes
			if faulted {
				m.mergeFaults++
			}
		}
		switch {
		case !faulted:
			return nil
		case op == "wal":
			return errModelWAL
		}
		return errModelFlush
	})
	m.tb.SetEventHook(func(event, _ string) {
		if event == "recover" {
			return
		}
		sf := m.tb.files[0]
		if event == "flush" {
			m.checkSortedRun(sf)
		} else {
			m.checkAgainstOracle(sf)
		}
		m.checkPersisted(sf)
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

// checkAgainstOracle finds what a merge picked — it must have replaced a
// newest-first prefix of the files the last event left, and nothing else —
// and compares the merged run with what the map-and-sort compaction makes of
// the same files: timestamps as they were, tombstones kept unless the pick
// reached the oldest file.
func (m *modelTable) checkAgainstOracle(sf *storeFile) {
	kept := m.tb.files[1:]
	n := len(m.files) - len(kept)
	if n < 2 || !reflect.DeepEqual(kept, m.files[n:]) {
		m.t.Errorf("%s: merge turned files %v into %v: not a prefix", sf.path, paths(m.files), paths(m.tb.files))
		return
	}
	if len(kept) > 0 {
		m.minors++
		if m.files[0].tier > 0 {
			m.cascaded++
		}
	}
	want := oracleCompact(m.files[:n], len(kept) == 0)
	if !reflect.DeepEqual(sf.cells, want) {
		m.t.Errorf("%s: merged run differs from the oracle's\n got %v\nwant %v", sf.path, sf.cells, want)
	}
}

func paths(files []*storeFile) []string {
	out := make([]string, len(files))
	for i, sf := range files {
		out[i] = sf.path
	}
	return out
}

// checkPersisted reads a new store file back from HDFS through the reference
// decoder: the stored bytes must hold the run, timestamps and tombstones
// included.
func (m *modelTable) checkPersisted(sf *storeFile) {
	b, err := m.tb.fs.Read(sf.path)
	if err != nil {
		m.t.Errorf("read %s: %v", sf.path, err)
		return
	}
	if got := decodeStoreFile(b); !reflect.DeepEqual(got, sf.cells) {
		m.t.Errorf("%s: persisted run differs from the one in memory\n got %v\nwant %v", sf.path, got, sf.cells)
	}
}

// checkFiles asserts what reads and the compaction policy rely on between
// calls. Walking the files newest first, every later version of a key carries
// a smaller timestamp, so the first file holding a key holds its newest
// version. A pick is left pending only by a merge fault since the last flush:
// the next flush must take the stranded files up again. And while the last
// merge attempt did not fault, the files number at most K−1 per tier over
// ⌊log_K flushes⌋+2 tiers — one tier of slack for a run a fault stranded
// higher up and the major compaction's file.
func (m *modelTable) checkFiles() {
	m.t.Helper()
	files, k := m.tb.files, m.tb.cfg.CompactThreshold
	last := make(map[cellID]int64)
	for _, sf := range files {
		for i := range sf.cells {
			c := &sf.cells[i]
			if ts, ok := last[c.id()]; ok && c.Timestamp >= ts {
				m.t.Fatalf("%s holds %v at timestamp %d, a newer file at %d", sf.path, c.id(), c.Timestamp, ts)
			}
			last[c.id()] = c.Timestamp
		}
	}
	// The pick rule restated, not borrowed from pickLocked.
	front := 0
	for front < len(files) && files[front].tier <= files[0].tier {
		front++
	}
	if front >= k && !(m.mergeFaulted && m.faultedAt == m.tb.flushes) {
		m.t.Fatalf("%d files of tier ≤ %d left unmerged with no fault to excuse it: %v", front, files[0].tier, paths(files))
	}
	tiers := 2
	for f := m.tb.flushes; f >= k; f /= k {
		tiers++
	}
	if !m.mergeFaulted && len(files) > (k-1)*tiers {
		m.t.Fatalf("%d store files after %d flushes, want ≤ %d", len(files), m.tb.flushes, (k-1)*tiers)
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

// checkRowKeys asserts that RowKeys lists exactly the rows ScanPrefix returns,
// in the same order, for each prefix.
func (m *modelTable) checkRowKeys(prefixes []string) {
	m.t.Helper()
	for _, prefix := range prefixes {
		rows, err := m.tb.ScanPrefix(prefix)
		if err != nil {
			m.t.Fatal(err)
		}
		want := make([]string, len(rows))
		for i, r := range rows {
			want[i] = r.Row
		}
		got, err := m.tb.RowKeys(prefix)
		if err != nil || got == nil || !reflect.DeepEqual(got, want) {
			m.t.Fatalf("RowKeys(%q) = %q, %v; want %q", prefix, got, err, want)
		}
	}
}

// TestModelRandomHistories runs seeded histories of every mutating call, with
// WAL and flush faults injected, against a plain map; after each step every
// read path must agree with the map and the store files must satisfy
// checkFiles; every flushed run must be sorted, every merge must pick a
// newest-first prefix and reproduce the map-and-sort oracle over it, and every
// store file must decode from HDFS to the run in memory.
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
	// "" has no end key, and "a\xff" ends at "b", not at "a\x00".
	prefixes := []string{"", "a", "a\xff", "b0", "c", "z"}

	var majors, minors, cascaded, walFaults, flushFaults, mergeFaults int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModelTable(t, rand.New(rand.NewSource(seed+100)), 0.1)
		for step := 0; step < 600; step++ {
			id := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(100); {
			case op < 55:
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
			case op < 80:
				if m.applied(m.tb.Delete(id.row, id.family, id.qualifier)) {
					delete(m.model, id)
				}
			case op < 87:
				m.tolerateFlushFault(m.tb.Flush())
			case op < 88:
				m.compacting = true
				m.tolerateFlushFault(m.tb.Compact())
				m.compacting = false
			default:
				wal := m.tb.Stats().WALEntries
				if n, err := m.tb.CrashAndRecover(); err != nil || n != wal {
					t.Fatalf("CrashAndRecover = %d, %v; want %d", n, err, wal)
				}
			}
			start, end := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
			m.check(keys, start, end, prefixes[rng.Intn(len(prefixes))])
			m.checkRowKeys(prefixes)
			m.checkFiles()
			if t.Failed() {
				t.Fatalf("seed %d step %d", seed, step)
			}
		}
		majors += m.tb.Stats().Compactions - m.minors
		minors += m.minors
		cascaded += m.cascaded
		mergeFaults += m.mergeFaults
	}
	// Guard against a history that stopped exercising what it is here for.
	if majors < 10 || minors < 40 || cascaded < 10 || walFaults == 0 || flushFaults == 0 || mergeFaults < 5 {
		t.Fatalf("major compactions = %d, minor = %d (%d of merged runs), wal faults = %d, flush faults = %d (%d in merges): history too tame",
			majors, minors, cascaded, walFaults, flushFaults, mergeFaults)
	}
}

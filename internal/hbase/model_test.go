package hbase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/hdfs"
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
	sort.Sort(cellRun(cells))
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
// varint grows a byte: a build sized by cellSize, as a freeze sizes one, must
// hold exactly what it then appends and seals, and the reference decoder must
// read the run back.
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
		size := 0
		for i := range run {
			size += cellSize(&run[i])
		}
		b := newBuild(0, len(run), size)
		for i := range run {
			b.add(&run[i])
		}
		data := sealStoreFile(b.buf, len(b.cells))
		if len(data) != cap(data) {
			t.Errorf("%d cells: encoded %d bytes into a buffer sized for %d", len(run), len(data), cap(data))
		}
		if got := decodeStoreFile(data); !reflect.DeepEqual(got, run) {
			t.Errorf("%d cells: decoded run differs from the encoded one", len(run))
		}
	}
}

// choices feeds a history its decisions: from a seeded rng for a fixed
// number of steps, or from fuzz input until the bytes run out.
type choices struct {
	rng   *rand.Rand
	steps int
	data  []byte
}

func (s *choices) more() bool {
	if s.rng != nil {
		s.steps--
		return s.steps >= 0
	}
	return len(s.data) > 0
}

func (s *choices) pick(n int) int {
	if s.rng != nil {
		return s.rng.Intn(n)
	}
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b) % n
}

// historyShape is a table configuration and the op mix a history runs on
// it: the weights of put, delete, flush, compact, crash and an armed fault,
// in that order, summing to at most 256 so one fuzz byte picks an op. With
// crashMid set, a step that finds a store file part built crashes instead
// one time in crashMid.
type historyShape struct {
	cfg      Config
	mix      [6]int
	crashMid int
}

var historyShapes = []historyShape{
	// Runs far shorter than stepCells: a flush or merge finishes in the step
	// after its freeze or pick, so a history reaches many merges, cascades
	// and major compactions, and crashes land on unpersisted frozen runs.
	{Config{FlushThreshold: 5, CompactThreshold: 3}, [6]int{55, 25, 7, 1, 4, 8}, 0},
	// Runs longer than stepCells: flushes and merges take several steps, and
	// reads, crashes and faults land on them half built.
	{Config{FlushThreshold: 150, CompactThreshold: 2}, [6]int{140, 60, 1, 1, 3, 6}, 6},
}

var (
	modelRows = []string{"a", "a0", "a1", "a\xff", "a\xff0", "b", "b0", "b00", "b1", "c"}
	modelKeys = func() []cellID {
		var keys []cellID
		for _, row := range modelRows {
			for _, fam := range []string{"meta", "video"} {
				for _, q := range []string{"p", "q"} {
					keys = append(keys, cellID{row, fam, q})
				}
			}
		}
		return keys
	}()
	modelBounds = append([]string{""}, modelRows...)
	// "" has no end key, and "a\xff" ends at "b", not at "a\x00".
	modelPrefixes = []string{"", "a", "a\xff", "b0", "c", "z"}
)

// historyTally counts what a history exercised, for the guard against a
// history that stopped exercising what it is here for.
type historyTally struct {
	majors, minors, cascaded                         int
	walFaults, freezeFaults, mergeFaults, hdfsFaults int
	inFlight                                         int // checks made with a flush or merge in flight
	halfBuilt                                        int // checks made with a store file part built
	frozenCrashes                                    int // crashes with a frozen run not yet installed
	mergeCrashes                                     int // crashes with a merge part built
}

func (a *historyTally) add(b historyTally) {
	a.majors += b.majors
	a.minors += b.minors
	a.cascaded += b.cascaded
	a.walFaults += b.walFaults
	a.freezeFaults += b.freezeFaults
	a.mergeFaults += b.mergeFaults
	a.hdfsFaults += b.hdfsFaults
	a.inFlight += b.inFlight
	a.halfBuilt += b.halfBuilt
	a.frozenCrashes += b.frozenCrashes
	a.mergeCrashes += b.mergeCrashes
}

// modelTable drives a Table and a plain map side by side.
type modelTable struct {
	t     testing.TB
	tb    *Table
	model map[cellID]string // live cells only

	// Store files as of the last install: what the next install replaces a
	// span of or goes in front of.
	files []*storeFile

	// armed counts the draws still to fail at each seam: "wal", "flush" and
	// "hdfs", the HDFS replica writes.
	armed map[string]int
	// freezeDraw says the next "flush" draw is a freeze: the call under way
	// is a write that fills the memstore, or a Flush with memstore cells.
	freezeDraw bool
	// excused says a full tier may sit unpicked with nothing in flight: the
	// last merge pick faulted, or a crash dropped the merge in flight.
	excused bool
	tally   historyTally
}

var (
	errModelWAL   = errors.New("model: wal fault")
	errModelFlush = errors.New("model: flush fault")
	errModelHDFS  = errors.New("model: hdfs fault")
)

func newModelTable(t testing.TB, cfg Config) *modelTable {
	m := &modelTable{
		t:     t,
		tb:    newTestTable(t, cfg),
		model: make(map[cellID]string),
		armed: make(map[string]int),
	}
	// The hooks run under the table's lock on the test's own goroutine, so
	// they may read the table's fields.
	m.tb.SetFaultHook(func(op string) error {
		faulted := m.take(op)
		if op == "wal" {
			if faulted {
				return errModelWAL
			}
			return nil
		}
		// A write's or a Flush call's first draw is its freeze when it has
		// one; any later draw, backpressure's included, picks a merge.
		freeze := m.freezeDraw
		m.freezeDraw = false
		switch {
		case !freeze:
			m.excused = faulted
			if faulted {
				m.tally.mergeFaults++
			}
		case faulted:
			m.tally.freezeFaults++
		}
		if faulted {
			return errModelFlush
		}
		return nil
	})
	m.tb.fs.SetFaultHook(func(op, _ string) error {
		if op == "write" && m.take("hdfs") {
			return errModelHDFS
		}
		return nil
	})
	m.tb.SetEventHook(func(event, _ string) {
		if event != "recover" {
			m.checkInstall(event)
		}
	})
	return m
}

func (m *modelTable) take(seam string) bool {
	if m.armed[seam] == 0 {
		return false
	}
	m.armed[seam]--
	return true
}

// checkInstall finds the file an install put in. A flush goes in front of
// the files the last install left; a merge takes the place of a contiguous
// span of them, its inputs, and must reproduce what the map-and-sort
// compaction makes of that span: timestamps as they were, tombstones kept
// unless the span reaches the oldest file. Nothing else may move, every new
// run must be sorted, and it must decode from HDFS to the run in memory.
func (m *modelTable) checkInstall(event string) {
	got, was := m.tb.files, m.files
	i := 0
	for i < len(was) && i < len(got) && got[i] == was[i] {
		i++
	}
	n := len(was) + 1 - len(got) // the files the new one replaced
	if i == len(got) || n < 0 || !slices.Equal(got[i+1:], was[i+n:]) {
		m.t.Errorf("%s turned files %v into %v: not one file in place of a span", event, paths(was), paths(got))
		return
	}
	sf := got[i]
	switch {
	case event == "flush" && (i != 0 || n != 0):
		m.t.Errorf("flush put %s at %d in place of %d files", sf.path, i, n)
	case event == "compact" && n < 2:
		m.t.Errorf("merge put %s in place of %d files", sf.path, n)
	case event == "compact":
		major := i+n == len(was)
		if !major {
			m.tally.minors++
			if was[i].tier > 0 {
				m.tally.cascaded++
			}
		}
		if want := oracleCompact(was[i:i+n], major); !reflect.DeepEqual(sf.cells, want) {
			m.t.Errorf("%s: merged run differs from the oracle's\n got %v\nwant %v", sf.path, sf.cells, want)
		}
	}
	m.checkSortedRun(sf.path, sf.cells)
	m.checkPersisted(sf)
	m.files = append(m.files[:0], got...)
}

// checkSortedRun pins what mergeIter and the binary searches rely on: a run
// ascends strictly by compareCells.
func (m *modelTable) checkSortedRun(name string, cells []Cell) {
	for i := 1; i < len(cells); i++ {
		if compareCells(&cells[i-1], &cells[i]) >= 0 {
			m.t.Errorf("%s: cells %d and %d out of order", name, i-1, i)
			return
		}
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
// calls. Walking the frozen run and then the files newest first, every later
// version of a key carries a smaller timestamp, so the first run holding a
// key holds its newest version. A merge in flight reads from a contiguous
// span of installed files. With nothing in flight, a full tier is left
// unpicked only when excused. And unless excused, the idle files number at
// most K−1 per tier over ⌊log_K flushes⌋+2 tiers — one tier of slack for a
// run a fault stranded higher up and the major compaction's file.
func (m *modelTable) checkFiles() {
	m.t.Helper()
	files, k := m.tb.files, m.tb.cfg.CompactThreshold
	m.checkSortedRun("frozen run", m.tb.frozen)
	if (len(m.tb.frozen) > 0) != (m.tb.flushing != nil) {
		m.t.Fatalf("%d frozen cells, flush in flight %v", len(m.tb.frozen), m.tb.flushing != nil)
	}
	last := make(map[cellID]int64)
	runs := [][]Cell{m.tb.frozen}
	for _, sf := range files {
		runs = append(runs, sf.cells)
	}
	// Values share the table's chunks: each must end where its
	// capacity does, so an append to one reallocates instead of reaching
	// the next.
	for _, run := range append(runs, m.tb.wal) {
		for i := range run {
			if v := run[i].Value; cap(v) != len(v) {
				m.t.Fatalf("%v holds a %d-byte value with capacity %d", run[i].id(), len(v), cap(v))
			}
		}
	}
	for _, run := range runs {
		for i := range run {
			c := &run[i]
			if ts, ok := last[c.id()]; ok && c.Timestamp >= ts {
				m.t.Fatalf("%v at timestamp %d sits below a newer run's %d", c.id(), c.Timestamp, ts)
			}
		}
		for i := range run {
			last[run[i].id()] = run[i].Timestamp
		}
	}
	inputs := 0
	if mg := m.tb.merging; mg != nil {
		inputs = len(mg.inputs)
		if i := slices.Index(files, mg.inputs[0]); i < 0 || i+inputs > len(files) || !slices.Equal(files[i:i+inputs], mg.inputs) {
			m.t.Fatalf("merge inputs %v are not a span of the files %v", paths(mg.inputs), paths(files))
		}
	}
	// The pick rule restated, not borrowed from pickLocked: with nothing in
	// flight, no tier holds K files.
	perTier := map[int]int{}
	for _, sf := range files {
		perTier[sf.tier]++
		if perTier[sf.tier] >= k && m.tb.flushing == nil && m.tb.merging == nil && !m.excused {
			m.t.Fatalf("%d files of tier %d left unmerged with nothing to excuse it: %v", k, sf.tier, paths(files))
		}
	}
	tiers := 2
	for f := m.tb.flushes; f >= k; f /= k {
		tiers++
	}
	if !m.excused && len(files) > (k-1)*tiers+inputs {
		m.t.Fatalf("%d store files (%d merging) after %d flushes, want ≤ %d", len(files), inputs, m.tb.flushes, (k-1)*tiers+inputs)
	}
}

// outcome reports whether a mutation that returned err reached the table: a
// faulted WAL append rejects it whole, while a faulted freeze or merge pick
// and a failed store-file write happen after it was accepted.
func (m *modelTable) outcome(err error) bool {
	m.t.Helper()
	m.tolerate(err)
	if errors.Is(err, errModelWAL) {
		m.tally.walFaults++
		return false
	}
	return true
}

// tolerate fails on an error no armed fault explains.
func (m *modelTable) tolerate(err error) {
	m.t.Helper()
	switch {
	case err == nil, errors.Is(err, errModelWAL), errors.Is(err, errModelFlush):
	case errors.Is(err, hdfs.ErrNotEnoughNodes):
		m.tally.hdfsFaults++
	default:
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
	sort.Sort(cellRun(cells))
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
func (m *modelTable) check(start, end, prefix string) {
	m.t.Helper()
	for _, id := range modelKeys {
		got, err := m.tb.Get(id.row, id.family, id.qualifier)
		// A Get result is the caller's: appending to it reaches no value the
		// table holds, which the reads below see.
		got = append(got, '#')[:len(got)]
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
	// A Scan's values share one buffer: appending to each in turn must
	// reach neither the next value in it nor the table's.
	for _, r := range all {
		for j := range r.Cells {
			v := &r.Cells[j].Value
			*v = append(*v, '#')[:len(*v)]
		}
	}
	m.checkRows("Scan(all) after appending to its values", all, m.expect("", ""))
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
func (m *modelTable) checkRowKeys() {
	m.t.Helper()
	for _, prefix := range modelPrefixes {
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

// halfBuilt reports whether a store file is part built: some cells in, not
// all.
func (m *modelTable) halfBuilt() (flush, merge bool) {
	if b := m.tb.flushing; b != nil {
		flush = len(b.cells) > 0 && !b.full
	}
	if b := m.tb.merging; b != nil {
		merge = b.merge.moved > 0 && !b.full
	}
	return flush, merge
}

// runHistory drives a Table and the map through one history of every
// mutating call and of armed WAL, flush and HDFS faults. After each step
// every read path must agree with the map and the files must satisfy
// checkFiles; every install is checked by checkInstall; a Flush must leave
// nothing pending, and a crash must replay exactly the WAL.
func runHistory(t testing.TB, shape historyShape, src *choices) historyTally {
	m := newModelTable(t, shape.cfg)
	total := 0
	for _, w := range shape.mix {
		total += w
	}
	for step := 0; src.more(); step++ {
		id := modelKeys[src.pick(len(modelKeys))]
		op, r := 0, src.pick(total)
		for r >= shape.mix[op] {
			r -= shape.mix[op]
			op++
		}
		if flush, merge := m.halfBuilt(); (flush || merge) && shape.crashMid > 0 && src.pick(shape.crashMid) == 0 {
			op = 4
		}
		switch op {
		case 0:
			val := fmt.Sprintf("v%d", step)
			buf := []byte(val)
			m.freezeDraw = len(m.tb.wal)+1 >= m.tb.cfg.FlushThreshold
			if m.outcome(m.tb.Put(id.row, id.family, id.qualifier, buf)) {
				m.model[id] = val
			}
			m.freezeDraw = false
			// The table holds its own copy: scribbling on the caller's
			// buffer reaches no stored value.
			for i := range buf {
				buf[i] = '#'
			}
		case 1:
			m.freezeDraw = len(m.tb.wal)+1 >= m.tb.cfg.FlushThreshold
			if m.outcome(m.tb.Delete(id.row, id.family, id.qualifier)) {
				delete(m.model, id)
			}
			m.freezeDraw = false
		case 2:
			m.freezeDraw = len(m.tb.wal) > 0
			err := m.tb.Flush()
			m.tolerate(err)
			if err == nil && (len(m.tb.wal) > 0 || m.tb.flushing != nil || m.tb.merging != nil || m.tb.pickLocked() > 0) {
				t.Fatalf("Flush left work pending: %d memstore cells, flush %v, merge %v, pick %d",
					len(m.tb.wal), m.tb.flushing != nil, m.tb.merging != nil, m.tb.pickLocked())
			}
			m.freezeDraw = false
		case 3:
			m.tolerate(m.tb.Compact())
		case 4:
			if m.tb.flushing != nil {
				m.tally.frozenCrashes++
			}
			if _, merge := m.halfBuilt(); merge {
				m.tally.mergeCrashes++
			}
			wal := m.tb.Stats().WALEntries
			if n, err := m.tb.CrashAndRecover(); err != nil || n != wal {
				t.Fatalf("CrashAndRecover = %d, %v; want %d", n, err, wal)
			}
			m.excused = true
		default:
			seam := []string{"wal", "flush", "hdfs"}[src.pick(3)]
			// A block fails when two of its three candidate datanodes do.
			m.armed[seam] += map[string]int{"wal": 1, "flush": 1, "hdfs": 2}[seam]
		}
		if m.tb.flushing != nil || m.tb.merging != nil {
			m.tally.inFlight++
		}
		if flush, merge := m.halfBuilt(); flush || merge {
			m.tally.halfBuilt++
		}
		start, end := modelBounds[src.pick(len(modelBounds))], modelBounds[src.pick(len(modelBounds))]
		m.check(start, end, modelPrefixes[src.pick(len(modelPrefixes))])
		m.checkRowKeys()
		m.checkFiles()
		if t.Failed() {
			t.Fatalf("step %d", step)
		}
	}
	m.tally.majors = m.tb.Stats().Compactions - m.tally.minors
	return m.tally
}

// TestModelRandomHistories runs seeded histories on every shape against a
// plain map (runHistory): reads with a frozen run or a merge pending, crashes
// on them, and WAL, flush and HDFS faults inside a step included.
func TestModelRandomHistories(t *testing.T) {
	var total historyTally
	for i, shape := range historyShapes {
		for seed := int64(1); seed <= 4; seed++ {
			steps := []int{600, 1500}[i]
			total.add(runHistory(t, shape, &choices{rng: rand.New(rand.NewSource(seed*10 + int64(i))), steps: steps}))
		}
	}
	// Guard against a history that stopped exercising what it is here for.
	if total.majors < 10 || total.minors < 40 || total.cascaded < 10 ||
		total.walFaults == 0 || total.freezeFaults == 0 || total.mergeFaults < 5 || total.hdfsFaults < 5 ||
		total.inFlight < 200 || total.halfBuilt < 30 || total.frozenCrashes < 10 || total.mergeCrashes < 2 {
		t.Fatalf("history too tame: %+v", total)
	}
}

// FuzzTableHistories runs the model test's history with its decisions read
// from the fuzz input: the first byte picks the shape, and every later byte
// one choice — the op and its key, a fault's seam, the reads' bounds.
func FuzzTableHistories(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 1200)
		rand.New(rand.NewSource(seed)).Read(b)
		b[0] = byte(seed)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := historyShapes[int(data[0])%len(historyShapes)]
		// Every step reads the whole table, so a long input costs its length
		// squared; a history this long reaches several half-built merges.
		runHistory(t, shape, &choices{data: data[1:min(len(data), 4096)]})
	})
}

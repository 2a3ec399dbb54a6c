// Package hbase simulates an HBase-style wide-column store layered on the
// hdfs package: writes go to a write-ahead log that an in-memory memstore
// indexes, and a memstore that reaches the flush threshold freezes into a
// sorted run whose store file, immutable and persisted in HDFS, later writes
// build. Size-tiered compaction merges the newest store files of one tier into
// a file of the next, so a cell is rewritten once per tier and not once per
// compaction. Flushes and merges are paid for in installments: each Put or
// Delete moves at most stepCells cells of the frozen run or of the one merge
// in flight through the merge and the encoder (a merge too large to finish at
// that pace within K−1 flushes takes proportionally more), on the caller's
// goroutine, and a finished run is written to HDFS and installed in one swap,
// so no write pays for a whole flush or compaction. Reads merge memstore,
// frozen run and store files newest-first. Every run is sorted, so compaction
// and scans are one k-way merge over runs (mergeIter) and point reads are a
// binary search per run. Unlike HDFS's batch-only access, the store supports efficient
// random reads and writes — exactly the contrast the paper draws in §II.C.2.
package hbase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hdfs"
	"repro/internal/profile"
)

// Sentinel errors.
var (
	ErrNoFamily = errors.New("hbase: unknown column family")
	ErrNotFound = errors.New("hbase: cell not found")
)

// FaultHook is consulted before durability-critical I/O: op is "wal" for
// write-ahead-log appends and "flush" where a full memstore freezes for a
// flush and where a merge is picked. A non-nil return aborts that operation
// with the error. A faulted "wal" rejects its Put or Delete whole. Any other
// failure — a faulted "flush", or an HDFS write that fails while a step
// installs a run — is reported by the Put or Delete that met it, whose own
// cell is already durable in the WAL, and the next write retries it: a full
// memstore freezes on the next Put, and the next step picks again or writes
// the finished run again. The signature is structurally shared with the
// internal/faults injector so chaos harnesses can attach without this package
// importing them.
type FaultHook func(op string) error

// Cell is one versioned value.
type Cell struct {
	Row       string
	Family    string
	Qualifier string
	Value     []byte
	Timestamp int64 // logical timestamp; higher wins
	Tombstone bool
}

// cellID is a cell's coordinates: the memstore key.
type cellID struct{ row, family, qualifier string }

func (c *Cell) id() cellID { return cellID{c.Row, c.Family, c.Qualifier} }

// compareKeys orders cells by (row, family, qualifier), field by field.
func compareKeys(a, b *Cell) int {
	if c := strings.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	if c := strings.Compare(a.Family, b.Family); c != 0 {
		return c
	}
	return strings.Compare(a.Qualifier, b.Qualifier)
}

// compareCells is the order of every sorted run: by key, newest timestamp
// first within a key. Timestamps are unique within a table, so the order is
// total and an unstable sort gives every run one order.
func compareCells(a, b *Cell) int {
	if c := compareKeys(a, b); c != 0 {
		return c
	}
	switch {
	case a.Timestamp > b.Timestamp:
		return -1
	case a.Timestamp < b.Timestamp:
		return 1
	}
	return 0
}

// cellRun sorts cells in place by compareCells, comparing through pointers:
// slices.SortFunc's comparator would take two 88-byte Cells by value, which
// measured 1.7× slower on 256 cells. A freeze sorts the WAL with it, and reads
// the memstore's newest versions, gathered in map order.
type cellRun []Cell

func (r cellRun) Len() int           { return len(r) }
func (r cellRun) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r cellRun) Less(i, j int) bool { return compareCells(&r[i], &r[j]) < 0 }

// storeFile is an immutable sorted run of cells persisted in HDFS.
type storeFile struct {
	path  string
	cells []Cell // sorted by compareCells
	// tier counts the merges behind the run: 0 for a flushed memstore, one
	// above its highest input for a merged run. A counter, not a size class:
	// overwrites and deletes shrink a merged run without sending it back to
	// be merged with the flushes again.
	tier int
	size int // bytes in HDFS, which bound the bytes of any merge of the file
}

// mergeIter walks runs, each sorted by compareCells, in key order and yields
// the newest version of every key, tombstones included; older versions are
// skipped. It holds its place between calls, so a merge can be paid for a few
// cells at a time, and moved counts the cells it has stepped past. Each key
// costs one pass over the runs' heads, whatever else the table holds.
type mergeIter struct {
	runs  [][]Cell
	moved int
}

// next returns the newest version of the next key, or nil once every run is
// exhausted. The cell belongs to its run: callers copy what they keep.
func (it *mergeIter) next() *Cell {
	var newest *Cell
	for _, r := range it.runs {
		if len(r) > 0 && (newest == nil || compareCells(&r[0], newest) < 0) {
			newest = &r[0]
		}
	}
	if newest == nil {
		return nil
	}
	for i, r := range it.runs {
		n := 0
		for n < len(r) && compareKeys(&r[n], newest) == 0 {
			n++
		}
		it.runs[i] = r[n:]
		it.moved += n
	}
	return newest
}

// stepCells is the installment a Put or Delete pays towards pending work: at
// most this many cells of the frozen run, or of the merge in flight, move
// through the merge and the encoder per write (a merge step stops after the
// key that reaches it, so one key's older versions may overshoot it). The
// freeze sort and a finished run's HDFS write and install come on top. On
// frames-sweep a 128-cell step takes about as long as a freeze; 64 cells gave
// the same tail with twice the steps. A merge too large to finish at this
// pace within K−1 flushes takes larger steps (mergeStep).
const stepCells = 128

// Config tunes table behavior.
type Config struct {
	// FlushThreshold is the memstore cell count that triggers a flush.
	FlushThreshold int
	// CompactThreshold is the compaction fan-in: the number of store files
	// of one tier that triggers their merge into one file of the next.
	CompactThreshold int
}

// DefaultConfig returns production-like defaults scaled for simulation.
func DefaultConfig() Config { return Config{FlushThreshold: 256, CompactThreshold: 4} }

// Table is a wide-column table. Safe for concurrent use.
type Table struct {
	mu       sync.Mutex
	name     string
	families map[string]struct{}
	cfg      Config
	fs       *hdfs.Cluster

	// wal holds the live memstore's cells in arrival order, the one copy of
	// each; memstore maps a key to the index in wal of its newest version.
	wal      []Cell
	memstore map[cellID]int32
	// frozen is the memstore frozen at the flush threshold, sorted by
	// compareCells: a run that reads merge between the memstore and the
	// store files, and that the WAL keeps until flushing, the store file
	// built from it, is installed. Empty with flushing nil when no flush is
	// pending; frozen and wal swap buffers at each freeze.
	frozen []Cell
	// vals is the unused tail of the chunk the next value is copied into
	// (ownLocked).
	vals     []byte
	flushing *build
	merging  *build       // the merge in flight, nil when none
	files    []*storeFile // newest first
	fileSeq  int
	clock    int64
	hook     FaultHook
	events   EventHook

	// Continuous-profiling regions, resolved once by SetProfiler.
	profWAL   *profile.Region
	profFlush *profile.Region

	// Metrics.
	flushes     int // memstores frozen
	compactions int // merges picked
	walAppends  int // cumulative, survives flushes (unlike len(wal))
}

// build is a store file made a step at a time: the frozen run being flushed,
// or a merge of store files. Its room is taken when it is set in flight;
// steps move cells into it and encode them as they come, and once the last
// is in, the file is written to HDFS and installed.
type build struct {
	tier  int
	cells []Cell
	buf   []byte // countRoom bytes for the cell count, then the encoded cells
	// A merge's inputs: a contiguous span of Table.files that stays readable,
	// and in HDFS, until the merged file takes its place; nil for a flush.
	// major says the span reaches the oldest file, so tombstones die.
	inputs []*storeFile
	merge  mergeIter
	major  bool
	// step is a merge's installment per write, mergeStep's; 0 for a flush,
	// whose steps move stepCells.
	step int
	// full says every cell is in: what is left is the install, which the
	// next step retries after a failed HDFS write.
	full bool
}

func (b *build) add(c *Cell) {
	b.cells = append(b.cells, *c)
	b.buf = appendCell(b.buf, c)
}

// newBuild takes the room for a build of up to n cells and size encoded
// bytes.
func newBuild(tier, n, size int) *build {
	return &build{tier: tier, cells: make([]Cell, 0, n), buf: make([]byte, countRoom, countRoom+size)}
}

// NewTable creates a table with the given column families, persisting store
// files in fs.
func NewTable(name string, families []string, cfg Config, fs *hdfs.Cluster) (*Table, error) {
	if len(families) == 0 {
		return nil, fmt.Errorf("%w: table needs at least one family", ErrNoFamily)
	}
	if cfg.FlushThreshold <= 0 {
		cfg.FlushThreshold = DefaultConfig().FlushThreshold
	}
	if cfg.CompactThreshold <= 1 {
		cfg.CompactThreshold = DefaultConfig().CompactThreshold
	}
	t := &Table{
		name:     name,
		families: make(map[string]struct{}, len(families)),
		cfg:      cfg,
		fs:       fs,
		memstore: make(map[cellID]int32),
	}
	for _, f := range families {
		t.families[f] = struct{}{}
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// SetFaultHook installs (or clears, with nil) the fault hook.
func (t *Table) SetFaultHook(h FaultHook) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = h
}

// SetProfiler attributes WAL appends ("hbase/wal") and flush and merge work
// — freezes and steps — ("hbase/flush") to continuous-profiling regions. nil
// detaches.
func (t *Table) SetProfiler(p *profile.Profiler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p == nil {
		t.profWAL, t.profFlush = nil, nil
		return
	}
	t.profWAL = p.Region("hbase/wal")
	t.profFlush = p.Region("hbase/flush")
}

// EventHook observes table lifecycle transitions ("flush", "compact",
// "recover") with a human-readable detail. "flush" and "compact" fire when
// the store file is installed. The hook runs with the table's lock held — it
// must not call back into the table; logging is the intended use.
type EventHook func(event, detail string)

// SetEventHook installs (or clears, with nil) the lifecycle event hook.
func (t *Table) SetEventHook(h EventHook) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = h
}

func (t *Table) faultLocked(op string) error {
	if t.hook == nil {
		return nil
	}
	return t.hook(op)
}

// Put writes one cell.
func (t *Table) Put(row, family, qualifier string, value []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.families[family]; !ok {
		return fmt.Errorf("%w: %s", ErrNoFamily, family)
	}
	t.clock++
	c := Cell{Row: row, Family: family, Qualifier: qualifier, Value: t.ownLocked(value), Timestamp: t.clock}
	return t.applyLocked(c)
}

// valueChunk is how many bytes one value-chunk allocation holds. A chunk
// stays live while any value in it is, so a chunk of values that were
// overwritten or deleted is freed only with the last of them; a frame's two
// values take 9–16 bytes, so a chunk holds those of about 300 frames.
const valueChunk = 4 << 10

// ownLocked is the table's copy of a value passed to Put, carved from a
// chunk the table owns and capped at its length, so an append to one
// reallocates instead of reaching its neighbour. A value larger than a
// chunk gets a chunk of its own size.
func (t *Table) ownLocked(value []byte) []byte {
	if cap(t.vals)-len(t.vals) < len(value) {
		t.vals = make([]byte, 0, max(valueChunk, len(value)))
	}
	start := len(t.vals)
	t.vals = append(t.vals, value...)
	return t.vals[start:len(t.vals):len(t.vals)]
}

// Delete writes a tombstone for one cell.
func (t *Table) Delete(row, family, qualifier string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.families[family]; !ok {
		return fmt.Errorf("%w: %s", ErrNoFamily, family)
	}
	t.clock++
	c := Cell{Row: row, Family: family, Qualifier: qualifier, Timestamp: t.clock, Tombstone: true}
	return t.applyLocked(c)
}

// applyLocked appends c to the WAL, then either freezes the memstore it
// filled or pays one installment of pending work.
func (t *Table) applyLocked(c Cell) error {
	// The WAL append is the durability point: if it faults, the mutation is
	// rejected whole — nothing reaches the memstore, so a caller can safely
	// retry the Put/Delete.
	sp := t.profWAL.Start()
	if err := t.faultLocked("wal"); err != nil {
		sp.End()
		return fmt.Errorf("wal append %s: %w", t.name, err)
	}
	t.memstore[c.id()] = int32(len(t.wal))
	t.wal = append(t.wal, c)
	t.walAppends++
	// Ends before the flush work so that lands in hbase/flush, not here.
	sp.End()
	if len(t.wal) >= t.cfg.FlushThreshold {
		return t.freezeLocked()
	}
	return t.stepLocked(stepCells)
}

// Flush forces the memstore to a store file and finishes every pending flush
// and merge before it returns.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.wal) > 0 {
		if err := t.freezeLocked(); err != nil {
			return err
		}
	}
	return t.drainLocked()
}

// freezeLocked turns the memstore into the frozen run, after the "flush"
// fault draw a flush makes, and sets its store file in flight. The sort is
// the one piece of a flush no step divides. The draw comes first, so a
// blacked-out store fails fast instead of sorting a growing memstore on every
// retried put.
func (t *Table) freezeLocked() error {
	if err := t.faultLocked("flush"); err != nil {
		return fmt.Errorf("flush %s: %w", t.name, err)
	}
	// Backpressure: a frozen run still unpersisted is finished first, so at
	// most one exists; and so is a merge with K−1 flushes installed in front
	// of its inputs, so the flush of this run does not make K files in tier 0
	// beside it. Neither fires at the default thresholds, where a flush takes
	// two steps and mergeStep paces merges; they hold the file count at any
	// size and threshold.
	for t.flushing != nil || t.merging != nil && slices.Index(t.files, t.merging.inputs[0]) >= t.cfg.CompactThreshold-1 {
		if err := t.stepLocked(math.MaxInt); err != nil {
			return err
		}
	}
	sp := t.profFlush.Start()
	defer sp.End()
	sort.Sort(cellRun(t.wal))
	t.frozen, t.wal = t.wal, t.frozen[:0]
	clear(t.memstore)
	size := 0
	for i := range t.frozen {
		size += cellSize(&t.frozen[i])
	}
	t.flushing = newBuild(0, len(t.frozen), size)
	t.flushes++
	return nil
}

// stepLocked pays one installment of pending work: it moves at most budget
// cells of the frozen run, or else of the merge in flight, into its store
// file, and installs the file once it is whole. When nothing is left in
// flight it picks the next merge, if a tier is full; a pick that faulted is
// made again by the next step.
func (t *Table) stepLocked(budget int) error {
	b := t.flushing
	if b == nil {
		b = t.merging
	}
	if b == nil && t.pickLocked() == 0 {
		return nil
	}
	sp := t.profFlush.Start()
	defer sp.End()
	if b != nil {
		t.fillLocked(b, max(budget, b.step))
		if !b.full {
			return nil
		}
		if err := t.installLocked(b); err != nil {
			return err
		}
		if t.flushing != nil || t.merging != nil {
			return nil
		}
	}
	if n := t.pickLocked(); n > 0 {
		return t.startMergeLocked(n)
	}
	return nil
}

// drainLocked pays for all pending work at once: the frozen run, the merge
// in flight and every merge they make due.
func (t *Table) drainLocked() error {
	for t.flushing != nil || t.merging != nil || t.pickLocked() > 0 {
		if err := t.stepLocked(math.MaxInt); err != nil {
			return err
		}
	}
	return nil
}

// fillLocked moves up to budget cells into b: the frozen run's next cells for
// a flush, the merge's next keys for a merge. A merge keeps the newest
// version of each key, and drops tombstones once it reaches the oldest file.
func (t *Table) fillLocked(b *build, budget int) {
	if b.inputs == nil {
		src := t.frozen[len(b.cells):]
		for i := range src[:min(len(src), budget)] {
			b.add(&src[i])
		}
		b.full = len(b.cells) == len(t.frozen)
		return
	}
	for start := b.merge.moved; b.merge.moved-start < budget; {
		c := b.merge.next()
		if c == nil {
			b.full = true
			return
		}
		if !b.major || !c.Tombstone {
			b.add(c)
		}
	}
}

// pickLocked is the minor-compaction policy: how many of the newest store
// files to merge now. Tiers never decrease from newest to oldest, so each
// tier's files are adjacent; once a tier holds CompactThreshold files, the
// pick is the newest-first prefix that ends with them, the deepest such tier
// if there are two; 0 means leave the files alone. Usually the full tier is
// the newest, but flushes installed while a merge ran sit in front of its
// output, and go up with it. A prefix is contiguous in age, so the merged run
// can take the prefix's place without reordering versions, and its tier, one
// above the full one, is at most the next file's. A merge that faulted leaves
// its inputs where the next pick takes them again. Picks are made only with
// nothing in flight, so no file it counts is already being merged.
func (t *Table) pickLocked() int {
	n, run := 0, 0
	for i, sf := range t.files {
		if i > 0 && sf.tier == t.files[i-1].tier {
			run++
		} else {
			run = 1
		}
		if run >= t.cfg.CompactThreshold {
			n = i + 1
		}
	}
	return n
}

// startMergeLocked sets a merge of the n newest store files in flight, after
// the "flush" fault draw a merge makes. The files stay installed until the
// merged run replaces them. Tombstones are dropped only when the merge
// reaches the oldest file: below a minor merge an older file may still hold
// the cell a tombstone deletes.
func (t *Table) startMergeLocked(n int) error {
	if err := t.faultLocked("flush"); err != nil {
		return fmt.Errorf("compact %s: %w", t.name, err)
	}
	inputs := slices.Clone(t.files[:n])
	runs := make([][]Cell, n)
	cells, size, tier := 0, 0, 0
	for i, sf := range inputs {
		runs[i] = sf.cells
		cells += len(sf.cells)
		size += sf.size
		tier = max(tier, sf.tier)
	}
	// cells and size bound the merged run; they meet it when no key is in
	// two of the files.
	b := newBuild(tier+1, cells, size)
	b.inputs, b.merge, b.major = inputs, mergeIter{runs: runs}, n == len(t.files)
	b.step = t.mergeStep(cells)
	t.merging = b
	t.compactions++
	return nil
}

// mergeStep is the installment a merge of cells input cells takes per write:
// stepCells, or more when stepCells per write would not finish it within K−1
// flushes — before the flush of the K-th memstore frozen after the pick is
// installed, which would make K files in tier 0 beside the merge. Counting
// from a pick made just before a freeze, that leaves (K−1)·(FlushThreshold −
// 1 − ⌈FlushThreshold/stepCells⌉) − 1 writes that step the merge: the others
// freeze a memstore or step its flush. At the default thresholds that is 758
// writes, so merges of up to 97 024 cells, tier 4 and below, keep stepCells.
func (t *Table) mergeStep(cells int) int {
	ft := t.cfg.FlushThreshold
	writes := (t.cfg.CompactThreshold-1)*(ft-1-ceilDiv(ft, stepCells)) - 1
	return max(stepCells, ceilDiv(cells, max(writes, 1)))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// installLocked writes a full build to HDFS and swaps its file in: in front
// of the others for a flush, which releases the frozen run and its WAL cells,
// and in place of its inputs for a merge, whose files leave HDFS only now. A
// failed write leaves everything as it was, for the next step to write again.
func (t *Table) installLocked(b *build) error {
	kind := "flush"
	if b.inputs != nil {
		kind = "compact"
	}
	path := "/hbase/" + t.name + "/sf-" + strconv.Itoa(t.fileSeq)
	t.fileSeq++
	data := sealStoreFile(b.buf, len(b.cells))
	if err := t.fs.Write(path, data); err != nil {
		return fmt.Errorf("%s %s: persist storefile: %w", kind, t.name, err)
	}
	sf := &storeFile{path: path, cells: b.cells, tier: b.tier, size: len(data)}
	if b.inputs == nil {
		t.files = slices.Insert(t.files, 0, sf)
		t.frozen, t.flushing = t.frozen[:0], nil
		if t.events != nil {
			t.events("flush", fmt.Sprintf("memstore flushed %d cells to %s", len(sf.cells), sf.path))
		}
		return nil
	}
	i := slices.Index(t.files, b.inputs[0])
	t.files = slices.Replace(t.files, i, i+len(b.inputs), sf)
	t.merging = nil
	for _, old := range b.inputs {
		if err := t.fs.Delete(old.path); err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			return fmt.Errorf("compact cleanup: %w", err)
		}
	}
	if t.events != nil {
		scope := "minor"
		if b.major {
			scope = "major"
		}
		t.events("compact", fmt.Sprintf("%s: merged %d store files into %s (%d cells)", scope, len(b.inputs), sf.path, len(sf.cells)))
	}
	return nil
}

// A store file's bytes are the cell count as a uvarint, then per cell the
// row, family, qualifier and value, each behind its uvarint length, the
// timestamp as a varint and one tombstone byte. A build sized for all its
// cells appends each as it comes, and writes the count last, into the room
// it keeps in front of them.

// countRoom is the room a build keeps in front of its cells for the count.
const countRoom = binary.MaxVarintLen64

// cellSize is the number of bytes appendCell writes for c.
func cellSize(c *Cell) int {
	size := 1 // the tombstone byte
	for _, n := range [...]int{len(c.Row), len(c.Family), len(c.Qualifier), len(c.Value)} {
		size += uvarintLen(uint64(n)) + n
	}
	// binary.AppendVarint's zig-zag: the sign moves to the low bit.
	return size + uvarintLen(uint64(c.Timestamp<<1^c.Timestamp>>63))
}

// appendCell appends c as a store file lays it out.
func appendCell(buf []byte, c *Cell) []byte {
	buf = append(binary.AppendUvarint(buf, uint64(len(c.Row))), c.Row...)
	buf = append(binary.AppendUvarint(buf, uint64(len(c.Family))), c.Family...)
	buf = append(binary.AppendUvarint(buf, uint64(len(c.Qualifier))), c.Qualifier...)
	buf = append(binary.AppendUvarint(buf, uint64(len(c.Value))), c.Value...)
	buf = binary.AppendVarint(buf, c.Timestamp)
	if c.Tombstone {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// sealStoreFile writes the count of the n cells buf holds after its room in
// front of them and returns the store file's bytes.
func sealStoreFile(buf []byte, n int) []byte {
	start := countRoom - uvarintLen(uint64(n))
	binary.PutUvarint(buf[start:], uint64(n))
	return buf[start:]
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Compact is the major compaction: it finishes the pending work, then merges
// every store file into one, keeping only the newest version of each cell
// and dropping tombstoned cells entirely.
func (t *Table) Compact() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.drainLocked(); err != nil || len(t.files) <= 1 {
		return err
	}
	if err := t.startMergeLocked(len(t.files)); err != nil {
		return err
	}
	return t.drainLocked()
}

// Get returns the newest live value of a cell.
func (t *Table) Get(row, family, qualifier string) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.families[family]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoFamily, family)
	}
	key := Cell{Row: row, Family: family, Qualifier: qualifier}
	c := t.newestLocked(&key)
	if c == nil || c.Tombstone {
		return nil, fmt.Errorf("%w: %s/%s:%s", ErrNotFound, row, family, qualifier)
	}
	return append([]byte(nil), c.Value...), nil
}

// newestLocked returns the newest version of key's cell, tombstone or not,
// or nil: the memstore's if it has one, else the frozen run's, else the
// newest store file's.
func (t *Table) newestLocked(key *Cell) *Cell {
	if i, ok := t.memstore[key.id()]; ok {
		return &t.wal[i]
	}
	if c := searchRun(t.frozen, key); c != nil {
		return c
	}
	for _, sf := range t.files {
		if c := searchRun(sf.cells, key); c != nil {
			return c
		}
	}
	return nil
}

// searchRun returns the newest version of key's cell in a sorted run, or
// nil: the first cell at or after key.
func searchRun(run []Cell, key *Cell) *Cell {
	i := sort.Search(len(run), func(i int) bool { return compareKeys(&run[i], key) >= 0 })
	if i < len(run) && compareKeys(&run[i], key) == 0 {
		return &run[i]
	}
	return nil
}

// RowResult groups the live cells of one row.
type RowResult struct {
	Row   string
	Cells []Cell
}

// Scan returns live rows with startRow <= row < endRow (endRow "" = no
// bound), merging memstore, frozen run and store files. The values are
// copies, in one buffer per call, so writing into one reaches no table bytes.
func (t *Table) Scan(startRow, endRow string) ([]RowResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RowResult, 0)
	size := 0
	it := t.rangeRunsLocked(startRow, endRow)
	for c := it.next(); c != nil; c = it.next() {
		if c.Tombstone {
			continue
		}
		size += len(c.Value)
		if n := len(out); n > 0 && out[n-1].Row == c.Row {
			out[n-1].Cells = append(out[n-1].Cells, *c)
			continue
		}
		out = append(out, RowResult{Row: c.Row, Cells: []Cell{*c}})
	}
	values := make([]byte, 0, size)
	for _, r := range out {
		for j := range r.Cells {
			v := &r.Cells[j].Value
			start := len(values)
			values = append(values, *v...)
			*v = values[start:len(values):len(values)]
		}
	}
	return out, nil
}

// rangeRunsLocked is the merge a read of startRow <= row < endRow (endRow ""
// = no bound) walks: one run for the memstore's newest versions, then the
// frozen run and every store file, each cut down to the row range. It yields
// cells in row, family, qualifier order, so rows come out assembled and
// sorted.
func (t *Table) rangeRunsLocked(startRow, endRow string) mergeIter {
	runs := make([][]Cell, 1, 2+len(t.files))
	for _, i := range t.memstore {
		if c := &t.wal[i]; c.Row >= startRow && (endRow == "" || c.Row < endRow) {
			runs[0] = append(runs[0], *c)
		}
	}
	sort.Sort(cellRun(runs[0]))
	runs = append(runs, rowRange(t.frozen, startRow, endRow))
	for _, sf := range t.files {
		runs = append(runs, rowRange(sf.cells, startRow, endRow))
	}
	return mergeIter{runs: runs}
}

// rowRange cuts a sorted run down to startRow <= row < endRow (endRow "" =
// no bound).
func rowRange(cells []Cell, startRow, endRow string) []Cell {
	cells = cells[sort.Search(len(cells), func(i int) bool { return cells[i].Row >= startRow }):]
	if endRow != "" {
		cells = cells[:sort.Search(len(cells), func(i int) bool { return cells[i].Row >= endRow })]
	}
	return cells
}

// prefixEnd is the smallest string greater than every key that starts with
// prefix, or "" (no bound) when there is none: prefix is empty or all 0xff.
func prefixEnd(prefix string) string {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] < 0xff {
			end := []byte(prefix[:i+1])
			end[i]++
			return string(end)
		}
	}
	return ""
}

// RowKeys returns the keys of the live rows whose key starts with prefix, in
// order: the rows ScanPrefix returns, without copying their cells out.
func (t *Table) RowKeys(prefix string) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0)
	it := t.rangeRunsLocked(prefix, prefixEnd(prefix))
	for c := it.next(); c != nil; c = it.next() {
		if !c.Tombstone && (len(out) == 0 || out[len(out)-1] != c.Row) {
			out = append(out, c.Row)
		}
	}
	return out, nil
}

// ScanPrefix returns rows whose key starts with prefix.
func (t *Table) ScanPrefix(prefix string) ([]RowResult, error) {
	rows, err := t.Scan(prefix, prefixEnd(prefix))
	if err != nil {
		return nil, err
	}
	out := rows[:0]
	for _, r := range rows {
		if strings.HasPrefix(r.Row, prefix) {
			out = append(out, r)
		}
	}
	return out, nil
}

// Stats reports table internals.
type Stats struct {
	MemstoreCells int // the live memstore, not the frozen run
	StoreFiles    int // installed store files, a merge's inputs included
	Flushes       int // memstores frozen
	Compactions   int // merges picked
	WALEntries    int // WAL cells not yet in an installed store file
	WALAppends    int // cumulative appends across the table's lifetime
}

// Stats returns a snapshot of table internals.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		MemstoreCells: len(t.wal),
		StoreFiles:    len(t.files),
		Flushes:       t.flushes,
		Compactions:   t.compactions,
		WALEntries:    len(t.frozen) + len(t.wal),
		WALAppends:    t.walAppends,
	}
}

// CrashAndRecover simulates a region-server crash: the memstore is dropped
// and rebuilt by replaying the WAL, exactly as HBase recovers. The frozen
// run's store file and the merge in flight are lost half-built; the merge's
// inputs are still installed, so the next pick merges them again. It returns
// the number of replayed cells.
func (t *Table) CrashAndRecover() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// The WAL survives the crash as it is: the frozen run's cells, then the
	// live memstore's. Replaying both indexes each key's newest version.
	t.frozen = append(t.frozen, t.wal...)
	t.wal, t.frozen = t.frozen, t.wal[:0]
	t.flushing, t.merging = nil, nil
	clear(t.memstore)
	for i := range t.wal {
		c := &t.wal[i]
		if j, ok := t.memstore[c.id()]; !ok || t.wal[j].Timestamp < c.Timestamp {
			t.memstore[c.id()] = int32(i)
		}
	}
	replayed := len(t.wal)
	if t.events != nil {
		t.events("recover", fmt.Sprintf("WAL replay restored %d cells after crash", replayed))
	}
	return replayed, nil
}

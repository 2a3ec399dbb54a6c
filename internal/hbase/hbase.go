// Package hbase simulates an HBase-style wide-column store layered on the
// hdfs package: writes go to a write-ahead log and a sorted in-memory
// memstore, flushes produce immutable store files persisted in HDFS,
// size-tiered compaction merges the newest store files of one tier into a
// file of the next, so a cell is rewritten once per tier and not once per
// compaction, and reads merge memstore and store files newest-first. Store
// files are sorted runs, so compaction and scans are one k-way merge over them
// (mergeRuns) and point reads are a binary search per file. Unlike HDFS's
// batch-only access, the store supports efficient random reads and writes —
// exactly the contrast the paper draws in §II.C.2.
package hbase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
// write-ahead-log appends and "flush" for store-file persistence. A non-nil
// return aborts the operation with that error. The signature is structurally
// shared with the internal/faults injector so chaos harnesses can attach
// without this package importing them.
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
// first within a key.
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

// storeFile is an immutable sorted run of cells persisted in HDFS.
type storeFile struct {
	path  string
	cells []Cell // sorted by compareCells
	// tier counts the merges behind the run: 0 for a flushed memstore, one
	// above its highest input for a merged run. A counter, not a size class:
	// overwrites and deletes shrink a merged run without sending it back to
	// be merged with the flushes again.
	tier int
}

// mergeRuns walks runs, each sorted by compareCells, in key order and hands
// emit the newest version of every key, tombstones included; older versions
// are skipped. It costs one pass over the runs' cells, whatever else the
// table holds. The runs slice is consumed.
func mergeRuns(runs [][]Cell, emit func(c *Cell)) {
	for {
		var newest *Cell
		for _, r := range runs {
			if len(r) > 0 && (newest == nil || compareCells(&r[0], newest) < 0) {
				newest = &r[0]
			}
		}
		if newest == nil {
			return
		}
		emit(newest)
		for i, r := range runs {
			n := 0
			for n < len(r) && compareKeys(&r[n], newest) == 0 {
				n++
			}
			runs[i] = r[n:]
		}
	}
}

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

	memstore map[cellID][]Cell // key → versions, newest last
	memCount int
	wal      []Cell       // unflushed cells, in arrival order
	files    []*storeFile // newest first
	fileSeq  int
	clock    int64
	hook     FaultHook
	events   EventHook

	// Continuous-profiling regions, resolved once by SetProfiler.
	profWAL   *profile.Region
	profFlush *profile.Region

	// Metrics.
	flushes     int
	compactions int
	walAppends  int // cumulative, survives flushes (unlike len(wal))
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
		memstore: make(map[cellID][]Cell),
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

// SetProfiler attributes WAL appends ("hbase/wal") and memstore flushes
// ("hbase/flush") to continuous-profiling regions. nil detaches.
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
// "recover") with a human-readable detail. The hook runs with the table's
// lock held — it must not call back into the table; logging is the intended
// use.
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
	v := make([]byte, len(value))
	copy(v, value)
	c := Cell{Row: row, Family: family, Qualifier: qualifier, Value: v, Timestamp: t.clock}
	return t.applyLocked(c)
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

func (t *Table) applyLocked(c Cell) error {
	// The WAL append is the durability point: if it faults, the mutation is
	// rejected whole — nothing reaches the memstore, so a caller can safely
	// retry the Put/Delete.
	sp := t.profWAL.Start()
	if err := t.faultLocked("wal"); err != nil {
		sp.End()
		return fmt.Errorf("wal append %s: %w", t.name, err)
	}
	t.wal = append(t.wal, c)
	t.walAppends++
	id := c.id()
	t.memstore[id] = append(t.memstore[id], c)
	t.memCount++
	// Ends before a threshold flush so flush time lands in hbase/flush, not
	// here.
	sp.End()
	if t.memCount >= t.cfg.FlushThreshold {
		if err := t.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Flush forces the memstore to a store file.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Table) flushLocked() error {
	if t.memCount == 0 {
		return nil
	}
	if err := t.faultLocked("flush"); err != nil {
		return fmt.Errorf("flush %s: %w", t.name, err)
	}
	sp := t.profFlush.Start()
	defer sp.End()
	cells := make([]Cell, 0, t.memCount)
	for _, versions := range t.memstore {
		cells = append(cells, versions...)
	}
	sortCells(cells)
	sf, err := t.persistStoreFile(cells, 0)
	if err != nil {
		return fmt.Errorf("flush %s: %w", t.name, err)
	}
	t.files = append([]*storeFile{sf}, t.files...)
	clear(t.memstore)
	t.memCount = 0
	t.wal = t.wal[:0]
	t.flushes++
	if t.events != nil {
		t.events("flush", fmt.Sprintf("memstore flushed %d cells to %s", len(cells), sf.path))
	}
	// One merge can fill the next tier, so pick again after each.
	for n := t.pickLocked(); n > 0; n = t.pickLocked() {
		if err := t.mergeLocked(n); err != nil {
			return err
		}
	}
	return nil
}

// pickLocked is the minor-compaction policy: how many of the newest store
// files to merge now. The pick is the longest newest-first prefix of t.files
// whose tiers do not exceed the newest file's, once it holds CompactThreshold
// files; 0 means leave the files alone. A prefix is contiguous in age, so the
// merged run can take the prefix's place without reordering versions, and a
// merge that faulted leaves its inputs where the next pick reaching their
// tier takes them again.
func (t *Table) pickLocked() int {
	n := 0
	for n < len(t.files) && t.files[n].tier <= t.files[0].tier {
		n++
	}
	if n < t.cfg.CompactThreshold {
		return 0
	}
	return n
}

// cellOrder sorts an index permutation over a cell slice by compareCells,
// swapping ints instead of multi-word Cell structs. Flush runs this on every
// memstore spill, so the sort is on the ingest hot path.
type cellOrder struct {
	cells []Cell
	idx   []int
}

func (c cellOrder) Len() int      { return len(c.idx) }
func (c cellOrder) Swap(i, j int) { c.idx[i], c.idx[j] = c.idx[j], c.idx[i] }
func (c cellOrder) Less(i, j int) bool {
	return compareCells(&c.cells[c.idx[i]], &c.cells[c.idx[j]]) < 0
}

func sortCells(cells []Cell) {
	ord := cellOrder{cells: cells, idx: make([]int, len(cells))}
	for i := range ord.idx {
		ord.idx[i] = i
	}
	sort.Stable(ord)
	sorted := make([]Cell, len(cells))
	for i, j := range ord.idx {
		sorted[i] = cells[j]
	}
	copy(cells, sorted)
}

// persistStoreFile writes one sorted run. The "flush" fault seam is drawn
// by the callers before they build and sort the run, so a blacked-out
// store fails fast instead of re-sorting a growing memstore on every
// retried put.
func (t *Table) persistStoreFile(cells []Cell, tier int) (*storeFile, error) {
	path := "/hbase/" + t.name + "/sf-" + strconv.Itoa(t.fileSeq)
	t.fileSeq++
	if err := t.fs.Write(path, encodeStoreFile(cells)); err != nil {
		return nil, fmt.Errorf("persist storefile: %w", err)
	}
	return &storeFile{path: path, cells: cells, tier: tier}, nil
}

// encodeStoreFile lays a run out as the bytes HDFS stores: the cell count as
// a uvarint, then per cell the row, family, qualifier and value, each behind
// its uvarint length, the timestamp as a varint and one tombstone byte. The
// buffer is sized exactly first, so it is allocated once.
func encodeStoreFile(cells []Cell) []byte {
	size := uvarintLen(uint64(len(cells)))
	for i := range cells {
		c := &cells[i]
		for _, n := range [...]int{len(c.Row), len(c.Family), len(c.Qualifier), len(c.Value)} {
			size += uvarintLen(uint64(n)) + n
		}
		// binary.AppendVarint's zig-zag: the sign moves to the low bit.
		size += uvarintLen(uint64(c.Timestamp<<1^c.Timestamp>>63)) + 1
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(cells)))
	for i := range cells {
		c := &cells[i]
		buf = append(binary.AppendUvarint(buf, uint64(len(c.Row))), c.Row...)
		buf = append(binary.AppendUvarint(buf, uint64(len(c.Family))), c.Family...)
		buf = append(binary.AppendUvarint(buf, uint64(len(c.Qualifier))), c.Qualifier...)
		buf = append(binary.AppendUvarint(buf, uint64(len(c.Value))), c.Value...)
		buf = binary.AppendVarint(buf, c.Timestamp)
		if c.Tombstone {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Compact is the major compaction: it merges every store file into one,
// keeping only the newest version of each cell and dropping tombstoned cells
// entirely.
func (t *Table) Compact() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mergeLocked(len(t.files))
}

// mergeLocked replaces the n newest store files with one run a tier above
// them, holding the newest version of each of their cells. Tombstones are
// dropped only when the merge reaches the oldest file: below a minor merge an
// older file may still hold the cell a tombstone deletes.
func (t *Table) mergeLocked(n int) error {
	if n <= 1 {
		return nil
	}
	if err := t.faultLocked("flush"); err != nil {
		return fmt.Errorf("compact %s: %w", t.name, err)
	}
	picked := t.files[:n]
	major := n == len(t.files)
	runs := make([][]Cell, n)
	total, tier := 0, 0
	for i, sf := range picked {
		runs[i] = sf.cells
		total += len(sf.cells)
		tier = max(tier, sf.tier)
	}
	// total is exact unless a cell was overwritten or deleted since the
	// files were flushed.
	cells := make([]Cell, 0, total)
	mergeRuns(runs, func(c *Cell) {
		if !major || !c.Tombstone {
			cells = append(cells, *c)
		}
	})
	sf, err := t.persistStoreFile(cells, tier+1)
	if err != nil {
		return fmt.Errorf("compact %s: %w", t.name, err)
	}
	for _, old := range picked {
		if err := t.fs.Delete(old.path); err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			return fmt.Errorf("compact cleanup: %w", err)
		}
	}
	t.files = append([]*storeFile{sf}, t.files[n:]...)
	t.compactions++
	if t.events != nil {
		kind := "minor"
		if major {
			kind = "major"
		}
		t.events("compact", fmt.Sprintf("%s: merged %d store files into %s (%d cells)", kind, n, sf.path, len(cells)))
	}
	return nil
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
// or nil: the memstore's if it has one, else the newest store file's.
func (t *Table) newestLocked(key *Cell) *Cell {
	if versions := t.memstore[key.id()]; len(versions) > 0 {
		return &versions[len(versions)-1]
	}
	for _, sf := range t.files {
		// The first cell at or after key is its newest version in this run.
		i := sort.Search(len(sf.cells), func(i int) bool { return compareKeys(&sf.cells[i], key) >= 0 })
		if i < len(sf.cells) && compareKeys(&sf.cells[i], key) == 0 {
			return &sf.cells[i]
		}
	}
	return nil
}

// RowResult groups the live cells of one row.
type RowResult struct {
	Row   string
	Cells []Cell
}

// Scan returns live rows with startRow <= row < endRow (endRow "" = no
// bound), merging memstore and store files.
func (t *Table) Scan(startRow, endRow string) ([]RowResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RowResult, 0)
	mergeRuns(t.rangeRunsLocked(startRow, endRow), func(c *Cell) {
		if c.Tombstone {
			return
		}
		if n := len(out); n > 0 && out[n-1].Row == c.Row {
			out[n-1].Cells = append(out[n-1].Cells, *c)
			return
		}
		out = append(out, RowResult{Row: c.Row, Cells: []Cell{*c}})
	})
	return out, nil
}

// rangeRunsLocked assembles what a read of startRow <= row < endRow (endRow
// "" = no bound) merges: one run for the memstore's newest versions, one per
// store file cut down to the row range. mergeRuns over them emits cells in
// row, family, qualifier order, so rows come out assembled and sorted.
func (t *Table) rangeRunsLocked(startRow, endRow string) [][]Cell {
	runs := make([][]Cell, 1, 1+len(t.files))
	for _, versions := range t.memstore {
		c := &versions[len(versions)-1]
		if c.Row >= startRow && (endRow == "" || c.Row < endRow) {
			runs[0] = append(runs[0], *c)
		}
	}
	sortCells(runs[0])
	for _, sf := range t.files {
		cells := sf.cells
		cells = cells[sort.Search(len(cells), func(i int) bool { return cells[i].Row >= startRow }):]
		if endRow != "" {
			cells = cells[:sort.Search(len(cells), func(i int) bool { return cells[i].Row >= endRow })]
		}
		runs = append(runs, cells)
	}
	return runs
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
	mergeRuns(t.rangeRunsLocked(prefix, prefixEnd(prefix)), func(c *Cell) {
		if !c.Tombstone && (len(out) == 0 || out[len(out)-1] != c.Row) {
			out = append(out, c.Row)
		}
	})
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
	MemstoreCells int
	StoreFiles    int
	Flushes       int
	Compactions   int
	WALEntries    int // unflushed WAL length
	WALAppends    int // cumulative appends across the table's lifetime
}

// Stats returns a snapshot of table internals.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		MemstoreCells: t.memCount,
		StoreFiles:    len(t.files),
		Flushes:       t.flushes,
		Compactions:   t.compactions,
		WALEntries:    len(t.wal),
		WALAppends:    t.walAppends,
	}
}

// CrashAndRecover simulates a region-server crash: the memstore is dropped
// and rebuilt by replaying the WAL, exactly as HBase recovers. It returns
// the number of replayed cells.
func (t *Table) CrashAndRecover() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// The WAL survives the crash as it is; replaying it in arrival order
	// rebuilds each key's versions newest-last.
	clear(t.memstore)
	for _, c := range t.wal {
		id := c.id()
		t.memstore[id] = append(t.memstore[id], c)
	}
	replayed := len(t.wal)
	t.memCount = replayed
	if t.events != nil {
		t.events("recover", fmt.Sprintf("WAL replay restored %d cells after crash", replayed))
	}
	return replayed, nil
}

package hbase

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/hdfs"
)

func newTestTable(t testing.TB, cfg Config) *Table {
	t.Helper()
	fs := hdfs.NewCluster(hdfs.Config{BlockSize: 1024, Replication: 2}, rand.New(rand.NewSource(1)))
	for i := 0; i < 3; i++ {
		if err := fs.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tb, err := NewTable("incidents", []string{"meta", "video"}, cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestPutGetRoundTrip(t *testing.T) {
	tb := newTestTable(t, DefaultConfig())
	if err := tb.Put("row-1", "meta", "type", []byte("robbery")); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Get("row-1", "meta", "type")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "robbery" {
		t.Fatalf("got %q", got)
	}
}

func TestGetMissingAndBadFamily(t *testing.T) {
	tb := newTestTable(t, DefaultConfig())
	if _, err := tb.Get("nope", "meta", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing err = %v", err)
	}
	if _, err := tb.Get("r", "badfam", "x"); !errors.Is(err, ErrNoFamily) {
		t.Fatalf("family err = %v", err)
	}
	if err := tb.Put("r", "badfam", "x", nil); !errors.Is(err, ErrNoFamily) {
		t.Fatalf("put family err = %v", err)
	}
	if _, err := NewTable("t", nil, DefaultConfig(), nil); !errors.Is(err, ErrNoFamily) {
		t.Fatalf("no-family table err = %v", err)
	}
}

func TestOverwriteTakesNewestVersion(t *testing.T) {
	tb := newTestTable(t, DefaultConfig())
	_ = tb.Put("r", "meta", "v", []byte("old"))
	_ = tb.Put("r", "meta", "v", []byte("new"))
	got, err := tb.Get("r", "meta", "v")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
}

func TestDeleteTombstone(t *testing.T) {
	tb := newTestTable(t, DefaultConfig())
	_ = tb.Put("r", "meta", "v", []byte("x"))
	if err := tb.Delete("r", "meta", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Get("r", "meta", "v"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted get err = %v", err)
	}
	// Deletion survives a flush.
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Get("r", "meta", "v"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-flush deleted get err = %v", err)
	}
}

func TestFlushPersistsAndServesFromStoreFiles(t *testing.T) {
	tb := newTestTable(t, Config{FlushThreshold: 1000, CompactThreshold: 100})
	for i := 0; i < 50; i++ {
		if err := tb.Put(fmt.Sprintf("row-%03d", i), "meta", "n", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	st := tb.Stats()
	if st.MemstoreCells != 0 || st.StoreFiles != 1 || st.WALEntries != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	got, err := tb.Get("row-007", "meta", "n")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("got %v", got)
	}
}

func TestAutoFlushAndCompaction(t *testing.T) {
	tb := newTestTable(t, Config{FlushThreshold: 10, CompactThreshold: 3})
	for i := 0; i < 100; i++ {
		if err := tb.Put(fmt.Sprintf("row-%03d", i%20), "meta", "n", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := tb.Stats()
	if st.Flushes == 0 {
		t.Fatal("no automatic flushes")
	}
	if st.Compactions == 0 {
		t.Fatal("no automatic compactions")
	}
	if st.StoreFiles >= 3 {
		t.Fatalf("storefiles = %d after compaction", st.StoreFiles)
	}
	// Newest value for a repeatedly-written row wins across files.
	got, err := tb.Get("row-019", "meta", "n")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 99 {
		t.Fatalf("row-019 = %d, want 99", got[0])
	}
}

func TestCompactionDropsTombstones(t *testing.T) {
	tb := newTestTable(t, Config{FlushThreshold: 1000, CompactThreshold: 100})
	_ = tb.Put("r1", "meta", "v", []byte("a"))
	_ = tb.Put("r2", "meta", "v", []byte("b"))
	_ = tb.Flush()
	_ = tb.Delete("r1", "meta", "v")
	_ = tb.Flush()
	if err := tb.Compact(); err != nil {
		t.Fatal(err)
	}
	st := tb.Stats()
	if st.StoreFiles != 1 {
		t.Fatalf("storefiles = %d", st.StoreFiles)
	}
	if _, err := tb.Get("r1", "meta", "v"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("r1 err = %v", err)
	}
	if v, err := tb.Get("r2", "meta", "v"); err != nil || string(v) != "b" {
		t.Fatalf("r2 = %q, %v", v, err)
	}
}

func TestScanRangeAndPrefix(t *testing.T) {
	tb := newTestTable(t, Config{FlushThreshold: 7, CompactThreshold: 3})
	for i := 0; i < 30; i++ {
		_ = tb.Put(fmt.Sprintf("cam-%02d", i), "meta", "city", []byte("BR"))
	}
	_ = tb.Put("tweet-1", "meta", "city", []byte("NO"))
	rows, err := tb.Scan("cam-10", "cam-20")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("range scan = %d rows", len(rows))
	}
	if rows[0].Row != "cam-10" || rows[9].Row != "cam-19" {
		t.Fatalf("range bounds: %s .. %s", rows[0].Row, rows[9].Row)
	}
	pref, err := tb.ScanPrefix("cam-")
	if err != nil {
		t.Fatal(err)
	}
	if len(pref) != 30 {
		t.Fatalf("prefix scan = %d rows", len(pref))
	}
	all, err := tb.Scan("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 31 {
		t.Fatalf("full scan = %d rows", len(all))
	}
}

func TestScanMergesMemstoreOverStoreFiles(t *testing.T) {
	tb := newTestTable(t, Config{FlushThreshold: 1000, CompactThreshold: 100})
	_ = tb.Put("r", "meta", "v", []byte("old"))
	_ = tb.Flush()
	_ = tb.Put("r", "meta", "v", []byte("new"))
	rows, err := tb.Scan("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[0].Cells[0].Value) != "new" {
		t.Fatalf("scan = %+v", rows)
	}
}

func TestCrashRecoveryReplaysWAL(t *testing.T) {
	tb := newTestTable(t, Config{FlushThreshold: 1000, CompactThreshold: 100})
	_ = tb.Put("durable", "meta", "v", []byte("flushed"))
	_ = tb.Flush()
	_ = tb.Put("recent", "meta", "v", []byte("unflushed"))
	replayed, err := tb.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("replayed = %d", replayed)
	}
	if v, err := tb.Get("recent", "meta", "v"); err != nil || string(v) != "unflushed" {
		t.Fatalf("recent = %q, %v", v, err)
	}
	if v, err := tb.Get("durable", "meta", "v"); err != nil || string(v) != "flushed" {
		t.Fatalf("durable = %q, %v", v, err)
	}
}

// TestValueIsolation: the table keeps its own copy of a value, and every
// read hands out its own, so writing into either side reaches nothing else.
func TestValueIsolation(t *testing.T) {
	tb := newTestTable(t, DefaultConfig())
	buf := []byte("abc")
	_ = tb.Put("r", "meta", "v", buf)
	buf[0] = 'Z'
	got, _ := tb.Get("r", "meta", "v")
	if string(got) != "abc" {
		t.Fatal("Put must copy value")
	}
	got[0] = 'Q'
	got2, _ := tb.Get("r", "meta", "v")
	if string(got2) != "abc" {
		t.Fatal("Get must return a copy")
	}
	_ = tb.Put("s", "meta", "v", []byte("def"))
	// From the memstore, and from a store file after a flush.
	for _, where := range []string{"memstore", "store file"} {
		for _, scan := range []func() ([]RowResult, error){
			func() ([]RowResult, error) { return tb.Scan("", "") },
			func() ([]RowResult, error) { return tb.ScanPrefix("") },
		} {
			rows, err := scan()
			if err != nil || len(rows) != 2 {
				t.Fatalf("%s: scan = %v, %v", where, rows, err)
			}
			for _, r := range rows {
				r.Cells[0].Value[0] = 'Q'
				// A value must not grow into its neighbour's bytes either.
				_ = append(r.Cells[0].Value, 'Q')
			}
			for row, want := range map[string]string{"r": "abc", "s": "def"} {
				if got, err := tb.Get(row, "meta", "v"); err != nil || string(got) != want {
					t.Fatalf("%s: Get(%s) after writing into a scanned value = %q, %v; want %q", where, row, got, err, want)
				}
			}
			if rows, _ := scan(); string(rows[1].Cells[0].Value) != "def" {
				t.Fatalf("%s: appending to a scanned value wrote into the next one: %q", where, rows[1].Cells[0].Value)
			}
		}
		if err := tb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// A value larger than a chunk is copied whole, and the value after it
	// is not written over it.
	big := strings.Repeat("x", valueChunk+1)
	_ = tb.Put("t", "meta", "v", []byte(big))
	_ = tb.Put("u", "meta", "v", []byte("ghi"))
	for row, want := range map[string]string{"t": big, "u": "ghi"} {
		if got, err := tb.Get(row, "meta", "v"); err != nil || string(got) != want {
			t.Fatalf("Get(%s) = %d bytes, %v; want %d", row, len(got), err, len(want))
		}
	}
}

func TestManyRandomOpsConsistentWithMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tb := newTestTable(t, Config{FlushThreshold: 17, CompactThreshold: 3})
	oracle := make(map[string]string)
	for op := 0; op < 2000; op++ {
		row := fmt.Sprintf("r%02d", rng.Intn(40))
		switch rng.Intn(3) {
		case 0, 1:
			val := fmt.Sprintf("v%d", op)
			if err := tb.Put(row, "meta", "q", []byte(val)); err != nil {
				t.Fatal(err)
			}
			oracle[row] = val
		case 2:
			if err := tb.Delete(row, "meta", "q"); err != nil {
				t.Fatal(err)
			}
			delete(oracle, row)
		}
	}
	for row, want := range oracle {
		got, err := tb.Get(row, "meta", "q")
		if err != nil {
			t.Fatalf("row %s: %v", row, err)
		}
		if string(got) != want {
			t.Fatalf("row %s = %q, want %q", row, got, want)
		}
	}
	rows, err := tb.Scan("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(oracle) {
		t.Fatalf("scan rows = %d, oracle = %d", len(rows), len(oracle))
	}
}

// countMergedCells installs an event hook on tb that adds up the cells its
// compactions write, minor and major. The hook runs under the table's lock,
// so it may read the merged run: the one file it has not seen installed.
func countMergedCells(tb *Table) *int {
	merged := new(int)
	seen := map[*storeFile]bool{}
	tb.SetEventHook(func(event, _ string) {
		for _, sf := range tb.files {
			if !seen[sf] {
				seen[sf] = true
				if event == "compact" {
					*merged += len(sf.cells)
				}
			}
		}
	})
	return merged
}

// TestWriteAmplificationBounded pins what size-tiered compaction is for: a
// cell is rewritten at most once per tier, so over a fault-free run of
// distinct puts the merges write at most ⌈log_K flushes⌉ cells per cell put
// (measured ≈ 2.6 here; merging every file on every CompactThreshold-th flush
// writes ≈ 13), and the files settle at no more than K−1 per tier.
func TestWriteAmplificationBounded(t *testing.T) {
	const puts = 20000
	tb := newTestTable(t, DefaultConfig())
	merged := countMergedCells(tb)
	for i := 0; i < puts; i++ {
		if err := tb.Put(fmt.Sprintf("cam-%03d|%06d", i%220, i/220), "meta", "class", []byte("car")); err != nil {
			t.Fatal(err)
		}
	}
	st, k := tb.Stats(), DefaultConfig().CompactThreshold
	tiers := 0 // ⌈log_K flushes⌉
	for n := 1; n < st.Flushes; n *= k {
		tiers++
	}
	if st.Flushes != puts/DefaultConfig().FlushThreshold || *merged == 0 || *merged > tiers*puts {
		t.Fatalf("%d flushes, merges wrote %d cells for %d put (×%.1f), want at most ×%d",
			st.Flushes, *merged, puts, float64(*merged)/float64(puts), tiers)
	}
	if st.StoreFiles > (k-1)*tiers {
		t.Fatalf("%d store files after %d flushes, want ≤ %d", st.StoreFiles, st.Flushes, (k-1)*tiers)
	}
}

// TestStepWorkBounded pins what paying in installments is for, on frame-keyed
// puts. No put moves more cells into a store file under construction than
// stepCells, or than the step mergeStep gave the merge in flight, and none
// installs more than one file. The put that freezes the memstore moves none,
// its sort aside, and finds no backpressure to pay: the last frozen run is
// installed, and fewer than K−1 flushes sit in front of the merge in flight.
// Between puts, each tier holds at most K−1 files besides the ones the merge
// in flight reads, and the merges rewrite a cell at most once per tier, as
// TestWriteAmplificationBounded has it. At the default thresholds, 44 000
// puts keep every step at stepCells, and 300 000 reach a merge of 262 144
// cells, the first that mergeStep paces faster; fan-in 2 over 16-cell
// memstores reaches paced merges in a few thousand puts.
func TestStepWorkBounded(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		puts  int
		paced bool // whether some merge must take steps larger than stepCells
	}{
		{DefaultConfig(), 44000, false},
		{DefaultConfig(), 300000, true},
		{Config{FlushThreshold: 16, CompactThreshold: 2}, 20000, true},
	} {
		t.Run(fmt.Sprintf("flush=%d,fanin=%d,puts=%d", tc.cfg.FlushThreshold, tc.cfg.CompactThreshold, tc.puts), func(t *testing.T) {
			checkStepWork(t, tc.cfg, tc.puts, tc.paced)
		})
	}
}

func checkStepWork(t *testing.T, cfg Config, puts int, paced bool) {
	tb := newTestTable(t, cfg)
	k := cfg.CompactThreshold
	merged := countMergedCells(tb)
	// progress is how many cells a build has moved: copied from the frozen
	// run, or stepped past in the merge's inputs.
	progress := func(b *build) int {
		switch {
		case b == nil:
			return 0
		case b.inputs == nil:
			return len(b.cells)
		}
		return b.merge.moved
	}
	step := func(b *build) int {
		if b == nil {
			return 0
		}
		return b.step
	}
	largest, fastest := 0, 0
	for i := 0; i < puts; i++ {
		flushing, merging := tb.flushing, tb.merging
		before := progress(flushing) + progress(merging)
		freezes, paths := tb.flushes, tb.fileSeq // one path per store-file write
		freezing := len(tb.wal)+1 >= cfg.FlushThreshold
		ahead := 0 // flushes installed in front of the merge in flight
		if merging != nil {
			ahead = slices.Index(tb.files, merging.inputs[0])
		}
		if err := tb.Put(fmt.Sprintf("cam-%03d|%06d", i%220, i/220), "meta", "class", []byte("car")); err != nil {
			t.Fatal(err)
		}
		moved := progress(flushing) + progress(merging) - before
		if tb.flushing != flushing {
			moved += progress(tb.flushing)
		}
		if tb.merging != merging {
			moved += progress(tb.merging)
		}
		bound := max(stepCells, step(merging), step(tb.merging))
		largest, fastest = max(largest, moved), max(fastest, bound)
		switch {
		case moved > bound:
			t.Fatalf("put %d moved %d cells, want ≤ %d", i, moved, bound)
		case tb.fileSeq-paths > 1:
			t.Fatalf("put %d wrote %d store files", i, tb.fileSeq-paths)
		case freezing != (tb.flushes > freezes):
			t.Fatalf("put %d: memstore at the threshold %v, froze %v", i, freezing, tb.flushes > freezes)
		case freezing && (moved > 0 || flushing != nil || ahead >= k-1):
			t.Fatalf("put %d froze the memstore, moved %d cells, last frozen run pending %v, %d flushes in front of the merge",
				i, moved, flushing != nil, ahead)
		}
		idle := map[int]int{}
		for _, sf := range tb.files {
			if tb.merging == nil || !slices.Contains(tb.merging.inputs, sf) {
				idle[sf.tier]++
			}
		}
		for tier, n := range idle {
			if n > k-1 {
				t.Fatalf("put %d left %d idle files in tier %d, want ≤ %d: %v", i, n, tier, k-1, idle)
			}
		}
	}
	if paced != (fastest > stepCells) || !paced && largest != stepCells {
		t.Errorf("the largest step moved %d cells, the largest bound was %d; stepCells is %d, merges paced faster: want %v",
			largest, fastest, stepCells, paced)
	}
	st := tb.Stats()
	tiers := 0 // ⌈log_K flushes⌉
	for n := 1; n < st.Flushes; n *= k {
		tiers++
	}
	if st.Flushes != puts/cfg.FlushThreshold || *merged == 0 || *merged > tiers*puts {
		t.Fatalf("%d flushes, merges wrote %d cells for %d puts (×%.1f), want at most ×%d",
			st.Flushes, *merged, puts, float64(*merged)/float64(puts), tiers)
	}
}

// TestTinyMemstoreKeepsMerging: with a memstore of one or two cells, every
// write or every other one freezes, and a freeze pays no step, so merges are
// picked and finished by the freezes' backpressure. The store files stay as
// few as with any other threshold.
func TestTinyMemstoreKeepsMerging(t *testing.T) {
	const puts, k = 3000, 3
	for _, ft := range []int{1, 2} {
		tb := newTestTable(t, Config{FlushThreshold: ft, CompactThreshold: k})
		for i := 0; i < puts; i++ {
			if err := tb.Put(fmt.Sprintf("cam-%03d|%06d", i%220, i/220), "meta", "class", []byte("car")); err != nil {
				t.Fatal(err)
			}
			st := tb.Stats()
			tiers := 2 // ⌊log_K flushes⌋+1, and one for the merge in flight
			for f := st.Flushes; f >= k; f /= k {
				tiers++
			}
			if st.StoreFiles > (k-1)*tiers {
				t.Fatalf("threshold %d, put %d: %d store files after %d flushes, want ≤ %d", ft, i, st.StoreFiles, st.Flushes, (k-1)*tiers)
			}
		}
		if st := tb.Stats(); st.Compactions < puts/ft/k {
			t.Fatalf("threshold %d: %d merges after %d flushes", ft, st.Compactions, st.Flushes)
		}
	}
}

package hbase

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hdfs"
)

func newTestTable(t *testing.T, cfg Config) *Table {
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

func TestCloseFlushesAndRejects(t *testing.T) {
	tb := newTestTable(t, Config{FlushThreshold: 1000, CompactThreshold: 100})
	_ = tb.Put("r", "meta", "v", []byte("x"))
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Put("r2", "meta", "v", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close err = %v", err)
	}
	if _, err := tb.Get("r", "meta", "v"); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close err = %v", err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

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
// so it may read the merged run.
func countMergedCells(tb *Table) *int {
	merged := new(int)
	tb.SetEventHook(func(event, _ string) {
		if event == "compact" {
			*merged += len(tb.files[0].cells)
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
			st.Flushes, *merged, puts, float64(*merged)/puts, tiers)
	}
	if st.StoreFiles > (k-1)*tiers {
		t.Fatalf("%d store files after %d flushes, want ≤ %d", st.StoreFiles, st.Flushes, (k-1)*tiers)
	}
}

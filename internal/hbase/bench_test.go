package hbase

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hdfs"
)

// benchCluster is the HDFS the benchmarks persist into: four datanodes at the
// default block size and replication.
func benchCluster(b *testing.B) *hdfs.Cluster {
	fs := hdfs.NewCluster(hdfs.DefaultConfig(), rand.New(rand.NewSource(1)))
	for i := 0; i < 4; i++ {
		if err := fs.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	return fs
}

// BenchmarkCompact times one full compaction — merge, encode, HDFS write —
// of three store files whose rows interleave, at three table sizes. The
// number to read is ns/cell: it must stay flat (within a quarter) from 8k to
// 128k cells, because a compaction costs one pass over the cells it merges.
// The absolute figure is the machine's; the flatness is the property. Read it
// at -benchtime 10x or more: the first iteration pays for growing the heap.
func BenchmarkCompact(b *testing.B) {
	for _, n := range []int{8 << 10, 32 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("cells=%dk", n>>10), func(b *testing.B) {
			fs := benchCluster(b)
			// Thresholds out of reach: the benchmark decides when to flush
			// and compact.
			tb, err := NewTable("bench", []string{"det"}, Config{FlushThreshold: n + 1, CompactThreshold: 1 << 30}, fs)
			if err != nil {
				b.Fatal(err)
			}
			const runs = 3
			value := make([]byte, 16)
			for r := 0; r < runs; r++ {
				for i := r; i < n; i += runs {
					if err := tb.Put(fmt.Sprintf("cam-%03d|%06d", i%220, i/220), "det", "class", value); err != nil {
						b.Fatal(err)
					}
				}
				if err := tb.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			files := append([]*storeFile(nil), tb.files...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.Compact(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := len(tb.files[0].cells); got != n {
					b.Fatalf("compacted %d cells, want %d", got, n)
				}
				// Back to three runs, without the output piling up in HDFS.
				if err := fs.Delete(tb.files[0].path); err != nil {
					b.Fatal(err)
				}
				tb.files = append(tb.files[:0], files...)
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cell")
		})
	}
}

// BenchmarkPutGrowth fills a table with distinct cells at the default
// thresholds, flushes and compactions included, at three final sizes. The
// numbers to read are ns/put, the amortised cost of one put, which must stay
// within ×1.5 from 8k to 128k cells, and rewrites/put, the cells merges wrote
// per cell put, which is exact and grows with log₄ of the size: a put pays for
// the tiers above it, not for the table it lands in.
func BenchmarkPutGrowth(b *testing.B) {
	for _, n := range []int{8 << 10, 32 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("cells=%dk", n>>10), func(b *testing.B) {
			rows := make([]string, n)
			for i := range rows {
				rows[i] = fmt.Sprintf("cam-%03d|%06d", i%220, i/220)
			}
			value := make([]byte, 16)
			rewrites := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tb, err := NewTable("bench", []string{"det"}, DefaultConfig(), benchCluster(b))
				if err != nil {
					b.Fatal(err)
				}
				merged := countMergedCells(tb)
				b.StartTimer()
				for _, row := range rows {
					if err := tb.Put(row, "det", "class", value); err != nil {
						b.Fatal(err)
					}
				}
				rewrites += *merged
			}
			puts := float64(b.N) * float64(n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/puts, "ns/put")
			b.ReportMetric(float64(rewrites)/puts, "rewrites/put")
		})
	}
}

package hdfs

import (
	"fmt"
	"math/rand"
	"testing"
)

var sinkReport Report

// BenchmarkHDFSStatus times Status on five datanodes holding 1k and 16k
// blocks. The number to read is ns/call: it must be the same at both sizes,
// because Status reads per-node and cluster-wide tallies and never walks the
// blocks. Every scrape-time gauge, /api/health and the supervisor tick sit on
// this call.
func BenchmarkHDFSStatus(b *testing.B) {
	for _, blocks := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("blocks=%dk", blocks>>10), func(b *testing.B) {
			cfg := Config{BlockSize: 64, Replication: 3}
			c := NewCluster(cfg, rand.New(rand.NewSource(1)))
			for i := 0; i < 5; i++ {
				if err := c.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Write("/big", make([]byte, blocks*cfg.BlockSize)); err != nil {
				b.Fatal(err)
			}
			if got := c.Status().Blocks; got != blocks {
				b.Fatalf("blocks = %d, want %d", got, blocks)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkReport = c.Status()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/call")
		})
	}
}

package bench

import (
	"testing"
	"time"
)

// BenchmarkProbe128 measures wall cost and shape at the paper's headline scale.
func BenchmarkProbe128(b *testing.B) {
	for range b.N {
		for _, p := range AllProtocols {
			start := time.Now()
			res := Run(Options{Protocol: p, N: 128,
				Warmup: 100 * time.Millisecond, Measure: 250 * time.Millisecond})
			b.Logf("%-10s n=128: %8.0f txn/s, lat=%10s, msgs/batch=%7.1f  (wall %s)",
				p, res.Throughput, res.AvgLatency, res.MsgsPerBatch, time.Since(start).Round(time.Millisecond))
		}
	}
}

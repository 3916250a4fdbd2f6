package bench

import (
	"testing"
	"time"
)

// BenchmarkProbeScale bisects SpotLess throughput across n (calibration probe).
func BenchmarkProbeScale(b *testing.B) {
	for range b.N {
		for _, n := range []int{8, 16, 32, 64} {
			start := time.Now()
			res := Run(Options{Protocol: SpotLess, N: n,
				Warmup: 150 * time.Millisecond, Measure: 300 * time.Millisecond})
			b.Logf("SpotLess n=%3d: %8.0f txn/s, lat=%10s, msgs/batch=%8.1f (wall %s)",
				n, res.Throughput, res.AvgLatency, res.MsgsPerBatch, time.Since(start).Round(time.Millisecond))
		}
	}
}

package bench

import (
	"testing"
	"time"
)

// BenchmarkProbeNarwhal bisects Narwhal-HS across n (calibration probe).
func BenchmarkProbeNarwhal(b *testing.B) {
	for range b.N {
		for _, n := range []int{16, 32, 64, 128} {
			start := time.Now()
			res := Run(Options{Protocol: NarwhalHS, N: n,
				Measure: 500 * time.Millisecond})
			b.Logf("Narwhal n=%3d: %8.0f txn/s, lat=%10s (wall %s)",
				n, res.Throughput, res.AvgLatency, time.Since(start).Round(time.Millisecond))
		}
	}
}

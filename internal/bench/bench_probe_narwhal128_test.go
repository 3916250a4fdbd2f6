package bench

import (
	"testing"
	"time"

	"spotless/internal/loadgen"
	"spotless/internal/narwhal"
	"spotless/internal/simnet"
	"spotless/internal/types"
)

// BenchmarkProbeNarwhal128 inspects Narwhal-HS internals at n=128 (calibration).
func BenchmarkProbeNarwhal128(b *testing.B) {
	for range b.N {
		n := 128
		scfg := simnet.DefaultConfig(n)
		sim := simnet.New(scfg)
		src := loadgen.NewSource(n, 8, loadgen.DefaultWorkload(100))
		sim.SetBatchSource(src)
		col := loadgen.NewCollector(sim.Context(simnet.ClientNode), src, (n-1)/3, 0)
		col.MeasureStart = 0
		col.MeasureEnd = 4 * time.Second
		sim.SetProtocol(simnet.ClientNode, col)
		var reps []*narwhal.Replica
		for i := 0; i < n; i++ {
			r := narwhal.New(sim.Context(types.NodeID(i)), narwhal.DefaultConfig(n))
			reps = append(reps, r)
			sim.SetProtocol(types.NodeID(i), r)
		}
		sim.Start()
		for _, at := range []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second} {
			sim.Run(at)
			b.Logf("t=%-6s txns=%7d  r0: %s", at, col.TxnsDone, reps[0].DebugString())
		}
	}
}

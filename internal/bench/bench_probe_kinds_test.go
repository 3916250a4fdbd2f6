package bench

import (
	"testing"
	"time"

	"spotless/internal/core"
	"spotless/internal/loadgen"
	"spotless/internal/simnet"
	"spotless/internal/types"
)

// BenchmarkProbeKinds breaks down SpotLess message traffic by kind at n=64
// (calibration probe).
func BenchmarkProbeKinds(b *testing.B) {
	for range b.N {
		n, m := 64, 64
		scfg := simnet.DefaultConfig(n)
		scfg.Debug = true
		sim := simnet.New(scfg)
		src := loadgen.NewSource(m, 64, loadgen.DefaultWorkload(100))
		sim.SetBatchSource(src)
		col := loadgen.NewCollector(sim.Context(simnet.ClientNode), src, (n-1)/3, 0)
		col.MeasureStart = 150 * time.Millisecond
		col.MeasureEnd = 450 * time.Millisecond
		sim.SetProtocol(simnet.ClientNode, col)
		var reps []*core.Replica
		o := Options{Protocol: SpotLess, N: n, BatchSize: 100}
		tune := estimateViewCycle(o, m)
		for i := 0; i < n; i++ {
			cfg := core.DefaultConfig(n, m)
			cfg.InitialRecordingTimeout = tune
			cfg.InitialCertifyTimeout = tune
			cfg.MinTimeout = tune / 2
			cfg.RetransmitInterval = max(300*time.Millisecond, 8*tune)
			r := core.New(sim.Context(types.NodeID(i)), cfg)
			reps = append(reps, r)
			sim.SetProtocol(types.NodeID(i), r)
		}
		sim.Start()
		sim.Run(450 * time.Millisecond)
		b.Logf("tune=%s txns=%d batches=%d", tune, col.TxnsDone, col.BatchesDone)
		b.Logf("views: inst0=%d inst1=%d lock0=%d committed0=%d noops=%d",
			reps[0].Instance(0).CurrentView(), reps[0].Instance(1).CurrentView(),
			reps[0].Instance(0).LockView(), reps[0].Instance(0).LastCommittedView(), reps[0].NoOps)
		st := sim.Stats()
		b.Logf("msgs=%d packets=%d events=%d timers=%d", st.MessagesSent, st.PacketsSent, st.EventsRun, st.TimersFired)
		for k, v := range st.MessagesByKind {
			b.Logf("  %-22s %d", k, v)
		}
	}
}

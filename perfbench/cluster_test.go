package main

import (
	goruntime "runtime"
	"testing"
	"time"

	"spotless/internal/runtime"
)

// TestTracedRunIsSameProgram runs a short inline-b100 window untraced and
// traced. Both must commit and pass every end-state check, and the traced
// wrappers must keep every interface the runtime and transport look for:
// sharded dispatch still runs lanes concurrently, the transport still
// screens ingress through the wrapped protocol, and the node still finds
// the encode-once Broadcaster (fewer encodes than frames received).
func TestTracedRunIsSameProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two 4-replica TCP clusters")
	}
	w, _ := workloadByName("inline-b100")
	tmp := t.TempDir()
	for _, traced := range []bool{false, true} {
		r, err := measure(w, 7, time.Second, traced, 1, tmp)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if len(r.violations) > 0 {
			t.Fatalf("traced=%v: %v", traced, r.violations)
		}
		if len(r.done) == 0 || r.attempted == 0 {
			t.Fatalf("traced=%v: nothing committed", traced)
		}
		if !traced {
			continue
		}
		d := r.delta
		if d.tc[handlerN] == 0 || d.tc[signN] == 0 || d.tc[verifyN] == 0 || d.tc[execN] == 0 {
			t.Fatalf("wrappers saw no traffic: %+v", d.tc)
		}
		if r.ingressJobs == 0 {
			t.Fatal("transport ingress screening never consulted the wrapped protocol")
		}
		if d.tr.Encodes >= uint64(d.tc[frames]) {
			t.Fatalf("%d encodes for %d frames: broadcasts are not encoded once", d.tr.Encodes, d.tc[frames])
		}
		if runtime.AutoWorkers(0, clusterM) > 1 {
			if !r.sharded || r.maxInflight < 2 {
				t.Fatalf("sharded=%v, at most %d handlers at once: sharded dispatch lost", r.sharded, r.maxInflight)
			}
		} else {
			t.Logf("GOMAXPROCS=%d: single event loop, sharding not checked", goruntime.GOMAXPROCS(0))
		}
	}
}

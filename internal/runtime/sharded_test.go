package runtime_test

import (
	"testing"
	"time"

	"spotless/internal/ledger"
	"spotless/internal/runtime"
	"spotless/internal/types"
)

// TestClusterCommitsSharded: the instance-parallel core (per-instance
// mailboxes + goroutines behind the serialized ordering stage) completes
// client batches across m instances, every replica's ledger verifies, and
// all ledgers agree on the committed prefix — the total order survives the
// sharding. Run under -race this is the primary concurrency workout for
// the sharded dispatch path.
func TestClusterCommitsSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	const m = 4
	src := newQueueSource(m, 40, 5)
	done := make(chan struct{}, 256)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: m, InstanceWorkers: m, Source: src,
		OnDone: func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	deadline := time.After(30 * time.Second)
	completed := 0
	for completed < 20 {
		select {
		case <-done:
			completed++
		case <-deadline:
			t.Fatalf("only %d batches completed before deadline (sharded)", completed)
		}
	}
	if got := cl.Replicas[0].DeliveredCount(); got == 0 {
		t.Error("DeliveredCount reports zero on a committing replica")
	}
	cl.Stop() // quiesce all shards before inspecting ledgers

	for i, ex := range cl.Execs {
		if err := ex.Ledger().Verify(); err != nil {
			t.Errorf("replica %d ledger: %v", i, err)
		}
	}
	// Cross-replica consistency: strict block-for-block prefix equality.
	// PR 4 had to weaken this check to slot integrity + shared-slot order
	// because the pre-refactor protocol admitted transient real-batch forks
	// under real-time scheduling (one replica committed a view another
	// resolved as ∅ — the ROADMAP PR 4 discovery). The safe-view-resolution
	// refactor (core/resolution.go: certified-triple commits, strengthened
	// A3, commit propagation across healed chain links) closed that path —
	// the seeded adversary drill proves it across schedules — so every
	// replica's ledger must again be an exact prefix of the longest.
	type slot struct {
		inst  int32
		view  types.View
		batch types.Digest
	}
	seqs := make([][]slot, len(cl.Execs))
	for i, ex := range cl.Execs {
		lg := ex.Ledger()
		for h := uint64(0); h < lg.Height(); h++ {
			b, ok := lg.Block(h)
			if !ok {
				t.Fatalf("replica %d: missing block at height %d (no truncation configured)", i, h)
			}
			seqs[i] = append(seqs[i], slot{inst: b.Instance, view: b.View, batch: b.BatchID})
		}
	}
	for i := 1; i < len(cl.Execs); i++ {
		n := len(seqs[0])
		if len(seqs[i]) < n {
			n = len(seqs[i])
		}
		for h := 0; h < n; h++ {
			if seqs[i][h] != seqs[0][h] {
				t.Fatalf("ledger divergence at height %d: replica 0 holds (inst=%d view=%d batch=%x), replica %d holds (inst=%d view=%d batch=%x)",
					h, seqs[0][h].inst, seqs[0][h].view, seqs[0][h].batch[:6],
					i, seqs[i][h].inst, seqs[i][h].view, seqs[i][h].batch[:6])
			}
		}
	}
}

// TestClusterShardedKillAndRejoin: checkpoint/state-transfer rejoin keeps
// working when the survivors and the rejoiner run the instance-parallel
// core — the cross-shard posts (gcToAnchor, installAnchor) must not wedge
// or desync recovery.
func TestClusterShardedKillAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	const m = 2
	src := newQueueSource(m, 400, 5)
	done := make(chan struct{}, 1024)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: m, InstanceWorkers: 2, Source: src,
		CheckpointInterval: 8,
		OnDone:             func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	wait := func(k int, d time.Duration) int {
		completed := 0
		deadline := time.After(d)
		for completed < k {
			select {
			case <-done:
				completed++
			case <-deadline:
				return completed
			}
		}
		return completed
	}
	if got := wait(24, 30*time.Second); got < 24 {
		t.Fatalf("only %d batches completed before the kill", got)
	}
	cl.Kill(3)
	if got := wait(24, 30*time.Second); got < 24 {
		t.Fatalf("only %d batches completed while replica 3 was down", got)
	}
	if err := cl.Restart(3); err != nil {
		t.Fatal(err)
	}
	// The rejoiner must install a checkpoint and resume delivering.
	recovered := false
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cl.Replicas[3].StableHeight() > 0 && cl.Replicas[3].DeliveredCount() > 0 {
			recovered = true
			break
		}
		wait(1, 500*time.Millisecond)
	}
	if !recovered {
		t.Fatalf("rejoined replica never recovered: stable=%d delivered=%d",
			cl.Replicas[3].StableHeight(), cl.Replicas[3].DeliveredCount())
	}

	// Strict block-for-block equality over the heights both ledgers retain.
	// PR 4 could not assert this — the pre-refactor fork path meant a
	// rejoiner's chain could legitimately disagree; with safe view
	// resolution any mismatch is a real regression. The freshly installed
	// checkpoint can sit below the veterans' advancing GC frontier, so
	// first wait until the retained windows actually overlap (ledger reads
	// are RLock-safe against the live delivery path).
	veteran, rejoined := cl.Execs[0].Ledger(), cl.Execs[3].Ledger()
	compare := func() int {
		hi := veteran.Height()
		if rj := rejoined.Height(); rj < hi {
			hi = rj
		}
		compared := 0
		for h := uint64(0); h < hi; h++ {
			vb, vok := veteran.Block(h)
			rb, rok := rejoined.Block(h)
			if !vok || !rok {
				continue // outside one ledger's retained window
			}
			compared++
			if vb.Instance != rb.Instance || vb.View != rb.View || vb.BatchID != rb.BatchID {
				t.Fatalf("rejoiner diverges at height %d: veteran (inst=%d view=%d batch=%x) vs rejoiner (inst=%d view=%d batch=%x)",
					h, vb.Instance, vb.View, vb.BatchID[:6], rb.Instance, rb.View, rb.BatchID[:6])
			}
		}
		return compared
	}
	verified := 0
	for time.Now().Before(deadline) {
		if c := compare(); c > 0 {
			verified = c
			break
		}
		wait(1, 500*time.Millisecond)
	}
	cl.Stop()
	// Re-check on the quiesced state too — but a checkpoint stabilized
	// during shutdown can truncate one ledger past the other's head and
	// empty the overlap, so the live verification above stands on its own.
	if c := compare(); c > verified {
		verified = c
	}
	if verified == 0 {
		lowest := func(lg *ledger.Ledger) uint64 {
			for h := uint64(0); h < lg.Height(); h++ {
				if _, ok := lg.Block(h); ok {
					return h
				}
			}
			return lg.Height()
		}
		t.Fatalf("retained ledger windows never overlapped — veteran [%d,%d) rejoiner [%d,%d), stable %d/%d",
			lowest(veteran), veteran.Height(), lowest(rejoined), rejoined.Height(),
			cl.Replicas[0].StableHeight(), cl.Replicas[3].StableHeight())
	}
}

// TestClusterRejoinsIdleInstance: a replica restarted after an outage
// resumes an idle instance (no-op proposals only) at the live view. Its
// checkpoint anchor follows the instance's no-op commits, and Syncs beyond
// the flooding window still move it once f+1 replicas show a higher view;
// anchored at view 0 and deaf to far Syncs, the instance could only crawl
// forward one timeout at a time while its peers spun ahead.
func TestClusterRejoinsIdleInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	src := newQueueSource(1, 200, 5) // instance 1 never gets a client batch
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 2, InstanceWorkers: 2, Source: src,
		CheckpointInterval: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	idleView := func(i int) types.View { return cl.Replicas[i].Instance(1).CurrentView() }
	for cl.Replicas[0].StableHeight() < 16 {
		time.Sleep(10 * time.Millisecond)
	}
	cl.Kill(3)
	// Outlast the flooding window (4 × PendingWindow = 256 views) by far.
	frozen := idleView(3)
	deadline := time.Now().Add(30 * time.Second)
	for idleView(0) < frozen+1000 {
		if time.Now().After(deadline) {
			t.Fatalf("idle instance reached only view %d while replica 3 was down", idleView(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cl.Restart(3); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(20 * time.Second)
	for idleView(3)+256 < idleView(0) {
		if time.Now().After(deadline) {
			t.Fatalf("rejoined idle instance stuck at view %d, live view %d", idleView(3), idleView(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

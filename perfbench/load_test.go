package main

import (
	"sync"
	"testing"
	"time"

	"spotless/internal/ledger"
	"spotless/internal/types"
	"spotless/internal/ycsb"
)

// stubReplicas drains the source like proposing primaries would and
// answers each batch with f+1 correct Informs, except while stalled.
type stubReplicas struct {
	src     *source
	c       *client
	stalled func(now time.Duration) bool
	clock   func() time.Duration
}

func (s *stubReplicas) run(stop <-chan struct{}) {
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if s.stalled(s.clock()) {
			continue
		}
		for stream := range s.src.queues {
			for b := s.src.Next(int32(stream), 0); b != nil; b = s.src.Next(int32(stream), 0) {
				res := ycsb.NewStore(0, 0).Apply(b)
				for r := 0; r <= clusterF; r++ {
					s.c.inform(&types.Inform{Replica: types.NodeID(r), BatchID: b.ID, Results: res})
				}
			}
		}
	}
}

// TestOpenLoopTimesFromDue drives the open-loop generator against a stub
// source that stalls for 60 ms: every due batch is still released on
// schedule, and the batches that fell due during the stall are timed from
// their due time, so the stall shows in their latency.
func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	w := workload{batchTxns: 10, records: 100}
	src := newSource(clusterM)
	c := newClient(clock, newBatchGen(1, w), src, false, false)
	ol := &openLoop{interval: 2 * time.Millisecond, clock: clock, release: c.release}
	const stallFrom, stallTo = 40 * time.Millisecond, 100 * time.Millisecond
	stub := &stubReplicas{src: src, c: c, clock: clock,
		stalled: func(now time.Duration) bool { return now >= stallFrom && now < stallTo }}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ol.run(0, stop) }()
	go func() { defer wg.Done(); stub.run(stop) }()
	time.Sleep(160 * time.Millisecond)
	c.stopIssuing()
	// Let the stub answer what is still queued before stopping it.
	select {
	case <-c.drained:
	case <-time.After(2 * time.Second):
		t.Fatal("stub never answered every released batch")
	}
	close(stop)
	wg.Wait()

	lags := ol.samples()
	if len(lags) < 60 {
		t.Fatalf("released %d batches in 160 ms at one per 2 ms", len(lags))
	}
	for k, l := range lags {
		if l.due != time.Duration(k)*ol.interval {
			t.Fatalf("release %d due at %v, want %v", k, l.due, time.Duration(k)*ol.interval)
		}
		if l.lag < 0 {
			t.Fatalf("release %d ran %v before it was due", k, -l.lag)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.completions) != c.attempted || c.mismatches != 0 {
		t.Fatalf("completed %d of %d, %d mismatches", len(c.completions), c.attempted, c.mismatches)
	}
	var stalledSeen bool
	for _, d := range c.completions {
		due := d.at - d.latency
		if due >= stallFrom && due < stallFrom+10*time.Millisecond {
			stalledSeen = true
			if d.latency < stallTo-due-5*time.Millisecond {
				t.Errorf("batch due at %v completed after %v: the stall until %v is missing", due, d.latency, stallTo)
			}
		}
	}
	if !stalledSeen {
		t.Fatal("no batch fell due at the start of the stall")
	}
}

// TestOpenLoopReportsLag blocks the generator's own release step once:
// the batches due meanwhile are released late, in a burst, and the lag
// percentile reports how late.
func TestOpenLoopReportsLag(t *testing.T) {
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	var n int
	ol := &openLoop{interval: time.Millisecond, clock: clock}
	ol.release = func(time.Duration) {
		if n++; n == 10 {
			time.Sleep(30 * time.Millisecond)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); ol.run(0, stop) }()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	<-done

	var lags []time.Duration
	for _, l := range ol.samples() {
		lags = append(lags, l.lag)
	}
	if len(lags) < 80 {
		t.Fatalf("released %d batches in 100 ms at one per ms: the loop did not catch up", len(lags))
	}
	if p99 := quantile(lags, 0.99); p99 < 20*time.Millisecond {
		t.Fatalf("lag p99 %v after a 30 ms generator stall", p99)
	}
}

// TestClientNeedsMatchingResults: a batch completes on f+1 Informs that
// carry its execution result, never on Informs that disagree with it.
func TestClientNeedsMatchingResults(t *testing.T) {
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	src := newSource(clusterM)
	c := newClient(clock, newBatchGen(3, workload{batchTxns: 5, records: 50}), src, true, false)
	c.prime(1)
	b := src.Next(0, 0)
	want := ycsb.NewStore(0, 0).Apply(b)
	c.inform(&types.Inform{Replica: 0, BatchID: b.ID, Results: want})
	c.inform(&types.Inform{Replica: 1, BatchID: b.ID, Results: types.Digest{1}})
	c.inform(&types.Inform{Replica: 0, BatchID: b.ID, Results: want}) // duplicate vote
	if len(c.completions) != 0 || c.mismatches != 1 {
		t.Fatalf("completed %d with one matching vote, mismatches %d", len(c.completions), c.mismatches)
	}
	c.inform(&types.Inform{Replica: 2, BatchID: b.ID, Results: want})
	if len(c.completions) != 1 {
		t.Fatal("f+1 matching Informs did not complete the batch")
	}
	if c.attempted != clusterM+1 {
		t.Fatalf("closed loop did not replenish: %d attempted", c.attempted)
	}
}

// TestLedgerAgreement: the end-state check accepts ledgers that share a
// prefix at different truncation points and rejects a diverging block.
func TestLedgerAgreement(t *testing.T) {
	commit := func(i int) types.Commit {
		return types.Commit{Instance: int32(i % clusterM), View: types.View(i + 1), Proposal: types.Digest{byte(i)}}
	}
	a, b := ledger.New(), ledger.New()
	for i := 0; i < 10; i++ {
		a.Append(commit(i), types.Digest{})
		if i < 7 {
			b.Append(commit(i), types.Digest{})
		}
	}
	if err := a.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := agree(a, b); err != nil {
		t.Fatalf("prefix ledgers disagree: %v", err)
	}
	b.Append(commit(99), types.Digest{})
	if agree(a, b) == nil {
		t.Fatal("diverging block at height 7 not detected")
	}
}

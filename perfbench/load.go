package main

import (
	"math/bits"
	"sync"
	"time"

	"spotless/internal/types"
	"spotless/internal/ycsb"
)

// workload is one benchmark input shape. Everything not named here is the
// replica binary's default (see the constants in cluster.go).
type workload struct {
	name      string
	why       string
	batchTxns int
	records   uint64
	codeK     int     // > 0: digest ordering with coded dissemination
	durable   bool    // WAL-backed ledgers, fsync per commit
	perStream int     // closed loop: outstanding batches per stream
	rate      float64 // open loop: batches released per second (perStream 0)
	crash     bool    // replica 3 stops when the window opens
}

var workloads = []workload{
	{name: "inline-b100", batchTxns: 100, records: 10000, perStream: 8,
		why: "per-batch consensus (event-loop handlers, sign/verify, frames) is the bottleneck; execution and snapshots are cheap"},
	{name: "coded-large", batchTxns: 400, records: 10000, codeK: 2, perStream: 16,
		why: "payload bytes, RS coding, certification and large-batch execution dominate, with ~4x fewer consensus messages per txn"},
	{name: "durable-100k", batchTxns: 100, records: 100000, durable: true, perStream: 8,
		why: "checkpoint snapshots of the 100k-record table, manifest and snapshot writes, and per-commit fsyncs dominate"},
	{name: "crash-closed", batchTxns: 100, records: 10000, perStream: 8, crash: true,
		why: "replica 3 dies as the window opens: dead-primary views, pacemaker timeouts and view sync dominate while load stays saturating"},
	// Not gated (see README.md): after the crash each instance settles into
	// a fast or a slow latency regime, so its latency differs severalfold
	// between runs.
	{name: "crash-open", batchTxns: 100, records: 10000, rate: 270, crash: true,
		why: "a dead primary every fourth view, open loop at half the 3-replica capacity: requests that fall due during a stall are counted"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streams is the number of source FIFOs: one per instance under inline
// ordering, one per origin lane under digest ordering.
func (w workload) streams() int {
	if w.codeK > 0 {
		return clusterN
	}
	return clusterM
}

// laneFor maps a batch that reached replica id as a client Request to its
// stream, as the replica binary's request queue does: its own lane under
// digest ordering, instance digest mod m otherwise (§5).
func (w workload) laneFor(id types.NodeID, b *types.Batch) int32 {
	if w.codeK > 0 {
		return int32(id)
	}
	return int32(b.ID[0]) % clusterM
}

// source is the runtime.BatchSource every replica's node pulls from: one
// FIFO per stream. It is safe for concurrent use.
type source struct {
	mu     sync.Mutex
	queues [][]*types.Batch
	pulls  uint64 // Next calls
	empty  uint64 // Next calls that found the stream idle
}

func newSource(streams int) *source {
	return &source{queues: make([][]*types.Batch, streams)}
}

// Next implements runtime.BatchSource.
func (s *source) Next(stream int32, _ time.Duration) *types.Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pulls++
	if int(stream) >= len(s.queues) || len(s.queues[stream]) == 0 {
		s.empty++
		return nil
	}
	q := s.queues[stream]
	b := q[0]
	q[0] = nil
	s.queues[stream] = q[1:]
	return b
}

func (s *source) offer(stream int32, b *types.Batch) {
	s.mu.Lock()
	s.queues[stream] = append(s.queues[stream], b)
	s.mu.Unlock()
}

func (s *source) counts() (pulls, empty uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pulls, s.empty
}

// batchGen makes the seeded YCSB batches (90% writes, 33-byte values) and
// the result digest every correct replica must Inform for each of them.
type batchGen struct {
	wl   *ycsb.Workload
	txns int
}

func newBatchGen(seed int64, w workload) *batchGen {
	return &batchGen{wl: ycsb.NewWorkload(seed, types.ClientIDBase, w.records, 33), txns: w.batchTxns}
}

func (g *batchGen) next() (*types.Batch, types.Digest) {
	b := g.wl.NextBatch(g.txns)
	// Results digest only the batch's own writes, so an empty table
	// reproduces them exactly.
	return b, ycsb.NewStore(0, 0).Apply(b)
}

// clientTimeout is spotless-client's initial t_C; unanswered batches are
// re-sent to the next replica with the timeout doubled.
const clientTimeout = 2 * time.Second

type pending struct {
	b       *types.Batch
	expect  types.Digest
	stream  int32
	due     time.Duration // latency origin: release time, or due time in the open loop
	offered time.Duration
	timeout time.Duration
	next    int    // replica the next re-offer goes to: the one after the batch's stream, as spotless-client moves on
	voters  uint32 // replicas whose Inform matched expect
}

type completion struct {
	at, latency time.Duration
	txns        int
}

type lagSample struct{ due, lag time.Duration }

// client is the load generator's receiving side: it tracks outstanding
// batches, completes each on f+1 Informs carrying the expected results,
// replenishes the closed loop, and re-offers unanswered batches.
type client struct {
	clock func() time.Duration
	gen   *batchGen
	src   *source
	send  func(to types.NodeID, b *types.Batch) // re-offer path (client TCP endpoint)

	mu          sync.Mutex
	closedLoop  bool
	issuing     bool
	pending     map[types.Digest]*pending
	attempted   int
	completions []completion
	lags        []lagSample
	mismatches  int // Informs whose results differ from the expected digest
	retransmits int
	payloadSum  int // encoded batch bytes generated (traced runs only)
	traced      bool
	genNs       time.Duration // generator and Inform-handling time
	drained     chan struct{}
}

func newClient(clock func() time.Duration, gen *batchGen, src *source, closedLoop, traced bool) *client {
	return &client{clock: clock, gen: gen, src: src, closedLoop: closedLoop, traced: traced,
		issuing: true, pending: make(map[types.Digest]*pending), drained: make(chan struct{})}
}

// issueLocked makes one batch and offers it on stream; due is when the
// batch was due (the credit's release in the closed loop).
func (c *client) issueLocked(stream int32, due time.Duration) {
	t0 := time.Now()
	b, expect := c.gen.next()
	if stream < 0 {
		stream = int32(b.ID[0]) % int32(len(c.src.queues))
	}
	now := c.clock()
	c.pending[b.ID] = &pending{b: b, expect: expect, stream: stream, due: due, offered: now,
		timeout: clientTimeout, next: int(stream) + 1}
	c.attempted++
	if c.traced {
		c.payloadSum += len(types.EncodeBatchPayload(b))
	}
	c.src.offer(stream, b)
	c.genNs += time.Since(t0)
	if c.closedLoop {
		c.lags = append(c.lags, lagSample{due: due, lag: now - due})
	}
}

// prime fills the closed loop: perStream outstanding batches per stream.
func (c *client) prime(perStream int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	for s := 0; s < len(c.src.queues); s++ {
		for j := 0; j < perStream; j++ {
			c.issueLocked(int32(s), now)
		}
	}
}

// release is the open loop's emit step: one batch due at due, on the
// stream its digest selects.
func (c *client) release(due time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.issuing {
		c.issueLocked(-1, due)
	}
}

// receive is the client endpoint's transport receiver.
func (c *client) receive(from types.NodeID, msg types.Message) {
	if inf, ok := msg.(*types.Inform); ok && inf.Replica == from {
		c.inform(inf)
	}
}

func (c *client) inform(inf *types.Inform) {
	t0 := time.Now()
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { c.genNs += time.Since(t0) }()
	p := c.pending[inf.BatchID]
	if p == nil || inf.Replica < 0 || inf.Replica >= clusterN {
		return // a late Inform for a completed batch
	}
	if inf.Results != p.expect {
		c.mismatches++
		return
	}
	p.voters |= 1 << uint(inf.Replica)
	if bits.OnesCount32(p.voters) < clusterF+1 {
		return
	}
	delete(c.pending, inf.BatchID)
	c.completions = append(c.completions, completion{at: now, latency: now - p.due, txns: len(p.b.Txns)})
	if c.issuing && c.closedLoop {
		c.issueLocked(p.stream, now)
	}
	if !c.issuing && len(c.pending) == 0 {
		close(c.drained)
	}
}

// retransmit re-offers every batch unanswered for longer than its timeout
// to the next replica, doubling the timeout, as spotless-client does.
func (c *client) retransmit() {
	type resend struct {
		to types.NodeID
		b  *types.Batch
	}
	var out []resend
	c.mu.Lock()
	now := c.clock()
	for _, p := range c.pending {
		if now-p.offered > p.timeout {
			out = append(out, resend{types.NodeID(p.next % clusterN), p.b})
			p.next++
			p.timeout *= 2
			c.retransmits++
		}
	}
	c.mu.Unlock()
	for _, r := range out {
		c.send(r.to, r.b)
	}
}

// stopIssuing ends the load; drained closes once nothing is outstanding.
func (c *client) stopIssuing() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.issuing = false
	if len(c.pending) == 0 {
		close(c.drained)
	}
}

// openLoop releases batch k at start + k·interval whatever the system
// does, so a stall delays the batches that fall due during it instead of
// hiding them; each release records how late the generator ran.
type openLoop struct {
	interval time.Duration
	clock    func() time.Duration
	release  func(due time.Duration)

	mu   sync.Mutex
	lags []lagSample
}

// run releases batches until stop closes.
func (o *openLoop) run(start time.Duration, stop <-chan struct{}) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := start + time.Duration(k)*o.interval
		if wait := due - o.clock(); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		lag := o.clock() - due
		o.mu.Lock()
		o.lags = append(o.lags, lagSample{due: due, lag: lag})
		o.mu.Unlock()
		o.release(due)
	}
}

func (o *openLoop) samples() []lagSample {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]lagSample(nil), o.lags...)
}

package core

import (
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// This file implements the ordering stage: the single-threaded owner of all
// cross-instance state (§4.1, Figure 6). Instances commit proposals on
// their own shards and hand them off through Replica.onCommitted; the
// ordering stage merges them into the deterministic (view, instance) total
// order and feeds the execution layer (and, through checkpoint.go, the
// checkpoint manager). Under a sharding substrate the stage runs as its own
// serialized shard (protocol.OrderingShard); under the classic single event
// loop it shares the loop, and its drain runs from the replica's deferred
// queue — on both, after the committing handler returned.
//
// The merge structure is a min-heap over per-instance ring buffers: each
// instance's committed-but-unordered proposals queue in chain order (views
// strictly ascending), and the heap tracks the queue heads keyed by
// (view, instance). One delivery is O(log m) instead of the former O(m)
// min-scan per delivered proposal, and ring slots are zeroed on pop — the
// previous queues[best][1:] reslice kept delivered batches reachable
// through the backing array for as long as the queue stayed non-empty.

// commitRing is a growable FIFO ring buffer of committed proposals awaiting
// global ordering. Views are pushed in strictly ascending order (enforced
// by the per-instance frontier guard), so the front is always the
// instance's smallest unordered view.
type commitRing struct {
	buf  []orderedCommit
	head int
	n    int
}

func (q *commitRing) empty() bool { return q.n == 0 }

func (q *commitRing) front() *orderedCommit { return &q.buf[q.head] }

func (q *commitRing) push(oc orderedCommit) {
	if q.n == len(q.buf) {
		grown := make([]orderedCommit, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = oc
	q.n++
}

func (q *commitRing) pop() orderedCommit {
	oc := q.buf[q.head]
	q.buf[q.head] = orderedCommit{} // release the batch for GC
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return oc
}

// ordering is the cross-instance total-order state. All fields are owned by
// the ordering shard.
type ordering struct {
	// frontiers is the highest committed view handed off per instance;
	// minFrontier caches their minimum (the order horizon: a queued commit
	// may deliver once every instance passed its view) and minCount how
	// many instances sit exactly at it, so the O(m) re-scan runs only when
	// the last minimum holder advances.
	frontiers   []types.View
	minFrontier types.View
	minCount    int

	rings []commitRing
	heap  []int32 // instances with non-empty rings, keyed by front view

	// seenBatch deduplicates re-proposed batches over a bounded window
	// (reset at checkpoint cuts; see deliver and maybeCheckpoint).
	seenBatch map[types.Digest]bool
}

func newOrdering(m int) ordering {
	return ordering{
		frontiers: make([]types.View, m),
		minCount:  m,
		rings:     make([]commitRing, m),
		heap:      make([]int32, 0, m),
		seenBatch: make(map[types.Digest]bool),
	}
}

func (o *ordering) advanceFrontier(inst int32, v types.View) {
	old := o.frontiers[inst]
	o.frontiers[inst] = v
	if old == o.minFrontier {
		if o.minCount--; o.minCount == 0 {
			o.recomputeMin()
		}
	}
}

func (o *ordering) recomputeMin() {
	o.minFrontier = o.frontiers[0]
	for _, f := range o.frontiers[1:] {
		if f < o.minFrontier {
			o.minFrontier = f
		}
	}
	o.minCount = 0
	for _, f := range o.frontiers {
		if f == o.minFrontier {
			o.minCount++
		}
	}
}

// --- the head heap (manual binary heap over instance ids) ---

func (o *ordering) headLess(a, b int32) bool {
	va, vb := o.rings[a].front().view, o.rings[b].front().view
	if va != vb {
		return va < vb
	}
	return a < b
}

func (o *ordering) heapPush(inst int32) {
	o.heap = append(o.heap, inst)
	i := len(o.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !o.headLess(o.heap[i], o.heap[p]) {
			break
		}
		o.heap[i], o.heap[p] = o.heap[p], o.heap[i]
		i = p
	}
}

// heapFixTop restores heap order after the top's key changed (its ring
// popped) or removes it when its ring drained.
func (o *ordering) heapFixTop() {
	last := len(o.heap) - 1
	if o.rings[o.heap[0]].empty() {
		o.heap[0] = o.heap[last]
		o.heap = o.heap[:last]
		last--
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l <= last && o.headLess(o.heap[l], o.heap[sm]) {
			sm = l
		}
		if r <= last && o.headLess(o.heap[r], o.heap[sm]) {
			sm = r
		}
		if sm == i {
			return
		}
		o.heap[i], o.heap[sm] = o.heap[sm], o.heap[i]
		i = sm
	}
}

// rebuildHeap reindexes every non-empty ring (used after a state install
// dropped arbitrary queue prefixes).
func (o *ordering) rebuildHeap() {
	o.heap = o.heap[:0]
	for i := range o.rings {
		if !o.rings[i].empty() {
			o.heapPush(int32(i))
		}
	}
}

// --- replica-side ordering entry points ---

// onCommitted receives a committed proposal from an instance in chain order
// and hands it to the ordering stage, which orders it after the current
// handler returns (the post contract). Under a sharding substrate that is a
// cross-shard post; under a serializing one the commit goes straight into
// its instance's ring — the rings are the typed handoff queue — and only the
// pre-bound drain is deferred, so the serialized hot path allocates nothing.
func (r *Replica) onCommitted(inst int32, oc orderedCommit) {
	if r.poster != nil {
		r.poster.PostShard(protocol.OrderingShard, func() { r.orderCommit(inst, oc) })
		return
	}
	r.enqueueCommit(inst, oc)
	r.post(protocol.OrderingShard, r.drainFn)
}

// InjectCommit is a benchmark/measurement hook: it hands one committed
// proposal to the ordering stage exactly as an instance shard would (the
// frontier guard and the total-order drain apply). Drive it like any other
// protocol event — serialized with the ordering stage.
func (r *Replica) InjectCommit(inst int32, view types.View, batch *types.Batch, dig types.Digest) {
	r.onCommitted(inst, orderedCommit{view: view, batch: batch, dig: dig})
	r.runDeferred()
}

// orderCommit runs on the ordering shard: it queues the commit and drains
// the global total order.
func (r *Replica) orderCommit(inst int32, oc orderedCommit) {
	r.enqueueCommit(inst, oc)
	r.drain()
}

// enqueueCommit applies the per-instance frontier guard and queues the
// commit on its instance's ring (ordering-stage state).
func (r *Replica) enqueueCommit(inst int32, oc orderedCommit) {
	if oc.view <= r.ord.frontiers[inst] {
		// Below the handoff frontier: a non-monotonic instance handoff, or
		// a commit that raced a checkpoint install covering it.
		r.ctx.Logf("spotless: instance %d delivered non-monotonic view %d ≤ %d", inst, oc.view, r.ord.frontiers[inst])
		return
	}
	wasEmpty := r.ord.rings[inst].empty()
	r.ord.rings[inst].push(oc)
	if wasEmpty {
		r.ord.heapPush(inst)
	}
	r.ord.advanceFrontier(inst, oc.view)
}

// drain executes the total order: repeatedly deliver the smallest
// (view, instance) committed proposal whose view every instance has passed.
// Under digest ordering the head must first resolve to its payload; an
// unresolved head parks the drain (total order is head-of-line) until the
// dissemination layer's notify re-posts it.
func (r *Replica) drain() {
	o := &r.ord
	for len(o.heap) > 0 {
		top := o.heap[0]
		front := o.rings[top].front()
		if front.view > o.minFrontier {
			return
		}
		if !r.resolvePayload(front) {
			return // backfill in flight; onDigestReady resumes the drain
		}
		oc := o.rings[top].pop()
		o.heapFixTop()
		r.deliver(top, oc)
	}
}

// resolvePayload substitutes a digest-ordered head's full payload from the
// dissemination store (proposals carry only a batch stub in digest mode; a
// Byzantine primary may inline arbitrary transactions, so the store is
// authoritative for EVERY non-noop batch). Reports false when the payload is
// still missing — possible only on a replica that missed dissemination,
// since the claim gate guarantees the committed digest is certified and
// therefore backfillable from f+1 correct holders.
func (r *Replica) resolvePayload(oc *orderedCommit) bool {
	l := r.cfg.Dissem
	if l == nil || oc.batch == nil || oc.batch.NoOp {
		return true
	}
	if r.ord.seenBatch[oc.batch.ID] {
		// Already delivered inside the dedup window: deliver() discards the
		// duplicate without its payload. Parking here instead would wedge
		// the whole total order behind a backfill of a payload every correct
		// replica may have evicted — a replayed BatchCert of an old digest
		// would otherwise stall delivery forever just short of the dedup
		// check that discards it.
		return true
	}
	if full := l.Payload(oc.batch.ID); full != nil {
		oc.batch = full
		return true
	}
	r.awaitDigest(protocol.OrderingShard, oc.batch.ID)
	if full := l.Payload(oc.batch.ID); full != nil { // raced the arrival
		r.unawaitDigest(protocol.OrderingShard, oc.batch.ID)
		oc.batch = full
		return true
	}
	l.Backfill(oc.batch.ID, -1)
	return false
}

func (r *Replica) deliver(inst int32, oc orderedCommit) {
	if r.ckptEnabled() {
		// The anchor names the instance's last drained proposal, no-op or
		// not. Under the strict commit rule every correct replica commits
		// the same chains, so the drained prefix at a checkpoint cut — and
		// with it every anchor — is identical cluster-wide. An idle
		// instance's anchor thus keeps pace with its no-op views, so a
		// rejoiner installing the cut resumes it near the live view and
		// checkpoint GC bounds its state (anchored at the last client
		// batch, it would sit at view 0 and retain everything).
		r.ckpt.anchors[inst] = types.Anchor{View: oc.view, Digest: oc.dig}
	}
	if oc.batch == nil || oc.batch.NoOp {
		r.NoOps++
		return
	}
	if r.ord.seenBatch[oc.batch.ID] {
		return // duplicate proposal of the same batch (Byzantine primary)
	}
	r.ord.seenBatch[oc.batch.ID] = true
	if len(r.ord.seenBatch) > 1<<17 {
		r.ord.seenBatch = make(map[types.Digest]bool) // bounded dedup window
	}
	// Note the window semantics under checkpointing: the map also restarts
	// at every checkpoint cut (maybeCheckpoint/installState), narrowing
	// dedup to roughly one interval. The reset point sits at the same
	// position of the executed sequence on every correct replica — and a
	// rejoiner starts with the same empty window — so dedup decisions, and
	// therefore delivered heights, stay identical cluster-wide; a batch
	// replayed across a cut executes again *consistently* (at-least-once
	// across cuts), which is the trade-off for a transferable window. The
	// executor reply cache keeps answering client retransmissions either
	// way.
	// The execution hash covers exactly the executed sequence (deduped
	// non-noops): it is what the ledger chains. No-ops and duplicates move
	// only the anchors (above).
	r.noteDrained(inst, oc)
	r.Delivered++
	r.deliveredMirror.Store(r.Delivered)
	r.ctx.Deliver(types.Commit{Instance: inst, View: oc.view, Batch: oc.batch, Proposal: oc.dig})
	if r.cfg.Dissem != nil {
		r.cfg.Dissem.Delivered(oc.batch.ID, r.Delivered)
	}
	r.maybeCheckpoint()
}

package core

import (
	"testing"

	"spotless/internal/dissem"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// newDissemReplica is the whitebox harness of the digest-ordering claim
// gate: replica 0 of n=4 with one instance and a bound dissemination layer.
func newDissemReplica() (*Replica, *fakeContext) {
	ctx := newFakeContext(0, 4)
	cfg := DefaultConfig(4, 1)
	cfg.Dissem = dissem.New(dissem.Config{N: 4, F: 1})
	r := New(ctx, cfg)
	r.Start()
	return r, ctx
}

// dissemBatch builds a payload batch with a valid content-derived ID.
func dissemBatch(seq uint64) *types.Batch {
	b := &types.Batch{
		Txns:      []types.Transaction{{Client: types.ClientIDBase, Seq: seq, Op: types.OpWrite, Key: seq, Value: []byte("v")}},
		Submitted: 1,
	}
	b.ID = types.ComputeBatchID(b.Txns)
	return b
}

// scanDissem reports whether a claim for the proposal and a backfill pull
// for the batch went out.
func scanDissem(ctx *fakeContext, propDigest, batchID types.Digest) (claimed, pulled bool) {
	for _, m := range ctx.sent {
		switch s := m.(type) {
		case *types.Sync:
			if !s.Claim.Empty && s.Claim.Digest == propDigest {
				claimed = true
			}
		case *types.BatchDigest:
			if s.Pull && s.Batch != nil && s.Batch.ID == batchID {
				pulled = true
			}
		}
	}
	return
}

// TestDigestProposalRefusesUncertified: under digest ordering a proposal
// referencing a digest without an availability certificate is never
// claimed — the replica backfills (the Ask analog of the dissemination
// layer) and claims only once the certificate arrives. An uncertified
// digest therefore can never gather n−f claims, so it can never commit —
// the certified-batch check folded into the PR 5 resolution rules.
func TestDigestProposalRefusesUncertified(t *testing.T) {
	r, ctx := newDissemReplica()

	full := dissemBatch(1)
	// The proposal carries the digest-mode stub: ID only, no payload.
	stub := &types.Batch{ID: full.ID, Submitted: full.Submitted}
	p := &types.Propose{Instance: 0, View: 1, Batch: stub, Parent: types.Justification{Kind: types.JustGenesis}}
	d := p.Digest()
	p.Sig = provFor(1).Sign(d[:])

	r.HandleMessage(1, p)
	claimed, pulled := scanDissem(ctx, d, full.ID)
	if claimed {
		t.Fatal("replica claimed a proposal whose digest has no availability certificate")
	}
	if !pulled {
		t.Fatal("replica did not backfill the unknown digest")
	}

	// The certificate arrives (ingress-verified n−f ack signatures): the
	// buffered proposal must now be re-evaluated and claimed.
	ack := types.AckBytes(full.ID)
	cert := &types.BatchCert{BatchID: full.ID, Sigs: []types.Signature{
		provFor(1).Sign(ack), provFor(2).Sign(ack), provFor(3).Sign(ack),
	}}
	r.HandleMessage(1, cert)
	if claimed, _ = scanDissem(ctx, d, full.ID); !claimed {
		t.Fatal("replica did not claim the proposal after its digest certified")
	}
}

// certFor assembles an ingress-shaped availability certificate for a batch.
func certFor(id types.Digest) *types.BatchCert {
	ack := types.AckBytes(id)
	return &types.BatchCert{BatchID: id, Sigs: []types.Signature{
		provFor(1).Sign(ack), provFor(2).Sign(ack), provFor(3).Sign(ack),
	}}
}

// TestOrderedDigestRefusedByClaimGate: a proposal re-referencing a digest
// the replica already delivered is never claimed — a replayed certificate
// of an old batch (whose payload every correct replica may have evicted)
// must not be able to commit again and wedge delivery on an impossible
// backfill.
func TestOrderedDigestRefusedByClaimGate(t *testing.T) {
	r, ctx := newDissemReplica()

	full := dissemBatch(3)
	r.HandleMessage(1, &types.BatchDigest{Origin: 1, Batch: full})
	r.HandleMessage(1, certFor(full.ID))
	r.cfg.Dissem.Delivered(full.ID, 1)

	stub := &types.Batch{ID: full.ID, Submitted: full.Submitted}
	p := &types.Propose{Instance: 0, View: 1, Batch: stub, Parent: types.Justification{Kind: types.JustGenesis}}
	d := p.Digest()
	p.Sig = provFor(1).Sign(d[:])
	r.HandleMessage(1, p)
	if claimed, _ := scanDissem(ctx, d, full.ID); claimed {
		t.Fatal("replica claimed a proposal re-referencing an already-delivered digest")
	}
}

// TestSeenBatchDupSkipsResolution: a committed duplicate of a batch inside
// the dedup window is popped and discarded WITHOUT resolving its payload —
// parking the drain on a backfill there would stall total-order delivery
// behind a payload that may no longer exist anywhere.
func TestSeenBatchDupSkipsResolution(t *testing.T) {
	r, ctx := newDissemReplica()

	full := dissemBatch(4)
	r.ord.seenBatch[full.ID] = true // delivered earlier in the window
	stub := &types.Batch{ID: full.ID, Submitted: full.Submitted}
	r.InjectCommit(0, 1, stub, types.Digest{0xd0})

	if len(r.ord.heap) != 0 {
		t.Fatal("drain parked on the duplicate instead of discarding it")
	}
	if r.Delivered != 0 {
		t.Fatal("duplicate batch delivered twice")
	}
	if _, pulled := scanDissem(ctx, types.Digest{0xd0}, full.ID); pulled {
		t.Fatal("drain backfilled a payload it does not need")
	}
}

// TestDigestWaiterFlushGC: waiter registrations that no notify will ever
// fire for (a garbage digest from a Byzantine proposal, abandoned by its
// instance) are garbage-collected by the periodic flush, while genuinely
// pending waits re-register themselves through the re-posted retry.
func TestDigestWaiterFlushGC(t *testing.T) {
	r, _ := newDissemReplica()

	// Abandoned wait: no pending proposal references this digest, so the
	// re-posted retry re-registers nothing.
	r.awaitDigest(0, types.Digest{0xab})
	r.awaitDigest(protocol.OrderingShard, types.Digest{0xcd})
	// The flush runs inside the dissemination timer's handler; its re-posted
	// retries run when that handler ends (runDeferred).
	r.flushDigestWaiters()
	r.runDeferred()
	r.dwMu.Lock()
	left := len(r.dWaiters)
	r.dwMu.Unlock()
	if left != 0 {
		t.Fatalf("%d abandoned waiter entries survived the flush, want 0", left)
	}

	// Live wait: an uncertified proposal is still buffered, so the flush's
	// retry re-evaluates it and re-registers the waiter.
	full := dissemBatch(5)
	stub := &types.Batch{ID: full.ID, Submitted: full.Submitted}
	p := &types.Propose{Instance: 0, View: 1, Batch: stub, Parent: types.Justification{Kind: types.JustGenesis}}
	d := p.Digest()
	p.Sig = provFor(1).Sign(d[:])
	r.HandleMessage(1, p)
	r.flushDigestWaiters()
	r.runDeferred()
	r.dwMu.Lock()
	_, live := r.dWaiters[full.ID]
	r.dwMu.Unlock()
	if !live {
		t.Fatal("flush dropped a genuinely pending digest wait")
	}
}

// TestInlinePayloadRefusesUncertifiedDigest: a Byzantine primary cannot
// bypass the certificate gate by inlining the full payload in its proposal
// — the gate binds to the digest, not to whatever bytes rode the wire.
func TestInlinePayloadRefusesUncertifiedDigest(t *testing.T) {
	r, ctx := newDissemReplica()

	full := dissemBatch(2)
	p := &types.Propose{Instance: 0, View: 1, Batch: full, Parent: types.Justification{Kind: types.JustGenesis}}
	d := p.Digest()
	p.Sig = provFor(1).Sign(d[:])

	r.HandleMessage(1, p)
	if claimed, _ := scanDissem(ctx, d, full.ID); claimed {
		t.Fatal("inline payload bypassed the availability-certificate gate")
	}
}

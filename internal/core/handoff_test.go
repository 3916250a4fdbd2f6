package core

import (
	"testing"

	"spotless/internal/protocol"
	"spotless/internal/types"
)

// writeProposal constructs a signed proposal carrying a one-write client
// batch, so its delivery counts toward checkpoint heights (no-ops do not).
func writeProposal(v types.View, parent types.Justification, primary types.NodeID) *types.Propose {
	txs := []types.Transaction{{Client: 9, Seq: uint64(v), Op: types.OpWrite, Key: uint64(v), Value: []byte{byte(v)}}}
	p := &types.Propose{Instance: 0, View: v, Batch: &types.Batch{ID: types.ComputeBatchID(txs), Txns: txs}, Parent: parent}
	d := p.Digest()
	p.Sig = provFor(primary).Sign(d[:])
	return p
}

// outOfOrderCertification drives replica 0 through views 1–3 so that the
// tip P3 certifies before the middle link P2: certTips holds [P1 P3] when
// the last Sync for P2 arrives, certifies P2, lets P3 conditionally prepare,
// and commits P1 — the first client batch, checkpoint height 1 — from inside
// the maybeCommitChains loop over the tips [P1 P3 P2]. beforeCommit runs
// just before that last Sync.
func outOfOrderCertification(r *Replica, beforeCommit func()) {
	p1 := writeProposal(1, types.Justification{Kind: types.JustGenesis}, 1)
	driveView(r, p1)
	p2 := writeProposal(2, types.Justification{Kind: types.JustClaim, ParentView: 1, ParentDigest: p1.Digest()}, 2)
	r.HandleMessage(2, p2)
	p3 := writeProposal(3, types.Justification{Kind: types.JustClaim, ParentView: 2, ParentDigest: p2.Digest()}, 3)
	r.HandleMessage(3, p3)
	cp := []types.CPEntry{{View: 2, Digest: p2.Digest()}}
	for _, from := range []types.NodeID{1, 2, 3} {
		r.HandleMessage(from, syncFor(0, from, 3, p3.Digest(), cp))
	}
	r.HandleMessage(1, syncFor(0, 1, 2, p2.Digest(), nil))
	beforeCommit()
	r.HandleMessage(2, syncFor(0, 2, 2, p2.Digest(), nil))
}

// TestOwnAttestationCompletesQuorumDuringCommit: peers 1 and 2 attested
// checkpoint height 1 before replica 0 reached it, so replica 0's own
// attestation — issued while delivering the commit of P1 — completes the
// n−f quorum and stabilizes the checkpoint in the middle of
// maybeCommitChains. The checkpoint GC filters certTips in place; had it run
// inside the commit (as an inline handoff once did), the outer range would
// read the nil'd tail and panic. It must run after the handler instead.
func TestOwnAttestationCompletesQuorumDuringCommit(t *testing.T) {
	// A dry run learns the state hash replica 0 attests at height 1.
	dry, dctx := newCkptReplica(1)
	outOfOrderCertification(dry, func() {})
	var own *types.Checkpoint
	for _, m := range dctx.sent {
		if c, ok := m.(*types.Checkpoint); ok && c.Height == 1 {
			own = c
		}
	}
	if own == nil {
		t.Fatal("schedule never reached checkpoint height 1")
	}
	if dry.StableHeight() != 0 {
		t.Fatal("dry run stabilized without peer attestations")
	}

	r, ctx := newCkptReplica(1)
	in := r.Instance(0)
	outOfOrderCertification(r, func() {
		if n := len(in.certTips); n < 2 {
			t.Fatalf("certTips holds %d tips before the commit, want ≥ 2", n)
		}
		for _, from := range []types.NodeID{1, 2} {
			r.HandleMessage(from, &types.Checkpoint{Height: 1, StateHash: own.StateHash,
				Sig: provFor(from).Sign(types.CheckpointBytes(1, own.StateHash))})
		}
		if r.StableHeight() != 0 {
			t.Fatal("checkpoint stabilized before replica 0 attested")
		}
	})
	if r.StableHeight() != 1 {
		t.Fatalf("stable height %d, want 1 (own attestation completes the quorum)", r.StableHeight())
	}
	if len(ctx.commits) != 1 {
		t.Fatalf("%d deliveries, want 1 (P1)", len(ctx.commits))
	}
	if in.gcFloor == 0 {
		t.Fatal("checkpoint GC never ran on the instance")
	}
	for i, p := range in.certTips {
		if p == nil || p.committed {
			t.Fatalf("certTips[%d] = %v after GC, want live uncommitted tips only", i, p)
		}
	}
}

// postingContext posts from inside a handler: its first Broadcast (the
// replica's own Sync, sent while HandleMessage processes a proposal) calls
// hook.
type postingContext struct {
	*fakeContext
	hook func()
}

func (c *postingContext) Broadcast(m types.Message) {
	if h := c.hook; h != nil {
		c.hook = nil
		h()
	}
	c.fakeContext.Broadcast(m)
}

// TestPostRunsAfterHandler pins the handoff contract on the serialized
// substrate (no poster bound): a posted function has not run when post
// returns, runs before the top-level handler returns, and functions it
// posts in turn run after it, FIFO.
func TestPostRunsAfterHandler(t *testing.T) {
	ctx := &postingContext{fakeContext: newFakeContext(0, 4)}
	r := New(ctx, DefaultConfig(4, 1))
	r.Start()
	var order []string
	ctx.hook = func() {
		r.post(protocol.OrderingShard, func() {
			order = append(order, "first")
			r.post(0, func() { order = append(order, "nested") })
		})
		r.post(0, func() { order = append(order, "second") })
		if len(order) != 0 {
			t.Fatalf("posted functions ran inside the posting call: %v", order)
		}
	}
	r.HandleMessage(1, buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1))
	if ctx.hook != nil {
		t.Fatal("the handler never broadcast, so nothing was posted")
	}
	if got := len(order); got != 3 || order[0] != "first" || order[1] != "second" || order[2] != "nested" {
		t.Fatalf("after HandleMessage returned: ran %v, want [first second nested]", order)
	}
}

package core

import (
	"encoding/binary"
	"sort"
	"sync/atomic"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// This file implements the checkpoint + garbage-collection + state-transfer
// subsystem. Rapid View Synchronization (§3.4) recovers a replica that
// missed a view from the matching Sync/Ask exchange but never lets anyone
// forget: every proposal and vote map is retained to serve future Asks, so
// a long-running replica grows without bound and a crashed replica can
// never catch up once peers prune. Checkpointing closes both gaps:
//
//   - every K globally delivered batches each replica broadcasts a signed
//     Checkpoint attesting (height, state hash); n−f matching attestations
//     make the checkpoint stable, and replicas then garbage-collect
//     consensus state at or below the stable per-instance anchors and
//     truncate the durable ledger (Config.Host);
//   - a replica that learns of attestations a full interval beyond its own
//     progress fetches the checkpoint (FetchState → StateChunk), verifies
//     the embedded certificate off the event loop, installs the anchors as
//     its new delivery frontier, and re-enters the CRR rotation from there
//     — the crash/recovery and lagging-replica path.
//
// The attested state hash covers the rolling execution hash over the
// globally ordered deliveries, the execution layer's durable-state digest
// (the ledger chain-resume hash), and the per-instance anchors of the cut,
// all of which are deterministic across correct replicas because the total
// order of §4.1 is.

// attest is one checkpoint attestation (the signed state hash; for the
// newest-per-signer map, also the height).
type attest struct {
	height uint64
	hash   types.Digest
	sig    types.Signature
}

// localCkpt is a snapshot this replica itself took, kept until a matching
// quorum stabilizes it (or a newer one supersedes it).
type localCkpt struct {
	stateHash   types.Digest
	execHash    types.Digest
	stateDigest types.Digest
	anchors     []types.Anchor
}

// ckptState is the replica-level checkpoint manager.
type ckptState struct {
	execHash types.Digest   // rolling hash over globally drained proposals
	anchors  []types.Anchor // last drained (view, proposal) per instance

	// tallies retains one attestation per signer for every height this
	// replica can still stabilize: interval-aligned heights in
	// (stable, stable + maxLocalCkpts·K]. The window makes the structure
	// flood-proof (at most maxLocalCkpts heights × n signers, regardless
	// of what a Byzantine replica signs) while keeping votes for a height
	// until it is stabilized or superseded — so stabilization stays live
	// under arbitrary (window-bounded) delivery skew: a replica reaching
	// height h long after its peers still finds their h attestations.
	tallies map[uint64]map[types.NodeID]attest
	// newest tracks each signer's newest attestation (any height): the
	// lagging-replica detector, O(n).
	newest map[types.NodeID]attest
	local  map[uint64]localCkpt // own snapshots awaiting stabilization

	stable       types.CheckpointCert
	stableExec   types.Digest
	stableResume types.Digest
	stableAnch   []types.Anchor
	stableMirror atomic.Uint64 // stable height for off-loop readers

	fetching bool
	fetchSeq uint64            // correlates the retry timer
	chunkSeq uint64            // correlates the chunk-cert VerifyAsync job
	pending  *types.StateChunk // chunk awaiting certificate verification

	// own is this replica's newest attestation — signed at cut time, or
	// synthesized after a state install — re-advertised on the heartbeat
	// when the attestation flow quiesces (see readvertiseCheckpoint).
	own        *types.Checkpoint
	advertised uint64 // own.Height observed at the previous heartbeat tick
}

// maxLocalCkpts bounds the unstabilized own-snapshot map.
const maxLocalCkpts = 64

// ckptEnabled reports whether the subsystem is active.
func (r *Replica) ckptEnabled() bool { return r.cfg.CheckpointInterval > 0 }

// noteDrained folds one executed delivery (deduped, non-noop — the
// sequence all correct replicas execute identically) into the rolling
// execution hash. The per-instance anchors advance on every drained commit
// instead, no-ops included (see deliver).
func (r *Replica) noteDrained(inst int32, oc orderedCommit) {
	if !r.ckptEnabled() {
		return
	}
	var buf [32 + 4 + 32]byte
	copy(buf[0:], r.ckpt.execHash[:])
	binary.LittleEndian.PutUint32(buf[32:], uint32(inst))
	copy(buf[36:], oc.dig[:])
	r.ckpt.execHash = crypto.Digest(buf[:])
}

// maybeCheckpoint takes and broadcasts a checkpoint when the delivered
// height crossed an interval boundary. Called after every non-noop global
// delivery, on the event loop.
func (r *Replica) maybeCheckpoint() {
	if !r.ckptEnabled() {
		return
	}
	k := uint64(r.cfg.CheckpointInterval)
	h := r.Delivered
	if h == 0 || h%k != 0 || h <= r.ckpt.stable.Height {
		return
	}
	if _, dup := r.ckpt.local[h]; dup {
		return
	}
	var stateDigest types.Digest
	if r.cfg.Host != nil {
		// The exec hash rides along so the host can capture its execution
		// snapshot at this exact cut, bound to the attestation-to-be.
		stateDigest = r.cfg.Host.StateDigest(h, r.ckpt.execHash)
	}
	anchors := append([]types.Anchor(nil), r.ckpt.anchors...)
	stateHash := types.CheckpointStateHash(h, r.ckpt.execHash, stateDigest, anchors)
	if len(r.ckpt.local) >= maxLocalCkpts {
		r.pruneLocal()
	}
	r.ckpt.local[h] = localCkpt{stateHash: stateHash, execHash: r.ckpt.execHash, stateDigest: stateDigest, anchors: anchors}
	// Restart the batch-dedup window at the cut. The cut sits at the same
	// position of the global delivery sequence on every correct replica, so
	// dedup decisions stay identical cluster-wide — and a replica that
	// later installs this checkpoint starts with the same (empty) window,
	// keeping its delivered heights aligned with the veterans'.
	r.ord.seenBatch = make(map[types.Digest]bool)
	msg := &types.Checkpoint{Height: h, StateHash: stateHash,
		Sig: r.ctx.Crypto().Sign(types.CheckpointBytes(h, stateHash))}
	r.ckpt.own = msg
	r.ctx.Broadcast(msg)
	// Count our own attestation, and re-check the quorum: peers ahead of us
	// may have attested this height before we reached it.
	r.onCheckpoint(r.ctx.ID(), msg)
}

// pruneLocal evicts the oldest unstabilized local snapshot (guard for
// pathological configurations where checkpoints never stabilize).
func (r *Replica) pruneLocal() {
	var lowest uint64
	first := true
	for h := range r.ckpt.local {
		if first || h < lowest {
			lowest, first = h, false
		}
	}
	if !first {
		delete(r.ckpt.local, lowest)
	}
}

// onCheckpoint records one attestation. Signatures were verified by the
// ingress pipeline (Replica.IngressJob); the stabilization tally is bounded
// to the window of heights this replica can still stabilize, and the
// newest-per-signer map (any height) drives lagging-replica detection.
func (r *Replica) onCheckpoint(_ types.NodeID, msg *types.Checkpoint) {
	if !r.ckptEnabled() || msg.Height <= r.ckpt.stable.Height {
		return
	}
	if msg.Sig.Signer < 0 || int(msg.Sig.Signer) >= r.cfg.N {
		return // only replicas attest (the ingress screen also drops these)
	}
	k := uint64(r.cfg.CheckpointInterval)
	if msg.Height%k != 0 {
		return // heights are interval-aligned cluster-wide
	}
	a := attest{height: msg.Height, hash: msg.StateHash, sig: msg.Sig}
	if prev, seen := r.ckpt.newest[msg.Sig.Signer]; !seen || msg.Height > prev.height {
		r.ckpt.newest[msg.Sig.Signer] = a
	}
	if msg.Height <= r.ckpt.stable.Height+maxLocalCkpts*k {
		t := r.ckpt.tallies[msg.Height]
		if t == nil {
			t = make(map[types.NodeID]attest)
			r.ckpt.tallies[msg.Height] = t
		}
		if _, dup := t[msg.Sig.Signer]; !dup {
			t[msg.Sig.Signer] = a
			r.checkCkptQuorum(msg.Height)
		}
	}
	r.maybeFetchState()
}

// checkCkptQuorum stabilizes a checkpoint once n−f signers' newest
// attestations name the height with the state hash this replica itself
// computed there.
func (r *Replica) checkCkptQuorum(h uint64) {
	local, ok := r.ckpt.local[h]
	if !ok {
		return
	}
	t := r.ckpt.tallies[h]
	q := protocol.Quorum(r.cfg.N, r.cfg.F)
	// Deterministic signer order, so the assembled certificate does not
	// depend on map iteration (simulation determinism).
	ids := make([]types.NodeID, 0, len(t))
	for id := range t {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	cert := types.CheckpointCert{Height: h, StateHash: local.stateHash}
	for _, id := range ids {
		if a := t[id]; a.hash == local.stateHash {
			cert.Sigs = append(cert.Sigs, a.sig)
			if len(cert.Sigs) == q {
				r.stabilize(cert, local.execHash, local.stateDigest, local.anchors)
				return
			}
		}
	}
}

// stabilize records a new stable checkpoint and garbage-collects behind it:
// per-instance consensus state below the anchors, durable ledger blocks
// below the height, and superseded local snapshots.
func (r *Replica) stabilize(cert types.CheckpointCert, execHash, resume types.Digest, anchors []types.Anchor) {
	r.ckpt.stable = cert
	r.ckpt.stableExec = execHash
	r.ckpt.stableResume = resume
	r.ckpt.stableAnch = anchors
	r.ckpt.stableMirror.Store(cert.Height)
	for h := range r.ckpt.local {
		if h <= cert.Height {
			delete(r.ckpt.local, h)
		}
	}
	for h := range r.ckpt.tallies {
		if h <= cert.Height {
			delete(r.ckpt.tallies, h)
		}
	}
	for i, in := range r.insts {
		in, a := in, anchors[i]
		r.post(in.id, func() { in.gcToAnchor(a) })
	}
	if r.cfg.Host != nil {
		// Persist before truncating: the manifest must name the certificate
		// before the pre-checkpoint segments become deletable, or a crash in
		// between leaves a chain rooted above its last persisted cert.
		r.cfg.Host.PersistCheckpoint(cert, execHash, resume, anchors)
		r.cfg.Host.TruncateBelow(cert.Height)
	}
	if r.cfg.Dissem != nil {
		// Frontier-driven payload GC: batches delivered at or below the
		// stable height can never be re-proposed or backfilled again.
		r.cfg.Dissem.GCToFrontier(cert.Height)
	}
	r.ctx.Logf("checkpoint stable at height %d (%d instances GC'd)", cert.Height, len(r.insts))
}

// maybeFetchState triggers state transfer when f+1 distinct replicas (at
// least one of them correct) attest checkpoints at least one full interval
// beyond this replica's own progress — the signature of having crashed or
// fallen off the retained window.
func (r *Replica) maybeFetchState() {
	if r.ckpt.fetching {
		return
	}
	w := protocol.Weak(r.cfg.F)
	if len(r.ckpt.newest) < w {
		return
	}
	// The (f+1)-th largest newest-attested height is vouched for by f+1
	// distinct replicas: at least one correct replica really delivered
	// that far.
	hs := make([]uint64, 0, len(r.ckpt.newest))
	for _, a := range r.ckpt.newest {
		hs = append(hs, a.height)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] > hs[j] })
	target := hs[w-1]
	if target < r.Delivered+uint64(r.cfg.CheckpointInterval) {
		return
	}
	r.ckpt.fetching = true
	// Deterministic recipients: the f+1 lowest-id vouchers (at least one is
	// correct and stable at or beyond the target).
	ids := make([]types.NodeID, 0, len(r.ckpt.newest))
	for id, a := range r.ckpt.newest {
		if a.height >= target && id != r.ctx.ID() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	req := &types.FetchState{Have: r.Delivered}
	if r.cfg.Host != nil {
		// Advertise the retained chain head: a server that finds it on its
		// own chain serves only the missing suffix — the O(suffix) rejoin
		// path for a replica that replayed its chain from local disk. Hosts
		// execute application state, so ask for the attested table snapshot
		// too; pure-ordering substrates skip the table bytes.
		req.Head, req.HeadHash = r.cfg.Host.Head()
		req.WantSnapshot = true
	}
	for i, id := range ids {
		if i >= w {
			break
		}
		r.ctx.Send(id, req)
	}
	// Re-arm: if no verifiable chunk arrives, clear the latch and retry on
	// the next attestation (stale-timer discipline, keyed by fetchSeq).
	r.ckpt.fetchSeq++
	r.ctx.SetTimer(2*r.cfg.RetransmitInterval,
		protocol.TimerTag{Kind: protocol.TimerStateFetch, Instance: -1, Seq: r.ckpt.fetchSeq})
}

// onFetchTimer clears a fetch latch that never resolved (or resolved into
// an install that left us still behind) and immediately re-evaluates from
// the retained attestation histories: the cluster may have gone idle after
// our fetch, never to attest again, while the servers' stable frontier —
// and the GC horizon below which their proposals are gone — moved past the
// checkpoint we installed.
func (r *Replica) onFetchTimer(tag protocol.TimerTag) {
	if tag.Seq != r.ckpt.fetchSeq {
		return // a newer fetch owns the latch
	}
	if r.ckpt.pending != nil {
		// A chunk's certificate verification is still on the pool: clearing
		// the latch now would orphan the verdict (onCkptVerified would find
		// no pending chunk) and waste the whole fetch round. Keep the latch
		// and check back after another interval.
		r.ctx.SetTimer(2*r.cfg.RetransmitInterval,
			protocol.TimerTag{Kind: protocol.TimerStateFetch, Instance: -1, Seq: r.ckpt.fetchSeq})
		return
	}
	r.ckpt.fetching = false
	r.maybeFetchState()
}

// readvertiseCheckpoint re-broadcasts this replica's newest checkpoint
// attestation once the attestation flow quiesces. Attestations are normally
// broadcast exactly once, at cut time — so a replica restarted into an idle
// cluster (no new deliveries, hence no new cuts) would never hear one: its
// pre-gcFloor Syncs are silently dropped, the pre-checkpoint chain payloads
// are GC'd, and it would stay wedged until new client traffic produced the
// next checkpoint. Piggybacked on instance 0's retransmission heartbeat and
// skipped while cuts outpace heartbeats (a busy cluster's natural
// attestation flow already reaches everyone), it costs one small broadcast
// per replica per interval only when the cluster idles — exactly when a
// rejoiner has no other way to discover the stable frontier.
func (r *Replica) readvertiseCheckpoint() {
	if !r.ckptEnabled() || r.ckpt.own == nil {
		return
	}
	if r.ckpt.own.Height != r.ckpt.advertised {
		r.ckpt.advertised = r.ckpt.own.Height
		return // a fresh cut advertised itself since the last tick
	}
	r.ctx.Broadcast(r.ckpt.own)
}

// onFetchState serves a state-transfer request from the stable checkpoint.
// Blocks are served from the stable height; a segment longer than the
// configured cap is cut short — the requester rebuilds the remainder
// through ordinary consensus re-delivery, which GC keeps possible above
// the stable frontier.
func (r *Replica) onFetchState(from types.NodeID, msg *types.FetchState) {
	if !r.ckptEnabled() || r.ckpt.stable.Height == 0 || msg.Have >= r.ckpt.stable.Height {
		return
	}
	chunk := &types.StateChunk{
		Cert:         r.ckpt.stable,
		ExecHash:     r.ckpt.stableExec,
		LedgerResume: r.ckpt.stableResume,
		Anchors:      r.ckpt.stableAnch,
	}
	if r.cfg.Host != nil {
		limit := r.cfg.CheckpointFetchCap
		if limit <= 0 {
			limit = 512
		}
		// Serve from the requester's own chain head when it lies on ours
		// (hash-checked): it replayed the prefix from local disk, so only
		// the missing suffix travels. Anything else — no local chain, a
		// pruned head, a diverged head — gets the full retained segment
		// from the stable height.
		serveFrom := r.ckpt.stable.Height
		if msg.Head > serveFrom {
			if hh, ok := r.cfg.Host.BlockHash(msg.Head - 1); ok && hh == msg.HeadHash {
				serveFrom = msg.Head
			}
		}
		chunk.Blocks = r.cfg.Host.FetchBlocks(serveFrom, limit)
		if msg.WantSnapshot {
			// The stable execution snapshot rides in the same chunk so the
			// requester installs table and checkpoint atomically (a separate
			// fetch could land after post-cut re-deliveries and clobber
			// them). The requester re-verifies the envelope binding against
			// the certificate before touching its table.
			chunk.Snapshot = r.cfg.Host.StateSnapshot(r.ckpt.stable.Height)
		}
	}
	r.ctx.Send(from, chunk)
}

// onStateChunk validates a state-transfer response structurally, then hands
// the certificate's n−f signatures to the verification pipeline as one
// batch job; installation resumes in onCkptVerified. Chunks are accepted
// only while this replica itself has a fetch outstanding: an unsolicited
// chunk must not teleport a healthy replica over batches it would have
// executed itself.
func (r *Replica) onStateChunk(from types.NodeID, msg *types.StateChunk) {
	if !r.ckptEnabled() || !r.ckpt.fetching || r.ckpt.pending != nil ||
		msg.Cert.Height <= r.Delivered {
		return
	}
	q := protocol.Quorum(r.cfg.N, r.cfg.F)
	if len(msg.Anchors) != r.cfg.Instances || len(msg.Cert.Sigs) < q ||
		crypto.DistinctSigners(msg.Cert.Sigs) < q {
		return
	}
	for _, sig := range msg.Cert.Sigs {
		if sig.Signer < 0 || int(sig.Signer) >= r.cfg.N {
			// Only replicas attest: clients share the keyring, so a
			// compromised client key would otherwise verify and count toward
			// the n−f quorum (the Checkpoint ingress screen drops such
			// signers for the same reason).
			return
		}
	}
	want := types.CheckpointStateHash(msg.Cert.Height, msg.ExecHash, msg.LedgerResume, msg.Anchors)
	if want != msg.Cert.StateHash {
		return // preimage does not match the attested hash
	}
	r.ckpt.pending = msg
	r.ckpt.chunkSeq++
	claim := types.CheckpointBytes(msg.Cert.Height, msg.Cert.StateHash)
	checks := make([]crypto.Check, len(msg.Cert.Sigs))
	for i, sig := range msg.Cert.Sigs {
		checks[i] = crypto.Check{Sig: sig, Msg: claim}
	}
	r.ctx.VerifyAsync(protocol.VerifyJob{
		Tag:    protocol.TimerTag{Kind: protocol.TimerVerify, Instance: -1, Seq: r.ckpt.chunkSeq},
		Checks: checks,
		Quorum: q,
	})
}

// onCkptVerified consumes the chunk-certificate verification verdict.
func (r *Replica) onCkptVerified(tag protocol.TimerTag, ok bool) {
	if tag.Seq != r.ckpt.chunkSeq || r.ckpt.pending == nil {
		return // stale completion
	}
	chunk := r.ckpt.pending
	r.ckpt.pending = nil
	r.ckpt.fetching = false
	if !ok {
		return // forged certificate; the next attestation re-triggers a fetch
	}
	r.installState(chunk)
}

// installState adopts a verified stable checkpoint: the delivery frontier
// jumps to the checkpoint cut, every instance resumes its chain from its
// anchor, the execution layer re-roots its ledger on the transferred
// segment, and consensus state behind the anchors is dropped. Deliveries
// above the cut are then re-earned through ordinary consensus: instances
// backfill the chain (askChainGap) and re-deliver in the global order, and
// the execution layer skips re-appending heights it already imported.
func (r *Replica) installState(chunk *types.StateChunk) {
	h := chunk.Cert.Height
	if h <= r.Delivered {
		return
	}
	// Re-root the durable state first — and abort the whole install if the
	// execution layer rejects the segment (tampered blocks): committing the
	// protocol to the checkpoint while the ledger stayed behind would
	// desync the two permanently. The fetch latch is already clear, so the
	// next attestation simply re-triggers a fetch (from other vouchers).
	if r.cfg.Host != nil {
		if err := r.cfg.Host.InstallState(chunk); err != nil {
			r.ctx.Logf("state install at height %d rejected: %v", h, err)
			return
		}
	}
	r.Delivered = h
	r.deliveredMirror.Store(h)
	r.ckpt.execHash = chunk.ExecHash
	copy(r.ckpt.anchors, chunk.Anchors)
	r.ckpt.stable = chunk.Cert
	r.ckpt.stableExec = chunk.ExecHash
	r.ckpt.stableResume = chunk.LedgerResume
	r.ckpt.stableAnch = append([]types.Anchor(nil), chunk.Anchors...)
	r.ckpt.stableMirror.Store(h)
	// Attest the installed checkpoint ourselves: this replica now holds
	// exactly the state the verified certificate describes. Without an own
	// attestation, a replica that rejoined and then idled could never
	// re-advertise the frontier to the next rejoiner.
	r.ckpt.own = &types.Checkpoint{Height: h, StateHash: chunk.Cert.StateHash,
		Sig: r.ctx.Crypto().Sign(types.CheckpointBytes(h, chunk.Cert.StateHash))}
	for th := range r.ckpt.tallies {
		if th <= h {
			delete(r.ckpt.tallies, th)
		}
	}
	// The dedup window restarts at every checkpoint cut cluster-wide (see
	// maybeCheckpoint); starting empty here matches the veterans exactly.
	r.ord.seenBatch = make(map[types.Digest]bool)
	if r.cfg.Dissem != nil {
		r.cfg.Dissem.GCToFrontier(h)
	}
	// Advance every frontier and drop queued commits the checkpoint covers
	// before any instance resumes delivering, so a drain triggered by one
	// instance's install cannot re-deliver another's pre-checkpoint tail.
	// (Queues are view-ascending, so covered commits form a prefix.)
	for i, a := range chunk.Anchors {
		if a.View > r.ord.frontiers[i] {
			r.ord.frontiers[i] = a.View
		}
		for !r.ord.rings[i].empty() && r.ord.rings[i].front().view <= a.View {
			r.ord.rings[i].pop()
		}
	}
	r.ord.recomputeMin()
	r.ord.rebuildHeap()
	for i, a := range chunk.Anchors {
		in, a := r.insts[i], a
		r.post(in.id, func() { in.installAnchor(a) })
	}
	r.ctx.Logf("installed stable checkpoint at height %d", h)
	r.drain()
}

// StableHeight reports the height of the replica's stable checkpoint. It is
// safe to call from outside the event loop (tests, operator polling).
func (r *Replica) StableHeight() uint64 { return r.ckpt.stableMirror.Load() }

// StateFootprint sums retained consensus bookkeeping across instances: the
// proposal-map and view-map entry counts the checkpoint GC bounds. It reads
// instance-shard state directly and is therefore only safe while events are
// serialized (the simulator between Run calls, or a stopped runtime node).
func (r *Replica) StateFootprint() (props, views int) {
	for _, in := range r.insts {
		props += len(in.props)
		views += len(in.views)
	}
	return props, views
}

// Package protocol defines the environment abstraction every consensus
// protocol in this repository is written against. One protocol
// implementation runs unchanged on three substrates:
//
//   - internal/simnet   — deterministic discrete-event simulation (benchmarks)
//   - internal/runtime  — in-process goroutine runtime with real crypto
//   - internal/transport— TCP transport for multi-process deployments
//
// Protocols are single-threaded event-driven state machines: the substrate
// serializes all calls into a protocol instance, so protocol code never
// locks. Protocols that additionally implement ShardedProtocol opt into a
// relaxed, per-shard serialization: substrates may then run events of
// different instance shards concurrently, with cross-shard interaction
// confined to the ShardPoster handoff (see ShardedProtocol).
package protocol

import (
	"time"

	"spotless/internal/crypto"
	"spotless/internal/types"
)

// TimerTag identifies a timer set by a protocol. Substrates deliver expired
// timers back verbatim; protocols ignore tags that are no longer relevant
// (stale-timer discipline), so timers never need cancelling.
type TimerTag struct {
	Kind     int
	Instance int32
	View     types.View
	Seq      uint64
}

// Timer kinds shared across protocols (each protocol may define more).
const (
	TimerRecording  = iota + 1 // SpotLess tR (state ST1)
	TimerCertifying            // SpotLess tA (state ST3)
	TimerRetransmit            // periodic retransmission (§3.5)
	TimerPbft                  // Pbft/RCC request timer
	TimerPacemaker             // HotStuff pacemaker
	TimerPropose               // re-check batch availability when idle
	TimerVerify                // async verification completion (VerifyAsync)
	TimerStateFetch            // state-transfer retry (checkpoint subsystem)
)

// VerifyJob is a batch of signature checks a protocol hands to the
// verification pipeline. The checks of one job are fanned out together (one
// certificate is one job), and the job passes when at least Quorum distinct
// signers verify (Quorum ≤ 0: every check must pass). Tag correlates the
// asynchronous completion back to protocol state; it is unused for ingress
// jobs, whose only outcome is deliver-or-drop.
type VerifyJob struct {
	Tag    TimerTag
	Checks []crypto.Check
	Quorum int
}

// IngressVerifier is implemented by protocols whose messages carry digital
// signatures. IngressJob declares, for one inbound message, the signature
// checks it must pass before it may enter the state machine; the substrate
// runs them off the event loop (worker pool, reader goroutines, or modelled
// parallel cores) and silently drops messages that fail — so HandleMessage
// only ever sees pre-verified messages and never calls Crypto().Verify
// inline.
//
// IngressJob is invoked concurrently with the event loop and therefore must
// be stateless: it may read only construction-time configuration, never
// mutable protocol state. Substrates do not screen a protocol's own
// messages (self-delivery is trusted).
type IngressVerifier interface {
	IngressJob(from types.NodeID, msg types.Message) (VerifyJob, bool)
}

// VerifyConsumer is implemented by protocols that use Context.VerifyAsync.
// The substrate serializes HandleVerified with all other protocol events.
type VerifyConsumer interface {
	// HandleVerified receives the completion of a VerifyAsync job. Like
	// expired timers, completions are delivered verbatim and may be stale:
	// protocols must ignore tags no longer correlated to pending state.
	HandleVerified(tag TimerTag, ok bool)
}

// Context is the substrate-provided environment of one replica.
type Context interface {
	// ID returns this replica's identifier.
	ID() types.NodeID
	// N returns the number of replicas; F the assumed failure bound (n > 3f).
	N() int
	F() int
	// Now returns the substrate clock (virtual in simulation, monotonic
	// elapsed time otherwise).
	Now() time.Duration
	// Send transmits a message to one replica (or to a client for Informs).
	Send(to types.NodeID, msg types.Message)
	// Broadcast transmits a message to every replica except the sender.
	// Per Remark 3.1, self-delivery is eliminated; protocols account for
	// their own contribution locally.
	Broadcast(msg types.Message)
	// SetTimer schedules tag to fire after d. Timers are one-shot.
	SetTimer(d time.Duration, tag TimerTag)
	// VerifyAsync schedules a signature-verification job off the event
	// loop. The substrate later invokes HandleVerified(job.Tag, ok) on the
	// protocol (which must implement VerifyConsumer), subject to the
	// completion-ordering contract:
	//
	//   1. never reentrantly — the handler that issued the job always
	//      returns before its completion is delivered, and the completion
	//      arrives as its own serialized protocol event;
	//   2. exactly once per job — every job completes, even when the
	//      underlying pool sheds load (the job then fails);
	//   3. with no cross-job order guarantee — a later, smaller job may
	//      complete before an earlier, larger one; protocols correlate
	//      completions by Tag, never by position.
	//
	// Stale completions follow the stale-timer discipline above: protocols
	// ignore tags that no longer match pending state, so jobs never need
	// cancelling.
	VerifyAsync(job VerifyJob)
	// Crypto returns this replica's cryptographic provider.
	Crypto() crypto.Provider
	// Deliver hands a decided batch to the execution layer. Protocols call
	// it in total order (§4.1).
	Deliver(c types.Commit)
	// NextBatch pulls the next client batch assigned to the given instance,
	// or nil if none is pending (§5: digest-based instance assignment).
	NextBatch(instance int32) *types.Batch
	// Logf emits a debug log line.
	Logf(format string, args ...any)
}

// Protocol is a consensus protocol instance hosted on one replica.
type Protocol interface {
	// Start is invoked once before any events.
	Start()
	// HandleMessage processes one message from another node.
	HandleMessage(from types.NodeID, msg types.Message)
	// HandleTimer processes one expired timer.
	HandleTimer(tag TimerTag)
}

// OrderingShard is the shard identifier of a sharded protocol's serialized
// cross-instance stage (total ordering, checkpointing, state transfer).
const OrderingShard int32 = -1

// ShardedProtocol is implemented by protocols whose event handling
// partitions into independent per-instance shards plus one serialized
// ordering stage — SpotLess's m concurrent consensus instances merged by
// the deterministic (view, instance) total order (§4.1, Figure 6).
//
// The single-threaded contract above is relaxed per shard: a substrate may
// invoke HandleMessage / HandleTimer / HandleVerified concurrently for
// events belonging to DIFFERENT shards, provided all events of one shard
// stay serialized and FIFO. The protocol in turn guarantees that handling
// an event touches only the state of the shard that owns it; every
// cross-shard interaction goes through the ShardPoster bound with
// BindShards. Substrates that keep the classic single event loop never call
// BindShards; the protocol then queues its handoffs itself and runs them
// when the current top-level handler returns, so a handoff means the same
// thing on every substrate (see ShardPoster).
//
// Event-to-shard routing:
//
//   - messages: InstanceOf(msg) names the owning instance shard, or
//     OrderingShard for cross-instance messages (checkpoint attestations,
//     state transfer);
//   - timers and VerifyAsync completions: TimerTag.Instance carries the
//     shard (negative values route to the ordering stage).
type ShardedProtocol interface {
	Protocol
	// ShardCount reports the number of instance shards (m). The ordering
	// stage is one additional, implicit shard.
	ShardCount() int
	// InstanceOf maps an inbound message to the instance shard owning it,
	// or OrderingShard. Like IngressJob it is invoked concurrently with
	// event handling and must be stateless (construction-time
	// configuration only).
	InstanceOf(msg types.Message) int32
	// BindShards is invoked once, before Start, by substrates that will
	// dispatch shards concurrently. The protocol must route every
	// cross-shard handoff (e.g. instance commits feeding the ordering
	// stage) through post from then on. Substrates that serialize all
	// events never call it.
	BindShards(post ShardPoster)
}

// ShardPoster schedules a function to run serialized with the events of
// one shard (an instance id, or OrderingShard). A posted function never
// runs inside the posting call: it runs as its own event after the target
// shard's current handler returns. Posts from one shard to another are FIFO
// per (source, target) pair and must never be shed — protocols key
// liveness-critical handoffs (commit delivery, checkpoint garbage
// collection) on them.
type ShardPoster interface {
	PostShard(shard int32, fn func())
}

// Quorum returns the n−f quorum size.
func Quorum(n, f int) int { return n - f }

// Weak returns the f+1 weak-quorum size (at least one non-faulty member).
func Weak(f int) int { return f + 1 }

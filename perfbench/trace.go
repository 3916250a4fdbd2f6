package main

import (
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/runtime"
	"spotless/internal/types"
	"spotless/internal/wal"
)

// Counter indices into tracer.c and counters.
const (
	signN = iota
	signNs
	verifyN
	verifyNs
	macNs
	handlerN
	handlerNs
	execN
	execNs
	hostNs // every core.StateHost call
	walNs
	walExecNs // WAL time inside Execute
	walWriteB
	frames // inbound messages handed to the node
	nCounters
)

// tracer accumulates one replica's per-layer counts and busy times. The
// wrappers below record into it around every call the runtime makes into
// a layer through a public interface; spans nest as handler ⊃ {execute,
// state host, sign} and {execute, state host} ⊃ WAL, so each layer's self
// time is its span minus the nested ones.
type tracer struct {
	c [nCounters]atomic.Int64

	inflight, maxInfl atomic.Int64 // concurrently running handlers (sharded lanes)
	sharded           atomic.Bool  // BindShards reached the protocol
	ingressJobs       atomic.Int64 // IngressJob calls (transport screening)
	inExec            atomic.Bool  // attributes WAL time to execution or checkpointing

	mu          sync.Mutex
	digestDur   []time.Duration // StateDigest (snapshot capture)
	persistDur  []time.Duration // PersistCheckpoint
	fsyncDur    []time.Duration
	recordTimes bool // durations are kept only inside the window
}

func (t *tracer) record(list *[]time.Duration, d time.Duration) {
	t.mu.Lock()
	if t.recordTimes {
		*list = append(*list, d)
	}
	t.mu.Unlock()
}

// window starts or ends duration sampling; starting clears old samples.
func (t *tracer) window(on bool) {
	t.mu.Lock()
	if on {
		t.digestDur, t.persistDur, t.fsyncDur = nil, nil, nil
	}
	t.recordTimes = on
	t.mu.Unlock()
}

func (t *tracer) enter() time.Time {
	n := t.inflight.Add(1)
	for {
		m := t.maxInfl.Load()
		if n <= m || t.maxInfl.CompareAndSwap(m, n) {
			break
		}
	}
	return time.Now()
}

func (t *tracer) exit(start time.Time) {
	t.c[handlerNs].Add(int64(time.Since(start)))
	t.c[handlerN].Add(1)
	t.inflight.Add(-1)
}

// timed adds the time since start to counter ns and one to counter n.
func (t *tracer) timed(n, ns int, start time.Time) {
	t.c[ns].Add(int64(time.Since(start)))
	t.c[n].Add(1)
}

// counters is a point-in-time copy of a tracer's totals.
type counters [nCounters]int64

func (t *tracer) snapshot() (c counters) {
	for i := range c {
		c[i] = t.c[i].Load()
	}
	return c
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// tracedCrypto wraps the replica's provider; one instance serves both the
// node (signing, pool verification) and the transport (frame MACs).
type tracedCrypto struct {
	p crypto.Provider
	t *tracer
}

var _ crypto.Provider = (*tracedCrypto)(nil)

func (c *tracedCrypto) ID() types.NodeID { return c.p.ID() }

func (c *tracedCrypto) Sign(msg []byte) types.Signature {
	defer c.t.timed(signN, signNs, time.Now())
	return c.p.Sign(msg)
}

func (c *tracedCrypto) Verify(sig types.Signature, msg []byte) error {
	defer c.t.timed(verifyN, verifyNs, time.Now())
	return c.p.Verify(sig, msg)
}

func (c *tracedCrypto) MAC(to types.NodeID, msg []byte) []byte {
	start := time.Now()
	mac := c.p.MAC(to, msg)
	c.t.c[macNs].Add(int64(time.Since(start)))
	return mac
}

func (c *tracedCrypto) VerifyMAC(from types.NodeID, msg, mac []byte) error {
	start := time.Now()
	err := c.p.VerifyMAC(from, msg, mac)
	c.t.c[macNs].Add(int64(time.Since(start)))
	return err
}

// tracedProto wraps the SpotLess replica handed to Node.SetProtocol. It
// forwards every optional interface the runtime and transport look for —
// ShardedProtocol, IngressVerifier, VerifyConsumer — and times each event
// handler, including functions posted across shards.
type tracedProto struct {
	r *core.Replica
	t *tracer
}

var (
	_ protocol.ShardedProtocol = (*tracedProto)(nil)
	_ protocol.IngressVerifier = (*tracedProto)(nil)
	_ protocol.VerifyConsumer  = (*tracedProto)(nil)
)

func (p *tracedProto) Start() {
	s := p.t.enter()
	p.r.Start()
	p.t.exit(s)
}

func (p *tracedProto) HandleMessage(from types.NodeID, msg types.Message) {
	s := p.t.enter()
	p.r.HandleMessage(from, msg)
	p.t.exit(s)
}

func (p *tracedProto) HandleTimer(tag protocol.TimerTag) {
	s := p.t.enter()
	p.r.HandleTimer(tag)
	p.t.exit(s)
}

func (p *tracedProto) HandleVerified(tag protocol.TimerTag, ok bool) {
	s := p.t.enter()
	p.r.HandleVerified(tag, ok)
	p.t.exit(s)
}

func (p *tracedProto) ShardCount() int                    { return p.r.ShardCount() }
func (p *tracedProto) InstanceOf(msg types.Message) int32 { return p.r.InstanceOf(msg) }

func (p *tracedProto) BindShards(post protocol.ShardPoster) {
	p.t.sharded.Store(true)
	p.r.BindShards(tracedPoster{post: post, t: p.t})
}

func (p *tracedProto) IngressJob(from types.NodeID, msg types.Message) (protocol.VerifyJob, bool) {
	p.t.ingressJobs.Add(1)
	return p.r.IngressJob(from, msg)
}

// tracedPoster times cross-shard handoffs (commit delivery to the ordering
// stage, checkpoint GC) as handler events of their target shard.
type tracedPoster struct {
	post protocol.ShardPoster
	t    *tracer
}

func (tp tracedPoster) PostShard(shard int32, fn func()) {
	tp.post.PostShard(shard, func() {
		s := tp.t.enter()
		fn()
		tp.t.exit(s)
	})
}

// tracedExec wraps the ReplicaExecutor as both runtime.Executor and
// core.StateHost.
type tracedExec struct {
	e *runtime.ReplicaExecutor
	t *tracer
}

var (
	_ runtime.Executor = (*tracedExec)(nil)
	_ core.StateHost   = (*tracedExec)(nil)
)

func (x *tracedExec) Execute(c types.Commit) {
	x.t.inExec.Store(true)
	start := time.Now()
	x.e.Execute(c)
	x.t.timed(execN, execNs, start)
	x.t.inExec.Store(false)
}

// host times one StateHost call into the checkpoint layer.
func (x *tracedExec) host(start time.Time) time.Duration {
	d := time.Since(start)
	x.t.c[hostNs].Add(int64(d))
	return d
}

func (x *tracedExec) StateDigest(height uint64, execHash types.Digest) types.Digest {
	start := time.Now()
	d := x.e.StateDigest(height, execHash)
	x.t.record(&x.t.digestDur, x.host(start))
	return d
}

func (x *tracedExec) PersistCheckpoint(cert types.CheckpointCert, execHash, resume types.Digest, anchors []types.Anchor) {
	start := time.Now()
	x.e.PersistCheckpoint(cert, execHash, resume, anchors)
	x.t.record(&x.t.persistDur, x.host(start))
}

func (x *tracedExec) TruncateBelow(height uint64) {
	defer x.host(time.Now())
	x.e.TruncateBelow(height)
}

func (x *tracedExec) FetchBlocks(from uint64, max int) []types.BlockRecord {
	defer x.host(time.Now())
	return x.e.FetchBlocks(from, max)
}

func (x *tracedExec) Head() (uint64, types.Digest) {
	defer x.host(time.Now())
	return x.e.Head()
}

func (x *tracedExec) BlockHash(height uint64) (types.Digest, bool) {
	defer x.host(time.Now())
	return x.e.BlockHash(height)
}

func (x *tracedExec) InstallState(chunk *types.StateChunk) error {
	defer x.host(time.Now())
	return x.e.InstallState(chunk)
}

func (x *tracedExec) StateSnapshot(height uint64) []byte {
	defer x.host(time.Now())
	return x.e.StateSnapshot(height)
}

// tracedFS wraps the OS filesystem under the WAL store.
type tracedFS struct {
	fs wal.FS
	t  *tracer
}

var _ wal.FS = (*tracedFS)(nil)

func (f *tracedFS) op(start time.Time) {
	d := int64(time.Since(start))
	f.t.c[walNs].Add(d)
	if f.t.inExec.Load() {
		f.t.c[walExecNs].Add(d)
	}
}

func (f *tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	defer f.op(time.Now())
	file, err := f.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Rename(oldname, newname string) error {
	defer f.op(time.Now())
	return f.fs.Rename(oldname, newname)
}

func (f *tracedFS) Remove(name string) error {
	defer f.op(time.Now())
	return f.fs.Remove(name)
}

func (f *tracedFS) ReadDir(dir string) ([]string, error) {
	defer f.op(time.Now())
	return f.fs.ReadDir(dir)
}

func (f *tracedFS) MkdirAll(dir string) error {
	defer f.op(time.Now())
	return f.fs.MkdirAll(dir)
}

type tracedFile struct {
	wal.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	defer f.fs.op(time.Now())
	n, err := f.File.Write(p)
	f.fs.t.c[walWriteB].Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.op(start)
	f.fs.t.record(&f.fs.t.fsyncDur, time.Since(start))
	return err
}

func (f *tracedFile) Truncate(size int64) error {
	defer f.fs.op(time.Now())
	return f.File.Truncate(size)
}

func (f *tracedFile) Close() error {
	defer f.fs.op(time.Now())
	return f.File.Close()
}

// quantile returns the q-quantile of ds (nearest rank), 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

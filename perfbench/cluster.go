package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/dissem"
	"spotless/internal/ledger"
	"spotless/internal/protocol"
	"spotless/internal/runtime"
	"spotless/internal/transport"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// Replica settings mirrored from cmd/spotless-replica's flag defaults. Only
// the workload columns (ordering mode, table size, WAL) differ per workload.
const (
	clusterN        = 4
	clusterM        = 4 // -instances 0 = n
	clusterF        = (clusterN - 1) / 3
	secret          = "spotless-demo"
	recordSize      = 64
	viewTimeout     = 150 * time.Millisecond // -timeout
	idleBackoff     = 25 * time.Millisecond  // -idle-backoff
	checkpointEvery = 128                    // -checkpoint-interval
	checkpointFetch = 512                    // -checkpoint-fetch-cap
)

// replica is one wired replica: the same objects cmd/spotless-replica
// builds, plus the tracer when the run is traced.
type replica struct {
	id    types.NodeID
	tr    *transport.TCP
	node  *runtime.Node
	rep   *core.Replica
	exec  *runtime.ReplicaExecutor
	lg    *ledger.Ledger
	store *wal.Store // nil unless the workload is durable
	trace *tracer    // nil in untraced runs
	down  bool       // stopped by the crash workload
}

// cluster is an n=4 SpotLess deployment over TCP loopback in this process,
// driven by one load generator and answered over one client endpoint.
type cluster struct {
	reps   []*replica
	client *transport.TCP
	walDir string
}

// buildCluster wires every replica as cmd/spotless-replica does and dials
// the mesh and the client endpoint. It returns before any Node.Start, so
// the time it takes is the benchmark's set-up time.
func buildCluster(w workload, src *source, c *client, traced bool, tmpRoot string) (*cluster, error) {
	cl := &cluster{}
	ok := false
	defer func() {
		if !ok {
			cl.close()
		}
	}()
	ids := make([]types.NodeID, 0, clusterN+1)
	for i := 0; i < clusterN; i++ {
		ids = append(ids, types.NodeID(i))
	}
	ids = append(ids, types.ClientIDBase)
	ring := crypto.NewKeyring([]byte(secret), ids)
	if w.durable {
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, fmt.Errorf("wal temp dir: %w", err)
		}
		cl.walDir = dir
	}

	addrs := make(map[types.NodeID]string, clusterN)
	for i := 0; i < clusterN; i++ {
		r, err := buildReplica(w, ring, types.NodeID(i), src, traced, cl.walDir)
		if r != nil {
			cl.reps = append(cl.reps, r)
		}
		if err != nil {
			return nil, err
		}
		addrs[r.id] = r.tr.Addr()
	}

	cprov, err := ring.Provider(types.ClientIDBase)
	if err != nil {
		return nil, err
	}
	cl.client = transport.New(transport.Config{ID: types.ClientIDBase, Peers: addrs, Crypto: cprov})
	cl.client.Register(types.ClientIDBase, c.receive)
	if err := cl.client.Start(); err != nil {
		return nil, err
	}
	c.send = func(to types.NodeID, b *types.Batch) {
		cl.client.Send(types.ClientIDBase, to, &types.Request{Batch: b})
	}
	for _, r := range cl.reps {
		if err := r.tr.DialPeers(addrs); err != nil {
			return nil, err
		}
	}
	ok = true
	return cl, nil
}

// buildReplica follows cmd/spotless-replica's main step for step. The
// listener binds an ephemeral port, so peers are dialled once every
// listener is known (buildCluster) instead of at transport Start.
func buildReplica(w workload, ring *crypto.Keyring, id types.NodeID, src *source, traced bool, walDir string) (*replica, error) {
	prov, err := ring.Provider(id)
	if err != nil {
		return nil, err
	}
	r := &replica{id: id}
	var cp crypto.Provider = prov
	if traced {
		r.trace = &tracer{}
		cp = &tracedCrypto{p: prov, t: r.trace}
	}
	r.tr = transport.New(transport.Config{ID: id, Listen: "127.0.0.1:0", Crypto: cp})
	if err := r.tr.Start(); err != nil {
		return r, err
	}

	store := ycsb.NewStore(w.records, recordSize)
	r.lg = ledger.New()
	var resume *core.ResumeState
	var snapData []byte
	if w.durable {
		var fsys wal.FS
		if traced {
			fsys = &tracedFS{fs: wal.OSFS(), t: r.trace}
		}
		dir := filepath.Join(walDir, fmt.Sprintf("r%d", id))
		r.lg, r.store, resume, snapData, err = runtime.OpenDurable(dir, wal.Config{FS: fsys, Fsync: wal.FsyncPerCommit, Logf: logf})
		if err != nil {
			return r, fmt.Errorf("open %s: %w", dir, err)
		}
	}
	r.exec = runtime.NewReplicaExecutor(id, store, r.lg, r.tr, types.ClientIDBase)
	if r.store != nil {
		r.exec.BindDurable(r.store)
	}
	var exec runtime.Executor = r.exec
	var host core.StateHost = r.exec
	if traced {
		te := &tracedExec{e: r.exec, t: r.trace}
		exec, host = te, te
	}

	r.node = runtime.NewNode(runtime.NodeConfig{
		ID: id, N: clusterN, F: clusterF,
		Transport: r.tr, Crypto: cp, Source: src,
		Executor:    exec,
		PreVerified: true,
		Workers:     runtime.AutoWorkers(0, clusterM),
	})
	// The replica binary's receiver: client Requests are answered from the
	// reply cache or queued for proposal; everything else goes to the node.
	r.tr.Register(id, func(from types.NodeID, msg types.Message) {
		if req, ok := msg.(*types.Request); ok {
			if req.Batch != nil {
				if results, done := r.exec.Reply(req.Batch.ID); done {
					r.tr.Send(id, from, &types.Inform{Replica: id, BatchID: req.Batch.ID, Results: results})
					return
				}
				src.offer(w.laneFor(id, req.Batch), req.Batch)
			}
			return
		}
		if r.trace != nil {
			r.trace.c[frames].Add(1)
		}
		r.node.Inject(from, msg)
	})

	cfg := core.DefaultConfig(clusterN, clusterM)
	cfg.InitialRecordingTimeout = viewTimeout
	cfg.InitialCertifyTimeout = viewTimeout
	cfg.MinTimeout = viewTimeout / 8
	cfg.IdleBackoff = idleBackoff
	cfg.CheckpointInterval = checkpointEvery
	cfg.CheckpointFetchCap = checkpointFetch
	cfg.Host = host
	if w.codeK > 0 {
		cfg.Dissem = dissem.New(dissem.Config{N: clusterN, F: clusterF, CodeK: w.codeK})
	}
	if err := runtime.ApplyResume(resume, snapData, &cfg, cp, r.exec); err != nil {
		return r, fmt.Errorf("resume: %w", err)
	}
	r.rep = core.New(r.node, cfg)
	var proto protocol.Protocol = r.rep
	var ingress protocol.IngressVerifier = r.rep
	if traced {
		tp := &tracedProto{r: r.rep, t: r.trace}
		proto, ingress = tp, tp
	}
	r.node.SetProtocol(proto)
	r.tr.SetIngress(ingress, r.node.Verifier())
	return r, nil
}

func (cl *cluster) start() {
	for _, r := range cl.reps {
		r.node.Start()
	}
}

// crash stops replica i's node and transport, as a killed process would.
func (cl *cluster) crash(i int) {
	r := cl.reps[i]
	r.node.Stop()
	r.tr.Close()
	r.down = true
}

// stop halts every node and endpoint and closes the WAL stores cleanly.
// Nodes stop first so no handler runs while ledgers are checked. The
// endpoints close concurrently, as separate processes would: TCP.Close
// waits for its readers, and a connection it accepted while closing is
// only torn down when the dialling peer closes its end.
func (cl *cluster) stop() error {
	for _, r := range cl.reps {
		if r.node != nil {
			r.node.Stop()
		}
	}
	var wg sync.WaitGroup
	closeAsync := func(tr *transport.TCP) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Close()
		}()
	}
	for _, r := range cl.reps {
		closeAsync(r.tr)
	}
	if cl.client != nil {
		closeAsync(cl.client)
	}
	wg.Wait()
	var first error
	for _, r := range cl.reps {
		if r.store != nil {
			if err := r.store.Close(); err != nil && first == nil {
				first = fmt.Errorf("replica %d wal close: %w", r.id, err)
			}
		}
	}
	return first
}

// close stops the cluster and removes its WAL directory.
func (cl *cluster) close() {
	_ = cl.stop()
	if cl.walDir != "" {
		_ = os.RemoveAll(cl.walDir)
	}
}

// checkLedgers is the run's end-state correctness check: every ledger's
// hash chain verifies, no WAL mirror degraded, and all replicas hold the
// same block at every height they both retain (checkpoints prune each
// ledger below its own stable height, so the common range is compared,
// along with the resume hash where one ledger's base lies inside another's
// retained range).
func (cl *cluster) checkLedgers() error {
	for _, r := range cl.reps {
		if err := r.lg.Verify(); err != nil {
			return fmt.Errorf("replica %d ledger: %w", r.id, err)
		}
		if err := r.lg.StoreErr(); err != nil {
			return fmt.Errorf("replica %d ledger persistence: %w", r.id, err)
		}
	}
	for i, a := range cl.reps {
		for _, b := range cl.reps[i+1:] {
			if err := agree(a.lg, b.lg); err != nil {
				return fmt.Errorf("replicas %d and %d: %w", a.id, b.id, err)
			}
		}
	}
	return nil
}

func agree(a, b *ledger.Ledger) error {
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Height > sb.Height {
		a, b, sa, sb = b, a, sb, sa
	}
	// sa.Height ≤ sb.Height: b's resume hash is the hash of a's block below it.
	if sb.Height > sa.Height {
		if blk, ok := a.Block(sb.Height - 1); ok && blk.Hash != sb.Resume {
			return fmt.Errorf("resume hash differs at height %d", sb.Height)
		}
	}
	end := min(a.Height(), b.Height())
	for h := sb.Height; h < end; h++ {
		x, _ := a.Block(h)
		y, _ := b.Block(h)
		if x.Hash != y.Hash {
			return fmt.Errorf("block %d differs", h)
		}
	}
	return nil
}

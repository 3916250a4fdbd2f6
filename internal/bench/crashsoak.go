package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"spotless/internal/runtime"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// This file is the crash/disk-fault chaos soak: the durability proof for
// execution snapshots. Each seeded run drives a live durable cluster, then
// repeatedly kill-9s a victim under load, injects a disk fault from a
// seeded menu — bit flips and truncations on the snapshot file at rest,
// snapshot loss, segment corruption, fsync failures at snapshot-write time,
// a power cut dropping unsynced bytes — and restarts it. The invariant: at
// quiescence every replica's YCSB table byte-matches the never-crashed
// control replica, cold keys included. Restores, forward-replay fallbacks,
// and quarantines are tallied so the run also shows WHICH recovery path
// each fault exercised — a soak where every fault healed through the clean
// path would prove much less.

// CrashSoakOptions parameterizes the soak.
type CrashSoakOptions struct {
	Seeds    int   // seeded runs (default 20)
	SeedBase int64 // first seed of the sweep (default 1)
	Episodes int   // kill/fault/restart episodes per seed (default 2)
	// CheckpointInterval is the stable-frontier stride (default 8: several
	// checkpoints — and snapshots — per episode).
	CheckpointInterval int
	Records            uint64 // YCSB table size (default 256; snapshots stay small)
}

// WithDefaults resolves zero values.
func (o CrashSoakOptions) WithDefaults() CrashSoakOptions {
	if o.Seeds == 0 {
		o.Seeds = 20
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	if o.Episodes == 0 {
		o.Episodes = 2
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 8
	}
	if o.Records == 0 {
		o.Records = 256
	}
	return o
}

// Crash-soak disk-fault kinds. "none" is the pure kill-9; the rest corrupt
// or destroy durable state while (or just before) the victim is down.
const (
	faultNone         = "none"
	faultSnapFlip     = "snap-flip"     // one bit flipped in the snapshot body
	faultSnapTruncate = "snap-truncate" // snapshot tail torn at rest
	faultSnapRemove   = "snap-remove"   // snapshot lost, manifest intact
	faultSegFlip      = "segment-flip"  // ledger segment bit flip
	faultSyncFail     = "sync-fail"     // disk rejects fsyncs at snapshot-write time
	faultPowerCut     = "power-cut"     // machine loses power: unsynced bytes gone
)

var crashFaults = []string{faultNone, faultSnapFlip, faultSnapTruncate,
	faultSnapRemove, faultSegFlip, faultSyncFail, faultPowerCut}

// CrashSoakSeed is one seeded run's outcome.
type CrashSoakSeed struct {
	Seed        int64
	Shape       string   // substrate shape (see crashShape)
	Faults      []string // fault kind per episode, in order
	Restored    uint64   // snapshot restores across all victim restarts
	Fallbacks   int      // forward-replay fallbacks (loss/corruption signature)
	Quarantined int      // snapshot files renamed aside
	Converge    time.Duration
	Diverged    bool
	Report      string
}

// CrashSoakResult aggregates the soak.
type CrashSoakResult struct {
	Options     CrashSoakOptions
	Seeds       []CrashSoakSeed
	Divergent   int
	Restored    uint64
	Fallbacks   int
	Quarantined int
}

// RunCrashSoak sweeps the seeds.
func RunCrashSoak(o CrashSoakOptions) (CrashSoakResult, error) {
	o = o.WithDefaults()
	res := CrashSoakResult{Options: o}
	for seed := o.SeedBase; seed < o.SeedBase+int64(o.Seeds); seed++ {
		sr, err := runCrashSeed(o, seed)
		if err != nil {
			return res, fmt.Errorf("crashsoak seed %d: %w", seed, err)
		}
		res.Seeds = append(res.Seeds, sr)
		if sr.Diverged {
			res.Divergent++
		}
		res.Restored += sr.Restored
		res.Fallbacks += sr.Fallbacks
		res.Quarantined += sr.Quarantined
	}
	return res, nil
}

// snapStats is the snapshot slice of one replica's WAL counters.
type snapStats struct {
	restored    uint64
	fallbacks   int
	quarantined int
}

func snapStatsOf(st *wal.Store) snapStats {
	s := st.Stats()
	return snapStats{restored: s.SnapshotsRestored, fallbacks: s.RestoreFallbacks,
		quarantined: s.SnapshotsQuarantined}
}

// crashShape picks the seed's substrate shape from its parity, set
// explicitly so it does not depend on the host's core count: odd seeds run
// the serialized replica (one instance on one event loop, handoffs through
// the replica's own deferred queue), even seeds run it sharded (four
// instances over two instance workers plus the ordering stage, handoffs
// through the runtime's mailboxes).
func crashShape(seed int64) (instances, workers int, shape string) {
	if seed%2 == 0 {
		return 4, 2, "m=4/w=2"
	}
	return 1, 1, "m=1/w=1"
}

func runCrashSeed(o CrashSoakOptions, seed int64) (CrashSoakSeed, error) {
	instances, workers, shape := crashShape(seed)
	sr := CrashSoakSeed{Seed: seed, Shape: shape}
	rng := rand.New(rand.NewSource(seed))
	const n = 4
	fss := make([]*wal.MemFS, n)
	for i := range fss {
		fss[i] = wal.NewMemFS()
	}
	src := newCrashSource(seed, 600)
	done := make(chan struct{}, 4096)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: n, Instances: instances, InstanceWorkers: workers, Source: src,
		Records:            o.Records,
		CheckpointInterval: o.CheckpointInterval,
		DataDir:            "crashsoak",
		FSFor:              func(i int) wal.FS { return fss[i] },
		OnDone: func(types.Digest) {
			select {
			case done <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		return sr, err
	}
	defer cl.Stop()

	await := func(k int, what string) error {
		deadline := time.After(60 * time.Second)
		for i := 0; i < k; i++ {
			select {
			case <-done:
			case <-deadline:
				return fmt.Errorf("timed out waiting for %s (%d/%d batches):\n%s", what, i, k, progressReport(cl))
			}
		}
		return nil
	}
	if err := await(o.CheckpointInterval+4, "warmup commits"); err != nil {
		return sr, err
	}
	// Pace the run so the frontier advances predictably relative to kills
	// and rejoins (the powercut drill's rationale).
	src.SetPace(3 * time.Millisecond)

	start := time.Now()
	for ep := 0; ep < o.Episodes; ep++ {
		// Victims are drawn from [1, n): replica 0 is the never-crashed
		// control every table is compared against.
		victim := 1 + rng.Intn(n-1)
		fault := crashFaults[rng.Intn(len(crashFaults))]
		sr.Faults = append(sr.Faults, fmt.Sprintf("r%d:%s", victim, fault))
		dir := fmt.Sprintf("crashsoak/r%d", victim)

		// Wait until the victim has persisted a snapshot (so the fault has
		// something to corrupt).
		deadline := time.Now().Add(60 * time.Second)
		for cl.Stores[victim].Stats().SnapshotsWritten == 0 {
			if time.Now().After(deadline) {
				return sr, errors.New("victim never persisted a snapshot")
			}
			select {
			case <-done:
			case <-time.After(5 * time.Millisecond):
			}
		}
		if fault == faultSyncFail {
			// Disk starts rejecting fsyncs while the victim is still up: the
			// next checkpoint's snapshot save (and any append sync) fails
			// live, then the process dies.
			fss[victim].FailSyncs(errors.New("crashsoak: injected fsync EIO"))
			_ = await(o.CheckpointInterval+2, "sync-fail window")
		}
		cl.Kill(victim)
		injectAtRest(fss[victim], dir, fault, rng)
		// Outage spans ≥2 checkpoint strides so the cluster's stable frontier
		// passes the victim's resume cut — its rejoin then runs through state
		// transfer, whose chunk carries the healing snapshot.
		if err := await(2*o.CheckpointInterval+4, "outage commits"); err != nil {
			return sr, err
		}
		fss[victim].FailSyncs(nil) // the transient disk error clears
		if err := cl.Restart(victim); err != nil {
			return sr, err
		}
		// Restart opened a fresh WAL store whose counters start at zero, so
		// its stats right now are exactly what recovery did — no delta against
		// the pre-kill instance (whose counters died with it).
		post := snapStatsOf(cl.Stores[victim])
		sr.Restored += post.restored
		sr.Fallbacks += post.fallbacks
		sr.Quarantined += post.quarantined
		// Let the victim rejoin before the next episode picks a new victim.
		deadline = time.Now().Add(60 * time.Second)
		for cl.Replicas[victim].StableHeight() < cl.Replicas[0].StableHeight() {
			if time.Now().After(deadline) {
				return sr, fmt.Errorf("victim %d never rejoined after %s", victim, fault)
			}
			select {
			case <-done:
			case <-time.After(5 * time.Millisecond):
			}
		}
	}

	// Quiesce: drain the source, let every in-flight commit land, then
	// compare the tables — byte-for-byte, cold keys included.
	src.SetPace(0)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if src.Drained() && tablesConverged(cl) {
			break
		}
		if time.Now().After(deadline) {
			sr.Diverged = true
			sr.Report = divergenceReport(cl)
			sr.Converge = time.Since(start)
			return sr, nil
		}
		select {
		case <-done:
		case <-time.After(10 * time.Millisecond):
		}
	}
	sr.Converge = time.Since(start)
	return sr, nil
}

// injectAtRest applies the episode's disk fault to the dead victim's
// filesystem. Faults that need a live process (sync-fail) were injected
// before the kill; power-cut models the machine, not the disk.
func injectAtRest(fsys *wal.MemFS, dir, fault string, rng *rand.Rand) {
	find := func(prefix string) string {
		names, err := fsys.ReadDir(dir)
		if err != nil {
			return ""
		}
		for _, name := range names {
			if strings.HasPrefix(name, prefix) {
				return dir + "/" + name
			}
		}
		return ""
	}
	switch fault {
	case faultSnapFlip:
		if p := find("snap-"); p != "" {
			fsys.FlipBit(p, rng.Int63n(fsys.Size(p)), uint(rng.Intn(8)))
		}
	case faultSnapTruncate:
		if p := find("snap-"); p != "" {
			fsys.TruncateFile(p, fsys.Size(p)/2)
		}
	case faultSnapRemove:
		if p := find("snap-"); p != "" {
			_ = fsys.Remove(p)
		}
	case faultSegFlip:
		if p := find("seg-"); p != "" {
			fsys.FlipBit(p, rng.Int63n(fsys.Size(p)), uint(rng.Intn(8)))
		}
	case faultPowerCut:
		fsys.Crash()
	}
}

// tablesConverged reports whether every replica's table byte-matches the
// control (replica 0): same applied count, same record fingerprint.
func tablesConverged(cl *runtime.Cluster) bool {
	want := cl.Execs[0].Store().Fingerprint()
	applied := cl.Execs[0].Store().Applied()
	for i := 1; i < len(cl.Execs); i++ {
		if cl.Execs[i].Store().Applied() != applied ||
			cl.Execs[i].Store().Fingerprint() != want {
			return false
		}
	}
	return true
}

// progressReport renders each replica's stable height, delivered count and
// per-instance views (atomic mirrors, safe on live and killed replicas).
func progressReport(cl *runtime.Cluster) string {
	var b strings.Builder
	for i, r := range cl.Replicas {
		fmt.Fprintf(&b, "replica %d: stable=%d delivered=%d views=", i, r.StableHeight(), r.DeliveredCount())
		for j := 0; j < cl.M; j++ {
			fmt.Fprintf(&b, " %d", r.Instance(int32(j)).CurrentView())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// divergenceReport renders which replicas and keys disagree with the
// control — the forensic dump a failed soak leaves behind.
func divergenceReport(cl *runtime.Cluster) string {
	var b strings.Builder
	control := cl.Execs[0].Store().Dump()
	fmt.Fprintf(&b, "control applied=%d records=%d\n", cl.Execs[0].Store().Applied(), len(control))
	b.WriteString(progressReport(cl))
	for i := 1; i < len(cl.Execs); i++ {
		st := cl.Execs[i].Store()
		if st.Fingerprint() == cl.Execs[0].Store().Fingerprint() && st.Applied() == cl.Execs[0].Store().Applied() {
			continue
		}
		dump := st.Dump()
		fmt.Fprintf(&b, "replica %d applied=%d records=%d; first mismatches:", i, st.Applied(), len(dump))
		shown := 0
		for k, v := range control {
			if shown >= 5 {
				break
			}
			if string(dump[k]) != string(v) {
				fmt.Fprintf(&b, " key %d (%d vs %d bytes)", k, len(dump[k]), len(v))
				shown++
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// crashSource is the soak's seeded, paceable FIFO batch source.
type crashSource struct {
	pcSource
}

func newCrashSource(seed int64, batches int) *crashSource {
	wl := ycsb.NewWorkload(seed, types.ClientIDBase, 1000, 16)
	s := &crashSource{}
	for j := 0; j < batches; j++ {
		s.q = append(s.q, wl.NextBatch(5))
	}
	return s
}

// Drained reports whether every queued batch has been handed out.
func (s *crashSource) Drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q) == 0
}

// CrashSoakTable renders the soak result.
func CrashSoakTable(res CrashSoakResult) Table {
	t := Table{ID: "crashsoak",
		Title: fmt.Sprintf("crash/disk-fault soak: %d seeds × %d kill-9 episodes, checkpoint every %d",
			res.Options.Seeds, res.Options.Episodes, res.Options.CheckpointInterval),
		Headers: []string{"seed", "episodes (victim:fault)", "restored", "fallbacks", "quarantined", "converged", "in"}}
	for _, s := range res.Seeds {
		conv := "yes"
		if s.Diverged {
			conv = "DIVERGED"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d %s", s.Seed, s.Shape), strings.Join(s.Faults, " "),
			fmt.Sprintf("%d", s.Restored), fmt.Sprintf("%d", s.Fallbacks),
			fmt.Sprintf("%d", s.Quarantined), conv, lat(s.Converge)})
	}
	t.Rows = append(t.Rows, []string{"total",
		fmt.Sprintf("%d diverged", res.Divergent),
		fmt.Sprintf("%d", res.Restored), fmt.Sprintf("%d", res.Fallbacks),
		fmt.Sprintf("%d", res.Quarantined), "", ""})
	return t
}

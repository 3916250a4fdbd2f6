package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"spotless/internal/dissem"
	"spotless/internal/transport"
)

const (
	setupRepeats = 9                      // set-ups per untraced run; setup_s is their median
	warmup       = 2 * time.Second        // load before the window opens
	grace        = 16 * time.Second       // drain limit after the window: covers three re-offers (2+4+8 s)
	heapEvery    = 20 * time.Millisecond  // HeapInuse sampling period
	retxEvery    = 100 * time.Millisecond // client retransmission scan, as spotless-client
)

// sample is a point-in-time copy of every counter the run reads.
type sample struct {
	tc          counters
	tr          transport.Stats
	ds          dissem.Stats
	walSyncs    uint64
	views       []uint64 // per replica, summed over instances
	delivered   []uint64 // per replica
	resyncs     uint64
	resyncStall time.Duration
	dropped     uint64
	pulls       uint64
	empty       uint64
	retransmits int
	genNs       time.Duration
	cpu         time.Duration
	gcCPU       float64
	totalCPU    float64
}

// run is one measured cluster lifetime.
type run struct {
	w      workload
	traced bool
	setupS []float64
	window time.Duration

	attempted, failed int
	retransmits       int
	done              []completion // completions inside the window
	lags              []time.Duration
	stallMax          time.Duration
	heapPeak          uint64
	payloadAvg        float64
	violations        []string

	delta                            sample // window close minus window open
	viewsPerReplica, deliveredPerRep float64
	digestDur, persistDur, fsyncDur  []time.Duration
	maxInflight, ingressJobs         int64
	sharded                          bool
}

// measure sets the cluster up `setups` times (keeping the last), runs the
// warm-up and the window, drains, stops the cluster and checks it.
func measure(w workload, seed int64, window time.Duration, traced bool, setups int, tmp string) (*run, error) {
	r := &run{w: w, traced: traced, window: window}
	var (
		cl    *cluster
		c     *client
		src   *source
		start time.Time
	)
	clock := func() time.Duration { return time.Since(start) }
	for i := 0; i < setups; i++ {
		if cl != nil {
			cl.close()
		}
		src = newSource(w.streams())
		c = newClient(clock, newBatchGen(seed, w), src, w.perStream > 0, traced)
		goruntime.GC() // the previous set-up's garbage is not set-up work
		t0 := time.Now()
		var err error
		if cl, err = buildCluster(w, src, c, traced, tmp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	defer cl.close()

	start = time.Now()
	heap := startHeapSampler()
	cl.start()
	var wg sync.WaitGroup
	stopLoad, stopRetx := make(chan struct{}), make(chan struct{})
	var ol *openLoop
	if w.perStream > 0 {
		c.prime(w.perStream)
	} else {
		ol = &openLoop{interval: time.Duration(float64(time.Second) / w.rate), clock: clock, release: c.release}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ol.run(0, stopLoad)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(retxEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopRetx:
				return
			case <-tick.C:
				c.retransmit()
			}
		}
	}()

	time.Sleep(warmup)
	if w.crash {
		cl.crash(clusterN - 1)
	}
	open := clock()
	a := cl.sample(c, src)
	time.Sleep(window)
	b := cl.sample(c, src)
	shut := clock()
	close(stopLoad)
	c.stopIssuing()
	select {
	case <-c.drained:
	case <-time.After(grace):
	}
	close(stopRetx)
	wg.Wait()
	r.heapPeak = heap.stop()
	if err := cl.stop(); err != nil {
		r.violations = append(r.violations, err.Error())
	}
	if err := cl.checkLedgers(); err != nil {
		r.violations = append(r.violations, err.Error())
	}

	c.mu.Lock()
	r.attempted = c.attempted
	r.failed = len(c.pending)
	r.retransmits = c.retransmits
	if c.mismatches > 0 {
		r.violations = append(r.violations, fmt.Sprintf("%d Informs carried results that differ from the batch's execution", c.mismatches))
	}
	last := open
	for _, d := range c.completions {
		if d.at >= open && d.at < shut {
			r.done = append(r.done, d)
			r.stallMax = max(r.stallMax, d.at-last)
			last = d.at
		}
	}
	r.stallMax = max(r.stallMax, shut-last)
	lags := c.lags
	if ol != nil {
		lags = ol.samples()
	}
	for _, l := range lags {
		if l.due >= open && l.due < shut {
			r.lags = append(r.lags, l.lag)
		}
	}
	if c.attempted > 0 {
		r.payloadAvg = float64(c.payloadSum) / float64(c.attempted)
	}
	c.mu.Unlock()
	if len(r.done) == 0 {
		r.violations = append(r.violations, "no batch completed inside the window")
	}

	r.delta = b.sub(a)
	var live int
	for i, rep := range cl.reps {
		if rep.down {
			continue
		}
		live++
		r.viewsPerReplica += float64(r.delta.views[i])
		r.deliveredPerRep += float64(r.delta.delivered[i])
	}
	r.viewsPerReplica /= float64(live)
	r.deliveredPerRep /= float64(live)
	for _, rep := range cl.reps {
		if t := rep.trace; t != nil {
			t.mu.Lock()
			r.digestDur = append(r.digestDur, t.digestDur...)
			r.persistDur = append(r.persistDur, t.persistDur...)
			r.fsyncDur = append(r.fsyncDur, t.fsyncDur...)
			t.mu.Unlock()
			r.maxInflight = max(r.maxInflight, t.maxInfl.Load())
			r.ingressJobs += t.ingressJobs.Load()
			r.sharded = r.sharded || t.sharded.Load()
		}
	}
	return r, nil
}

// sample reads every counter; in traced runs it also toggles the tracers'
// duration sampling so only window events are kept.
func (cl *cluster) sample(c *client, src *source) sample {
	s := sample{views: make([]uint64, len(cl.reps)), delivered: make([]uint64, len(cl.reps))}
	for i, r := range cl.reps {
		if t := r.trace; t != nil {
			s.tc = s.tc.add(t.snapshot())
			t.mu.Lock()
			opening := !t.recordTimes
			t.mu.Unlock()
			t.window(opening)
		}
		st := r.tr.Stats()
		s.tr.Encodes += st.Encodes
		s.tr.QueueSheds += st.QueueSheds
		s.tr.IngressDrops += st.IngressDrops
		s.tr.MACRejections += st.MACRejections
		s.tr.BytesOut += st.BytesOut
		if l := r.rep.DissemLayer(); l != nil {
			s.ds = addDissem(s.ds, l.Stats())
		}
		if r.store != nil {
			s.walSyncs += r.store.Stats().Syncs
		}
		for in := 0; in < clusterM; in++ {
			s.views[i] += uint64(r.rep.Instance(int32(in)).CurrentView())
		}
		s.delivered[i] = r.rep.DeliveredCount()
		s.resyncs += r.rep.Resyncs()
		s.resyncStall += r.rep.TotalResyncStall()
		s.dropped += r.node.Dropped()
	}
	s.pulls, s.empty = src.counts()
	c.mu.Lock()
	s.retransmits, s.genNs = c.retransmits, c.genNs
	c.mu.Unlock()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(ms)
	s.gcCPU, s.totalCPU = floatOf(ms[0]), floatOf(ms[1])
	return s
}

func floatOf(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func addDissem(a, b dissem.Stats) dissem.Stats {
	a.Disseminated += b.Disseminated
	a.CertsBuilt += b.CertsBuilt
	a.Backfills += b.Backfills
	a.Requeued += b.Requeued
	a.PushedBytes += b.PushedBytes
	a.ChunkPulls += b.ChunkPulls
	a.Reconstructions += b.Reconstructions
	return a
}

func (s sample) sub(o sample) sample {
	d := sample{
		tc:          s.tc.sub(o.tc),
		walSyncs:    s.walSyncs - o.walSyncs,
		resyncs:     s.resyncs - o.resyncs,
		resyncStall: s.resyncStall - o.resyncStall,
		dropped:     s.dropped - o.dropped,
		pulls:       s.pulls - o.pulls,
		empty:       s.empty - o.empty,
		retransmits: s.retransmits - o.retransmits,
		genNs:       s.genNs - o.genNs,
		cpu:         s.cpu - o.cpu,
		gcCPU:       s.gcCPU - o.gcCPU,
		totalCPU:    s.totalCPU - o.totalCPU,
	}
	d.tr.Encodes = s.tr.Encodes - o.tr.Encodes
	d.tr.QueueSheds = s.tr.QueueSheds - o.tr.QueueSheds
	d.tr.IngressDrops = s.tr.IngressDrops - o.tr.IngressDrops
	d.tr.MACRejections = s.tr.MACRejections - o.tr.MACRejections
	d.tr.BytesOut = s.tr.BytesOut - o.tr.BytesOut
	d.ds.Disseminated = s.ds.Disseminated - o.ds.Disseminated
	d.ds.CertsBuilt = s.ds.CertsBuilt - o.ds.CertsBuilt
	d.ds.Backfills = s.ds.Backfills - o.ds.Backfills
	d.ds.Requeued = s.ds.Requeued - o.ds.Requeued
	d.ds.PushedBytes = s.ds.PushedBytes - o.ds.PushedBytes
	d.ds.ChunkPulls = s.ds.ChunkPulls - o.ds.ChunkPulls
	d.ds.Reconstructions = s.ds.Reconstructions - o.ds.Reconstructions
	for i := range s.views {
		d.views = append(d.views, s.views[i]-o.views[i])
		d.delivered = append(d.delivered, s.delivered[i]-o.delivered[i])
	}
	return d
}

func (r *run) throughput() float64 {
	var txns int
	for _, d := range r.done {
		txns += d.txns
	}
	return float64(txns) / r.window.Seconds() / 1000
}

func (r *run) latencies() []time.Duration {
	ls := make([]time.Duration, len(r.done))
	for i, d := range r.done {
		ls[i] = d.latency
	}
	return ls
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd adds the untraced run's user-visible metrics.
func (r *run) endToEnd(res *result) {
	ls := r.latencies()
	res.add("throughput_ktxn_s", r.throughput(), "ktxn/s")
	res.add("latency_p50_ms", ms(quantile(ls, 0.50)), "ms")
	res.add("latency_p99_ms", ms(quantile(ls, 0.99)), "ms")
	res.add("setup_s", median(r.setupS), "s")
	res.add("heap_peak_mb", float64(r.heapPeak)/(1<<20), "MB")
}

// perLayer adds the traced run's per-layer metrics, per committed batch
// and summed over replicas unless the name says otherwise, plus the
// tracing overhead against the untraced run of the same invocation.
func (r *run) perLayer(res *result, plain *run) {
	d := r.delta
	batches := float64(max(len(r.done), 1))
	perBatch := func(x float64) float64 { return x / batches }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	tc := d.tc

	res.add("trace.overhead_frac", 1-r.throughput()/max(plain.throughput(), 1e-9), "fraction")
	res.add("failed_frac", float64(plain.failed)/float64(max(plain.attempted, 1)), "fraction")

	res.add("crypto.sign_per_batch", perBatch(float64(tc[signN])), "count")
	res.add("crypto.sign_us_per_batch", perBatch(us(tc[signNs])), "us")
	res.add("crypto.verify_per_batch", perBatch(float64(tc[verifyN])), "count")
	res.add("crypto.verify_us_per_batch", perBatch(us(tc[verifyNs])), "us")
	res.add("crypto.mac_us_per_batch", perBatch(us(tc[macNs])), "us")

	coreNs := max(tc[handlerNs]-tc[execNs]-tc[hostNs]-tc[signNs], 0)
	res.add("core.handler_us_per_batch", perBatch(us(coreNs)), "us")
	res.add("core.handler_calls_per_batch", perBatch(float64(tc[handlerN])), "count")
	res.add("core.views_per_batch", r.viewsPerReplica/batches, "count")
	noop := 0.0
	if r.viewsPerReplica > 0 {
		noop = max(0, 1-r.deliveredPerRep/r.viewsPerReplica)
	}
	res.add("core.noop_frac", noop, "fraction")
	res.add("core.resyncs", float64(d.resyncs), "count")
	res.add("core.resync_stall_ms", ms(d.resyncStall), "ms")
	res.add("core.stall_max_ms", ms(r.stallMax), "ms")

	emptyFrac := 0.0
	if d.pulls > 0 {
		emptyFrac = float64(d.empty) / float64(d.pulls)
	}
	res.add("loadgen.empty_pull_frac", emptyFrac, "fraction")
	res.add("loadgen.retransmits_per_kbatch", 1000*perBatch(float64(d.retransmits)), "count")
	res.add("loadgen.lag_p99_ms", ms(quantile(r.lags, 0.99)), "ms")

	res.add("dissem.push_kb_per_batch", perBatch(float64(d.ds.PushedBytes)/1024), "KiB")
	res.add("dissem.certs_per_batch", perBatch(float64(d.ds.CertsBuilt)), "count")
	res.add("dissem.backfills_per_kbatch", 1000*perBatch(float64(d.ds.Backfills)), "count")
	res.add("dissem.chunk_pulls_per_kbatch", 1000*perBatch(float64(d.ds.ChunkPulls)), "count")
	res.add("dissem.requeued", float64(d.ds.Requeued), "count")
	var enc, dec float64
	if r.w.codeK > 0 {
		enc = float64(d.ds.Disseminated) * r.payloadAvg / 1e6
		dec = float64(d.ds.Reconstructions) * r.payloadAvg / 1e6
	}
	res.add("rs.encode_mb", perBatch(enc), "MB")
	res.add("rs.decode_mb", perBatch(dec), "MB")

	res.add("transport.frames_per_batch", perBatch(float64(tc[frames])), "count")
	res.add("transport.kb_out_per_batch", perBatch(float64(d.tr.BytesOut)/1024), "KiB")
	res.add("transport.queue_sheds", float64(d.tr.QueueSheds), "count")
	res.add("transport.ingress_drops", float64(d.tr.IngressDrops), "count")

	execNs := max(tc[execNs]-tc[walExecNs], 0)
	res.add("exec.us_per_batch", perBatch(us(execNs)), "us")
	res.add("checkpoint.state_digest_ms_p50", ms(quantile(r.digestDur, 0.5)), "ms")
	res.add("checkpoint.persist_ms_p50", ms(quantile(r.persistDur, 0.5)), "ms")

	res.add("wal.fsync_us_p50", us(int64(quantile(r.fsyncDur, 0.5))), "us")
	res.add("wal.fsync_us_p99", us(int64(quantile(r.fsyncDur, 0.99))), "us")
	res.add("wal.fsyncs_per_batch", perBatch(float64(d.walSyncs)), "count")
	res.add("wal.write_kb_per_batch", perBatch(float64(tc[walWriteB])/1024), "KiB")

	ktxn := r.throughput() * r.window.Seconds()
	res.add("process.cpu_ms_per_ktxn", ms(d.cpu)/max(ktxn, 1e-9), "ms")
	gcFrac := 0.0
	if d.totalCPU > 0 {
		gcFrac = d.gcCPU / d.totalCPU
	}
	res.add("process.gc_cpu_frac", gcFrac, "fraction")
	res.add("runtime.inbox_drops", float64(d.dropped), "count")

	// Layer busy time inside the window, self time per layer.
	layers := []struct {
		name string
		ns   int64
	}{
		{"loadgen", int64(d.genNs)},
		{"crypto", tc[signNs] + tc[verifyNs] + tc[macNs]},
		{"core", coreNs},
		{"exec", execNs},
		{"checkpoint", max(tc[hostNs]-(tc[walNs]-tc[walExecNs]), 0)},
		{"wal", tc[walNs]},
	}
	var total int64
	for _, l := range layers {
		total += l.ns
	}
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].ns > layers[j].ns })
	for _, l := range layers {
		fmt.Printf("layer %-10s busy %10.1f ms  %5.1f%% of traced busy time\n", l.name, ms(time.Duration(l.ns)), 100*float64(l.ns)/float64(max(total, 1)))
	}
	fmt.Printf("dominant_layer %s (%s)\n", layers[0].name, r.w.name)
	fmt.Printf("trace: sharded=%v max_concurrent_handlers=%d ingress_jobs=%d encodes=%d frames=%d\n",
		r.sharded, r.maxInflight, r.ingressJobs, d.tr.Encodes, tc[frames])
}

// heapSampler tracks the highest HeapInuse seen while it runs.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		// HeapInuse = heap object bytes + unused bytes in in-use spans.
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			h.peak = max(h.peak, ms[0].Value.Uint64()+ms[1].Value.Uint64())
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	<-h.done
	return h.peak
}

// printMeta records what makes numbers from different hosts or commits
// incomparable.
func printMeta(w workload, seed int64, root, tmp, commit string, trace int) {
	meta := map[string]any{
		"workload": w.name, "why": w.why, "seed": seed, "trace": trace,
		"nproc": goruntime.NumCPU(), "gomaxprocs": goruntime.GOMAXPROCS(0),
		"go": goruntime.Version(), "os_arch": goruntime.GOOS + "/" + goruntime.GOARCH,
		"tmp_fs": fsType(tmp), "commit": commit, "source_sha256": sourceDigest(root),
		"replica": fmt.Sprintf("n=%d m=%d f=%d timeout=%s min_timeout=%s idle_backoff=%s checkpoint=%d fetch_cap=%d records=%d record_size=%d workers=auto",
			clusterN, clusterM, clusterF, viewTimeout, viewTimeout/8, idleBackoff, checkpointEvery, checkpointFetch, w.records, recordSize),
	}
	b, _ := json.Marshal(meta) // a map of plain values always encodes
	fmt.Printf("meta %s\n", b)
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x9123683E: "btrfs", 0x65735546: "fuse", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the exact code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && p != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod" || strings.HasSuffix(p, ".sh")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

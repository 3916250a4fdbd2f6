// Command perfbench runs the SpotLess replica end to end: an in-process
// n=4 cluster over TCP loopback, each replica wired as cmd/spotless-replica
// wires it, driven by one seeded YCSB load generator whose batches reach
// the replicas through runtime.BatchSource and whose Informs come back
// over one client TCP endpoint. See README.md for workloads and metrics.
//
//	bash perfbench/run.sh --workload inline-b100 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0; per-layer metrics
// of a traced run, plus its overhead against an untraced one, with
// --trace 1). Any correctness violation exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// watchdog bounds a whole invocation (the benchmark contract allows 180 s).
const watchdog = 170 * time.Second

func logf(format string, args ...any) { log.Printf(format, args...) }

// metric is one named, unit-bearing result line.
type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
	order     []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.order = append(r.order, metric{name, value, unit})
	r.Metrics[name] = map[string]any{"value": value, "unit": unit}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	log.SetOutput(os.Stderr)
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "checkout root (temp files go to <root>/.bench_build/tmp)")
		commit  = flag.String("commit", "none", "source commit, recorded with the result")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		log.Fatalf("--seconds must be at least 1")
	}
	tmp := filepath.Join(*root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		log.Fatalf("temp dir: %v", err)
	}
	printMeta(w, *seed, *root, tmp, *commit, *trace)
	window := time.Duration(*seconds) * time.Second
	// A run must end within 180 s whatever the cluster does; a wedged
	// shutdown fails the run instead of hanging it.
	time.AfterFunc(watchdog, func() {
		log.Printf("watchdog: run exceeded %s, aborting", watchdog)
		os.Exit(3)
	})

	res := &result{Correct: true, Metrics: map[string]map[string]any{}}
	if *trace == 0 {
		run, err := measure(w, *seed, window, false, setupRepeats, tmp)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		run.report(res)
		run.endToEnd(res)
	} else {
		plain, err := measure(w, *seed, window, false, 1, tmp)
		if err != nil {
			log.Fatalf("%s untraced: %v", w.name, err)
		}
		plain.report(res)
		traced, err := measure(w, *seed, window, true, 1, tmp)
		if err != nil {
			log.Fatalf("%s traced: %v", w.name, err)
		}
		traced.report(res)
		traced.perLayer(res, plain)
	}
	for _, m := range res.order {
		fmt.Printf("metric %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// report folds one run's outcome into the result and prints its checks.
func (r *run) report(res *result) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	checks := "ok"
	for _, v := range r.violations {
		fmt.Printf("VIOLATION (%s): %s\n", r.label(), v)
		res.Correct = false
		checks = "FAILED"
	}
	fmt.Printf("run %s: attempted=%d completed_in_window=%d failed=%d latency_samples=%d retransmits=%d checks=%s\n",
		r.label(), r.attempted, len(r.done), r.failed, len(r.done), r.retransmits, checks)
}

func (r *run) label() string {
	if r.traced {
		return r.w.name + "/traced"
	}
	return r.w.name
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

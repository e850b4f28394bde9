// Command perfbench is the repository benchmark: it drives the sanitizer
// runtimes, the trace replayer and the sanitization service from outside,
// through their public functions, checks every output against an answer
// computed independently, and prints every metric by name with its unit.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload kernels|replay|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the final line's metrics are the end-to-end ones, from an
// untraced run. With --trace 1 the run is split: an untraced half and a
// traced half whose spans give the per-layer metrics and the tracing
// overhead; the spans and self-time table are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names
// (a test keeps the two in step).
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"native_mops", "Mop/s"},
	{"giantsan_mops", "Mop/s"},
	{"asan_mops", "Mop/s"},
	{"session_p50_ms", "ms"},
	{"session_tail_ms", "ms"},
	{"max_sessions_per_s", "1/s"},
}

var perLayer = []metricDef{
	// kernels
	{"rt.new_ms.native", "ms"},
	{"rt.new_ms.giantsan", "ms"},
	{"rt.new_ms.asan", "ms"},
	{"interp.prepare_ms.native", "ms"},
	{"interp.prepare_ms.giantsan", "ms"},
	{"interp.prepare_ms.asan", "ms"},
	{"analysis.analyze_us", "us"},
	{"instrument.build_us", "us"},
	{"interp.compile_us", "us"},
	{"interp.run_ns_per_op.native", "ns"},
	{"interp.run_ns_per_op.giantsan", "ns"},
	{"interp.run_ns_per_op.asan", "ns"},
	{"checker.ns_per_op.giantsan", "ns"},
	{"checker.ns_per_op.asan", "ns"},
	{"san.checks_per_op.giantsan", "count"},
	{"san.checks_per_op.asan", "count"},
	{"san.shadow_loads_per_op.giantsan", "count"},
	{"san.shadow_loads_per_op.asan", "count"},
	{"san.shadow_stores_per_op.native", "count"},
	{"san.shadow_stores_per_op.giantsan", "count"},
	{"san.shadow_stores_per_op.asan", "count"},
	{"san.fast_frac.giantsan", "fraction"},
	{"san.cache_hit_frac.giantsan", "fraction"},
	{"interp.elim_frac.giantsan", "fraction"},
	{"interp.elim_frac.asan", "fraction"},
	{"interp.cached_frac.giantsan", "fraction"},
	// replay
	{"rt.fork_ms.giantsan", "ms"},
	{"rt.fork_ms.asan", "ms"},
	{"rt.reset_ms.giantsan", "ms"},
	{"rt.reset_ms.asan", "ms"},
	{"trace.decode_ns_per_event", "ns"},
	{"heap.ns_per_alloc_op.giantsan", "ns"},
	{"heap.ns_per_alloc_op.asan", "ns"},
	{"checker.ns_per_check.giantsan", "ns"},
	{"checker.ns_per_check.asan", "ns"},
	{"checker.range_loads_per_check.giantsan", "count"},
	{"checker.range_loads_per_check.asan", "count"},
	// service
	{"service.wait_ms", "ms"},
	{"service.run_ms.replay", "ms"},
	{"service.run_ms.kernel", "ms"},
	{"service.post_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"client.queue_ms", "ms"},
	{"arena.warm_frac", "fraction"},
	{"service.refused_frac", "fraction"},
	{"client.late_ms", "ms"},
	// every workload
	{"fail_frac", "fraction"},
	{"trace.overhead_pct", "%"},
	{"trace.spans_per_job", "count"},
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// outcome is what one measured phase of a workload produced.
type outcome struct {
	e2e       map[string]float64 // end-to-end metrics except setup_s
	layers    map[string]float64 // per-layer metrics (traced phases only)
	attempted int
	failed    int
}

// workloadBench is one workload: set up once per repetition, then measured.
type workloadBench interface {
	setup(seed uint64) error
	// run measures for the given duration. tr is nil for an untraced run.
	run(d time.Duration, tr *tracer) (*outcome, error)
	// cost is the end-to-end figure the tracing overhead is stated on:
	// a cost, so higher is worse.
	cost(o *outcome) float64
	close()
}

func newBench(name string) (workloadBench, error) {
	switch name {
	case "kernels":
		return &kernelsBench{}, nil
	case "replay":
		return &replayBench{}, nil
	case "service":
		return &serviceBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kernels, replay or service)", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "kernels, replay or service")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured duration of the run")
	traced := flag.Int("trace", 0, "1 runs an untraced and a traced half and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*workloadName, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, d time.Duration, traced bool, outDir string) error {
	// Measurement protocol: a fixed GC percent for the whole run, and a
	// forced collection between trials (see quiesce).
	debug.SetGCPercent(200)

	b, setupS, err := setUp(name, seed)
	if err != nil {
		return err
	}
	defer b.close()

	res := result{Metrics: map[string]metricValue{}}
	if !traced {
		o, err := b.run(d, nil)
		if err != nil {
			return err
		}
		o.e2e["setup_s"] = setupS
		printMetrics("end-to-end", o.e2e, endToEnd)
		res.Attempted, res.Failed = o.attempted, o.failed
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{o.e2e[m.Name], m.Unit}
		}
	} else {
		layers, attempted, failed, err := tracedRun(b, name, seed, d, outDir)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = attempted, failed
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("fail_frac %.6f (%d of %d operations failed)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp builds the workload setupReps times and keeps the last one; the
// setup time reported is the median of the repetitions.
func setUp(name string, seed uint64) (workloadBench, float64, error) {
	var times []float64
	var b workloadBench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		var err error
		if b, err = newBench(name); err != nil {
			return nil, 0, err
		}
		quiesce()
		start := time.Now()
		if err := b.setup(seed); err != nil {
			b.close()
			return nil, 0, fmt.Errorf("%s setup: %w", name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Printf("setup: %d repetitions, seconds %v\n", setupReps, times)
	return b, median(times), nil
}

// tracedRun measures an untraced half and a traced half, reports the
// per-layer metrics from the traced half's spans and the tracing overhead
// as the difference between the halves, and writes the span file.
func tracedRun(b workloadBench, name string, seed uint64, d time.Duration, outDir string) (map[string]float64, int, int, error) {
	plain, err := b.run(d/2, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	tr := newTracer()
	withSpans, err := b.run(d/2, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	spans := tr.snapshot()
	layers := withSpans.layers
	attempted := plain.attempted + withSpans.attempted
	failed := plain.failed + withSpans.failed
	layers["fail_frac"] = ratio(float64(failed), float64(attempted))
	layers["trace.overhead_pct"] = 100 * ratio(b.cost(withSpans)-b.cost(plain), b.cost(plain))
	layers["trace.spans_per_job"] = ratio(float64(len(spans)), float64(withSpans.attempted))

	tf := &traceFile{
		Workload: name, Seed: seed,
		Untraced: plain.e2e, Traced: withSpans.e2e, Overhead: map[string]float64{},
		Self: selfTable(spans), Spans: spans,
	}
	for k, v := range plain.e2e {
		if t, ok := withSpans.e2e[k]; ok {
			tf.Overhead[k] = t - v
		}
	}
	printMetrics("end-to-end, untraced half", plain.e2e, endToEnd)
	printMetrics("end-to-end, traced half", withSpans.e2e, endToEnd)
	fmt.Println("self time by layer (traced half):")
	for _, r := range tf.Self {
		fmt.Printf("  %-36s %8d spans %12.3f ms %6.2f%%\n", r.Layer, r.Spans, r.SelfMs, 100*r.Share)
	}
	printMetrics("per-layer", layers, perLayer)
	path, err := writeTrace(outDir, tf)
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Println("spans written to", path)
	return layers, attempted, failed, nil
}

func printMetrics(title string, vals map[string]float64, defs []metricDef) {
	fmt.Printf("%s:\n", title)
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			if m.Name != "setup_s" {
				fmt.Printf("  %-40s %14s %s (not measured in this phase)\n", m.Name, "-", m.Unit)
			}
			continue
		}
		fmt.Printf("  %-40s %14.6g %s\n", m.Name, v, m.Unit)
	}
}

// quiesce is the between-trials step of the measurement protocol: collect
// now, so a trial does not pay for its predecessor's garbage.
func quiesce() { runtime.GC() }

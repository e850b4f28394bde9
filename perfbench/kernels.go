package main

import (
	"fmt"
	"time"

	"giantsan/internal/analysis"
	"giantsan/internal/instrument"
	"giantsan/internal/interp"
	"giantsan/internal/ir"
	"giantsan/internal/rt"
	"giantsan/internal/workload"
)

// leg is one sanitizer configuration a job runs under.
type leg struct {
	label string
	prof  instrument.Profile
	kind  rt.Kind
}

// legs are the three configurations of the kernels workload. native runs
// the GiantSan runtime (allocator poisoning included) with no checks: the
// unchecked leg the sanitized legs are compared against.
var legs = []leg{
	{"native", instrument.Native, rt.GiantSan},
	{"giantsan", instrument.GiantSanProfile, rt.GiantSan},
	{"asan", instrument.ASanProfile, rt.ASan},
}

// kernelIDs are the Table 2 kernels of the kernels workload, chosen for
// the layers they load: dispatch (perlbench), allocation churn and
// pointer chasing (gcc), elimination (mcf), mallocs (omnetpp), bulk
// intrinsics (imagick) and quasi-bound caching (xz).
var kernelIDs = []string{
	"500.perlbench_r", "502.gcc_r", "505.mcf_r",
	"520.omnetpp_r", "538.imagick_r", "557.xz_r",
}

// kernel is one prepared program with its native answer.
type kernel struct {
	w        *workload.Workload
	prog     *ir.Prog
	checksum uint64 // the native leg's checksum: every leg must match it
	ops      uint64 // dynamic memory operations of one run
}

// kernelJob is what one job measured.
type kernelJob struct {
	kernel, leg int
	ns          int64 // the whole job: arena, prepare, run, verify
	// Stage times, measured only when traced.
	newNs, analyzeNs, buildNs, compileNs, runNs int64
	res                                         *interp.Result
}

type kernelsBench struct {
	seed    uint64
	kernels []*kernel
	jobID   uint64
}

func (k *kernelsBench) setup(seed uint64) error {
	k.seed = seed
	for _, id := range kernelIDs {
		w := workload.ByID(id)
		if w == nil {
			return fmt.Errorf("kernel %s not found", id)
		}
		k.kernels = append(k.kernels, &kernel{w: w, prog: w.Build(1)})
	}
	// The native answers come from the unchecked leg; one job of every
	// kernel under every leg is also the warm-up pass.
	for ki, kern := range k.kernels {
		for li := range legs {
			j, err := k.job(nil, ki, li)
			if err != nil {
				return err
			}
			if li == 0 {
				kern.checksum, kern.ops = j.res.Checksum, j.res.Stats.Accesses
			}
			if err := k.verify(ki, j); err != nil {
				return err
			}
		}
	}
	return nil
}

func (k *kernelsBench) close() {}

// job builds a fresh runtime, prepares the kernel under the leg's
// profile, and runs it.
func (k *kernelsBench) job(tr *tracer, ki, li int) (*kernelJob, error) {
	kern, lg := k.kernels[ki], legs[li]
	k.jobID++
	id := k.jobID
	j := &kernelJob{kernel: ki, leg: li}
	start := time.Now()
	root := tr.begin(id, -1, "job", kern.w.ID+"/"+lg.label)

	sp := tr.begin(id, root, "rt.New", lg.label)
	env := rt.New(rt.Config{Kind: lg.kind, HeapBytes: kern.w.HeapBytes})
	j.newNs = tr.end(sp)

	prep := tr.begin(id, root, "interp.Prepare", lg.label)
	sp = tr.begin(id, prep, "analysis.Analyze", lg.label)
	facts := analysis.Analyze(kern.prog)
	j.analyzeNs = tr.end(sp)
	sp = tr.begin(id, prep, "instrument.Build", lg.label)
	plan := instrument.Build(kern.prog, lg.prof, facts)
	j.buildNs = tr.end(sp)
	sp = tr.begin(id, prep, "interp.Compile", lg.label)
	ex, err := interp.Compile(kern.prog, plan, facts, env)
	j.compileNs = tr.end(sp)
	tr.end(prep)
	if err != nil {
		tr.end(root)
		return nil, fmt.Errorf("%s under %s: %w", kern.w.ID, lg.label, err)
	}

	sp = tr.begin(id, root, "Exec.Run", lg.label)
	j.res = ex.Run()
	j.runNs = tr.end(sp)

	sp = tr.begin(id, root, "verify", lg.label)
	verr := k.verify(ki, j)
	tr.end(sp)
	tr.end(root)
	j.ns = time.Since(start).Nanoseconds()
	return j, verr
}

// verify checks a job against the native answer: same checksum, same
// operation count, and no reports (the kernels are clean programs).
func (k *kernelsBench) verify(ki int, j *kernelJob) error {
	kern := k.kernels[ki]
	switch {
	case kern.ops != 0 && j.res.Checksum != kern.checksum:
		return fmt.Errorf("%s under %s: checksum %#x, native %#x", kern.w.ID, legs[j.leg].label, j.res.Checksum, kern.checksum)
	case kern.ops != 0 && j.res.Stats.Accesses != kern.ops:
		return fmt.Errorf("%s under %s: %d accesses, native %d", kern.w.ID, legs[j.leg].label, j.res.Stats.Accesses, kern.ops)
	case j.res.Errors.Total() != 0:
		return fmt.Errorf("%s under %s: %d reports on a clean kernel", kern.w.ID, legs[j.leg].label, j.res.Errors.Total())
	}
	return nil
}

// order returns the (kernel, leg) jobs of one pass: the kernels in a
// seeded shuffle, and for each the legs rotated by the pass number, so
// every leg runs first, second and third equally often.
func (k *kernelsBench) order(pass int) [][2]int {
	r := rng{k.seed*1000003 + uint64(pass)}
	ks := make([]int, len(k.kernels))
	for i := range ks {
		ks[i] = i
	}
	for i := len(ks) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ks[i], ks[j] = ks[j], ks[i]
	}
	var out [][2]int
	for _, ki := range ks {
		for n := range legs {
			out = append(out, [2]int{ki, (n + pass) % len(legs)})
		}
	}
	return out
}

func (k *kernelsBench) run(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var jobs []*kernelJob
	var passes []*passRecord
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		p := newPass(len(legs))
		for _, kl := range k.order(pass) {
			quiesce()
			o.attempted++
			j, err := k.job(tr, kl[0], kl[1])
			if err != nil {
				fmt.Println("FAIL:", err)
				o.failed++
				continue
			}
			jobs = append(jobs, j)
			p.add(j.leg, float64(k.kernels[j.kernel].ops), j.ns)
		}
		passes = append(passes, p)
	}
	labels := make([]string, len(legs))
	for i, lg := range legs {
		labels[i] = lg.label
	}
	o.e2e = closedLoopMetrics(passes, labels)
	if tr != nil {
		o.layers = k.layers(jobs)
	}
	return o, nil
}

func (k *kernelsBench) cost(o *outcome) float64 { return 1 / o.e2e["giantsan_mops"] }

// layers derives the kernels workload's per-layer metrics from the
// traced jobs.
func (k *kernelsBench) layers(jobs []*kernelJob) map[string]float64 {
	m := map[string]float64{}
	var analyze, build, compile []float64
	runNs := make([][][]float64, len(k.kernels)) // [kernel][leg] samples
	for i := range runNs {
		runNs[i] = make([][]float64, len(legs))
	}
	last := make([][]*interp.Result, len(k.kernels))
	for i := range last {
		last[i] = make([]*interp.Result, len(legs))
	}
	newMs := make([][]float64, len(legs))
	prepMs := make([][]float64, len(legs))
	for _, j := range jobs {
		newMs[j.leg] = append(newMs[j.leg], float64(j.newNs)/1e6)
		prepMs[j.leg] = append(prepMs[j.leg], float64(j.analyzeNs+j.buildNs+j.compileNs)/1e6)
		analyze = append(analyze, float64(j.analyzeNs)/1e3)
		build = append(build, float64(j.buildNs)/1e3)
		compile = append(compile, float64(j.compileNs)/1e3)
		runNs[j.kernel][j.leg] = append(runNs[j.kernel][j.leg], float64(j.runNs))
		last[j.kernel][j.leg] = j.res
	}
	m["analysis.analyze_us"] = median(analyze)
	m["instrument.build_us"] = median(build)
	m["interp.compile_us"] = median(compile)

	var totalOps float64
	for _, kern := range k.kernels {
		totalOps += float64(kern.ops)
	}
	runPerOp := make([]float64, len(legs))
	for li, lg := range legs {
		m["rt.new_ms."+lg.label] = median(newMs[li])
		m["interp.prepare_ms."+lg.label] = median(prepMs[li])
		// Per kernel, the median run; summed over kernels and divided by
		// their summed operations, so each kernel weighs by its size.
		var ns float64
		var checks, loads, stores, elim, cached, fast, slow, hits, refills float64
		for ki := range k.kernels {
			ns += median(runNs[ki][li])
			if r := last[ki][li]; r != nil {
				checks += float64(r.San.Checks)
				loads += float64(r.San.ShadowLoads)
				stores += float64(r.San.ShadowStores)
				elim += float64(r.Stats.Eliminated)
				cached += float64(r.Stats.Cached)
				fast += float64(r.San.FastChecks)
				slow += float64(r.San.SlowChecks)
				hits += float64(r.San.CacheHits)
				refills += float64(r.San.CacheRefills)
			}
		}
		runPerOp[li] = ns / totalOps
		m["interp.run_ns_per_op."+lg.label] = runPerOp[li]
		m["san.shadow_stores_per_op."+lg.label] = stores / totalOps
		if lg.label == "native" {
			continue
		}
		m["checker.ns_per_op."+lg.label] = runPerOp[li] - runPerOp[0]
		m["san.checks_per_op."+lg.label] = checks / totalOps
		m["san.shadow_loads_per_op."+lg.label] = loads / totalOps
		m["interp.elim_frac."+lg.label] = elim / totalOps
		if lg.label == "giantsan" {
			m["san.fast_frac.giantsan"] = ratio(fast, fast+slow)
			m["san.cache_hit_frac.giantsan"] = ratio(hits, hits+refills)
			m["interp.cached_frac.giantsan"] = cached / totalOps
		}
	}
	return m
}

package main

import (
	"bytes"
	"fmt"
	"time"

	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/san"
	"giantsan/internal/trace"
)

// replayLeg is one way of replaying a trace: on which runtime kind, which
// events (all, allocator only, allocator plus ranges) and whether the
// checks are anchored.
type replayLeg struct {
	label    string
	kind     rt.Kind
	events   string // "all", "alloc" or "ranges"
	anchored bool
}

// The replay workload's legs. native replays the allocator events only on
// the GiantSan runtime: the same trace with its accesses left unchecked.
// The last three legs run only in traced phases; they split a full
// replay into allocator and checker time.
var replayLegs = []replayLeg{
	{"native", rt.GiantSan, "alloc", false},
	{"giantsan", rt.GiantSan, "all", true},
	{"asan", rt.ASan, "all", false},
	{"alloc.asan", rt.ASan, "alloc", false},
	{"ranges.giantsan", rt.GiantSan, "ranges", true},
	{"ranges.asan", rt.ASan, "ranges", false},
}

const (
	replayEndToEndLegs = 3
	replayTraces       = 6
	replayForks        = 5 // forks timed per kind in a traced phase
)

var replayGen = genConfig{Events: 100000, Bugs: 8, LiveHeap: 4 << 20}

type replayBench struct {
	seed   uint64
	traces []*genTrace
	alloc  [][]trace.Event
	ranges [][]trace.Event
	envs   map[rt.Kind]*rt.Env // one forked arena per kind, reset between traces
	jobID  uint64
}

// replayJob is what one job measured.
type replayJob struct {
	trace, leg int
	ns         int64 // decode + replay + verify + reset
	// Stage times, measured only when traced.
	decodeNs, replayNs, resetNs int64
	stats                       san.Stats
}

func (r *replayBench) setup(seed uint64) error {
	r.seed = seed
	for i := 0; i < replayTraces; i++ {
		g, err := generate(seed*replayTraces+uint64(i), replayGen)
		if err != nil {
			return err
		}
		r.traces = append(r.traces, g)
		r.alloc = append(r.alloc, g.AllocOnly())
		r.ranges = append(r.ranges, g.RangesOnly())
	}
	r.envs = map[rt.Kind]*rt.Env{
		rt.GiantSan: rt.Fork(rt.Config{Kind: rt.GiantSan}),
		rt.ASan:     rt.Fork(rt.Config{Kind: rt.ASan}),
	}
	// Warm-up pass: every trace under every end-to-end leg, verified (the
	// traced-only legs are verified whenever they run).
	for ti := range r.traces {
		for li := 0; li < replayEndToEndLegs; li++ {
			if _, err := r.job(nil, ti, li); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *replayBench) close() {}

func (r *replayBench) job(tr *tracer, ti, li int) (*replayJob, error) {
	g, lg := r.traces[ti], replayLegs[li]
	env := r.envs[lg.kind]
	r.jobID++
	id := r.jobID
	j := &replayJob{trace: ti, leg: li}
	start := time.Now()
	root := tr.begin(id, -1, "job", lg.label)

	sp := tr.begin(id, root, "trace.ReadAll", "")
	events, err := trace.ReadAll(bytes.NewReader(g.Data))
	j.decodeNs = tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, fmt.Errorf("trace %d: decode: %w", ti, err)
	}
	var want []bug
	switch lg.events {
	case "all":
		want = g.Bugs
	case "alloc":
		events = r.alloc[ti]
	case "ranges":
		events = r.ranges[ti]
	}

	sp = tr.begin(id, root, "trace.ReplayEvents", lg.label)
	res, err := trace.ReplayEvents(events, env, lg.anchored)
	j.replayNs = tr.end(sp)
	if err != nil {
		env.Reset()
		tr.end(root)
		return nil, fmt.Errorf("trace %d under %s: %w", ti, lg.label, err)
	}
	j.stats = *env.San().Stats()

	sp = tr.begin(id, root, "verify", lg.label)
	verr := checkReports(&res.Errors, want)
	if verr == nil && res.Events != len(events) {
		verr = fmt.Errorf("replayed %d of %d events", res.Events, len(events))
	}
	tr.end(sp)

	sp = tr.begin(id, root, "Env.Reset", lg.label)
	env.Reset()
	j.resetNs = tr.end(sp)
	tr.end(root)
	j.ns = time.Since(start).Nanoseconds()
	if verr != nil {
		return nil, fmt.Errorf("trace %d under %s: %w", ti, lg.label, verr)
	}
	return j, nil
}

// checkReports compares a replay's reports with the answer key: each
// planted bug reported exactly once, in order, with the right class, and
// no other report.
func checkReports(log *report.Log, want []bug) error {
	if log.Total() != len(want) {
		return fmt.Errorf("%d reports, answer key has %d bugs", log.Total(), len(want))
	}
	for i, e := range log.Errors {
		if want[i].Temporal != e.Kind.Temporal() || want[i].Temporal == e.Kind.Spatial() {
			return fmt.Errorf("report %d is %v, answer key says temporal=%v", i, e.Kind, want[i].Temporal)
		}
	}
	return nil
}

// order returns the (trace, leg) jobs of one pass: traces in a seeded
// shuffle, legs rotated by the pass number.
func (r *replayBench) order(pass, nLegs int) [][2]int {
	rg := rng{r.seed*1000003 + uint64(pass)}
	ts := make([]int, len(r.traces))
	for i := range ts {
		ts[i] = i
	}
	for i := len(ts) - 1; i > 0; i-- {
		j := rg.intn(i + 1)
		ts[i], ts[j] = ts[j], ts[i]
	}
	var out [][2]int
	for _, ti := range ts {
		for n := 0; n < nLegs; n++ {
			out = append(out, [2]int{ti, (n + pass) % nLegs})
		}
	}
	return out
}

func (r *replayBench) run(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{}
	nLegs := replayEndToEndLegs
	var forkMs map[rt.Kind][]float64
	if tr != nil {
		nLegs = len(replayLegs)
		forkMs = r.timeForks(tr)
	}
	var jobs []*replayJob
	var passes []*passRecord
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		p := newPass(replayEndToEndLegs)
		for _, tl := range r.order(pass, nLegs) {
			quiesce()
			o.attempted++
			j, err := r.job(tr, tl[0], tl[1])
			if err != nil {
				fmt.Println("FAIL:", err)
				o.failed++
				continue
			}
			jobs = append(jobs, j)
			if j.leg < replayEndToEndLegs {
				p.add(j.leg, float64(len(r.traces[j.trace].Events)), j.ns)
			}
		}
		passes = append(passes, p)
	}
	var labels []string
	for _, lg := range replayLegs[:replayEndToEndLegs] {
		labels = append(labels, lg.label)
	}
	o.e2e = closedLoopMetrics(passes, labels)
	if tr != nil {
		o.layers = r.layers(jobs, forkMs)
	}
	return o, nil
}

// timeForks times fresh forks of each arena kind (the setup's forks are
// not traced); the forks are then discarded.
func (r *replayBench) timeForks(tr *tracer) map[rt.Kind][]float64 {
	out := map[rt.Kind][]float64{}
	for i := 0; i < replayForks; i++ {
		for _, kind := range []rt.Kind{rt.GiantSan, rt.ASan} {
			quiesce()
			r.jobID++
			sp := tr.begin(r.jobID, -1, "rt.Fork", kind.String())
			rt.Fork(rt.Config{Kind: kind})
			out[kind] = append(out[kind], float64(tr.end(sp))/1e6)
		}
	}
	return out
}

func (r *replayBench) cost(o *outcome) float64 { return 1 / o.e2e["giantsan_mops"] }

// layers derives the replay workload's per-layer metrics from the traced
// jobs.
func (r *replayBench) layers(jobs []*replayJob, forkMs map[rt.Kind][]float64) map[string]float64 {
	m := map[string]float64{}
	legIdx := map[string]int{}
	for i, lg := range replayLegs {
		legIdx[lg.label] = i
	}
	nT, nL := len(r.traces), len(replayLegs)
	replayNs := make([][][]float64, nT) // [trace][leg] samples
	stats := make([][]san.Stats, nT)
	for t := range replayNs {
		replayNs[t] = make([][]float64, nL)
		stats[t] = make([]san.Stats, nL)
	}
	resetMs := make([][]float64, nL)
	var decodeNs, decodeEvents float64
	for _, j := range jobs {
		replayNs[j.trace][j.leg] = append(replayNs[j.trace][j.leg], float64(j.replayNs))
		stats[j.trace][j.leg] = j.stats
		resetMs[j.leg] = append(resetMs[j.leg], float64(j.resetNs)/1e6)
		decodeNs += float64(j.decodeNs)
		decodeEvents += float64(len(r.traces[j.trace].Events))
	}
	m["trace.decode_ns_per_event"] = ratio(decodeNs, decodeEvents)
	for _, s := range []struct {
		label       string
		kind        rt.Kind
		full, alloc string
	}{
		{"giantsan", rt.GiantSan, "giantsan", "native"},
		{"asan", rt.ASan, "asan", "alloc.asan"},
	} {
		full, alloc, ranges := legIdx[s.full], legIdx[s.alloc], legIdx["ranges."+s.label]
		m["rt.fork_ms."+s.label] = median(forkMs[s.kind])
		m["rt.reset_ms."+s.label] = median(resetMs[full])
		var allocNs, allocOps, checkNs, checks, rangeLoads, rangeChecks float64
		for t, g := range r.traces {
			a := median(replayNs[t][alloc])
			allocNs += a
			allocOps += float64(len(g.Events) - g.Checks)
			checkNs += median(replayNs[t][full]) - a
			checks += float64(g.Checks)
			rangeLoads += float64(stats[t][ranges].ShadowLoads) - float64(stats[t][alloc].ShadowLoads)
			rangeChecks += float64(g.Ranges - countRangeBugs(g))
		}
		m["heap.ns_per_alloc_op."+s.label] = ratio(allocNs, allocOps)
		m["checker.ns_per_check."+s.label] = ratio(checkNs, checks)
		m["checker.range_loads_per_check."+s.label] = ratio(rangeLoads, rangeChecks)
	}
	return m
}

// countRangeBugs counts the planted bugs that are Range events (the
// ranges leg leaves them out).
func countRangeBugs(g *genTrace) int {
	n := 0
	for _, b := range g.Bugs {
		if g.Events[b.Event].Op == trace.OpRange {
			n++
		}
	}
	return n
}

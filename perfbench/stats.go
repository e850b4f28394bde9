package main

import "sort"

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample (a layer
// the run did not exercise), which JSON can carry and NaN cannot.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer the run did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailQ is the tail percentile of every workload. Within a pass (18
// jobs) or a 60-session block, p90 sits among the slowest few operations
// without being the single slowest, which one stall of the machine sets.
const tailQ = 0.90

// passRecord is one pass of a closed loop: per leg, the operations done
// and the job time they took, and the latency of every job.
type passRecord struct {
	ops, ns []float64
	jobMs   []float64
}

func newPass(legs int) *passRecord {
	return &passRecord{ops: make([]float64, legs), ns: make([]float64, legs)}
}

func (p *passRecord) add(leg int, ops float64, ns int64) {
	p.ops[leg] += ops
	p.ns[leg] += float64(ns)
	p.jobMs = append(p.jobMs, float64(ns)/1e6)
}

// closedLoopMetrics summarises a closed loop's passes. All but the p50
// are medians over passes of a per-pass figure, so a stretch of passes
// the machine slowed moves them only when it covers most of the run:
//
//	<label>_mops        the pass's operations over its job time, per leg
//	session_p50_ms      the median latency of all jobs
//	session_tail_ms     the pass's p90 job latency
//	max_sessions_per_s  the pass's jobs over its job time
func closedLoopMetrics(passes []*passRecord, labels []string) map[string]float64 {
	m := map[string]float64{}
	for li, label := range labels {
		var thr []float64
		for _, p := range passes {
			thr = append(thr, ratio(p.ops[li], p.ns[li])*1e3) // ops/ns → Mop/s
		}
		m[label+"_mops"] = median(thr)
	}
	var all, tails, rates []float64
	for _, p := range passes {
		all = append(all, p.jobMs...)
		tails = append(tails, quantile(p.jobMs, tailQ))
		rates = append(rates, ratio(float64(len(p.jobMs))*1e3, sum(p.jobMs)))
	}
	m["session_p50_ms"] = median(all)
	m["session_tail_ms"] = median(tails)
	m["max_sessions_per_s"] = median(rates)
	return m
}

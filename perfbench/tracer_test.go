package main

import (
	"testing"
	"time"
)

// jobResidual is the share of a job's time its child spans may leave
// uncovered: the gaps between consecutive calls.
const jobResidual = 0.02

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Parent: -1, Start: 0, End: 100},
		{Parent: 0, Start: 10, End: 30},
		{Parent: 0, Start: 20, End: 50},  // overlaps its sibling
		{Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Parent: 2, Start: 25, End: 45},
	}
	want := []int64{100 - (40 + 10), 20, 30 - 20, 30, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

// checkNesting asserts that every child lies inside its parent and shares
// its trace ID, and that each root's children cover all but jobResidual
// of it.
func checkNesting(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	self := selfTimes(spans)
	roots := 0
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			roots++
			// 20µs absolute slack covers the clock reads of very short jobs.
			if limit := jobResidual*float64(s.dur()) + 20e3; float64(self[i]) > limit {
				t.Errorf("%s.%s: children leave %v of %v uncovered (limit %.0fns)",
					s.Name, s.Label, time.Duration(self[i]), time.Duration(s.dur()), limit)
			}
			continue
		}
		p := spans[s.Parent]
		if s.Trace != p.Trace {
			t.Errorf("span %d (%s) has trace %d, its parent %d", i, s.Name, s.Trace, p.Trace)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) [%d,%d] is outside its parent %s [%d,%d]",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if roots == 0 {
		t.Fatal("no root spans")
	}
}

func TestKernelJobSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every kernel")
	}
	k := &kernelsBench{}
	if err := k.setup(1); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for li := range legs {
		if _, err := k.job(tr, 2, li); err != nil {
			t.Fatal(err)
		}
	}
	spans := tr.snapshot()
	checkNesting(t, spans)
	if n := len(spans) / len(legs); n != 8 {
		t.Errorf("%d spans per job, want 8 (job, rt.New, Prepare and its 3 stages, Run, verify)", n)
	}
}

func TestReplayJobSpans(t *testing.T) {
	r := &replayBench{}
	if err := r.setup(1); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for li := range replayLegs {
		if _, err := r.job(tr, 0, li); err != nil {
			t.Fatal(err)
		}
	}
	checkNesting(t, tr.snapshot())
}

func TestServiceSessionSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service")
	}
	s := &serviceBench{}
	if err := s.setup(1); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	tr := newTracer()
	before := s.eng.ArenaStats()
	s.traced.Store(true)
	r := rng{1}
	st := s.openLoop(&r, 40, time.Second)
	s.traced.Store(false)
	if st.failed() != 0 {
		t.Fatalf("%d sessions failed", st.failed())
	}
	layers := s.layers(tr, st, before, s.eng.ArenaStats())
	checkNesting(t, tr.snapshot())
	if layers["service.wait_ms"] <= 0 || layers["service.run_ms.replay"] <= 0 {
		t.Errorf("service layers not measured: %v", layers)
	}
}

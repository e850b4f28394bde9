package traversal

import (
	"sort"
	"testing"
	"time"
)

func TestChecksumsAgreeAcrossModes(t *testing.T) {
	for _, p := range Patterns() {
		var sums []uint64
		for _, m := range Modes() {
			h, err := New(m, p, 4096)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, h.Traverse())
		}
		for i := 1; i < len(sums); i++ {
			if sums[i] != sums[0] {
				t.Errorf("%v: checksum differs between modes", p)
			}
		}
	}
}

func TestNoErrorsOnCleanTraversal(t *testing.T) {
	for _, p := range Patterns() {
		for _, m := range []Mode{GiantSan, ASan} {
			h, err := New(m, p, 8192)
			if err != nil {
				t.Fatal(err)
			}
			h.Traverse()
			if h.Stats().Errors != 0 {
				t.Errorf("%v/%v: %d errors on a clean traversal", m, p, h.Stats().Errors)
			}
		}
	}
}

// TestMetadataLoadAsymmetry verifies the §5.4 mechanism directly on the
// counters: forward GiantSan loads metadata O(log n) times; reverse loads
// ≥ 2 per access (re-anchored cache); ASan loads exactly once per access.
func TestMetadataLoadAsymmetry(t *testing.T) {
	const buf = 16384
	elems := uint64(buf / 4)

	fw, _ := New(GiantSan, Forward, buf)
	fw.Traverse()
	if loads := fw.Stats().ShadowLoads; loads > 64 {
		t.Errorf("forward GiantSan loads = %d, want O(log n)", loads)
	}

	rv, _ := New(GiantSan, Reverse, buf)
	rv.Traverse()
	if loads := rv.Stats().ShadowLoads; loads < elems {
		t.Errorf("reverse GiantSan loads = %d, want ≥ one per access (%d)", loads, elems)
	}

	as, _ := New(ASan, Forward, buf)
	as.Traverse()
	if loads := as.Stats().ShadowLoads; loads != elems {
		t.Errorf("ASan loads = %d, want exactly %d", loads, elems)
	}

	rd, _ := New(GiantSan, Random, buf)
	rd.Traverse()
	if loads := rd.Stats().ShadowLoads; loads > elems/4 {
		t.Errorf("random GiantSan loads = %d, want far fewer than %d", loads, elems)
	}
}

// TestMitigatedReverseLoadsFlat verifies the §5.4 mitigation: with the
// lower bound located up front, a reverse pass costs O(log² n) metadata
// loads instead of ≥ 2 per access.
func TestMitigatedReverseLoadsFlat(t *testing.T) {
	const buf = 16384
	h, err := New(GiantSanLB, Reverse, buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := h.Traverse()
	if loads := h.Stats().ShadowLoads; loads > 256 {
		t.Errorf("mitigated reverse loads = %d, want O(log² n)", loads)
	}
	// Same checksum as the unmitigated modes.
	h2, _ := New(GiantSan, Reverse, buf)
	if sum2 := h2.Traverse(); sum2 != sum {
		t.Error("mitigated traversal changed the data")
	}
	if h.Stats().Errors != 0 {
		t.Error("clean mitigated traversal reported errors")
	}
}

// TestFigure11Shape measures wall time for the three patterns at 16KB and
// checks the ordering the paper reports: GiantSan beats ASan forward and
// random; ASan beats GiantSan in reverse. One wall-clock sample per mode
// is at the mercy of whatever else the machine is doing, so each pattern
// takes interleaved GiantSan/ASan trials and compares the medians: a
// burst of background load then hits both modes alike, and an outlier
// trial cannot decide the verdict.
func TestFigure11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const buf = 16384
	const reps = 300
	const trials = 7
	medians := func(p Pattern) (g, a time.Duration) {
		hs := make(map[Mode]*Harness)
		for _, m := range []Mode{GiantSan, ASan} {
			h, err := New(m, p, buf)
			if err != nil {
				t.Fatal(err)
			}
			h.Traverse() // warm up
			hs[m] = h
		}
		samples := map[Mode][]time.Duration{}
		for i := 0; i < trials; i++ {
			for _, m := range []Mode{GiantSan, ASan} {
				start := time.Now()
				for r := 0; r < reps; r++ {
					hs[m].Traverse()
				}
				samples[m] = append(samples[m], time.Since(start))
			}
		}
		median := func(d []time.Duration) time.Duration {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			return d[len(d)/2]
		}
		return median(samples[GiantSan]), median(samples[ASan])
	}
	for _, p := range []Pattern{Forward, Random} {
		g, a := medians(p)
		if float64(g) > 1.1*float64(a) {
			t.Errorf("%v: GiantSan median %v vs ASan median %v — GiantSan should not be slower", p, g, a)
		}
	}
	g, a := medians(Reverse)
	if float64(g) < float64(a) {
		t.Logf("reverse: GiantSan median %v vs ASan median %v (paper expects GiantSan slower; timing noise tolerated)", g, a)
	}
}

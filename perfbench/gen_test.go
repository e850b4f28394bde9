package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"giantsan/internal/rt"
	"giantsan/internal/trace"
)

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := genConfig{Events: 5000, Bugs: 6, LiveHeap: 1 << 20}
	a, err := generate(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data, b.Data) || !reflect.DeepEqual(a.Bugs, b.Bugs) {
		t.Fatal("the same seed gave different traces")
	}
	c, err := generate(43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Data, c.Data) {
		t.Fatal("different seeds gave the same trace")
	}
	// The program under test sees only the bytes: they decode back to
	// the generator's events.
	events, err := trace.ReadAll(bytes.NewReader(a.Data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, a.Events) {
		t.Fatal("encoded trace does not decode to the generated events")
	}
}

// violations walks a trace with its own model of object lifetimes and
// returns, per violating check, whether it touched freed memory
// (temporal) or left its object's bounds (spatial). It shares nothing
// with the generator or the sanitizers.
func violations(events []trace.Event) (map[int]bool, error) {
	type obj struct {
		size  uint64
		freed bool
		frame int // 0 for heap objects, else the frame depth it lives in
	}
	objs := map[uint32]*obj{}
	depth := 0
	out := map[int]bool{}
	for i, ev := range events {
		switch ev.Op {
		case trace.OpMalloc:
			objs[ev.Reg] = &obj{size: ev.Size}
		case trace.OpAlloca:
			objs[ev.Reg] = &obj{size: ev.Size, frame: depth}
		case trace.OpFree:
			objs[ev.Reg].freed = true
		case trace.OpPush:
			depth++
		case trace.OpPop:
			for _, o := range objs {
				if o.frame == depth {
					o.freed = true
				}
			}
			depth--
		case trace.OpAccess, trace.OpRange:
			o := objs[ev.Reg]
			if o == nil {
				return nil, fmt.Errorf("event %d: unknown register %d", i, ev.Reg)
			}
			n := uint64(ev.Width)
			if ev.Op == trace.OpRange {
				n = ev.Size
			}
			switch {
			case o.freed:
				if o.frame != 0 {
					return nil, fmt.Errorf("event %d: access to a popped frame", i)
				}
				out[i] = true
			case ev.Off < 0 || uint64(ev.Off)+n > o.size:
				out[i] = false
			}
		}
	}
	return out, nil
}

// keyOf returns the answer key as the same map violations builds.
func keyOf(g *genTrace) map[int]bool {
	out := map[int]bool{}
	for _, b := range g.Bugs {
		out[b.Event] = b.Temporal
	}
	return out
}

// TestAnswerKeyHandChecked pins a small trace whose answer key was
// checked by hand. Seed 7 plants two bugs:
//
//	event  7  malloc r3, 69 bytes (right redzone [72, 88))
//	event 13  8-byte write at r3+76: past the end, inside the redzone
//	event 19  free r3 (quarantined; only r5's 17 bytes are freed after it)
//	event 26  4-byte read at r3+50: use after free
//
// and every other access and range of the 40 events is in bounds of a
// live object.
func TestAnswerKeyHandChecked(t *testing.T) {
	g, err := generate(7, genConfig{Events: 40, Bugs: 2, LiveHeap: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := []bug{{Event: 13, Temporal: false}, {Event: 26, Temporal: true}}
	if !reflect.DeepEqual(g.Bugs, want) {
		t.Fatalf("answer key %+v, hand-checked %+v", g.Bugs, want)
	}
	got, err := violations(g.Events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, keyOf(g)) {
		t.Fatalf("violating events %v, answer key %v", got, keyOf(g))
	}
}

// TestAnswerKeyAgainstModelAndSanitizers checks larger traces two ways:
// the lifetime model finds exactly the planted bugs, and both sanitizers
// report exactly them, in order and class.
func TestAnswerKeyAgainstModelAndSanitizers(t *testing.T) {
	for _, cfg := range []genConfig{replayGen, serviceGen} {
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := generate(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := violations(g.Events)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, keyOf(g)) {
				t.Fatalf("seed %d: violating events %v, answer key %v", seed, got, keyOf(g))
			}
			for _, k := range []rt.Kind{rt.GiantSan, rt.ASan} {
				res, err := trace.Replay(bytes.NewReader(g.Data), rt.Fork(rt.Config{Kind: k}), k == rt.GiantSan)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkReports(&res.Errors, g.Bugs); err != nil {
					t.Fatalf("seed %d under %v: %v", seed, k, err)
				}
			}
		}
	}
}

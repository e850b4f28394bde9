package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"giantsan/internal/lfp"
	"giantsan/internal/report"
	"giantsan/internal/rt"
)

// record builds a small trace: alloc, clean accesses, one overflow, a
// stack frame, a UAF.
func record(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	heapReg, err := w.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	w.Access(heapReg, 0, 8, true)
	w.Access(heapReg, 92, 8, false)
	w.Range(heapReg, 0, 100, true)
	w.Access(heapReg, 100, 1, true) // overflow
	w.Push()
	stkReg, _ := w.Alloca(32)
	w.Access(stkReg, 0, 8, true)
	w.Pop()
	w.Free(heapReg)
	w.Access(heapReg, 0, 1, false) // UAF
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := record(t)
	r := NewReader(bytes.NewReader(data))
	var ops []Op
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, ev.Op)
	}
	want := []Op{OpMalloc, OpAccess, OpAccess, OpRange, OpAccess, OpPush, OpAlloca, OpAccess, OpPop, OpFree, OpAccess}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
}

func TestReplayDetections(t *testing.T) {
	data := record(t)
	for _, kind := range []rt.Kind{rt.GiantSan, rt.ASan} {
		env := rt.New(rt.Config{Kind: kind, HeapBytes: 1 << 20})
		res, err := Replay(bytes.NewReader(data), env, kind == rt.GiantSan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events != 11 {
			t.Errorf("%v: events = %d", kind, res.Events)
		}
		// Exactly two violations: the overflow and the UAF.
		if res.Errors.Total() != 2 {
			t.Errorf("%v: errors = %d, want 2 (%v)", kind, res.Errors.Total(), res.Errors.Errors)
		}
		kinds := map[report.Kind]bool{}
		for _, e := range res.Errors.Errors {
			kinds[e.Kind] = true
		}
		if !kinds[report.UseAfterFree] {
			t.Errorf("%v: UAF missing", kind)
		}
	}
}

func TestReplayUnderLFP(t *testing.T) {
	data := record(t)
	run := lfp.New(lfp.Config{HeapBytes: 8 << 20, MaxClass: 1 << 12})
	res, err := Replay(bytes.NewReader(data), run, true)
	if err != nil {
		t.Fatal(err)
	}
	// LFP: the off-by-one at 100 hides in the 112-slot; the UAF (no
	// reuse) is caught. One error.
	if res.Errors.Total() != 1 || res.Errors.Errors[0].Kind != report.UseAfterFree {
		t.Errorf("LFP errors: %v", res.Errors.Errors)
	}
}

func TestBadMagic(t *testing.T) {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	_, err := Replay(strings.NewReader("not a trace"), env, true)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("err = %v", err)
	}
}

func TestMalformedStreams(t *testing.T) {
	env := func() rt.Runtime { return rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20}) }

	// Truncated operand.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Malloc(64)
	w.Flush()
	data := buf.Bytes()
	if _, err := Replay(bytes.NewReader(data[:len(data)-3]), env(), true); err == nil {
		t.Error("truncated stream accepted")
	}

	// Unknown opcode.
	bad := append(append([]byte{}, data...), 0xEE)
	if _, err := Replay(bytes.NewReader(bad), env(), true); err == nil {
		t.Error("unknown opcode accepted")
	}

	// Access through unset register.
	var buf2 bytes.Buffer
	w2 := NewWriter(&buf2)
	w2.Access(99, 0, 8, false)
	w2.Flush()
	if _, err := Replay(bytes.NewReader(buf2.Bytes()), env(), true); err == nil {
		t.Error("unset register accepted")
	}

	// Pop without push.
	var buf3 bytes.Buffer
	w3 := NewWriter(&buf3)
	w3.Pop()
	w3.Flush()
	if _, err := Replay(bytes.NewReader(buf3.Bytes()), env(), true); err == nil {
		t.Error("unbalanced pop accepted")
	}
}

func TestEmptyTraceIsJustMagic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	res, err := Replay(bytes.NewReader(buf.Bytes()), env, true)
	if err != nil || res.Events != 0 {
		t.Errorf("res=%+v err=%v", res, err)
	}
}

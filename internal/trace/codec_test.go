package trace

import (
	"bytes"
	"io"
	"testing"

	"giantsan/internal/rt"
)

// synthTrace encodes an n-event trace that replays cleanly: rounds of a
// heap allocation, word accesses and a bulk range over it, a stack frame
// with one alloca, and the free.
func synthTrace(t testing.TB, n int) []byte {
	t.Helper()
	var events []Event
	for reg := uint32(0); len(events) < n; reg += 2 {
		size := uint64(64 + 8*(reg%64))
		events = append(events,
			Event{Op: OpMalloc, Reg: reg, Size: size},
			Event{Op: OpAccess, Reg: reg, Width: 8, Write: true},
			Event{Op: OpAccess, Reg: reg, Off: int64(size) - 8, Width: 8},
			Event{Op: OpRange, Reg: reg, Size: size, Write: reg%4 == 0},
			Event{Op: OpPush},
			Event{Op: OpAlloca, Reg: reg + 1, Size: 32},
			Event{Op: OpAccess, Reg: reg + 1, Off: 8, Width: 4, Write: true},
			Event{Op: OpPop},
			Event{Op: OpFree, Reg: reg},
		)
	}
	data, err := Encode(events[:n])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCodecAllocs pins the allocation profile of the three codec paths:
// ReadAll and Encode allocate a constant number of times per trace, and
// the streaming Reader nothing per event.
func TestCodecAllocs(t *testing.T) {
	data := synthTrace(t, 10000)
	events, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	rd := bytes.NewReader(data)
	if a := testing.AllocsPerRun(5, func() {
		rd.Reset(data)
		if _, err := ReadAll(rd); err != nil {
			t.Fatal(err)
		}
	}); a > 4 {
		t.Errorf("ReadAll of %d events: %v allocations, want <= 4", len(events), a)
	}

	tr := NewReader(bytes.NewReader(data))
	if _, err := tr.Next(); err != nil { // the header and the bufio buffer
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(len(events)-2, func() {
		if _, err := tr.Next(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Reader.Next: %v allocations per event, want 0", a)
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("stream not exhausted after %d events: %v", len(events), err)
	}

	if a := testing.AllocsPerRun(5, func() {
		if _, err := Encode(events); err != nil {
			t.Fatal(err)
		}
	}); a > 4 {
		t.Errorf("Encode of %d events: %v allocations, want <= 4", len(events), a)
	}
}

func reportPerEvent(b *testing.B, events int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

func BenchmarkDecode(b *testing.B) {
	const n = 10000
	data := synthTrace(b, n)
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
		reportPerEvent(b, n)
	})
	b.Run("ReadAll", func(b *testing.B) {
		b.ReportAllocs()
		rd := bytes.NewReader(data)
		for i := 0; i < b.N; i++ {
			rd.Reset(data)
			if _, err := ReadAll(rd); err != nil {
				b.Fatal(err)
			}
		}
		reportPerEvent(b, n)
	})
	b.Run("Reader", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := NewReader(bytes.NewReader(data))
			for {
				_, err := tr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		reportPerEvent(b, n)
	})
}

func BenchmarkEncode(b *testing.B) {
	events, err := Decode(synthTrace(b, 10000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(events); err != nil {
			b.Fatal(err)
		}
	}
	reportPerEvent(b, len(events))
}

// BenchmarkReplayEvents times replay of decoded events under GiantSan;
// the arena reset between iterations is not timed.
func BenchmarkReplayEvents(b *testing.B) {
	events, err := Decode(synthTrace(b, 10000))
	if err != nil {
		b.Fatal(err)
	}
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 22})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ReplayEvents(events, env, true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors.Total() != 0 {
			b.Fatalf("clean trace reported %d errors", res.Errors.Total())
		}
		b.StopTimer()
		env.Reset()
		b.StartTimer()
	}
	reportPerEvent(b, len(events))
}

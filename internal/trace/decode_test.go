package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"giantsan/internal/rt"
)

// streamAll decodes data with the streaming Reader.Next loop.
func streamAll(data []byte) ([]Event, error) {
	tr := NewReader(bytes.NewReader(data))
	var out []Event
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// malformedCase is a stream every decoder must reject, with substrings
// its error must contain.
type malformedCase struct {
	name string
	data []byte
	want []string
}

// malformedCases builds the rejected streams from a two-event trace:
// event 1 (Malloc) is 13 bytes at offset 4, event 2 (Access) 15 bytes at
// offset 17.
func malformedCases(t testing.TB) []malformedCase {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r1, _ := w.Malloc(64)
	w.Access(r1, 0, 8, true)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	badType := append([]byte{}, data...)
	badType[len(badType)-1] = 7 // event 2's access-type byte
	return []malformedCase{
		{"truncated operand", data[:19], []string{"event 2", "byte offset 17", "truncated after 2 bytes"}},
		{"unknown opcode", append(append([]byte{}, data...), 0xEE),
			[]string{"event 3", fmt.Sprintf("byte offset %d", len(data)), "unknown opcode 238"}},
		{"truncated magic", []byte("GS"), []string{"truncated magic (2 of 4"}},
		{"empty stream", nil, []string{"trace: truncated magic (0 of 4 header bytes)"}},
		{"access type", badType, []string{"trace: event 2 (byte offset 17): opcode 3: access type 7"}},
	}
}

// TestDecodeErrorsCarryOffsetAndIndex: decode failures must name the
// 1-based event ordinal and the byte offset where the broken event
// starts, so shrinker validity checks and service replay 400s point at
// the exact spot in the stream. The streaming and in-memory decoders
// must fail identically.
func TestDecodeErrorsCarryOffsetAndIndex(t *testing.T) {
	for _, c := range malformedCases(t) {
		_, err := streamAll(c.data)
		if err == nil {
			t.Errorf("%s: Reader.Next accepted the stream", c.name)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", c.name, err, want)
			}
		}
		if _, derr := Decode(c.data); derr == nil || derr.Error() != err.Error() {
			t.Errorf("%s: Decode error %v, Reader.Next error %v", c.name, derr, err)
		}
	}
}

// TestEncodeReadAllRoundTrip: Encode∘ReadAll is the identity on event
// slices, and ReplayEvents agrees with streaming Replay — the shrinker
// depends on both.
func TestEncodeReadAllRoundTrip(t *testing.T) {
	data := record(t)
	events, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events decoded")
	}
	enc, err := Encode(events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("Encode(ReadAll(data)) != data (%d vs %d bytes)", len(enc), len(data))
	}

	envA := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	resA, err := Replay(bytes.NewReader(data), envA, true)
	if err != nil {
		t.Fatal(err)
	}
	envB := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	resB, err := ReplayEvents(events, envB, true)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Events != resB.Events || resA.Errors.Total() != resB.Errors.Total() {
		t.Fatalf("ReplayEvents diverged from Replay: %d/%d events, %d/%d errors",
			resA.Events, resB.Events, resA.Errors.Total(), resB.Errors.Total())
	}
	if !reflect.DeepEqual(envA.San().Stats(), envB.San().Stats()) {
		t.Fatalf("stats diverged:\n%+v\n%+v", envA.San().Stats(), envB.San().Stats())
	}
}

// TestReplayEventErrorsCarryIndex: semantic replay errors (unset
// register, unbalanced pop) name the failing event's ordinal.
func TestReplayEventErrorsCarryIndex(t *testing.T) {
	env := rt.New(rt.Config{Kind: rt.GiantSan, HeapBytes: 1 << 20})
	events := []Event{
		{Op: OpMalloc, Reg: 0, Size: 64},
		{Op: OpAccess, Reg: 99, Width: 8},
	}
	_, err := ReplayEvents(events, env, true)
	if err == nil || !strings.Contains(err.Error(), "event 2") {
		t.Errorf("unset-register error = %v", err)
	}
}

package trace

import (
	"bytes"
	"slices"
	"testing"

	"giantsan/internal/workload"
)

// FuzzDecode: on arbitrary bytes the streaming Reader.Next loop, Decode
// and ReadAll agree — the same events or the same error — and an
// accepted stream is canonical: Encode reproduces it byte for byte.
func FuzzDecode(f *testing.F) {
	f.Add(record(f))
	f.Add(recordKernel(f, workload.ByID("519.lbm_r")))
	for _, c := range malformedCases(f) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		streamed, serr := streamAll(data)
		decoded, derr := Decode(data)
		read, rerr := ReadAll(bytes.NewReader(data))
		if errString(serr) != errString(derr) || errString(rerr) != errString(derr) {
			t.Fatalf("errors disagree:\nReader.Next: %v\nDecode:      %v\nReadAll:     %v", serr, derr, rerr)
		}
		if derr != nil {
			return
		}
		if !slices.Equal(streamed, decoded) || !slices.Equal(read, decoded) {
			t.Fatalf("events disagree: Reader.Next %d, Decode %d, ReadAll %d events",
				len(streamed), len(decoded), len(read))
		}
		enc, err := Encode(decoded)
		if err != nil {
			t.Fatalf("Encode of decoded events: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("Encode(Decode(data)) differs from data (%d vs %d bytes)", len(enc), len(data))
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

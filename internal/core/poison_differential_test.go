package core

import (
	"testing"

	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// The poisoner differential suite is the write-side twin of
// differential_test.go: the templated fast writers (template.go, Fill64)
// must leave exactly the shadow bytes and Stats the reference writers
// (MarkAllocatedRef / PoisonRef / the three-call chunk sequence) leave, for
// every size class crossing a folding-degree boundary, every shadow-word
// alignment of the base, and every poison kind.

// poisonSizes crosses every folding-degree boundary reachable in the test
// window (q around each power of two) with full-segment and partial tails.
func poisonSizes() []uint64 {
	var sizes []uint64
	for _, q := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257} {
		for _, rem := range []int{0, 1, 3, 7} {
			if s := uint64(q*8 + rem); s > 0 {
				sizes = append(sizes, s)
			}
		}
	}
	return sizes
}

var allPoisonKinds = []san.PoisonKind{
	san.RedzoneLeft, san.RedzoneRight, san.HeapFreed,
	san.StackRedzone, san.StackAfterReturn, san.GlobalRedzone,
}

// snapshotAll copies every segment code of s's shadow.
func snapshotAll(s *Sanitizer) []uint8 {
	return s.Shadow().Snapshot(0, s.Shadow().NumSegments())
}

// mustMatch asserts byte-identical shadow and identical Stats between the
// fast- and reference-path instances.
func mustMatch(t *testing.T, name string, fast, ref *Sanitizer) {
	t.Helper()
	fr, rr := snapshotAll(fast), snapshotAll(ref)
	if len(fr) != len(rr) {
		t.Fatalf("%s: shadow sizes differ", name)
	}
	for i := range fr {
		if fr[i] != rr[i] {
			t.Fatalf("%s: shadow diverged at segment %d: fast=%d ref=%d", name, i, fr[i], rr[i])
		}
	}
	if *fast.Stats() != *ref.Stats() {
		t.Fatalf("%s: stats diverged: fast=%+v ref=%+v", name, *fast.Stats(), *ref.Stats())
	}
}

// TestPoisonDifferentialMarkAllocated sweeps the fold-template writer
// against the reference ladder for every size class and every shadow-word
// alignment of the base (offsets 0..7 segments shift where CopySeg's
// backing copy starts relative to 64-bit word boundaries).
func TestPoisonDifferentialMarkAllocated(t *testing.T) {
	for _, size := range poisonSizes() {
		for off := 0; off < 8; off++ {
			fast, ref, base := diffPair(1 << 13)
			b := base + vmem.Addr(off*8)
			fast.MarkAllocated(b, size)
			ref.MarkAllocated(b, size)
			mustMatch(t, "MarkAllocated(+"+itoa(uint64(off*8))+", "+itoa(size)+")", fast, ref)
		}
	}
}

// TestPoisonDifferentialPoison sweeps the word-wide Poison writer against
// the reference byte loop for every kind, size class and alignment, over a
// non-trivial background (a live object) so partial overwrites are covered.
func TestPoisonDifferentialPoison(t *testing.T) {
	for _, kind := range allPoisonKinds {
		for _, size := range poisonSizes() {
			for off := 0; off < 8; off += 3 {
				fast, ref, base := diffPair(1 << 13)
				fast.MarkAllocated(base, 4096)
				ref.MarkAllocated(base, 4096)
				b := base + vmem.Addr(off*8)
				fast.Poison(b, size, kind)
				ref.Poison(b, size, kind)
				mustMatch(t, "Poison(+"+itoa(uint64(off*8))+", "+itoa(size)+", kind "+itoa(uint64(kind))+")", fast, ref)
			}
		}
	}
}

// TestPoisonDifferentialPoisonChunk proves the one-stamp chunk template
// identical to (a) the reference path and (b) the three-call fallback
// sequence the allocators use when a poisoner lacks the extension —
// the equivalence san.ChunkPoisoner's contract promises.
func TestPoisonDifferentialPoisonChunk(t *testing.T) {
	kinds := []struct{ left, right san.PoisonKind }{
		{san.RedzoneLeft, san.RedzoneRight},
		{san.StackRedzone, san.StackRedzone},
	}
	for _, ks := range kinds {
		for _, rz := range []uint64{8, 16, 32} {
			for _, size := range poisonSizes() {
				for off := 0; off < 8; off += 5 {
					fast, ref, base := diffPair(1 << 13)
					b := base + vmem.Addr(off*8)
					fast.PoisonChunk(b, rz, size, rz, ks.left, ks.right)
					ref.PoisonChunk(b, rz, size, rz, ks.left, ks.right)
					name := "PoisonChunk(rz " + itoa(rz) + ", size " + itoa(size) + ", +" + itoa(uint64(off*8)) + ")"
					mustMatch(t, name, fast, ref)

					// Same-path equivalence with the three-call fallback.
					threecall, _, base2 := diffPair(1 << 13)
					b2 := base2 + vmem.Addr(off*8)
					reserved := (size + 7) &^ 7
					threecall.Poison(b2, rz, ks.left)
					threecall.MarkAllocated(b2+vmem.Addr(rz), size)
					threecall.Poison(b2+vmem.Addr(rz+reserved), rz, ks.right)
					mustMatch(t, name+" vs three-call", fast, threecall)
				}
			}
		}
	}
}

// TestPoisonDifferentialPoisonFrame proves the whole-frame stamp identical
// to the reference path and to the per-local PoisonChunk loop.
func TestPoisonDifferentialPoisonFrame(t *testing.T) {
	frames := [][]uint64{
		{8},
		{0},
		{1, 2, 3},
		{24, 100, 7, 8},
		{64, 0, 129, 33, 15},
	}
	for _, sizes := range frames {
		for _, rz := range []uint64{8, 16} {
			fast, ref, base := diffPair(1 << 13)
			fast.PoisonFrame(base, rz, sizes)
			ref.PoisonFrame(base, rz, sizes)
			name := "PoisonFrame(rz " + itoa(rz) + ", " + itoa(uint64(len(sizes))) + " locals)"
			mustMatch(t, name, fast, ref)

			perLocal, _, base2 := diffPair(1 << 13)
			at := base2
			for _, size := range sizes {
				if size == 0 {
					size = 1
				}
				perLocal.PoisonChunk(at, rz, size, rz, san.StackRedzone, san.StackRedzone)
				at += vmem.Addr(rz + ((size + 7) &^ 7) + rz)
			}
			mustMatch(t, name+" vs per-local", fast, perLocal)
		}
	}
}

// TestPoisonDifferentialBeyondTemplateCap exercises the over-cap fallback:
// objects with more than maxTemplateSegs segments bypass the template
// caches and must still match the reference writers exactly.
func TestPoisonDifferentialBeyondTemplateCap(t *testing.T) {
	size := uint64(maxTemplateSegs+3)*8 + 5
	for off := 0; off < 8; off += 7 {
		fast, ref, base := diffPair(1 << 17)
		b := base + vmem.Addr(off*8)
		fast.MarkAllocated(b, size)
		ref.MarkAllocated(b, size)
		mustMatch(t, "MarkAllocated(over-cap)", fast, ref)

		fast.PoisonChunk(b, 16, size, 16, san.RedzoneLeft, san.RedzoneRight)
		ref.PoisonChunk(b, 16, size, 16, san.RedzoneLeft, san.RedzoneRight)
		mustMatch(t, "PoisonChunk(over-cap)", fast, ref)

		fast.Poison(b, size, san.HeapFreed)
		ref.Poison(b, size, san.HeapFreed)
		mustMatch(t, "Poison(over-cap)", fast, ref)
	}
	// An over-cap frame falls back to the per-local loop.
	sizes := []uint64{size, 40, size}
	fast, ref, base := diffPair(1 << 19)
	fast.PoisonFrame(base, 16, sizes)
	ref.PoisonFrame(base, 16, sizes)
	mustMatch(t, "PoisonFrame(over-cap)", fast, ref)
}

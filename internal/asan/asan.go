// Package asan reimplements AddressSanitizer's shadow encoding and runtime
// checks (Serebryany et al., USENIX ATC'12) as the paper's primary
// baseline.
//
// Encoding (Example 1 in the paper): one shadow byte per 8-byte segment;
// 0 means all 8 bytes addressable, k ∈ 1..7 means only the first k bytes
// are addressable, and codes ≥ 0xf0 are error codes saying *why* the
// segment is non-addressable. The protection density is at most 8 bytes
// per metadata load, which is precisely the deficiency GiantSan attacks:
// checking an S-byte region costs ⌈S/8⌉ loads here versus O(1) in
// internal/core.
package asan

import (
	"sync/atomic"

	"giantsan/internal/report"
	"giantsan/internal/san"
	"giantsan/internal/shadow"
	"giantsan/internal/vmem"
)

// Shadow error codes, following ASan's conventional values.
const (
	CodeGood         uint8 = 0x00
	CodeHeapLeftRZ   uint8 = 0xfa
	CodeHeapRightRZ  uint8 = 0xfb
	CodeHeapFreed    uint8 = 0xfd
	CodeStackRZ      uint8 = 0xf1
	CodeStackRetired uint8 = 0xf5
	CodeGlobalRZ     uint8 = 0xf9
	CodeUnallocated  uint8 = 0xfe
)

// Sanitizer is the ASan runtime. It implements san.Sanitizer.
type Sanitizer struct {
	sh    *shadow.Memory
	stats san.Stats
	// name lets the same runtime serve as both "asan" and "asan--"
	// (ASan-- differs only in which checks the instrumentation emits).
	name string
	// ref routes checks and poisoner calls through the reference
	// (pre-optimization) implementations; the differential suites prove
	// both paths observably identical.
	ref bool
}

// New returns an ASan instance over sp; the whole space starts poisoned as
// unallocated.
func New(sp *vmem.Space) *Sanitizer { return newNamed(sp, "asan") }

// NewMinus returns the same runtime named "asan--": the debloating happens
// in the instrumentation planner, not in the runtime (the ASan-- paper
// removes and merges checks; the check sequence itself is ASan's).
func NewMinus(sp *vmem.Space) *Sanitizer { return newNamed(sp, "asan--") }

func newNamed(sp *vmem.Space, name string) *Sanitizer {
	return &Sanitizer{sh: shadow.New(sp, CodeUnallocated), name: name}
}

// Name implements san.Sanitizer.
func (a *Sanitizer) Name() string { return a.name }

// DropOverlay implements san.Resetter: the whole shadow snaps back to
// the CodeUnallocated state newNamed lays down, in O(dirty pages). Like
// core's it bills no ShadowStores — recycling is arena maintenance
// outside the cost model.
func (a *Sanitizer) DropOverlay() { a.sh.DropOverlay() }

// ResetStats implements san.Resetter.
func (a *Sanitizer) ResetStats() { a.stats.Reset() }

// Stats implements san.Sanitizer.
func (a *Sanitizer) Stats() *san.Stats { return &a.stats }

// Shadow exposes the shadow memory for tests and tools.
func (a *Sanitizer) Shadow() *shadow.Memory { return a.sh }

// SetReference implements san.ReferencePath.
func (a *Sanitizer) SetReference(on bool) { a.ref = on }

// Reference implements san.ReferencePath.
func (a *Sanitizer) Reference() bool { return a.ref }

func (a *Sanitizer) load(p vmem.Addr) uint8 {
	a.stats.ShadowLoads++
	return a.sh.Load(p)
}

// MarkAllocatedRef is the reference implementation of ASan's zero-fill +
// trailing partial code, one byte store per segment. Kept for the
// differential suites; the fast MarkAllocated must stay byte-identical.
func (a *Sanitizer) MarkAllocatedRef(base vmem.Addr, size uint64) {
	if size == 0 {
		return
	}
	q := int(size >> shadow.SegShift)
	rem := int(size & 7)
	l := a.sh.Index(base)
	a.sh.Fill(l, q, CodeGood)
	if rem > 0 {
		a.sh.StoreSeg(l+q, uint8(rem))
	}
	atomic.AddUint64(&a.stats.ShadowStores, markSegStores(q, rem))
}

// markSegStores is the conceptual store count of marking q full segments
// plus an optional partial tail — the reference cost model both paths bill.
func markSegStores(q, rem int) uint64 {
	n := uint64(q)
	if rem > 0 {
		n++
	}
	return n
}

// MarkAllocated implements san.Poisoner. The fast lane zero-fills with
// word-wide stores (the zero word IS the template for ASan's encoding, so
// no memoization is needed on this side); shadow bytes and Stats are
// identical to MarkAllocatedRef.
func (a *Sanitizer) MarkAllocated(base vmem.Addr, size uint64) {
	if a.ref {
		a.MarkAllocatedRef(base, size)
		return
	}
	if size == 0 {
		return
	}
	q := int(size >> shadow.SegShift)
	rem := int(size & 7)
	l := a.sh.Index(base)
	a.sh.Fill64(l, q, CodeGood)
	if rem > 0 {
		a.sh.StoreSeg(l+q, uint8(rem))
	}
	atomic.AddUint64(&a.stats.ShadowStores, markSegStores(q, rem))
}

func poisonCode(kind san.PoisonKind) uint8 {
	switch kind {
	case san.RedzoneLeft:
		return CodeHeapLeftRZ
	case san.RedzoneRight:
		return CodeHeapRightRZ
	case san.HeapFreed:
		return CodeHeapFreed
	case san.StackRedzone:
		return CodeStackRZ
	case san.StackAfterReturn:
		return CodeStackRetired
	case san.GlobalRedzone:
		return CodeGlobalRZ
	default:
		return CodeUnallocated
	}
}

func errorKind(code uint8) report.Kind {
	switch code {
	case CodeHeapLeftRZ:
		return report.HeapBufferUnderflow
	case CodeHeapRightRZ:
		return report.HeapBufferOverflow
	case CodeHeapFreed:
		return report.UseAfterFree
	case CodeStackRZ:
		return report.StackBufferOverflow
	case CodeStackRetired:
		return report.UseAfterReturn
	case CodeGlobalRZ:
		return report.GlobalBufferOverflow
	case CodeUnallocated:
		return report.WildAccess
	default:
		return report.HeapBufferOverflow // partial-segment violation
	}
}

// PoisonRef is the reference poisoner, one byte store per segment. Kept
// for the differential suites; the fast Poison must stay byte-identical.
func (a *Sanitizer) PoisonRef(base vmem.Addr, size uint64, kind san.PoisonKind) {
	if size == 0 {
		return
	}
	code := poisonCode(kind)
	l := a.sh.Index(base)
	n := int((size + 7) >> shadow.SegShift)
	a.sh.Fill(l, n, code)
	atomic.AddUint64(&a.stats.ShadowStores, uint64(n))
}

// Poison implements san.Poisoner. The fast lane writes the repeated error
// code word-wide; shadow bytes and Stats are identical to PoisonRef.
func (a *Sanitizer) Poison(base vmem.Addr, size uint64, kind san.PoisonKind) {
	if a.ref {
		a.PoisonRef(base, size, kind)
		return
	}
	if size == 0 {
		return
	}
	code := poisonCode(kind)
	l := a.sh.Index(base)
	n := int((size + 7) >> shadow.SegShift)
	a.sh.Fill64(l, n, code)
	atomic.AddUint64(&a.stats.ShadowStores, uint64(n))
}

func (a *Sanitizer) fault(p vmem.Addr, w uint64, code uint8, t report.AccessType) *report.Error {
	a.stats.Errors++
	return &report.Error{Kind: errorKind(code), Access: t, Addr: p, Size: w, Detector: a.name}
}

func (a *Sanitizer) nullOrWild(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	a.stats.Errors++
	kind := report.WildAccess
	if p < 1<<12 {
		kind = report.NullDereference
	}
	return &report.Error{Kind: kind, Access: t, Addr: p, Size: w, Detector: a.name}
}

// checkSegCode delivers the verdict for the already-loaded code v of the
// segment holding p, for the bytes [off, off+n) with off = p mod 8.
// Loading (and load counting) is the caller's job, so the fast paths can
// feed it codes from wide or raw loads without double-counting.
func (a *Sanitizer) checkSegCode(v uint8, p vmem.Addr, n uint64, t report.AccessType) *report.Error {
	if v == CodeGood {
		return nil
	}
	off := p & 7
	if v < 8 && off+vmem.Addr(n) <= vmem.Addr(v) {
		// Passing inside a partial segment: the access ended v−(off+n)
		// bytes short of the first poisoned byte. This branch is the single
		// near-miss funnel for both ASan checker paths — a partial code can
		// only pass on the final touched segment (any earlier segment is
		// checked with n extending to the segment end, so off+n is 8 and
		// exceeds v) — which keeps the fast/reference Stats equality the
		// differential suites demand.
		a.stats.NearMisses++
		a.stats.NearMissMask |= 1 << uint(vmem.Addr(v)-off-vmem.Addr(n))
		return nil
	}
	// First bad byte: off if v is an error code, else v (the partial k).
	bad := p
	if v < 8 && off < vmem.Addr(v) {
		bad = p + (vmem.Addr(v) - off)
	}
	return a.fault(bad, n, v, t)
}

// checkSeg verifies that the bytes [off, off+n) of the segment holding p
// are addressable, where off = p mod 8.
func (a *Sanitizer) checkSeg(p vmem.Addr, n uint64, t report.AccessType) *report.Error {
	return a.checkSegCode(a.load(p), p, n, t)
}

// CheckAccessRef is the reference implementation of ASan's
// instruction-level check (Example 1):
//
//	int8_t v = m[p / 8];
//	if (v != 0 && (p & 7) + w > v) ReportError(p, w);
//
// Accesses that straddle a segment boundary (which naturally-aligned
// compiler-generated accesses never do) are handled soundly with a second
// load, matching ASan's slow-path region routine.
//
// This is the pre-optimization path, kept for the differential suites; the
// specialized CheckAccess must stay observably identical to it.
func (a *Sanitizer) CheckAccessRef(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	a.stats.Checks++
	if w == 0 {
		return nil
	}
	if !a.sh.Contains(p) || !a.sh.Contains(p+vmem.Addr(w)-1) {
		return a.nullOrWild(p, w, t)
	}
	first := 8 - (p & 7)
	if vmem.Addr(w) <= first {
		return a.checkSeg(p, w, t)
	}
	if err := a.checkSeg(p, uint64(first), t); err != nil {
		return err
	}
	return a.checkRangeAligned(p+first, p+vmem.Addr(w), t)
}

// CheckAccess is the specialized instruction-level check: one bounds
// comparison pair, one raw shadow load and one compare-to-zero on the
// common (intra-segment, fully good) case. Verdicts, reports and Stats are
// identical to CheckAccessRef.
func (a *Sanitizer) CheckAccess(p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	if a.ref {
		return a.CheckAccessRef(p, w, t)
	}
	a.stats.Checks++
	if w == 0 {
		return nil
	}
	sh := a.sh
	base := sh.Base()
	last := (p + vmem.Addr(w) - 1 - base) >> shadow.SegShift
	if p < base || last >= vmem.Addr(sh.NumSegments()) {
		return a.nullOrWild(p, w, t)
	}
	first := 8 - (p & 7)
	if vmem.Addr(w) <= first {
		a.stats.ShadowLoads++
		v := sh.CodeAt(int((p - base) >> shadow.SegShift))
		if v == CodeGood {
			return nil
		}
		return a.checkSegCode(v, p, w, t)
	}
	a.stats.ShadowLoads++
	if err := a.checkSegCode(sh.CodeAt(int((p-base)>>shadow.SegShift)), p, uint64(first), t); err != nil {
		return err
	}
	return a.checkRangeAlignedFast(p+first, p+vmem.Addr(w), t)
}

// CheckRangeRef is the reference implementation of ASan's linear guardian
// (the routine backing the interceptors for memset, memcpy, strcpy, ...):
// it loads one shadow byte per segment, Θ((r−l)/8) metadata loads. This
// linear cost is the baseline GiantSan's O(1) CI replaces.
func (a *Sanitizer) CheckRangeRef(l, r vmem.Addr, t report.AccessType) *report.Error {
	a.stats.Checks++
	a.stats.RangeChecks++
	if l >= r {
		return nil
	}
	if !a.sh.Contains(l) || !a.sh.Contains(r-1) {
		return a.nullOrWild(l, r-l, t)
	}
	// Unaligned head.
	if off := l & 7; off != 0 {
		headEnd := min(r, l+(8-off))
		if err := a.checkSeg(l, uint64(headEnd-l), t); err != nil {
			return err
		}
		l = headEnd
		if l >= r {
			return nil
		}
	}
	return a.checkRangeAligned(l, r, t)
}

// CheckRange is the specialized linear guardian: the mid-range scan goes 8
// segments at a time through one 64-bit wide shadow load (a zero word is 8
// fully addressable segments), falling back to the per-segment walk only
// around a non-zero word. Stats still count one conceptual metadata load
// per segment examined — the paper's cost model — so the guardian stays
// Θ((r−l)/8) in ShadowLoads while the wall clock drops; verdicts, reports
// and counters are identical to CheckRangeRef.
func (a *Sanitizer) CheckRange(l, r vmem.Addr, t report.AccessType) *report.Error {
	if a.ref {
		return a.CheckRangeRef(l, r, t)
	}
	a.stats.Checks++
	a.stats.RangeChecks++
	if l >= r {
		return nil
	}
	sh := a.sh
	base := sh.Base()
	if l < base || (r-1-base)>>shadow.SegShift >= vmem.Addr(sh.NumSegments()) {
		return a.nullOrWild(l, r-l, t)
	}
	// Unaligned head.
	if off := l & 7; off != 0 {
		headEnd := min(r, l+(8-off))
		a.stats.ShadowLoads++
		if err := a.checkSegCode(sh.CodeAt(int((l-base)>>shadow.SegShift)), l, uint64(headEnd-l), t); err != nil {
			return err
		}
		l = headEnd
		if l >= r {
			return nil
		}
	}
	return a.checkRangeAlignedFast(l, r, t)
}

// checkRangeAligned scans [l, r) with l segment-aligned (reference path).
func (a *Sanitizer) checkRangeAligned(l, r vmem.Addr, t report.AccessType) *report.Error {
	for p := l; p < r; p += 8 {
		n := min(vmem.Addr(8), r-p)
		if err := a.checkSeg(p, uint64(n), t); err != nil {
			return err
		}
	}
	return nil
}

// checkRangeAlignedFast scans [l, r) with l segment-aligned, 8 segments per
// wide load. Bounds were established by the caller.
func (a *Sanitizer) checkRangeAlignedFast(l, r vmem.Addr, t report.AccessType) *report.Error {
	sh := a.sh
	base := sh.Base()
	p := l
	for r-p >= 8*shadow.SegSize {
		seg := int((p - base) >> shadow.SegShift)
		if sh.LoadWide(seg) == 0 {
			// 8 fully good segments; bill the 8 conceptual loads the
			// reference path would have made.
			a.stats.ShadowLoads += shadow.WideSegs
			p += 8 * shadow.SegSize
			continue
		}
		// Some segment in this word is not plainly good: replay the
		// reference walk over the word so the first-bad-byte report and
		// the load count match it exactly.
		for q := p; q < p+8*shadow.SegSize; q += 8 {
			a.stats.ShadowLoads++
			v := sh.CodeAt(int((q - base) >> shadow.SegShift))
			if v == CodeGood {
				continue
			}
			return a.checkSegCode(v, q, 8, t)
		}
		p += 8 * shadow.SegSize
	}
	for ; p < r; p += 8 {
		n := min(vmem.Addr(8), r-p)
		a.stats.ShadowLoads++
		if err := a.checkSegCode(sh.CodeAt(int((p-base)>>shadow.SegShift)), p, uint64(n), t); err != nil {
			return err
		}
	}
	return nil
}

// CheckAnchored implements san.Checker. ASan has no anchor support: the
// check degrades to the plain instruction-level check of the accessed
// location, which is what lets large-stride overflows jump redzones
// (Table 5's false negatives).
func (a *Sanitizer) CheckAnchored(anchor, p vmem.Addr, w uint64, t report.AccessType) *report.Error {
	if w <= 8 {
		return a.CheckAccess(p, w, t)
	}
	return a.CheckRange(p, p+vmem.Addr(w), t)
}

// NewCache implements san.Sanitizer: ASan has no history caching, so every
// "cached" access pays a full check; Finish still replays the loop-exit
// hazard check (see san.PassCache).
func (a *Sanitizer) NewCache() san.Cache { return &san.PassCache{S: a} }

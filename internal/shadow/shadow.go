// Package shadow implements the shadow memory substrate shared by every
// location-based sanitizer in this module.
//
// The virtual space is partitioned into aligned 8-byte segments and each
// segment owns one shadow byte, the classic 1:8 density used by ASan and
// kept by GiantSan. The package is encoding-agnostic: it stores raw state
// codes and leaves their interpretation to the sanitizer packages
// (internal/asan, internal/core). That split mirrors the paper, where the
// shadow mapping is shared infrastructure and only the encoding changes.
//
// A Memory is a copy-on-write page table. Every entry starts at one shared
// pristine page holding the initial code; the first write to a page
// privatizes a copy. Construction therefore writes no shadow bytes, an
// arena's resident shadow is proportional to the pages its tenant
// dirtied, and DropOverlay returns the whole shadow to its initial state
// in O(dirty pages). Privatization is published with a per-page
// compare-and-swap, so concurrent writers to disjoint spans are safe even
// when their spans share a page — the allocators poison disjoint chunks
// outside their locks.
package shadow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync/atomic"

	"giantsan/internal/vmem"
)

// SegShift is log2 of the segment size: segments are 8 bytes.
const SegShift = 3

// SegSize is the number of application bytes covered by one shadow byte.
const SegSize = 1 << SegShift

// PageShift is log2 of the page size in segments.
const PageShift = 12

// PageSegs is the copy-on-write granularity: segments per page. At the
// 1:8 shadow density one page covers 32 KiB of application memory.
const PageSegs = 1 << PageShift

// PageBytes is the size of one page in shadow bytes.
const PageBytes = PageSegs

const pageMask = PageSegs - 1

// page holds the codes of PageSegs consecutive segments. The last page of
// a Memory may extend past NumSegments; its slack is never read.
type page [PageSegs]uint8

// Memory is the shadow for one vmem.Space: a page table whose entries all
// start at one shared, immutable pristine page and are privatized on first
// write.
//
// Loads go through Load so that callers that care about metadata-loading
// cost can count them; the hot sanitizer paths use Load exactly once per
// conceptual "shadow memory read" in the paper's algorithms.
type Memory struct {
	base     vmem.Addr // base address of the covered space
	nseg     int       // total segments covered
	pristine *page     // shared by every clean entry; never written
	pages    []atomic.Pointer[page]
	// dirty has one bit per privatized page, so DropOverlay visits only
	// those; dirtyPages counts them.
	dirty      []atomic.Uint64
	dirtyPages atomic.Int64
}

// pristines caches one pristine page per code, shared by every Memory so
// that an arena's clean shadow costs no page of its own. A page is never
// written once published.
var pristines [256]atomic.Pointer[page]

func pristinePage(code uint8) *page {
	if pg := pristines[code].Load(); pg != nil {
		return pg
	}
	pg := new(page)
	for i := range pg {
		pg[i] = code
	}
	pristines[code].CompareAndSwap(nil, pg)
	return pristines[code].Load()
}

// New returns shadow memory covering the whole space, every segment
// holding code. Construction writes no shadow bytes: every page-table
// entry points at the shared pristine page.
func New(sp *vmem.Space, code uint8) *Memory {
	n := int(sp.Size() >> SegShift)
	np := (n + PageSegs - 1) >> PageShift
	m := &Memory{
		base:     sp.Base(),
		nseg:     n,
		pristine: pristinePage(code),
		pages:    make([]atomic.Pointer[page], np),
		dirty:    make([]atomic.Uint64, (np+63)/64),
	}
	for i := range m.pages {
		m.pages[i].Store(m.pristine)
	}
	return m
}

// Base returns the base address of the covered space.
func (m *Memory) Base() vmem.Addr { return m.base }

// NumSegments returns the number of segments covered.
func (m *Memory) NumSegments() int { return m.nseg }

// Index returns the segment index of address a.
func (m *Memory) Index(a vmem.Addr) int {
	i := int((a - m.base) >> SegShift)
	if a < m.base || i >= m.nseg {
		panic(fmt.Sprintf("shadow: address %#x outside covered space", a))
	}
	return i
}

// Contains reports whether address a lies in the covered space.
func (m *Memory) Contains(a vmem.Addr) bool {
	return a >= m.base && (a-m.base)>>SegShift < vmem.Addr(m.nseg)
}

// Load returns the state code of the segment covering address a.
func (m *Memory) Load(a vmem.Addr) uint8 { return m.CodeAt(m.Index(a)) }

// LoadSeg returns the state code of segment index p.
func (m *Memory) LoadSeg(p int) uint8 { return m.CodeAt(p) }

// Store sets the state code of the segment covering address a.
func (m *Memory) Store(a vmem.Addr, v uint8) { m.StoreSeg(m.Index(a), v) }

// Unchecked hot-path accessors. The checked accessors above panic on wild
// addresses, which is the right default for allocators and tools; the
// sanitizer check paths establish bounds once per check and then must not
// pay a second, per-load classification. Callers of everything below own
// the bounds proof.

// IndexUnchecked returns the segment index of address a without the
// covered-space check. a must satisfy Contains(a).
func (m *Memory) IndexUnchecked(a vmem.Addr) int {
	return int((a - m.base) >> SegShift)
}

// CodeAt returns the state code of segment index p without the
// covered-space classification — the hot read primitive the check paths
// build on. p must be below NumSegments. Clean pages serve the shared
// pristine page.
func (m *Memory) CodeAt(p int) uint8 {
	return m.pages[p>>PageShift].Load()[p&pageMask]
}

// LoadUnchecked returns the state code of the segment covering a without
// the covered-space check. a must satisfy Contains(a).
func (m *Memory) LoadUnchecked(a vmem.Addr) uint8 {
	return m.CodeAt(int((a - m.base) >> SegShift))
}

// WideSegs is the number of segments one LoadWide covers.
const WideSegs = 8

// LoadWide returns the codes of the 8 consecutive segments starting at
// segment index p, packed little-endian (segment p is the low byte). One
// machine load stands in for 8 segment loads — the trick ASan's real
// guardian uses to scan mid-range shadow 8 segments at a time (a zero word
// means 8 fully addressable segments under ASan's encoding). p+8 must not
// exceed NumSegments.
func (m *Memory) LoadWide(p int) uint64 {
	if Debug {
		m.assertSpan("LoadWide", p, WideSegs)
	}
	if off := p & pageMask; off <= PageSegs-WideSegs {
		return binary.LittleEndian.Uint64(m.pages[p>>PageShift].Load()[off:])
	}
	// The word straddles a page boundary: assemble byte-wise (rare — only
	// 7-of-PageSegs positions per page land here).
	var w uint64
	for i := 0; i < WideSegs; i++ {
		w |= uint64(m.CodeAt(p+i)) << (8 * i)
	}
	return w
}

// StoreSeg sets the state code of segment index p.
func (m *Memory) StoreSeg(p int, v uint8) {
	m.materialize(p >> PageShift)[p&pageMask] = v
}

// Debug gates the span assertions on the bulk accessors (Fill, Fill64,
// LoadWide, StoreWide, CopySeg). Unlike the per-segment read side — where
// IndexUnchecked exists because per-load classification is the hot cost —
// the bulk routines pay one comparison pair per *call*, negligible next to
// the bytes they move, so the assertions default to on. Without them a
// negative n is accepted silently by the word-stepping writers (the loop
// simply never runs), hiding an allocator arithmetic bug behind a no-op,
// and a short LoadWide would fail as a bare slice-bounds panic instead of
// naming the offending span.
var Debug = true

// assertSpan panics when [p, p+n) is not a valid segment span.
func (m *Memory) assertSpan(op string, p, n int) {
	if n < 0 || p < 0 || p+n > m.nseg {
		panic(fmt.Sprintf("shadow: %s span [%d, %d+%d) outside the %d covered segments", op, p, p, n, m.nseg))
	}
}

// Fill sets n consecutive segments starting at segment index p to v, one
// byte store per segment. This is the reference writer; the fast lanes use
// Fill64/CopySeg below.
func (m *Memory) Fill(p, n int, v uint8) {
	if Debug {
		m.assertSpan("Fill", p, n)
	}
	for n > 0 {
		dst := m.writable(p, n)
		for i := range dst {
			dst[i] = v
		}
		p, n = p+len(dst), n-len(dst)
	}
}

// Fill64 sets n consecutive segments starting at segment index p to v,
// retiring 8 shadow bytes per machine store: the interior is written as
// 64-bit words of the repeated code, with byte stores only for the
// sub-word tail. It is the write-side twin of LoadWide and must produce
// exactly the bytes Fill produces.
func (m *Memory) Fill64(p, n int, v uint8) {
	if Debug {
		m.assertSpan("Fill64", p, n)
	}
	word := uint64(v) * 0x0101010101010101
	for n > 0 {
		dst := m.writable(p, n)
		p, n = p+len(dst), n-len(dst)
		for len(dst) >= 8 {
			binary.LittleEndian.PutUint64(dst, word)
			dst = dst[8:]
		}
		for i := range dst {
			dst[i] = v
		}
	}
}

// StoreWide sets the codes of the 8 consecutive segments starting at
// segment index p from one packed little-endian word (segment p takes the
// low byte) — the store dual of LoadWide. p+8 must not exceed NumSegments.
func (m *Memory) StoreWide(p int, w uint64) {
	if Debug {
		m.assertSpan("StoreWide", p, WideSegs)
	}
	if off := p & pageMask; off <= PageSegs-WideSegs {
		binary.LittleEndian.PutUint64(m.materialize(p >> PageShift)[off:], w)
		return
	}
	var buf [WideSegs]uint8
	binary.LittleEndian.PutUint64(buf[:], w)
	m.CopySeg(p, buf[:])
}

// CopySeg stamps the template codes into the segments starting at segment
// index p — one memmove instead of len(codes) segment stores. This is how
// the precomputed fold templates reach the shadow.
func (m *Memory) CopySeg(p int, codes []uint8) {
	if Debug {
		m.assertSpan("CopySeg", p, len(codes))
	}
	for len(codes) > 0 {
		k := copy(m.writable(p, len(codes)), codes)
		p, codes = p+k, codes[k:]
	}
}

// Snapshot copies the state codes of n segments starting at segment p.
// It exists for tests, the shadowviz tool, and any caller that needs a
// contiguous view of the shadow.
func (m *Memory) Snapshot(p, n int) []uint8 {
	if p < 0 || n < 0 || p+n > m.nseg {
		panic(fmt.Sprintf("shadow: Snapshot span [%d, %d+%d) outside the %d covered segments", p, p, n, m.nseg))
	}
	out := make([]uint8, n)
	for off := 0; off < n; {
		off += copy(out[off:], m.readable(p+off, n-off))
	}
	return out
}

// Digest returns the FNV-64a hash of every segment code in order: a
// fingerprint of the whole shadow that reads it page by page without a
// contiguous copy.
func (m *Memory) Digest() uint64 {
	h := fnv.New64a()
	for p := 0; p < m.nseg; p += PageSegs {
		h.Write(m.readable(p, m.nseg-p))
	}
	return h.Sum64()
}

// SegStart returns the first address of segment index p.
func (m *Memory) SegStart(p int) vmem.Addr {
	return m.base + vmem.Addr(p)<<SegShift
}

// OverlayStats reports the privatized (dirty) page count and their
// resident shadow bytes. Both are zero for a new Memory and right after
// DropOverlay — the measure of "memory proportional to what the tenant
// dirtied".
func (m *Memory) OverlayStats() (pages int, bytes int) {
	n := int(m.dirtyPages.Load())
	return n, n * PageBytes
}

// DropOverlay points every privatized page back at the pristine page,
// returning the whole shadow to its initial state in O(dirty pages). It
// must not run concurrently with other accesses to m.
func (m *Memory) DropOverlay() {
	for w := range m.dirty {
		word := m.dirty[w].Swap(0)
		for word != 0 {
			m.pages[w<<6+bits.TrailingZeros64(word)].Store(m.pristine)
			word &= word - 1
		}
	}
	m.dirtyPages.Store(0)
}

// materialize returns page pg writable, privatizing it on first write.
func (m *Memory) materialize(pg int) *page {
	cur := m.pages[pg].Load()
	if cur == m.pristine {
		cur = m.privatize(pg)
	}
	return cur
}

// privatize publishes a private copy of the pristine page at entry pg.
// Concurrent writers to disjoint spans of one page may race here: each
// copies the pristine page, one compare-and-swap publishes its copy, and
// the losers discard theirs and write through the winner's. Copying from
// the immutable pristine page (never from a page another writer may be
// filling) is what makes the race benign.
func (m *Memory) privatize(pg int) *page {
	priv := new(page)
	*priv = *m.pristine
	if !m.pages[pg].CompareAndSwap(m.pristine, priv) {
		return m.pages[pg].Load()
	}
	word, bit := &m.dirty[pg>>6], uint64(1)<<(pg&63)
	for {
		old := word.Load()
		if word.CompareAndSwap(old, old|bit) {
			break
		}
	}
	m.dirtyPages.Add(1)
	return priv
}

// writable returns the materialized codes of segments [p, p+k), where k
// is n clipped at the end of p's page. n must be positive.
func (m *Memory) writable(p, n int) []uint8 {
	lo := p & pageMask
	return m.materialize(p >> PageShift)[lo:min(PageSegs, lo+n)]
}

// readable is writable's read-only twin: it never materializes, serving
// clean pages straight from the pristine page.
func (m *Memory) readable(p, n int) []uint8 {
	lo := p & pageMask
	return m.pages[p>>PageShift].Load()[lo:min(PageSegs, lo+n)]
}

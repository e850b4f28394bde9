package shadow

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"giantsan/internal/vmem"
)

// Multi-page geometry for the page-table tests: 256 KiB of application
// space is 32768 segments = 8 pages.
func multiPageSpace() *vmem.Space { return vmem.NewSpace(1 << 18) }

func TestUniformImageSharesOneBackingPage(t *testing.T) {
	sp := multiPageSpace()
	m, other := New(sp, 0xFE), New(sp, 0xFE)
	if m.NumSegments() != 32768 || len(m.pages) != 8 {
		t.Fatalf("geometry: %d segments, %d pages", m.NumSegments(), len(m.pages))
	}
	for pg := range m.pages {
		if m.pages[pg].Load() != other.pages[0].Load() {
			t.Errorf("page %d does not alias the shared pristine page", pg)
		}
	}
	// A partial tail page still shows the code.
	odd := New(vmem.NewSpace((PageSegs+5)*SegSize), 0x3C)
	if len(odd.pages) != 2 || odd.NumSegments() != PageSegs+5 {
		t.Fatalf("tail geometry: %d pages, %d segments", len(odd.pages), odd.NumSegments())
	}
	if odd.LoadSeg(PageSegs+4) != 0x3C {
		t.Error("tail segment does not show the initial code")
	}
}

func TestForkReadsImageWithoutResidency(t *testing.T) {
	sp := multiPageSpace()
	m := New(sp, 0xFE)
	for _, p := range []int{0, 1, PageSegs - 1, PageSegs, m.NumSegments() - 1} {
		if got := m.LoadSeg(p); got != 0xFE {
			t.Errorf("segment %d = %#x, want the initial code", p, got)
		}
	}
	if m.Load(sp.Base()) != 0xFE || m.LoadUnchecked(sp.Base()+64) != 0xFE {
		t.Error("address-keyed reads diverge from the initial code")
	}
	if pages, b := m.OverlayStats(); pages != 0 || b != 0 {
		t.Errorf("new Memory resident: %d pages, %d bytes", pages, b)
	}
}

func TestForkWriteMaterializesOnlyTouchedPages(t *testing.T) {
	sp := multiPageSpace()
	m, other := New(sp, 0xFE), New(sp, 0xFE)

	m.StoreSeg(10, 0x01)
	if pages, b := m.OverlayStats(); pages != 1 || b != PageBytes {
		t.Fatalf("after one store: %d pages, %d bytes", pages, b)
	}
	m.StoreSeg(11, 0x02) // same page: no new residency
	if pages, _ := m.OverlayStats(); pages != 1 {
		t.Fatalf("same-page store materialized again: %d pages", pages)
	}
	m.Fill64(3*PageSegs+7, 2*PageSegs, 0x55) // spans pages 3, 4, 5
	if pages, _ := m.OverlayStats(); pages != 4 {
		t.Fatalf("after span fill: %d pages resident, want 4", pages)
	}
	// The sibling, which shares the pristine page, stays pristine.
	if other.LoadSeg(10) != 0xFE || other.LoadSeg(3*PageSegs+7) != 0xFE {
		t.Error("sibling Memory sees this Memory's writes")
	}
	if op, ob := other.OverlayStats(); op != 0 || ob != 0 {
		t.Error("sibling Memory gained residency")
	}
	// Untouched pages in the written Memory still read through.
	if m.LoadSeg(PageSegs+1) != 0xFE {
		t.Error("clean page no longer reads the pristine page")
	}
}

func TestDropOverlayRestoresPristine(t *testing.T) {
	sp := multiPageSpace()
	nseg := int(sp.Size() >> SegShift)
	m := New(sp, 0xFE)
	m.Fill(100, 3*PageSegs, 0xAA)
	m.StoreWide(nseg-WideSegs, 0x1122334455667788)
	if pages, _ := m.OverlayStats(); pages == 0 {
		t.Fatal("no pages dirtied")
	}
	m.DropOverlay()
	if pages, b := m.OverlayStats(); pages != 0 || b != 0 {
		t.Fatalf("after drop: %d pages, %d bytes resident", pages, b)
	}
	fresh := New(sp, 0xFE)
	if !bytes.Equal(m.Snapshot(0, nseg), fresh.Snapshot(0, nseg)) {
		t.Fatal("dropped Memory is not byte-identical to a new one")
	}
	if m.Digest() != fresh.Digest() {
		t.Fatal("dropped Memory digest differs from a new one")
	}
	// The Memory is reusable: writing after a drop materializes again.
	m.StoreSeg(0, 0x01)
	if m.LoadSeg(0) != 0x01 || fresh.LoadSeg(0) != 0xFE {
		t.Error("post-drop write broken or leaked")
	}
	if pages, _ := m.OverlayStats(); pages != 1 {
		t.Errorf("post-drop write: %d pages resident, want 1", pages)
	}
}

// TestDigestMatchesFlatHash pins Digest to FNV-64a over the contiguous
// codes, so digests taken before and after the page-table layout agree.
func TestDigestMatchesFlatHash(t *testing.T) {
	sp := vmem.NewSpace((2*PageSegs + 9) * SegSize)
	m := New(sp, 0xFE)
	m.Fill(PageSegs-3, 20, 0x11)
	m.StoreSeg(m.NumSegments()-1, 0x22)
	// FNV-64a, written out so the reference does not share code with Digest.
	h := uint64(14695981039346656037)
	for _, c := range m.Snapshot(0, m.NumSegments()) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	if got := m.Digest(); got != h {
		t.Fatalf("Digest = %#x, flat FNV-64a = %#x", got, h)
	}
}

// TestForkMatchesDense is the page table's differential suite: the same
// random writer sequence applied to a Memory and to a flat []uint8 model
// must leave byte-identical codes at every probe point, across every
// writer — with spans straddling page boundaries — and both wide readers.
func TestForkMatchesDense(t *testing.T) {
	sp := multiPageSpace()
	nseg := int(sp.Size() >> SegShift)
	const code = 0xFE
	flat := bytes.Repeat([]uint8{code}, nseg)
	m := New(sp, code)
	flatWide := func(p int) uint64 {
		var w uint64
		for i := 0; i < WideSegs; i++ {
			w |= uint64(flat[p+i]) << (8 * i)
		}
		return w
	}

	rng := rand.New(rand.NewSource(8))
	span := func() (int, int) {
		p := rng.Intn(nseg)
		n := rng.Intn(3 * PageSegs)
		if p+n > nseg {
			n = nseg - p
		}
		return p, n
	}
	fillFlat := func(p, n int, v uint8) {
		for i := p; i < p+n; i++ {
			flat[i] = v
		}
	}
	for step := 0; step < 2000; step++ {
		v := uint8(rng.Intn(256))
		switch rng.Intn(7) {
		case 0:
			p, n := span()
			fillFlat(p, n, v)
			m.Fill(p, n, v)
		case 1:
			p, n := span()
			fillFlat(p, n, v)
			m.Fill64(p, n, v)
		case 2:
			p := rng.Intn(nseg)
			flat[p] = v
			m.StoreSeg(p, v)
		case 3:
			p := rng.Intn(nseg - WideSegs + 1)
			w := rng.Uint64()
			for i := 0; i < WideSegs; i++ {
				flat[p+i] = uint8(w >> (8 * i))
			}
			m.StoreWide(p, w)
		case 4:
			p, n := span()
			if n > 512 {
				n = 512
			}
			tpl := make([]uint8, n)
			rng.Read(tpl)
			copy(flat[p:], tpl)
			m.CopySeg(p, tpl)
		case 5:
			// A page-straddling wide store: the rare byte-wise lane.
			pg := 1 + rng.Intn(nseg>>PageShift-1)
			p := pg<<PageShift - 1 - rng.Intn(WideSegs-1)
			w := rng.Uint64()
			for i := 0; i < WideSegs; i++ {
				flat[p+i] = uint8(w >> (8 * i))
			}
			m.StoreWide(p, w)
		case 6:
			p := rng.Intn(nseg - WideSegs + 1)
			if fw, mw := flatWide(p), m.LoadWide(p); fw != mw {
				t.Fatalf("step %d: LoadWide(%d) flat %#x page table %#x", step, p, fw, mw)
			}
		}
		p := rng.Intn(nseg)
		if fv, mv := flat[p], m.LoadSeg(p); fv != mv {
			t.Fatalf("step %d: segment %d flat %#x page table %#x", step, p, fv, mv)
		}
	}
	if !bytes.Equal(flat, m.Snapshot(0, nseg)) {
		t.Fatal("final shadows diverge")
	}
	// Every page-straddling LoadWide position agrees too.
	for pg := 1; pg < len(m.pages); pg++ {
		for p := pg<<PageShift - WideSegs + 1; p < pg<<PageShift; p++ {
			if fw, mw := flatWide(p), m.LoadWide(p); fw != mw {
				t.Fatalf("straddle LoadWide(%d): flat %#x page table %#x", p, fw, mw)
			}
		}
	}
}

// TestConcurrentMaterialize drives the compare-and-swap publication under
// contention: writers fill disjoint spans that share every page, so each
// page is materialized by several goroutines at once, while readers scan
// a span no writer touches. Run under -race it also proves the reads and
// the losers' discarded copies are race-free. Every write must survive
// (no writer may land in a discarded copy) and residency must count each
// page exactly once.
func TestConcurrentMaterialize(t *testing.T) {
	sp := multiPageSpace()
	nseg := int(sp.Size() >> SegShift)
	const writers, readers = 4, 2
	// Segment i of each page belongs to writer i%writers, except the
	// first 64 segments of each page, which only readers look at.
	const reserved = 64
	for round := 0; round < 20; round++ {
		m := New(sp, 0xFE)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for pg := 0; pg < len(m.pages); pg++ {
					base := pg << PageShift
					for i := reserved + w*8; i < PageSegs; i += writers * 8 {
						switch (i / 8) % 3 {
						case 0:
							m.Fill64(base+i, 8, uint8(w+1))
						case 1:
							m.StoreWide(base+i, uint64(w+1)*0x0101010101010101)
						default:
							m.StoreSeg(base+i, uint8(w+1))
							m.Fill(base+i+1, 7, uint8(w+1))
						}
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for pg := 0; pg < len(m.pages); pg++ {
					base := pg << PageShift
					for i := 0; i < reserved; i += WideSegs {
						if m.CodeAt(base+i) != 0xFE || m.LoadWide(base+i) != 0xFEFEFEFEFEFEFEFE {
							t.Errorf("reader saw a write in the reserved span of page %d", pg)
							return
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		for p := 0; p < nseg; p++ {
			want := uint8(0xFE)
			if i := p & pageMask; i >= reserved {
				want = uint8((i-reserved)/8%writers + 1)
			}
			if got := m.CodeAt(p); got != want {
				t.Fatalf("round %d: segment %d = %#x, want %#x (a write was lost)", round, p, got, want)
			}
		}
		if pages, b := m.OverlayStats(); pages != len(m.pages) || b != pages*PageBytes {
			t.Fatalf("round %d: %d pages, %d bytes resident, want %d pages", round, pages, b, len(m.pages))
		}
	}
}

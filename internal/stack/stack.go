// Package stack implements the simulated stack allocator.
//
// ASan (and GiantSan on top of it) instruments each function frame: locals
// are laid out with redzones between them, the redzones are poisoned on
// entry, and the frame is handled on exit — either unpoisoned (default) or
// retired as "after return" memory for use-after-return detection. This
// package reproduces that layout over the simulated address space so the
// Juliet CWE-121 (stack overflow) and use-after-return cases exercise the
// same shadow geometry the native tools see.
package stack

import (
	"fmt"

	"giantsan/internal/oracle"
	"giantsan/internal/san"
	"giantsan/internal/vmem"
)

// Align matches the heap allocator's 8-byte object alignment.
const Align = 8

// DefaultRedzone is the per-local redzone size.
const DefaultRedzone = 16

// local records one stack object within a frame.
type local struct {
	base vmem.Addr
	size uint64
}

// frame is one pushed function frame.
type frame struct {
	start  vmem.Addr
	locals []local
}

// Stack is a downward-ignorant (grows upward for simplicity; the shadow
// geometry is direction-independent) frame allocator.
type Stack struct {
	space *vmem.Space
	p     san.Poisoner
	// cp and fp are p's batching extensions, resolved once at construction;
	// nil when the poisoner only implements the base interface.
	cp    san.ChunkPoisoner
	fp    san.FramePoisoner
	rz    uint64
	start vmem.Addr
	limit vmem.Addr
	bump  vmem.Addr
	// high is the high-water mark of the bump frontier: Pop recycles bump
	// downward, but the shadow (and simulated memory) stay dirty up to the
	// highest frame ever pushed, which is the extent arena recycling must
	// scrub.
	high   vmem.Addr
	frames []*frame
	// DetectUAR controls whether popped frames are poisoned as
	// stack-after-return (true) or unpoisoned for reuse (false).
	// ASan's default keeps it off; the Juliet UAR cases turn it on.
	DetectUAR bool
	// Oracle optionally mirrors ground truth.
	Oracle *oracle.Oracle
}

// Config parameterizes a Stack.
type Config struct {
	Redzone   uint64 // zero means DefaultRedzone
	DetectUAR bool
	Oracle    *oracle.Oracle
	// Start and Limit bound the stack region inside the space; both zero
	// means the whole space.
	Start, Limit vmem.Addr
}

// New returns a stack allocator over the whole space.
func New(space *vmem.Space, p san.Poisoner, cfg Config) *Stack {
	rz := cfg.Redzone
	if rz == 0 {
		rz = DefaultRedzone
	}
	rz = (rz + Align - 1) &^ (Align - 1)
	start, limit := cfg.Start, cfg.Limit
	if start == 0 && limit == 0 {
		start, limit = space.Base(), space.Limit()
	}
	cp, _ := p.(san.ChunkPoisoner)
	fp, _ := p.(san.FramePoisoner)
	return &Stack{
		space:     space,
		p:         p,
		cp:        cp,
		fp:        fp,
		rz:        rz,
		start:     start,
		limit:     limit,
		bump:      start,
		high:      start,
		DetectUAR: cfg.DetectUAR,
		Oracle:    cfg.Oracle,
	}
}

// Push opens a new frame.
func (s *Stack) Push() {
	s.frames = append(s.frames, &frame{start: s.bump})
}

// Alloca allocates a local of the given size in the current frame and
// returns its base. Panics if no frame is open or the stack is exhausted —
// both are simulator bugs, not application bugs.
func (s *Stack) Alloca(size uint64) vmem.Addr {
	return s.AllocaLabeled(size, "")
}

// AllocaLabeled is Alloca with a diagnostic label.
func (s *Stack) AllocaLabeled(size uint64, label string) vmem.Addr {
	if len(s.frames) == 0 {
		panic("stack: Alloca without a pushed frame")
	}
	if size == 0 {
		size = 1
	}
	reserved := (size + Align - 1) &^ (Align - 1)
	need := s.rz + reserved + s.rz
	if s.bump+vmem.Addr(need) > s.limit {
		panic(fmt.Sprintf("stack: simulated stack exhausted (need %d bytes)", need))
	}
	f := s.frames[len(s.frames)-1]
	start := s.bump
	base := start + vmem.Addr(s.rz)
	s.bump += vmem.Addr(need)
	s.high = max(s.high, s.bump)
	f.locals = append(f.locals, local{base: base, size: size})

	s.poisonLocal(start, size)
	if s.Oracle != nil {
		tail := reserved - size
		s.Oracle.Alloc(base, size, s.rz, s.rz+tail, oracle.Stack, label)
	}
	return base
}

// poisonLocal lays down one local's shadow image ([redzone][local][tail +
// redzone]) starting at start: one templated stamp when the poisoner
// batches, the classic three-call sequence otherwise.
func (s *Stack) poisonLocal(start vmem.Addr, size uint64) {
	if s.cp != nil {
		s.cp.PoisonChunk(start, s.rz, size, s.rz, san.StackRedzone, san.StackRedzone)
		return
	}
	reserved := (size + Align - 1) &^ (Align - 1)
	base := start + vmem.Addr(s.rz)
	s.p.Poison(start, s.rz, san.StackRedzone)
	s.p.MarkAllocated(base, size)
	s.p.Poison(base+vmem.Addr(reserved), s.rz, san.StackRedzone)
}

// PushLocals opens a new frame holding all the given locals at once and
// returns their bases in argument order. Semantically identical to Push
// followed by one Alloca per size (sizes of 0 are promoted to 1), but the
// frame's whole shadow image — every redzone and every local — is stamped
// in one sweep when the poisoner supports frame batching, which is how
// instrumented function prologues poison in one go instead of per-local.
func (s *Stack) PushLocals(sizes ...uint64) []vmem.Addr {
	s.Push()
	if len(sizes) == 0 {
		return nil
	}
	f := s.frames[len(s.frames)-1]
	start := s.bump
	bases := make([]vmem.Addr, len(sizes))
	need := vmem.Addr(0)
	for i, size := range sizes {
		if size == 0 {
			size = 1
		}
		reserved := (size + Align - 1) &^ (Align - 1)
		bases[i] = start + need + vmem.Addr(s.rz)
		f.locals = append(f.locals, local{base: bases[i], size: size})
		need += vmem.Addr(s.rz + reserved + s.rz)
	}
	if s.bump+need > s.limit {
		panic(fmt.Sprintf("stack: simulated stack exhausted (need %d bytes)", need))
	}
	s.bump += need
	s.high = max(s.high, s.bump)
	if s.fp != nil {
		s.fp.PoisonFrame(start, s.rz, sizes)
	} else {
		at := start
		for _, size := range sizes {
			if size == 0 {
				size = 1
			}
			s.poisonLocal(at, size)
			at += vmem.Addr(s.rz + ((size + Align - 1) &^ (Align - 1)) + s.rz)
		}
	}
	if s.Oracle != nil {
		for i, size := range sizes {
			if size == 0 {
				size = 1
			}
			tail := ((size + Align - 1) &^ (Align - 1)) - size
			s.Oracle.Alloc(bases[i], size, s.rz, s.rz+tail, oracle.Stack, "")
		}
	}
	return bases
}

// Pop closes the current frame. With DetectUAR the frame's memory is
// retired and poisoned as after-return; otherwise it is recycled for the
// next Push.
func (s *Stack) Pop() {
	if len(s.frames) == 0 {
		panic("stack: Pop without a pushed frame")
	}
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	size := uint64(s.bump - f.start)
	if size > 0 {
		s.p.Poison(f.start, size, san.StackAfterReturn)
	}
	if s.Oracle != nil {
		for _, l := range f.locals {
			s.Oracle.Free(l.base)
		}
	}
	if !s.DetectUAR {
		// Recycle the region: the next frame may reuse these addresses.
		s.bump = f.start
		if s.Oracle != nil {
			for _, l := range f.locals {
				s.Oracle.Recycle(l.base, l.size)
			}
		}
	}
}

// Depth returns the number of open frames.
func (s *Stack) Depth() int { return len(s.frames) }

// HighWater returns one past the highest stack address any frame ever
// reached. Pop lowers the bump frontier but leaves shadow and memory
// dirty up to this mark, so it bounds the extent arena recycling scrubs.
func (s *Stack) HighWater() vmem.Addr { return s.high }

// Reinit returns the stack to its just-constructed state and reports the
// arena footprint it releases ([start, HighWater)). Unlike Reset it does
// not poison anything: the caller (rt.Env.Reset) returns the whole shadow
// to the pristine unallocated state, erasing redzones
// and after-return codes alike so a recycled arena is indistinguishable
// from a fresh one.
func (s *Stack) Reinit() uint64 {
	used := uint64(s.high - s.start)
	s.frames = s.frames[:0]
	s.bump = s.start
	s.high = s.start
	return used
}

// Reset pops everything and recycles the whole stack region. Detection
// suites call it between cases.
func (s *Stack) Reset() {
	size := uint64(s.bump - s.start)
	if size > 0 {
		s.p.Poison(s.start, size, san.StackAfterReturn)
	}
	if s.Oracle != nil {
		for _, fr := range s.frames {
			for _, l := range fr.locals {
				s.Oracle.Free(l.base)
			}
		}
	}
	s.frames = s.frames[:0]
	s.bump = s.start
}

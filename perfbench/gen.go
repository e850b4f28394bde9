package main

import (
	"fmt"

	"giantsan/internal/trace"
)

// rng is splitmix64: a tiny, fully specified generator, so the same seed
// yields byte-identical traces on every Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns true with probability pct/100.
func (r *rng) pick(pct int) bool { return r.intn(100) < pct }

// genSizes straddles the fold boundaries: GiantSan folds 2^k segments of 8
// bytes, so each class sits just below, on and just above 8·2^k, plus
// sizes with a partial last segment.
var genSizes = func() []uint64 {
	var out []uint64
	for k := 0; k <= 11; k++ {
		b := uint64(8) << k
		out = append(out, b-1, b, b+1, b+5)
	}
	return out
}()

// heapRedzone and quarantineBytes mirror the heap allocator's defaults
// (heap.DefaultRedzone, heap.DefaultQuarantine); the generator needs them
// to keep planted overflows inside the right redzone and planted
// use-after-frees inside the quarantine window.
const (
	heapRedzone     = 16
	quarantineBytes = 1 << 20
)

// genConfig shapes one synthetic trace.
type genConfig struct {
	Events   int    // approximate event count (frames are closed after it)
	Bugs     int    // planted bugs, alternating overflow and use-after-free
	LiveHeap uint64 // cap on live heap bytes
}

// bug is one planted violation of the answer key.
type bug struct {
	Event    int  // index into genTrace.Events
	Temporal bool // use-after-free (true) or redzone overflow (false)
}

// genTrace is a generated trace with its answer key and op counts.
type genTrace struct {
	Events []trace.Event
	Data   []byte // trace wire format, what the program under test sees
	Bugs   []bug
	Checks int // Access and Range events: one check each
	Ranges int // Range events
}

// AllocOnly returns the trace without its Access and Range events: the
// allocator leg (Malloc/Free/frames) of the same run.
func (g *genTrace) AllocOnly() []trace.Event {
	out := make([]trace.Event, 0, len(g.Events)-g.Checks)
	for _, ev := range g.Events {
		if ev.Op != trace.OpAccess && ev.Op != trace.OpRange {
			out = append(out, ev)
		}
	}
	return out
}

// RangesOnly returns the allocator leg plus the in-bounds Range events,
// which isolates the range checks' shadow traffic.
func (g *genTrace) RangesOnly() []trace.Event {
	planted := map[int]bool{}
	for _, b := range g.Bugs {
		planted[b.Event] = true
	}
	out := make([]trace.Event, 0, len(g.Events)-g.Checks+g.Ranges)
	for i, ev := range g.Events {
		if ev.Op == trace.OpAccess || (ev.Op == trace.OpRange && planted[i]) {
			continue
		}
		out = append(out, ev)
	}
	return out
}

type object struct {
	reg  uint32
	size uint64
}

type freed struct {
	object
	after uint64 // quarantine bytes freed after this chunk
}

func chunkBytes(size uint64) uint64 { return heapRedzone + (size+7)&^7 + heapRedzone }

// generator carries the state of one trace under construction.
type generator struct {
	r       rng
	cfg     genConfig
	out     *genTrace
	nextReg uint32
	heap    []object
	live    uint64
	quar    []freed
	frames  [][]object
}

func (g *generator) emit(ev trace.Event) {
	g.out.Events = append(g.out.Events, ev)
	switch ev.Op {
	case trace.OpAccess:
		g.out.Checks++
	case trace.OpRange:
		g.out.Checks++
		g.out.Ranges++
	}
}

func (g *generator) plant(temporal bool, ev trace.Event) {
	g.out.Bugs = append(g.out.Bugs, bug{Event: len(g.out.Events), Temporal: temporal})
	g.emit(ev)
}

func (g *generator) size() uint64 {
	// Bias toward small objects: two draws, keep the smaller class.
	a, b := g.r.intn(len(genSizes)), g.r.intn(len(genSizes))
	if b < a {
		a = b
	}
	return genSizes[a]
}

func (g *generator) malloc() {
	size := g.size()
	if g.live+size > g.cfg.LiveHeap {
		g.free()
		return
	}
	g.nextReg++
	g.emit(trace.Event{Op: trace.OpMalloc, Reg: g.nextReg, Size: size})
	g.heap = append(g.heap, object{g.nextReg, size})
	g.live += size
}

func (g *generator) free() {
	if len(g.heap) == 0 {
		return
	}
	i := g.r.intn(len(g.heap))
	o := g.heap[i]
	g.heap[i] = g.heap[len(g.heap)-1]
	g.heap = g.heap[:len(g.heap)-1]
	g.live -= o.size
	g.emit(trace.Event{Op: trace.OpFree, Reg: o.reg})
	cb := chunkBytes(o.size)
	kept := g.quar[:0]
	for _, q := range g.quar {
		q.after += cb
		// Keep only chunks certain to be quarantined for a while yet.
		if q.after+chunkBytes(q.size) <= quarantineBytes/2 {
			kept = append(kept, q)
		}
	}
	g.quar = append(kept, freed{object: o})
}

// target picks a live object: a heap object or a local of a live frame.
func (g *generator) target() (object, bool) {
	n := len(g.heap)
	var locals []object
	if d := len(g.frames); d > 0 {
		locals = g.frames[d-1]
	}
	if n+len(locals) == 0 {
		return object{}, false
	}
	i := g.r.intn(n + len(locals))
	if i < n {
		return g.heap[i], true
	}
	return locals[i-n], true
}

func (g *generator) width(size uint64) uint8 {
	w := uint8(1) << g.r.intn(4)
	for uint64(w) > size {
		w >>= 1
	}
	return w
}

func (g *generator) access() {
	o, ok := g.target()
	if !ok {
		g.malloc()
		return
	}
	w := g.width(o.size)
	off := int64(g.r.intn(int(o.size - uint64(w) + 1)))
	g.emit(trace.Event{Op: trace.OpAccess, Reg: o.reg, Off: off, Width: w, Write: g.r.pick(40)})
}

func (g *generator) rangeOp() {
	o, ok := g.target()
	if !ok {
		g.malloc()
		return
	}
	off := uint64(g.r.intn(int(o.size)))
	n := o.size - off
	if g.r.pick(50) {
		n = 1 + uint64(g.r.intn(int(n)))
	}
	g.emit(trace.Event{Op: trace.OpRange, Reg: o.reg, Off: int64(off), Size: n, Write: g.r.pick(50)})
}

func (g *generator) push() {
	g.emit(trace.Event{Op: trace.OpPush})
	var locals []object
	for k := 1 + g.r.intn(3); k > 0; k-- {
		size := genSizes[g.r.intn(len(genSizes)/2)]
		g.nextReg++
		g.emit(trace.Event{Op: trace.OpAlloca, Reg: g.nextReg, Size: size})
		locals = append(locals, object{g.nextReg, size})
	}
	g.frames = append(g.frames, locals)
}

func (g *generator) pop() {
	g.emit(trace.Event{Op: trace.OpPop})
	g.frames = g.frames[:len(g.frames)-1]
}

// overflow plants an access or range that starts in bounds or just past
// the end and ends inside the right redzone of a live heap object.
func (g *generator) overflow() bool {
	if len(g.heap) == 0 {
		return false
	}
	o := g.heap[g.r.intn(len(g.heap))]
	limit := (o.size+7)&^7 + heapRedzone // first byte past the right redzone
	if g.r.pick(30) {
		off := uint64(g.r.intn(int(o.size)))
		end := o.size + 1 + uint64(g.r.intn(int(limit-o.size)))
		g.plant(false, trace.Event{Op: trace.OpRange, Reg: o.reg, Off: int64(off), Size: end - off, Write: true})
		return true
	}
	w := uint8(1) << g.r.intn(4)
	off := o.size + uint64(g.r.intn(int(limit-o.size-uint64(w)+1)))
	g.plant(false, trace.Event{Op: trace.OpAccess, Reg: o.reg, Off: int64(off), Width: w, Write: g.r.pick(50)})
	return true
}

// useAfterFree plants an in-bounds access to a chunk still in quarantine.
func (g *generator) useAfterFree() bool {
	if len(g.quar) == 0 {
		return false
	}
	o := g.quar[g.r.intn(len(g.quar))].object
	w := g.width(o.size)
	off := int64(g.r.intn(int(o.size - uint64(w) + 1)))
	g.plant(true, trace.Event{Op: trace.OpAccess, Reg: o.reg, Off: off, Width: w, Write: g.r.pick(50)})
	return true
}

// generate builds one seeded trace. The same seed and config always give
// the same events, encoding and answer key.
func generate(seed uint64, cfg genConfig) (*genTrace, error) {
	g := &generator{r: rng{seed}, cfg: cfg, out: &genTrace{}}
	spacing := cfg.Events / (cfg.Bugs + 1)
	nextBug := spacing
	for len(g.out.Events) < cfg.Events {
		if len(g.out.Bugs) < cfg.Bugs && len(g.out.Events) >= nextBug {
			temporal := len(g.out.Bugs)%2 == 1
			if (temporal && g.useAfterFree()) || g.overflow() {
				nextBug += spacing
				continue
			}
		}
		switch r := g.r.intn(100); {
		case r < 10:
			g.malloc()
		case r < 17:
			g.free()
		case r < 21:
			if len(g.frames) < 8 {
				g.push()
			}
		case r < 25:
			if len(g.frames) > 0 {
				g.pop()
			}
		case r < 40:
			g.rangeOp()
		default:
			g.access()
		}
	}
	for len(g.frames) > 0 {
		g.pop()
	}
	if len(g.out.Bugs) != cfg.Bugs {
		return nil, fmt.Errorf("generator: planted %d of %d bugs", len(g.out.Bugs), cfg.Bugs)
	}
	data, err := trace.Encode(g.out.Events)
	if err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	g.out.Data = data
	return g.out, nil
}

// Package trace records and replays memory-operation traces.
//
// A trace is the portable form of a sanitizer test case: the sequence of
// allocations, frees and accesses a program performed, without the program.
// Traces let one workload execution be replayed under every sanitizer (or
// under a future encoding) with byte-identical layouts, and serve as the
// regression corpus format for the detection suites.
//
// The encoding is a dense little-endian binary stream: a 4-byte magic
// header, then per event one opcode byte followed by fixed-width operands
// (operandLen gives their total size per opcode). Pointers are virtual
// register indices (the recorder assigns them), so traces are
// position-independent: the replayer re-allocates and patches addresses.
//
// The encoding is canonical: every accepted stream is exactly what
// Encode produces for the events it decodes to. Decoders therefore reject
// anything Encode cannot emit — an access-type byte other than 0 or 1,
// and a stream without the header (even an empty one).
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"giantsan/internal/report"
	"giantsan/internal/rt"
	"giantsan/internal/vmem"
)

// Op is a trace opcode.
type Op uint8

// Trace opcodes.
const (
	// OpMalloc: u32 reg, u64 size.
	OpMalloc Op = iota + 1
	// OpFree: u32 reg.
	OpFree
	// OpAccess: u32 reg, i64 off, u8 width, u8 accessType (0 read, 1 write).
	OpAccess
	// OpRange: u32 reg, i64 off, u64 len, u8 accessType.
	OpRange
	// OpPush / OpPop: stack frames.
	OpPush
	OpPop
	// OpAlloca: u32 reg, u64 size.
	OpAlloca
)

// magic identifies trace streams (and their version).
var magic = [4]byte{'G', 'S', 'T', '1'}

// maxOperandLen is the largest entry of operandLen (OpRange).
const maxOperandLen = 21

// operandLen is the wire format: the number of operand bytes after each
// opcode byte, indexed by opcode; -1 marks an unknown opcode. The
// encoder, the streaming Reader and Decode all size events from it.
var operandLen = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	t[OpMalloc], t[OpAlloca] = 12, 12
	t[OpFree] = 4
	t[OpAccess] = 14
	t[OpRange] = maxOperandLen
	t[OpPush], t[OpPop] = 0, 0
	return t
}()

var le = binary.LittleEndian

// Event is one decoded trace record.
type Event struct {
	Op    Op
	Reg   uint32
	Off   int64
	Size  uint64
	Width uint8
	Write bool
}

// appendEvent appends ev's encoding to dst. ev.Op must be a known opcode.
func appendEvent(dst []byte, ev Event) []byte {
	dst = append(dst, byte(ev.Op))
	switch ev.Op {
	case OpMalloc, OpAlloca:
		dst = le.AppendUint32(dst, ev.Reg)
		dst = le.AppendUint64(dst, ev.Size)
	case OpFree:
		dst = le.AppendUint32(dst, ev.Reg)
	case OpAccess:
		dst = le.AppendUint32(dst, ev.Reg)
		dst = le.AppendUint64(dst, uint64(ev.Off))
		dst = append(dst, ev.Width, b2u(ev.Write))
	case OpRange:
		dst = le.AppendUint32(dst, ev.Reg)
		dst = le.AppendUint64(dst, uint64(ev.Off))
		dst = le.AppendUint64(dst, ev.Size)
		dst = append(dst, b2u(ev.Write))
	}
	return dst
}

// decodeEvent decodes into ev the event with 0-based ordinal idx whose
// opcode byte op sits at byte offset start. b holds the operand bytes
// available after the opcode: at most operandLen[op], fewer when the
// stream ended inside the event. Both byte sources — Reader.Next and
// Decode — go through it, so they accept the same streams and fail with
// the same errors.
func decodeEvent(ev *Event, idx int, start int64, op byte, b []byte) error {
	n := int(operandLen[op])
	if n < 0 {
		return eventErr(idx, start, "unknown opcode %d", op)
	}
	if len(b) < n {
		return eventErr(idx, start, "opcode %d truncated after %d bytes: %w",
			op, 1+len(b), io.ErrUnexpectedEOF)
	}
	*ev = Event{Op: Op(op)}
	var at byte
	switch ev.Op {
	case OpMalloc, OpAlloca:
		ev.Reg = le.Uint32(b)
		ev.Size = le.Uint64(b[4:])
	case OpFree:
		ev.Reg = le.Uint32(b)
	case OpAccess:
		ev.Reg = le.Uint32(b)
		ev.Off = int64(le.Uint64(b[4:]))
		ev.Width, at = b[12], b[13]
	case OpRange:
		ev.Reg = le.Uint32(b)
		ev.Off = int64(le.Uint64(b[4:]))
		ev.Size = le.Uint64(b[12:])
		at = b[20]
	}
	if at > 1 {
		return eventErr(idx, start, "opcode %d: access type %d", op, at)
	}
	ev.Write = at == 1
	return nil
}

// eventErr annotates a mid-event failure with the event's 1-based
// ordinal (matching Replay's "event %d" convention) and the byte offset
// where the event started.
func eventErr(idx int, start int64, format string, args ...any) error {
	prefix := fmt.Sprintf("trace: event %d (byte offset %d): ", idx+1, start)
	return fmt.Errorf(prefix+format, args...)
}

// checkHeader validates m, the first bytes of a stream: all of the
// header, or as much of it as the stream held.
func checkHeader(m []byte) error {
	if len(m) < len(magic) {
		return fmt.Errorf("trace: truncated magic (%d of %d header bytes): %w",
			len(m), len(magic), io.ErrUnexpectedEOF)
	}
	if [4]byte(m) != magic {
		return fmt.Errorf("trace: header %q at byte offset 0: %w", m[:len(magic)], ErrBadMagic)
	}
	return nil
}

// Writer serializes events.
type Writer struct {
	w       *bufio.Writer
	nextReg uint32
	started bool
	scratch [1 + maxOperandLen]byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (tw *Writer) header() error {
	if tw.started {
		return nil
	}
	tw.started = true
	_, err := tw.w.Write(magic[:])
	return err
}

// NewReg allocates the next pointer register.
func (tw *Writer) NewReg() uint32 {
	r := tw.nextReg
	tw.nextReg++
	return r
}

func (tw *Writer) emit(ev Event) error {
	if err := tw.header(); err != nil {
		return err
	}
	_, err := tw.w.Write(appendEvent(tw.scratch[:0], ev))
	return err
}

// encodable rejects events whose opcode has no wire form.
func encodable(op Op) error {
	if operandLen[op] < 0 {
		return fmt.Errorf("trace: cannot encode unknown opcode %d", op)
	}
	return nil
}

// Emit serializes one already-decoded event. It is the re-encoding half
// of the shrinker round trip: ReadAll a trace into events, drop some,
// Emit the survivors. Registers are written as-is (Emit does not consult
// NewReg), so the caller owns register coherence — a subsequence of a
// valid trace keeps the original register numbers.
func (tw *Writer) Emit(ev Event) error {
	if err := encodable(ev.Op); err != nil {
		return err
	}
	return tw.emit(ev)
}

// Malloc records an allocation into a fresh register and returns it.
func (tw *Writer) Malloc(size uint64) (uint32, error) {
	reg := tw.NewReg()
	return reg, tw.emit(Event{Op: OpMalloc, Reg: reg, Size: size})
}

// Alloca records a stack allocation into a fresh register.
func (tw *Writer) Alloca(size uint64) (uint32, error) {
	reg := tw.NewReg()
	return reg, tw.emit(Event{Op: OpAlloca, Reg: reg, Size: size})
}

// Free records a free of reg.
func (tw *Writer) Free(reg uint32) error { return tw.emit(Event{Op: OpFree, Reg: reg}) }

// Access records a width-byte access at reg+off.
func (tw *Writer) Access(reg uint32, off int64, width uint8, write bool) error {
	return tw.emit(Event{Op: OpAccess, Reg: reg, Off: off, Width: width, Write: write})
}

// Range records a bulk operation over [reg+off, reg+off+n).
func (tw *Writer) Range(reg uint32, off int64, n uint64, write bool) error {
	return tw.emit(Event{Op: OpRange, Reg: reg, Off: off, Size: n, Write: write})
}

// Push records a frame push.
func (tw *Writer) Push() error { return tw.emit(Event{Op: OpPush}) }

// Pop records a frame pop.
func (tw *Writer) Pop() error { return tw.emit(Event{Op: OpPop}) }

// Flush flushes buffered output.
func (tw *Writer) Flush() error {
	if err := tw.header(); err != nil {
		return err
	}
	return tw.w.Flush()
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// ErrBadMagic marks a stream that is not a trace.
var ErrBadMagic = errors.New("trace: bad magic")

// Reader decodes events from a stream, one at a time and without
// allocating per event. It tracks the byte offset consumed so far and
// the ordinal of the event being decoded, and stamps both into every
// decode error — a truncated or corrupted stream names the exact spot,
// which is what makes shrinker validity checks and service replay
// rejections debuggable instead of opaque.
type Reader struct {
	r       *bufio.Reader
	started bool
	// off is the number of bytes fully consumed from the stream; idx the
	// number of events fully decoded.
	off int64
	idx int
	// buf holds the operands of the event being decoded.
	buf [maxOperandLen]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Offset returns the number of bytes consumed so far.
func (tr *Reader) Offset() int64 { return tr.off }

// readFull fills buf as far as the stream allows, charging the consumed
// bytes to the offset. It returns the filled prefix; err is nil, io.EOF
// or io.ErrUnexpectedEOF when the stream ended early, or a read error.
func (tr *Reader) readFull(buf []byte) ([]byte, error) {
	n, err := io.ReadFull(tr.r, buf)
	tr.off += int64(n)
	return buf[:n], err
}

// Next decodes one event; io.EOF ends the stream.
func (tr *Reader) Next() (Event, error) {
	if !tr.started {
		var m [4]byte
		got, err := tr.readFull(m[:])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return Event{}, err
		}
		if err := checkHeader(got); err != nil {
			return Event{}, err
		}
		tr.started = true
	}
	start := tr.off
	op, err := tr.r.ReadByte()
	if err != nil {
		return Event{}, err // io.EOF here is the clean end of stream
	}
	tr.off++
	b, err := tr.readFull(tr.buf[:max(operandLen[op], 0)])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return Event{}, eventErr(tr.idx, start, "opcode %d: %w", op, err)
	}
	var ev Event
	if err := decodeEvent(&ev, tr.idx, start, op, b); err != nil {
		return Event{}, err
	}
	tr.idx++
	return ev, nil
}

// Decode decodes a whole in-memory trace into its event list. It accepts
// exactly the streams Reader.Next accepts and fails with the same
// errors, but sizes the result with one pass over the opcodes and fills
// it with a second, so the list is allocated once.
func Decode(data []byte) ([]Event, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	// One slot per opcode up to the end of data or the first unknown
	// opcode, so the fill pass below, which stops at the first error,
	// never outruns the result.
	n := 0
	for off := len(magic); off < len(data); n++ {
		l := operandLen[data[off]]
		if l < 0 {
			n++
			break
		}
		off += 1 + int(l)
	}
	events := make([]Event, n)
	for i, off := 0, len(magic); off < len(data); i++ {
		op := data[off]
		end := min(off+1+max(int(operandLen[op]), 0), len(data))
		if err := decodeEvent(&events[i], i, int64(off), op, data[off+1:end]); err != nil {
			return nil, err
		}
		off = end
	}
	return events, nil
}

// ReadAll reads a whole trace stream and decodes it with Decode. A
// reader that knows its remaining length (as *bytes.Reader and
// *bytes.Buffer do) is read into a buffer sized once.
func ReadAll(r io.Reader) ([]Event, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// ReadFrom asks for MinRead spare bytes before every read, the
		// final one that reports EOF included; reserving them up front
		// keeps it from growing the buffer.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return Decode(buf.Bytes())
}

// Encode serializes an event list into the trace wire format (magic
// header included) — the inverse of Decode.
func Encode(events []Event) ([]byte, error) {
	n := len(magic)
	for _, ev := range events {
		if err := encodable(ev.Op); err != nil {
			return nil, err
		}
		n += 1 + int(operandLen[ev.Op])
	}
	out := append(make([]byte, 0, n), magic[:]...)
	for _, ev := range events {
		out = appendEvent(out, ev)
	}
	return out, nil
}

// ReplayResult summarizes one replay.
type ReplayResult struct {
	Events int
	Errors report.Log
}

// replayer applies decoded events to a runtime, tracking the register
// file and frame depth.
type replayer struct {
	run      rt.Runtime
	anchored bool
	regs     map[uint32]vmem.Addr
	frames   int
	res      *ReplayResult
}

func newReplayer(run rt.Runtime, anchored bool) *replayer {
	return &replayer{run: run, anchored: anchored, regs: map[uint32]vmem.Addr{}, res: &ReplayResult{}}
}

// apply executes one event. Trace-level problems (unknown register,
// failed malloc, unbalanced frames) are returned as errors; memory
// violations land in the result log.
func (rp *replayer) apply(ev Event) error {
	rp.res.Events++
	switch ev.Op {
	case OpMalloc:
		p, err := rp.run.Malloc(ev.Size)
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", rp.res.Events, err)
		}
		rp.regs[ev.Reg] = p
	case OpAlloca:
		if rp.frames == 0 {
			return fmt.Errorf("trace: event %d: alloca outside frame", rp.res.Events)
		}
		rp.regs[ev.Reg] = rp.run.Alloca(ev.Size)
	case OpFree:
		p, ok := rp.regs[ev.Reg]
		if !ok {
			return fmt.Errorf("trace: event %d: free of unset reg %d", rp.res.Events, ev.Reg)
		}
		rp.res.Errors.Record(rp.run.Free(p))
	case OpAccess:
		base, ok := rp.regs[ev.Reg]
		if !ok {
			return fmt.Errorf("trace: event %d: access through unset reg %d", rp.res.Events, ev.Reg)
		}
		at := report.Read
		if ev.Write {
			at = report.Write
		}
		p := base + vmem.Addr(ev.Off)
		var cerr *report.Error
		if rp.anchored {
			cerr = rp.run.San().CheckAnchored(base, p, uint64(ev.Width), at)
		} else {
			cerr = rp.run.San().CheckAccess(p, uint64(ev.Width), at)
		}
		rp.res.Errors.Record(cerr)
	case OpRange:
		base, ok := rp.regs[ev.Reg]
		if !ok {
			return fmt.Errorf("trace: event %d: range through unset reg %d", rp.res.Events, ev.Reg)
		}
		at := report.Read
		if ev.Write {
			at = report.Write
		}
		l := base + vmem.Addr(ev.Off)
		rp.res.Errors.Record(rp.run.San().CheckRange(l, l+vmem.Addr(ev.Size), at))
	case OpPush:
		rp.run.PushFrame()
		rp.frames++
	case OpPop:
		if rp.frames == 0 {
			return fmt.Errorf("trace: event %d: pop without push", rp.res.Events)
		}
		rp.run.PopFrame()
		rp.frames--
	default:
		return fmt.Errorf("trace: event %d: unknown opcode %d", rp.res.Events, ev.Op)
	}
	return nil
}

// Replay runs a trace against a runtime: allocations fill the register
// file, accesses are checked with the anchored discipline when anchored
// is true (GiantSan, LFP) and bare otherwise (ASan). Trace-level problems
// (unknown register, failed malloc) are returned as an error; memory
// violations land in the result log.
func Replay(r io.Reader, run rt.Runtime, anchored bool) (*ReplayResult, error) {
	tr := NewReader(r)
	rp := newReplayer(run, anchored)
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := rp.apply(ev); err != nil {
			return nil, err
		}
	}
	return rp.res, nil
}

// ReplayEvents replays an already-decoded event list. It is the
// shrinker's inner loop: candidate subsequences are replayed directly,
// without a serialize/parse round trip per candidate. Semantics are
// identical to Replay over the encoding of the same events.
func ReplayEvents(events []Event, run rt.Runtime, anchored bool) (*ReplayResult, error) {
	rp := newReplayer(run, anchored)
	for _, ev := range events {
		if err := rp.apply(ev); err != nil {
			return nil, err
		}
	}
	return rp.res, nil
}

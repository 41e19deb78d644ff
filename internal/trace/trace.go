// Package trace defines the instruction trace format consumed by the
// simulator and provides deterministic synthetic trace generators that
// stand in for the SPEC06/SPEC17/Ligra/PARSEC traces used by the paper
// (see DESIGN.md for the substitution rationale).
//
// A trace is a stream of Instr records. Readers are pull-based: Next
// returns records until the trace is exhausted; Reset rewinds to the
// beginning so the simulator can restart traces that end before the
// simulation does, exactly as the paper's methodology prescribes.
//
// The simulator reads one surface, PackedReader: 8-byte Rec records,
// each an instruction and the idle run after it. A materialized slab
// (Materialized, Pool) is that surface in place; Packed packs any other
// Reader on the fly into the same records.
package trace

import (
	"fmt"
	"unsafe"
)

// Kind classifies an instruction for the timing model.
type Kind uint8

const (
	// Other is a non-memory instruction.
	Other Kind = iota
	// Load reads memory and can stall the core on a cache miss.
	Load
	// Store writes memory; it consumes cache/DRAM resources but does
	// not stall retirement (modeled as write-buffered).
	Store
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case Other:
		return "other"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Flags annotate an instruction with timing-relevant properties.
type Flags uint8

const (
	// DependsPrev marks a load whose address depends on the previous
	// load (pointer chasing). The core serializes it behind that load,
	// which is what makes mcf-like workloads insensitive to MLP.
	DependsPrev Flags = 1 << iota
)

// IdlePC is the PC of every non-memory instruction the generators emit.
// Instr{PC: IdlePC, Kind: Other} is the idle instruction: a packed
// record carries a run of them after itself (Rec.Run).
const IdlePC = 0x1000

// Instr is one instruction of a trace, the unit every Reader delivers.
// For non-memory instructions Addr is meaningless and should be zero.
//
// A PC is 16 bits: the generators' PCs sit below 0x7000, and an MMT1
// file, whose records keep 64 bits for it, has a record whose PC does
// not fit refused. An address must also fit in 32 bits to be packed
// (see Rec); it stays 64 bits wide here, as wide as the simulator's
// address arithmetic.
type Instr struct {
	Addr  uint64
	PC    uint16
	Kind  Kind
	Flags Flags
}

// Rec is one run-length packed record: an instruction, then Run idle
// instructions (Instr{PC: IdlePC, Kind: Other}) after it. It is what a
// trace slab holds and what the simulator reads in place, so it is as
// narrow as the model allows: 8 bytes, an address of 32 bits, a PC of
// 16, and one 16-bit word holding the run in its low 13 bits, the kind
// in the next 2 and DependsPrev in the top one. Decoding a field is a
// shift and a mask.
type Rec struct {
	addr uint32
	pc   uint16
	bits uint16 // run | kind<<kindShift | DependsPrev<<flagShift
}

const (
	runMask   = 1<<13 - 1
	kindShift = 13
	flagShift = 15
)

// recBytes is the in-memory size of one Rec (8 bytes), used for store
// budgeting.
const recBytes = int64(unsafe.Sizeof(Rec{}))

// Addr is the head instruction's address.
func (r Rec) Addr() uint64 { return uint64(r.addr) }

// PC is the head instruction's PC.
func (r Rec) PC() uint16 { return r.pc }

// Kind is the head instruction's kind.
func (r Rec) Kind() Kind { return Kind(r.bits >> kindShift & 3) }

// Flags are the head instruction's flags.
func (r Rec) Flags() Flags { return Flags(r.bits >> flagShift) }

// Run is how many idle instructions follow the head: the record stands
// for Run+1 instructions.
func (r Rec) Run() uint16 { return r.bits & runMask }

// Instr is the record's head instruction.
func (r Rec) Instr() Instr {
	return Instr{Addr: r.Addr(), PC: r.pc, Kind: r.Kind(), Flags: r.Flags()}
}

// Reader is a resettable instruction stream.
type Reader interface {
	// Next returns the next instruction. ok is false when the trace is
	// exhausted; calling Next again after that is undefined until Reset.
	Next() (ins Instr, ok bool)
	// Reset rewinds the stream to its beginning. Synthetic generators
	// reproduce exactly the same sequence after Reset.
	Reset()
	// Name identifies the trace (for reports and workload catalogs).
	Name() string
}

// Slice is an in-memory trace, useful in tests. It delivers its records
// as they are, through every surface: NextPacked gives one record per
// instruction, with no runs, so a simulator fed a Slice retires every
// instruction through its per-instruction path.
type Slice struct {
	Instrs []Instr
	Label  string
	pos    int
	buf    []Rec
}

// NewSlice wraps records in a Reader.
func NewSlice(label string, instrs []Instr) *Slice {
	return &Slice{Instrs: instrs, Label: label}
}

// Next implements Reader.
func (s *Slice) Next() (Instr, bool) {
	if s.pos >= len(s.Instrs) {
		return Instr{}, false
	}
	ins := s.Instrs[s.pos]
	s.pos++
	return ins, true
}

// Reset implements Reader.
func (s *Slice) Reset() { s.pos = 0 }

// Name implements Reader.
func (s *Slice) Name() string { return s.Label }

// NextPacked implements PackedReader, one record per instruction.
func (s *Slice) NextPacked(max int) []Rec {
	s.buf = s.buf[:0]
	for ; s.pos < len(s.Instrs) && len(s.buf) < max; s.pos++ {
		s.buf = appendPacked(s.buf, len(s.buf), s.Instrs[s.pos])
	}
	return s.buf
}

// Looping wraps a Reader so it never ends: when the inner trace is
// exhausted it is Reset and restarted, matching the paper's methodology
// ("if any core reaches the end of its trace ... the trace is
// restarted"). Wraps reports how many times the trace has restarted.
type Looping struct {
	inner Reader
	wraps int
}

// NewLooping wraps r into an endless stream.
func NewLooping(r Reader) *Looping { return &Looping{inner: r} }

// Next implements Reader; it never returns ok == false unless the inner
// trace is empty.
func (l *Looping) Next() (Instr, bool) {
	ins, ok := l.inner.Next()
	if ok {
		return ins, true
	}
	l.inner.Reset()
	l.wraps++
	return l.inner.Next()
}

// Reset implements Reader.
func (l *Looping) Reset() {
	l.inner.Reset()
	l.wraps = 0
}

// Name implements Reader.
func (l *Looping) Name() string { return l.inner.Name() }

// Wraps returns how many times the inner trace restarted.
func (l *Looping) Wraps() int { return l.wraps }

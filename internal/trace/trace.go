// Package trace defines the instruction trace format consumed by the
// simulator and provides deterministic synthetic trace generators that
// stand in for the SPEC06/SPEC17/Ligra/PARSEC traces used by the paper
// (see DESIGN.md for the substitution rationale).
//
// A trace is a stream of Instr records. Readers are pull-based: Next
// returns records until the trace is exhausted; Reset rewinds to the
// beginning so the simulator can restart traces that end before the
// simulation does, exactly as the paper's methodology prescribes.
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

// Instr is one record of an instruction trace. For non-memory
// instructions Addr is meaningless and should be zero.
type Instr struct {
	PC    uint64
	Addr  uint64
	Kind  Kind
	Flags Flags
	// Run is how many further instructions, byte-identical to this one
	// and of Kind Other, the record stands for: a record is Run+1
	// instructions. It is zero in every record Next, ReadBatch and
	// NextBlock deliver (one record per instruction); only the packed
	// view (PackedReader) carries runs. It lives in what used to be
	// padding, so the record is still 24 bytes.
	Run uint32
}

// instrFootprint is the in-memory size of one Instr (24 bytes: two
// words, two bytes, and the run count in the rest of the third word),
// used for store budgeting.
const instrFootprint = int64(unsafe.Sizeof(Instr{}))

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
// as they are, through every surface.
type Slice struct {
	Instrs []Instr
	Label  string
	pos    int
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

// ReadBatch implements BatchReader.
func (s *Slice) ReadBatch(dst []Instr) int {
	n := copy(dst, s.Instrs[s.pos:])
	s.pos += n
	return n
}

// NextBlock implements BlockReader.
func (s *Slice) NextBlock(max int) []Instr {
	end := s.pos + max
	if end > len(s.Instrs) {
		end = len(s.Instrs)
	}
	blk := s.Instrs[s.pos:end]
	s.pos = end
	return blk
}

// NextPacked implements PackedReader.
func (s *Slice) NextPacked(max int) []Instr { return s.NextBlock(max) }

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

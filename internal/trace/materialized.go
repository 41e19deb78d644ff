package trace

import (
	"fmt"
	"math"
)

// Materialized trace replay: a trace decoded once into an immutable,
// run-length packed []Rec slab that any number of readers can replay
// concurrently. The slab replaces per-instruction generator work (PRNG
// draws, modulo arithmetic, interface dispatch) with an array read, and
// an instruction and the run of idle instructions after it with one
// record — see the "Trace materialization & replay" section of
// docs/ARCHITECTURE.md.

// BlockReader is a Reader that can expose read-only views of upcoming
// instructions, one record each. Callers must not mutate or retain the
// returned slice past the next read or Reset call.
type BlockReader interface {
	Reader
	// NextBlock returns a view of up to max upcoming instructions,
	// advancing the cursor past them. An empty slice means the trace is
	// exhausted until Reset.
	NextBlock(max int) []Instr
}

// PackedReader is a Reader that can expose its records run-length
// packed: a record stands for its head and then Rec.Run idle
// instructions. It is the simulator's one surface; Packed makes one of
// any Reader. The same retention rule as BlockReader applies.
type PackedReader interface {
	Reader
	// NextPacked returns a view of up to max upcoming records, advancing
	// the cursor past every instruction they stand for. An empty slice
	// means the trace is exhausted until Reset.
	NextPacked(max int) []Rec
}

// maxRun is the largest run a packed record carries: a record stands
// for at most 8 191 instructions, so Run+1 fits the run's 13 bits too.
const maxRun = runMask - 1

// idle is the instruction a record's run repeats.
var idle = Instr{PC: IdlePC, Kind: Other}

// appendPacked appends one instruction to a packed slab: an idle
// instruction lengthens the last record's run, whatever that record is,
// and any other instruction adds a record. A run that has reached
// maxRun ends and the next idle instruction opens a record; the core
// retires the two exactly like one longer run. Records below floor are
// never touched, so a caller that has already published recs[:floor] to
// lock-free readers may keep appending.
//
// It is the one place an Instr becomes a Rec, and it panics on an
// instruction no Rec holds: an address of 2^32 or more, or a kind or
// flag the model does not know. Catalog generators never emit one, and
// the MMT1 decoder refuses one.
func appendPacked(recs []Rec, floor int, ins Instr) []Rec {
	if n := len(recs); n > floor && ins == idle && recs[n-1].Run() < maxRun {
		recs[n-1].bits++
		return recs
	}
	if ins.Addr > math.MaxUint32 || ins.Kind > Store || ins.Flags&^DependsPrev != 0 {
		panic(fmt.Sprintf("trace: instruction %+v does not fit a packed record", ins))
	}
	return append(recs, Rec{
		addr: uint32(ins.Addr),
		pc:   ins.PC,
		bits: uint16(ins.Kind)<<kindShift | uint16(ins.Flags)<<flagShift,
	})
}

// packedCursor is a position in a packed slab: record idx, off
// instructions of it already delivered (the head, then off-1 of its
// run). The slab is passed to every call, because a shared slab grows
// between calls (records at and below the cursor never change).
type packedCursor struct {
	idx  int
	off  uint16
	part [1]Rec // the rest of a partly delivered record, for packed
}

// next delivers one instruction.
func (c *packedCursor) next(recs []Rec) (Instr, bool) {
	if c.idx >= len(recs) {
		return Instr{}, false
	}
	rec := recs[c.idx]
	ins := idle
	if c.off == 0 {
		ins = rec.Instr()
	}
	if c.off++; c.off > rec.Run() {
		c.idx++
		c.off = 0
	}
	return ins, true
}

// expand fills dst with upcoming instructions, one record each, and
// returns how many it wrote.
func (c *packedCursor) expand(recs []Rec, dst []Instr) int {
	n := 0
	for n < len(dst) && c.idx < len(recs) {
		rec := recs[c.idx]
		if c.off == 0 {
			dst[n] = rec.Instr()
			n++
			if rec.Run() == 0 {
				c.idx++
			} else {
				c.off = 1
			}
			continue
		}
		// The head and off-1 of the run are delivered.
		left := int(rec.Run()-c.off) + 1
		out := dst[n:min(n+left, len(dst))]
		for i := range out {
			out[i] = idle
		}
		n += len(out)
		if len(out) == left {
			c.idx++
			c.off = 0
		} else {
			c.off += uint16(len(out))
		}
	}
	return n
}

// packed returns a view of up to max upcoming records. A record that
// next or expand left partly delivered comes back alone, as an idle
// record holding the rest of its run.
func (c *packedCursor) packed(recs []Rec, max int) []Rec {
	if c.off > 0 {
		c.part[0] = Rec{pc: IdlePC, bits: recs[c.idx].Run() - c.off} // an idle record
		c.idx++
		c.off = 0
		return c.part[:]
	}
	end := min(c.idx+max, len(recs))
	blk := recs[c.idx:end]
	c.idx = end
	return blk
}

// packBatch is how many records Packed holds at a time: the simulator
// core's batch, so that one refill of the core is one buffer.
const packBatch = 256

// Packed returns r as a PackedReader: r itself if it is one, else an
// adapter that packs r's instructions on the fly, packBatch records at
// a time, into a private buffer. The adapter's records are exactly the
// ones a pool slab holds for the same stream: it packs with
// appendPacked, cuts runs every extendChunk instructions as a pool
// entry's chunks do, and ends a buffer only where the next instruction
// opens a record, holding that one back for the next buffer.
func Packed(r Reader) PackedReader {
	if p, ok := r.(PackedReader); ok {
		return p
	}
	return &packer{r: r}
}

// packer is the adapter Packed builds. It implements Reader and
// PackedReader over one cursor, so its surfaces interleave.
type packer struct {
	r    Reader
	recs []Rec // the current buffer
	cur  packedCursor
	n    int // instructions packed since Reset
	// hold is the record that opens the next buffer, when held is set.
	hold Rec
	held bool
	done bool // r is exhausted
}

// fill replaces the consumed buffer with the next one, empty at the end
// of the trace.
func (p *packer) fill() {
	if p.recs == nil {
		p.recs = make([]Rec, 0, packBatch+1)
	}
	p.cur = packedCursor{}
	recs, n := p.recs[:0], p.n
	if p.held {
		recs, p.held = append(recs, p.hold), false
	}
	for !p.done && len(recs) <= packBatch {
		ins, ok := p.r.Next()
		if !ok {
			p.done = true
			break
		}
		floor := 0
		if n%extendChunk == 0 {
			floor = len(recs)
		}
		n++
		recs = appendPacked(recs, floor, ins)
	}
	if len(recs) > packBatch {
		p.hold, p.held = recs[packBatch], true
		recs = recs[:packBatch]
	}
	p.recs, p.n = recs, n
}

// Name implements Reader.
func (p *packer) Name() string { return p.r.Name() }

// Reset implements Reader.
func (p *packer) Reset() {
	p.r.Reset()
	p.recs, p.cur = p.recs[:0], packedCursor{}
	p.n, p.held, p.done = 0, false, false
}

// Next implements Reader.
func (p *packer) Next() (Instr, bool) {
	if p.cur.idx >= len(p.recs) {
		p.fill()
	}
	return p.cur.next(p.recs)
}

// NextPacked implements PackedReader. The returned slice aliases the
// adapter's buffer, valid until the next read.
func (p *packer) NextPacked(max int) []Rec {
	if p.cur.idx >= len(p.recs) {
		p.fill()
	}
	return p.cur.packed(p.recs, max)
}

// Materialized is an immutable in-memory trace: the complete record
// sequence of some Reader, decoded once and packed. It is safe for
// concurrent use; replay cursors (Replay) carry all mutable state.
type Materialized struct {
	name string
	recs []Rec
	n    int // instructions recs stands for
}

// Materialize drains r into a Materialized slab. If max > 0 the slab is
// truncated to the first max instructions (the result then replays as a
// finite trace that loops at max, like a trace file written with the
// same cap). The reader is consumed; Reset it before reuse.
func Materialize(r Reader, max uint64) *Materialized {
	m := &Materialized{name: r.Name()}
	for max == 0 || uint64(m.n) < max {
		ins, ok := r.Next()
		if !ok {
			break
		}
		m.add(ins)
	}
	return m
}

// NewMaterialized packs an already-decoded instruction sequence (one
// record per instruction) into a slab. instrs is not retained.
func NewMaterialized(name string, instrs []Instr) *Materialized {
	m := &Materialized{name: name}
	for _, ins := range instrs {
		m.add(ins)
	}
	return m
}

func (m *Materialized) add(ins Instr) {
	m.recs = appendPacked(m.recs, 0, ins)
	m.n++
}

// Name identifies the trace.
func (m *Materialized) Name() string { return m.name }

// Len returns the number of instructions.
func (m *Materialized) Len() int { return m.n }

// Footprint returns the slab's approximate memory footprint in bytes.
func (m *Materialized) Footprint() int64 { return int64(len(m.recs)) * recBytes }

// Replay returns a fresh cursor over the slab. Replays are independent:
// any number may read the same Materialized concurrently.
func (m *Materialized) Replay() *Replay { return &Replay{m: m} }

// Replay is a cursor over a Materialized slab. It implements Reader,
// BlockReader and PackedReader; all are allocation-free in steady state
// (NextBlock expands into a buffer the cursor keeps).
type Replay struct {
	m   *Materialized
	cur packedCursor
	buf []Instr
}

// Name implements Reader.
func (r *Replay) Name() string { return r.m.name }

// Reset implements Reader.
func (r *Replay) Reset() { r.cur = packedCursor{} }

// Next implements Reader.
func (r *Replay) Next() (Instr, bool) { return r.cur.next(r.m.recs) }

// NextBlock implements BlockReader.
func (r *Replay) NextBlock(max int) []Instr {
	r.buf = grow(r.buf, max)
	return r.buf[:r.cur.expand(r.m.recs, r.buf[:max])]
}

// NextPacked implements PackedReader: the returned slice aliases the
// slab directly, so replay costs one bounds check per block.
func (r *Replay) NextPacked(max int) []Rec { return r.cur.packed(r.m.recs, max) }

// grow returns buf with capacity for n records.
func grow(buf []Instr, n int) []Instr {
	if cap(buf) < n {
		return make([]Instr, n)
	}
	return buf[:cap(buf)]
}

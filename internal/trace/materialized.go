package trace

import "math"

// Materialized trace replay: a trace decoded once into an immutable,
// run-length packed []Instr slab that any number of readers can replay
// concurrently. The slab replaces per-instruction generator work (PRNG
// draws, modulo arithmetic, interface dispatch) with an array read, and
// an instruction and the run of idle instructions after it with one
// record — see the "Trace materialization & replay" section of
// docs/ARCHITECTURE.md.

// BatchReader is a Reader that can fill a caller-owned buffer in bulk,
// amortizing per-instruction dispatch across a whole batch.
type BatchReader interface {
	Reader
	// ReadBatch fills dst with up to len(dst) instructions and returns
	// how many were written. 0 means the trace is exhausted; calling
	// ReadBatch again after that is undefined until Reset.
	ReadBatch(dst []Instr) int
}

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
// packed: a record stands for itself and then Instr.Run idle
// instructions. It is the simulator's surface; a consumer that wants
// one record per instruction uses Next, ReadBatch or NextBlock. The
// same retention rule as BlockReader applies.
type PackedReader interface {
	Reader
	// NextPacked returns a view of up to max upcoming records, advancing
	// the cursor past every instruction they stand for. An empty slice
	// means the trace is exhausted until Reset.
	NextPacked(max int) []Instr
}

// maxRun is the largest Run a packed record carries: a record stands
// for at most 65 535 instructions, so Run+1 fits the field's width too.
const maxRun = math.MaxUint16 - 1

// idle is the instruction a record's run repeats.
var idle = Instr{PC: IdlePC, Kind: Other}

// appendPacked appends one instruction (ins.Run == 0) to a packed slab:
// an idle instruction lengthens the last record's run, whatever that
// record is, and any other instruction adds a record. A run that has
// reached maxRun ends and the next idle instruction opens a record; the
// core retires the two exactly like one longer run. Records below floor
// are never touched, so a caller that has already published
// recs[:floor] to lock-free readers may keep appending.
func appendPacked(recs []Instr, floor int, ins Instr) []Instr {
	if n := len(recs); n > floor && ins == idle && recs[n-1].Run < maxRun {
		recs[n-1].Run++
		return recs
	}
	return append(recs, ins)
}

// packedCursor is a position in a packed slab: record idx, off
// instructions of it already delivered (the head, then off-1 of its
// run). The slab is passed to every call, because a shared slab grows
// between calls (records at and below the cursor never change).
type packedCursor struct {
	idx  int
	off  uint16
	part [1]Instr // the rest of a partly delivered record, for packed
}

// next delivers one instruction.
func (c *packedCursor) next(recs []Instr) (Instr, bool) {
	if c.idx >= len(recs) {
		return Instr{}, false
	}
	rec := &recs[c.idx]
	ins := *rec
	ins.Run = 0
	if c.off != 0 {
		ins = idle
	}
	if c.off++; c.off > rec.Run {
		c.idx++
		c.off = 0
	}
	return ins, true
}

// expand fills dst with upcoming instructions, one record each, and
// returns how many it wrote.
func (c *packedCursor) expand(recs []Instr, dst []Instr) int {
	n := 0
	for n < len(dst) && c.idx < len(recs) {
		rec := &recs[c.idx]
		if c.off == 0 {
			dst[n] = *rec
			dst[n].Run = 0
			n++
			if rec.Run == 0 {
				c.idx++
			} else {
				c.off = 1
			}
			continue
		}
		// The head and off-1 of the run are delivered.
		left := int(rec.Run-c.off) + 1
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
func (c *packedCursor) packed(recs []Instr, max int) []Instr {
	if c.off > 0 {
		c.part[0] = idle
		c.part[0].Run = recs[c.idx].Run - c.off
		c.idx++
		c.off = 0
		return c.part[:]
	}
	end := min(c.idx+max, len(recs))
	blk := recs[c.idx:end]
	c.idx = end
	return blk
}

// Materialized is an immutable in-memory trace: the complete record
// sequence of some Reader, decoded once and packed. It is safe for
// concurrent use; replay cursors (Replay) carry all mutable state.
type Materialized struct {
	name string
	recs []Instr // packed
	n    int     // instructions recs stands for
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
func (m *Materialized) Footprint() int64 { return int64(len(m.recs)) * instrFootprint }

// Replay returns a fresh cursor over the slab. Replays are independent:
// any number may read the same Materialized concurrently.
func (m *Materialized) Replay() *Replay { return &Replay{m: m} }

// Replay is a cursor over a Materialized slab. It implements Reader,
// BatchReader, BlockReader and PackedReader; all are allocation-free
// in steady state (NextBlock expands into a buffer the cursor keeps).
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

// ReadBatch implements BatchReader.
func (r *Replay) ReadBatch(dst []Instr) int { return r.cur.expand(r.m.recs, dst) }

// NextBlock implements BlockReader.
func (r *Replay) NextBlock(max int) []Instr {
	r.buf = grow(r.buf, max)
	return r.buf[:r.cur.expand(r.m.recs, r.buf[:max])]
}

// NextPacked implements PackedReader: the returned slice aliases the
// slab directly, so replay costs one bounds check per block.
func (r *Replay) NextPacked(max int) []Instr { return r.cur.packed(r.m.recs, max) }

// grow returns buf with capacity for n records.
func grow(buf []Instr, n int) []Instr {
	if cap(buf) < n {
		return make([]Instr, n)
	}
	return buf[:cap(buf)]
}

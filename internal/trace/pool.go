package trace

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"micromama/internal/telemetry"
)

// Pool is a process-wide, content-addressed cache of materialized
// traces. Entries are keyed by generator spec (the workload catalog
// keys by trace name, which fully determines the generated stream) and
// populated lazily: the first reader to need instruction n extends the
// shared slab under a per-entry mutex (singleflight: concurrent readers
// for the same range elect one extender), and every later reader —
// the baseline run, the profile run, each controller run of a sweep —
// replays the same read-only buffer instead of regenerating it.
//
// Replay is bit-identical to streaming generation by construction: the
// slab holds exactly the instructions the generator emits, run-length
// packed (see appendPacked), and a reader that runs past what the
// budget allows degrades transparently to streaming from its own
// generator instance positioned at the frontier.
//
// Budgeting is in bytes actually held: TotalBudget bounds the bytes of
// all slabs combined; PerTraceBudget bounds one entry. When a trace
// would exceed its cap, the slab stops growing (readers stream the
// tail); when the store is full, Shared hands out plain streaming
// generators. Both fallbacks preserve the generated sequence exactly.
type Pool struct {
	mu      sync.Mutex
	total   int64
	per     int64
	used    int64 // bytes of slab held or reserved
	instrs  int64 // instructions those slabs stand for
	entries map[string]*sharedTrace

	fallbacks        atomic.Uint64 // Shared calls answered with a streaming reader
	hits             atomic.Uint64 // Shared calls served by an existing entry
	materializations atomic.Uint64 // Shared calls that created a new entry
	tailStreams      atomic.Uint64 // readers that degraded to streaming past a capped slab
}

// PoolStats snapshots a Pool for monitoring and tests.
type PoolStats struct {
	Entries   int
	UsedBytes int64
	// Instructions is how many instructions the held slabs stand for;
	// UsedBytes / Instructions is the packed cost of one instruction.
	Instructions int64
	// Fallbacks counts Shared calls that returned a plain streaming
	// reader because the store budget was exhausted.
	Fallbacks uint64
	// Hits counts Shared calls served by an already-registered entry;
	// Materializations counts calls that registered a new one.
	Hits             uint64
	Materializations uint64
	// TailStreams counts readers that crossed a capped slab frontier
	// and degraded (bit-identically) to streaming the tail.
	TailStreams uint64
}

// extendChunk is how many instructions one slab extension generates:
// large enough to amortize locking and snapshot publication, small
// enough that a short run does not over-generate. Runs are not merged
// across chunks, so a slab's layout does not depend on who extended it.
const extendChunk = 1 << 16

// NewPool builds a store with the given byte budgets. totalBudget <= 0
// disables materialization entirely (every Shared call streams);
// perTraceBudget <= 0 defaults to totalBudget/8.
func NewPool(totalBudget, perTraceBudget int64) *Pool {
	if perTraceBudget <= 0 {
		perTraceBudget = totalBudget / 8
	}
	if perTraceBudget > totalBudget {
		perTraceBudget = totalBudget
	}
	return &Pool{total: totalBudget, per: perTraceBudget, entries: make(map[string]*sharedTrace)}
}

// DefaultTraceBudgetMB is the default total store budget in MiB,
// overridable with the MAMA_TRACE_BUDGET_MB environment variable
// (0 disables materialization).
const DefaultTraceBudgetMB = 1024

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the process-wide trace store. Its total budget
// is MAMA_TRACE_BUDGET_MB MiB (default 1 GiB; 0 disables
// materialization) with the per-trace cap at 1/8 of the total.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() {
		mb := int64(DefaultTraceBudgetMB)
		if env := os.Getenv("MAMA_TRACE_BUDGET_MB"); env != "" {
			if v, err := strconv.ParseInt(env, 10, 64); err == nil && v >= 0 {
				mb = v
			}
		}
		defaultPool = NewPool(mb<<20, 0)
		defaultPool.RegisterMetrics(telemetry.Default())
	})
	return defaultPool
}

// Stats snapshots the store.
func (s *Pool) Stats() PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PoolStats{
		Entries:          len(s.entries),
		UsedBytes:        s.used,
		Instructions:     s.instrs,
		Fallbacks:        s.fallbacks.Load(),
		Hits:             s.hits.Load(),
		Materializations: s.materializations.Load(),
		TailStreams:      s.tailStreams.Load(),
	}
}

// RegisterMetrics exports the pool's counters and occupancy to a
// telemetry registry under the mama_trace_pool_* family. Safe to call
// more than once for the same pool (registration is idempotent); the
// default pool registers itself on the default registry.
func (s *Pool) RegisterMetrics(r *telemetry.Registry) {
	r.CounterFunc("mama_trace_pool_hits_total",
		"Shared-trace requests served by an existing materialized entry.",
		s.hits.Load)
	r.CounterFunc("mama_trace_pool_materializations_total",
		"Shared-trace requests that registered a new materialized entry.",
		s.materializations.Load)
	r.CounterFunc("mama_trace_pool_fallbacks_total",
		"Shared-trace requests answered with a plain streaming reader (store budget exhausted).",
		s.fallbacks.Load)
	r.CounterFunc("mama_trace_pool_tail_streams_total",
		"Readers that crossed a capped slab frontier and degraded to streaming the tail.",
		s.tailStreams.Load)
	r.GaugeFunc("mama_trace_pool_entries",
		"Materialized traces resident in the pool.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.entries)) })
	r.GaugeFunc("mama_trace_pool_used_bytes",
		"Bytes of materialized trace slabs currently held.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.used) })
	r.GaugeFunc("mama_trace_pool_instructions",
		"Instructions the held slabs stand for (used_bytes / instructions = packed bytes per instruction).",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.instrs) })
	r.GaugeFunc("mama_trace_pool_budget_bytes",
		"Total byte budget for materialized traces (MAMA_TRACE_BUDGET_MB).",
		func() float64 { return float64(s.total) })
	r.GaugeFunc("mama_trace_pool_per_trace_budget_bytes",
		"Per-trace byte cap within the pool budget.",
		func() float64 { return float64(s.per) })
}

// Shared returns a reader replaying the trace identified by key,
// materializing it (lazily, shared across all readers of the key) on
// first use. factory must deterministically construct the generator for
// key — the same key must always yield the same instruction stream.
// When the store budget is exhausted the call transparently degrades to
// factory() itself: a plain streaming reader.
func (s *Pool) Shared(key string, factory func() Reader) Reader {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		if s.used >= s.total {
			s.mu.Unlock()
			s.fallbacks.Add(1)
			return factory()
		}
		gen := factory()
		e = &sharedTrace{store: s, name: gen.Name(), factory: factory, gen: gen}
		e.snap.Store(&traceSnap{})
		s.entries[key] = e
		s.materializations.Add(1)
	} else {
		s.hits.Add(1)
	}
	s.mu.Unlock()
	return e.newReader()
}

// Preload registers an already-complete materialized trace under key
// (an on-disk trace cache loaded at startup, for example). The slab is
// final: readers loop at its end exactly like a trace-file replay.
func (s *Pool) Preload(key string, m *Materialized) {
	e := &sharedTrace{store: s, name: m.Name()}
	e.snap.Store(&traceSnap{recs: m.recs, n: m.n, done: true})
	s.mu.Lock()
	if old, ok := s.entries[key]; ok {
		old.mu.Lock()
		snap := old.snap.Load()
		old.mu.Unlock()
		s.used -= int64(len(snap.recs)) * instrFootprint
		s.instrs -= int64(snap.n)
	}
	s.entries[key] = e
	s.used += m.Footprint()
	s.instrs += int64(m.n)
	s.mu.Unlock()
}

// traceSnap is one published state of a shared slab. Snapshots are
// immutable: extension builds a new one and swaps the pointer, so
// readers never lock.
type traceSnap struct {
	recs []Instr // packed
	n    int     // instructions recs stands for
	// done: the generator ended; recs is the complete trace.
	done bool
	// capped: the budget stops further growth; readers needing more
	// stream the tail from their own generator.
	capped bool
}

// sharedTrace is one store entry: a growing slab plus the single
// generator instance that extends it.
type sharedTrace struct {
	store   *Pool
	name    string
	factory func() Reader

	mu  sync.Mutex // serializes extension; snap is the read path
	gen Reader     // positioned at the frontier; nil once done or handed to a tail reader

	snap atomic.Pointer[traceSnap]
}

func (e *sharedTrace) newReader() *sharedReplay { return &sharedReplay{sh: e} }

// ensure extends the slab to at least n instructions (or until the
// trace ends or the budget caps it) and returns the latest snapshot.
func (e *sharedTrace) ensure(n int) *traceSnap {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap.Load()
	if snap.n >= n || snap.done || snap.capped {
		return snap
	}
	next := &traceSnap{recs: snap.recs, n: snap.n}
	for next.n < n && !next.done {
		// One chunk: extendChunk instructions, or as many as fit in the
		// records the budget grants. Published records are below floor.
		floor := len(next.recs)
		grant := e.store.reserve(floor)
		if grant == 0 {
			next.capped = true
			break
		}
		got := 0
		for got < extendChunk && len(next.recs)-floor < grant {
			ins, ok := e.gen.Next()
			if !ok {
				next.done = true
				e.gen = nil
				break
			}
			next.recs = appendPacked(next.recs, floor, ins)
			got++
		}
		next.n += got
		e.store.settle(grant-(len(next.recs)-floor), got)
	}
	e.snap.Store(next)
	return next
}

// takeTail hands the entry's generator — positioned exactly at the
// slab frontier — to the first reader that must stream past the cap.
// Later readers rebuild their own generator and skip the prefix.
func (e *sharedTrace) takeTail() Reader {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.gen
	e.gen = nil
	return g
}

// tailReader returns a streaming reader positioned at instruction pos
// of the trace (pos is always the slab frontier when called).
func (e *sharedTrace) tailReader(pos int) Reader {
	e.store.tailStreams.Add(1)
	if g := e.takeTail(); g != nil {
		return g
	}
	g := e.factory()
	for i := 0; i < pos; i++ {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	return g
}

// reserve sets budget aside for the next chunk of an entry whose slab
// holds have records, and returns how many records the chunk may add:
// extendChunk (a chunk of that many instructions can need no more), or
// fewer near a cap, or 0 when the entry is capped.
func (s *Pool) reserve(have int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	grant := int64(extendChunk)
	if perLeft := s.per/instrFootprint - int64(have); perLeft < grant {
		grant = perLeft
	}
	if totalLeft := (s.total - s.used) / instrFootprint; totalLeft < grant {
		grant = totalLeft
	}
	if grant <= 0 {
		return 0
	}
	s.used += grant * instrFootprint
	return int(grant)
}

// settle closes a chunk: it returns the budget of the granted records
// the chunk did not need and counts the instructions it added.
func (s *Pool) settle(unusedRecs, instrs int) {
	s.mu.Lock()
	s.used -= int64(unusedRecs) * instrFootprint
	s.instrs += int64(instrs)
	s.mu.Unlock()
}

// sharedReplay is a cursor over a sharedTrace. It implements Reader,
// BatchReader, BlockReader and PackedReader. Replays are independent
// and safe to use from different goroutines (one goroutine per replay).
type sharedReplay struct {
	sh  *sharedTrace
	cur packedCursor

	// tail streams instructions past the slab cap; non-nil once this
	// replay crossed the frontier of a capped entry.
	tail Reader
	buf  []Instr // NextBlock's expansion, and every tail block
}

// Name implements Reader.
func (r *sharedReplay) Name() string { return r.sh.name }

// Reset implements Reader. A discarded tail generator is rebuilt on
// demand if this replay crosses the cap again.
func (r *sharedReplay) Reset() {
	r.cur = packedCursor{}
	r.tail = nil
}

// slab returns the packed records published so far, extended by a
// chunk when the cursor has consumed them all. If the cursor is still
// at their end afterwards, the trace is over (r.tail == nil; callers
// Reset to loop) or this replay now streams the tail of a capped entry
// (r.tail != nil).
func (r *sharedReplay) slab() []Instr {
	snap := r.sh.snap.Load()
	if r.cur.idx >= len(snap.recs) && !snap.done && !snap.capped {
		snap = r.sh.ensure(snap.n + 1)
	}
	if r.cur.idx >= len(snap.recs) && !snap.done {
		// Capped, and the cursor has consumed all snap.n instructions.
		r.tail = r.sh.tailReader(snap.n)
	}
	return snap.recs
}

// Next implements Reader.
func (r *sharedReplay) Next() (Instr, bool) {
	if r.tail == nil {
		if ins, ok := r.cur.next(r.slab()); ok || r.tail == nil {
			return ins, ok
		}
	}
	return r.tail.Next()
}

// ReadBatch implements BatchReader.
func (r *sharedReplay) ReadBatch(dst []Instr) int {
	if r.tail == nil {
		if n := r.cur.expand(r.slab(), dst); n > 0 || r.tail == nil {
			return n
		}
	}
	return r.readTail(dst)
}

// NextBlock implements BlockReader.
func (r *sharedReplay) NextBlock(max int) []Instr {
	r.buf = grow(r.buf, max)
	return r.buf[:r.ReadBatch(r.buf[:max])]
}

// NextPacked implements PackedReader. Within the materialized prefix
// the returned slice aliases the shared slab (zero copy); past a capped
// frontier it is served from this replay's private streaming tail, one
// record per instruction.
func (r *sharedReplay) NextPacked(max int) []Instr {
	if r.tail == nil {
		if blk := r.cur.packed(r.slab(), max); len(blk) > 0 || r.tail == nil {
			return blk
		}
	}
	return r.NextBlock(max)
}

func (r *sharedReplay) readTail(dst []Instr) int {
	n := 0
	for n < len(dst) {
		ins, ok := r.tail.Next()
		if !ok {
			break
		}
		dst[n] = ins
		n++
	}
	return n
}

package sim

import (
	"micromama/internal/cache"
	"micromama/internal/prefetch"
	"micromama/internal/trace"
)

// pendingMiss tracks one outstanding demand miss for the MLP/ROB model.
type pendingMiss struct {
	done uint64 // cycle the data arrives
	idx  uint64 // retiring-instruction index of the load
	line uint64 // line address, to merge same-line accesses (one MSHR)
}

// Core is one simulated CPU: a trace consumer whose timing is bounded
// by commit width, ROB run-ahead, and outstanding-miss parallelism, in
// front of a private L1D and L2.
type Core struct {
	sys       *System
	id        int
	traceName string
	base      uint64 // per-core address-space offset

	// Instruction supply. The core consumes fixed-size batches of
	// records instead of one virtual Next() per instruction: packedSrc
	// (if the reader serves zero-copy, run-length packed views) or
	// batchSrc/src refill batch, and the inner loop indexes it directly.
	// A record stands for Run+1 instructions; runLeft is how many of the
	// current record's are still to retire. Exhaustion wraps the trace
	// (Reset + refill), matching the paper's trace-restart methodology.
	src       trace.Reader
	packedSrc trace.PackedReader // src, when it serves direct slices
	batchSrc  trace.BatchReader  // src, when it serves bulk copies
	batch     []trace.Instr      // current window; persists across epochs
	batchPos  int
	runLeft   uint64
	fillBuf   []trace.Instr // private refill buffer for non-packed readers

	cycle    uint64
	subCycle int
	instr    uint64

	l1i      *cache.Cache
	l1d      *cache.Cache
	l2       *cache.Cache
	l1Engine prefetch.Prefetcher
	l2Engine prefetch.Prefetcher
	feedback prefetch.Feedback // l2Engine's feedback hooks, if any

	pending []pendingMiss // FIFO of outstanding demand misses
	pHead   int

	// Front-end: the last instruction-fetch line, so the L1I is only
	// consulted when fetch crosses a line boundary.
	lastFetchLine uint64

	// Line-alignment masks derived from the configured line sizes
	// (addr & mask == line-aligned addr).
	fetchLineMask uint64 // from L1I.LineBytes
	loadLineMask  uint64 // from L1D.LineBytes

	// per-level outstanding-prefetch trackers (rings of completion
	// times): hardware gives each level its own prefetch MSHR budget,
	// so an L2 prefetch flood cannot starve L1 coverage.
	pfL1    pfRing
	pfL2    pfRing
	candBuf []uint64 // reusable candidate buffer
	l1Buf   []uint64

	l1PrefIssued uint64
	l2PrefIssued uint64
	prefDropped  uint64

	// frozen stats at the instruction target
	frozenAt      uint64
	frozenL1D     cache.Stats
	frozenL2      cache.Stats
	frozenL1Pref  uint64
	frozenL2Pref  uint64
	frozenDropped uint64
}

func newCore(sys *System, id int, tr trace.Reader, engine prefetch.Prefetcher) *Core {
	l1Engine := prefetch.Prefetcher(prefetch.NewIPStride())
	if p, ok := sys.controller.(L1Provider); ok {
		l1Engine = p.L1Engine(id)
	}
	c := &Core{
		sys:           sys,
		id:            id,
		traceName:     tr.Name(),
		src:           tr,
		base:          uint64(id+1) << sys.cfg.AddrSpaceShift,
		l1i:           cache.New(sys.cfg.L1I),
		l1d:           cache.New(sys.cfg.L1D),
		l2:            cache.New(sys.cfg.L2),
		l1Engine:      l1Engine,
		l2Engine:      engine,
		pending:       make([]pendingMiss, 0, sys.cfg.MLP+1),
		fetchLineMask: ^(sys.cfg.L1I.LineBytes - 1),
		loadLineMask:  ^(sys.cfg.L1D.LineBytes - 1),
		pfL1:          newPFRing(8),
		pfL2:          newPFRing(sys.cfg.PrefetchQueue),
		candBuf:       make([]uint64, 0, 64),
		l1Buf:         make([]uint64, 0, 8),
	}
	if fb, ok := engine.(prefetch.Feedback); ok {
		c.feedback = fb
	}
	if ps, ok := tr.(trace.PackedReader); ok {
		c.packedSrc = ps
	} else {
		if br, ok := tr.(trace.BatchReader); ok {
			c.batchSrc = br
		}
		c.fillBuf = make([]trace.Instr, coreBatch)
	}
	return c
}

// coreBatch is how many records one refill pulls from the trace:
// big enough to amortize the interface call, small enough that the
// window stays cache-resident.
const coreBatch = 256

// refill replaces the exhausted batch window with the next one, wrapping
// the trace like trace.Looping did (Reset and retry once). It returns
// false only for an empty trace.
func (c *Core) refill() bool {
	for attempt := 0; attempt < 2; attempt++ {
		if c.packedSrc != nil {
			if blk := c.packedSrc.NextPacked(coreBatch); len(blk) > 0 {
				c.batch, c.batchPos = blk, 0
				return true
			}
		} else {
			n := 0
			if c.batchSrc != nil {
				n = c.batchSrc.ReadBatch(c.fillBuf)
			} else {
				for n < len(c.fillBuf) {
					ins, ok := c.src.Next()
					if !ok {
						break
					}
					c.fillBuf[n] = ins
					n++
				}
			}
			if n > 0 {
				c.batch, c.batchPos = c.fillBuf[:n], 0
				return true
			}
		}
		c.src.Reset()
	}
	return false
}

// advance executes instructions until the core's local clock reaches
// epochEnd, freezing stats the moment the instruction target is
// crossed. The first instruction of a record takes the full path here;
// the rest of its run retire in retireRun.
func (c *Core) advance(epochEnd, target uint64) {
	commitWidth := c.sys.cfg.CommitWidth
	c.retireRun(epochEnd, target) // what the last epoch left of a run
	for c.cycle < epochEnd {
		if c.batchPos >= len(c.batch) {
			if !c.refill() {
				// Empty trace: stall forever at the epoch boundary.
				c.cycle = epochEnd
				return
			}
		}
		ins := &c.batch[c.batchPos]
		c.batchPos++
		c.instr++
		c.subCycle++
		if c.subCycle >= commitWidth {
			c.cycle++
			c.subCycle = 0
		}
		// Fetch fast path inlined: the L1I is only consulted when fetch
		// crosses a line boundary, which straight-line code rarely does.
		if ins.PC&c.fetchLineMask != c.lastFetchLine {
			c.doFetch(ins.PC)
		}
		switch ins.Kind {
		case trace.Load:
			c.doLoad(ins.PC, ins.Addr, ins.Flags)
		case trace.Store:
			c.doStore(ins.PC, ins.Addr)
		}
		if c.instr == target && c.frozenAt == 0 {
			c.freeze()
		}
		if ins.Run != 0 {
			c.runLeft = uint64(ins.Run)
			c.retireRun(epochEnd, target)
		}
	}
}

// retireRun retires what is left of the current record's run, as far as
// the epoch allows. Those instructions are non-memory and at the PC of
// the record's first, which advance just executed: the fetch check
// (same line as lastFetchLine) sends none of them to the L1I, and they
// touch nothing else, so each only retires — one more instruction, one
// more commit slot. Retiring k of them at once is therefore the same
// arithmetic done k times, provided k stops where advance's loop would
// have: at the epoch boundary (the loop runs an instruction only while
// cycle < epochEnd, i.e. for (epochEnd−cycle)·CommitWidth − subCycle
// more commit slots) and on the instruction target, where stats freeze.
func (c *Core) retireRun(epochEnd, target uint64) {
	commitWidth := uint64(c.sys.cfg.CommitWidth)
	for c.runLeft > 0 && c.cycle < epochEnd {
		k := min(c.runLeft, (epochEnd-c.cycle)*commitWidth-uint64(c.subCycle))
		if c.instr < target {
			k = min(k, target-c.instr)
		}
		c.runLeft -= k
		c.instr += k
		k += uint64(c.subCycle)
		c.cycle += k / commitWidth
		c.subCycle = int(k % commitWidth)
		if c.instr == target && c.frozenAt == 0 {
			c.freeze()
		}
	}
}

func (c *Core) freeze() {
	c.sys.frozen++
	c.frozenAt = c.cycle
	if c.frozenAt == 0 {
		c.frozenAt = 1
	}
	c.frozenL1D = c.l1d.Stats()
	c.frozenL2 = c.l2.Stats()
	c.frozenL1Pref = c.l1PrefIssued
	c.frozenL2Pref = c.l2PrefIssued
	c.frozenDropped = c.prefDropped
}

// doFetch models the instruction front end: when fetch crosses into a
// new cache line, the L1I is consulted; a miss fetches through the
// unified L2 and stalls the pipeline (front-end stalls are not hidden
// by the ROB). advance inlines the same-line fast path; callers only
// reach here on a line crossing (the check below keeps it correct for
// any caller).
func (c *Core) doFetch(pc uint64) {
	line := pc & c.fetchLineMask
	if line == c.lastFetchLine {
		return
	}
	c.lastFetchLine = line
	// Instructions live in a per-core I-space distinct from data.
	addr := line | c.base | 1<<(c.sys.cfg.AddrSpaceShift-1)
	r := c.l1i.Lookup(addr, c.cycle, true)
	if r.Hit {
		if r.ReadyAt > c.cycle {
			c.cycle = r.ReadyAt
			c.subCycle = 0
		}
		return
	}
	t2 := c.cycle + c.sys.cfg.L1I.HitLatency
	var ready uint64
	r2 := c.l2.Lookup(addr, t2, true)
	if r2.Hit {
		ready = t2 + c.sys.cfg.L2.HitLatency
		if r2.ReadyAt > ready {
			ready = r2.ReadyAt
		}
	} else {
		ready = c.fetchIntoL2(t2, addr, false)
	}
	c.l1i.Fill(addr, ready, false, false)
	c.sys.controller.OnL2Demand(c.id, t2)
	if ready > c.cycle {
		c.cycle = ready
		c.subCycle = 0
	}
}

func (c *Core) doLoad(pc, addr uint64, flags trace.Flags) {
	addr |= c.base
	done, fast := c.access(pc, addr, false)
	if fast {
		return
	}
	if flags&trace.DependsPrev != 0 {
		// Pointer chase: serialized behind its producing load.
		if done > c.cycle {
			c.cycle = done
			c.subCycle = 0
		}
		return
	}
	// Same-line accesses merge into one MSHR: don't consume another
	// MLP slot for a line already outstanding.
	line := addr & c.loadLineMask
	for i := len(c.pending) - 1; i >= c.pHead; i-- {
		if c.pending[i].line == line {
			return
		}
	}
	c.pushMiss(done, line)
}

func (c *Core) doStore(pc, addr uint64) {
	// Stores are write-buffered: they consume cache/DRAM resources but
	// never stall retirement.
	c.access(pc, addr|c.base, true)
}

// pushMiss records an outstanding miss and applies the MLP and ROB
// limits: the core stalls when too many misses are in flight or when
// the oldest miss is older than the ROB allows.
func (c *Core) pushMiss(done, line uint64) {
	cfg := &c.sys.cfg
	c.pending = append(c.pending, pendingMiss{done: done, idx: c.instr, line: line})
	// Drop completed misses from the front.
	for c.pHead < len(c.pending) && c.pending[c.pHead].done <= c.cycle {
		c.pHead++
	}
	for len(c.pending)-c.pHead > cfg.MLP {
		if d := c.pending[c.pHead].done; d > c.cycle {
			c.cycle = d
			c.subCycle = 0
		}
		c.pHead++
	}
	for c.pHead < len(c.pending) && c.instr-c.pending[c.pHead].idx >= uint64(cfg.ROB) {
		if d := c.pending[c.pHead].done; d > c.cycle {
			c.cycle = d
			c.subCycle = 0
		}
		c.pHead++
	}
	// Compact the FIFO occasionally.
	if c.pHead > 64 {
		c.pending = append(c.pending[:0], c.pending[c.pHead:]...)
		c.pHead = 0
	}
}

// access walks the hierarchy for a demand access and returns the cycle
// the data is available plus whether the access was a "fast" L1 hit
// (no possible stall).
func (c *Core) access(pc, addr uint64, store bool) (done uint64, fast bool) {
	now := c.cycle
	cfg := &c.sys.cfg

	r1 := c.l1d.Lookup(addr, now, true)
	c.l1Buf = c.l1Engine.OnAccess(pc, addr, r1.Hit, c.l1Buf[:0])
	if r1.Hit {
		if store {
			c.l1d.MarkDirty(addr)
		}
		done = now + cfg.L1D.HitLatency
		if r1.ReadyAt > done {
			done = r1.ReadyAt
			fast = false
		} else {
			fast = true
		}
		c.issueL1Prefetches(now)
		return done, fast
	}

	// L1 miss: demand access to L2.
	t2 := now + cfg.L1D.HitLatency
	r2 := c.l2.Lookup(addr, t2, true)
	c.candBuf = c.l2Engine.OnAccess(pc, addr, r2.Hit, c.candBuf[:0])
	if r2.WasPrefetched && c.feedback != nil {
		c.feedback.OnUseful(addr, r2.ReadyAt > t2)
	}

	var ready uint64
	if r2.Hit {
		ready = t2 + cfg.L2.HitLatency
		if r2.ReadyAt > ready {
			ready = r2.ReadyAt
		}
	} else {
		ready = c.fetchIntoL2(t2, addr, false)
	}

	// Fill L1 (a store fill installs the line dirty); a dirty victim
	// merges into L2.
	if v := c.l1d.Fill(addr, ready, false, store); v.Valid && v.Dirty {
		c.l2.MarkDirty(v.Addr)
	}

	c.issueL2Prefetches(t2)
	c.issueL1Prefetches(now)
	c.sys.controller.OnL2Demand(c.id, t2)
	return ready, false
}

// fetchIntoL2 brings addr's line into the L2 (and LLC) starting at
// cycle t, returning when the data reaches the L2. pf marks prefetch
// fills; a prefetch rejected by the memory controller's demand-priority
// backpressure returns 0 with no state change.
func (c *Core) fetchIntoL2(t uint64, addr uint64, pf bool) uint64 {
	cfg := &c.sys.cfg
	t3 := t + cfg.L2.HitLatency
	r3 := c.sys.llc.Lookup(addr, t3, !pf)
	var ready uint64
	if r3.Hit {
		ready = t3 + cfg.LLC.HitLatency
		if r3.ReadyAt > ready {
			ready = r3.ReadyAt
		}
	} else {
		t4 := t3 + cfg.LLC.HitLatency
		if pf {
			var ok bool
			ready, ok = c.sys.dram.AccessPrefetch(t4, addr)
			if !ok {
				return 0
			}
		} else {
			ready = c.sys.dram.Access(t4, addr, false)
		}
		if v := c.sys.llc.Fill(addr, ready, pf, false); v.Valid && v.Dirty {
			c.sys.dram.Access(ready, v.Addr, true)
		}
	}
	if v := c.l2.Fill(addr, ready, pf, false); v.Valid {
		if v.Dirty {
			// Dirty L2 victim moves to the LLC; a dirty LLC victim goes
			// to memory.
			if lv := c.sys.llc.Fill(v.Addr, 0, false, true); lv.Valid && lv.Dirty {
				c.sys.dram.Access(ready, lv.Addr, true)
			}
		}
		if v.Prefetched && c.feedback != nil {
			c.feedback.OnUseless(v.Addr &^ c.base)
		}
	}
	return ready
}

// issueL2Prefetches sends the L2 engine's candidates down the hierarchy,
// subject to the per-core outstanding-prefetch budget.
func (c *Core) issueL2Prefetches(now uint64) {
	for _, a := range c.candBuf {
		if a == 0 {
			continue
		}
		addr := a | c.base
		if c.l2.Contains(addr) {
			continue
		}
		if !c.pfL2.reserve(now) {
			c.prefDropped++
			continue
		}
		done := c.fetchIntoL2(now, addr, true)
		if done == 0 {
			c.prefDropped++
			continue
		}
		c.pfL2.record(done)
		c.l2PrefIssued++
	}
	c.candBuf = c.candBuf[:0]
}

// issueL1Prefetches brings ip_stride candidates into the L1 (and L2).
func (c *Core) issueL1Prefetches(now uint64) {
	cfg := &c.sys.cfg
	for _, a := range c.l1Buf {
		if a == 0 {
			continue
		}
		addr := a | c.base
		if c.l1d.Contains(addr) {
			continue
		}
		if !c.pfL1.reserve(now) {
			c.prefDropped++
			continue
		}
		var ready uint64
		r2 := c.l2.Lookup(addr, now, false)
		if r2.Hit {
			ready = now + cfg.L2.HitLatency
			if r2.ReadyAt > ready {
				ready = r2.ReadyAt
			}
		} else {
			ready = c.fetchIntoL2(now, addr, true)
			if ready == 0 {
				c.prefDropped++
				continue
			}
		}
		if v := c.l1d.Fill(addr, ready, true, false); v.Valid && v.Dirty {
			c.l2.MarkDirty(v.Addr)
		}
		c.pfL1.record(ready)
		c.l1PrefIssued++
	}
	c.l1Buf = c.l1Buf[:0]
}

// warmupAdvance fast-forwards the core through n trace instructions in
// functional mode: cache contents and recency state update (dirty
// victims propagate so warmed dirty lines stay dirty) but no cycles are
// accounted and no prefetcher, controller, or DRAM state is touched.
// The instruction counter stays at zero — warmup instructions do not
// count toward the run target; they only consume trace prefix, the
// ChampSim-style warmup. Cache hit/miss counters are reset by the
// caller afterwards.
func (c *Core) warmupAdvance(n uint64) {
	for n > 0 {
		if c.runLeft > 0 {
			// The rest of a run installs nothing (see retireRun); a run
			// that outlasts the warmup retires its remainder timed.
			k := min(c.runLeft, n)
			c.runLeft -= k
			n -= k
			continue
		}
		if c.batchPos >= len(c.batch) {
			if !c.refill() {
				return // empty trace
			}
		}
		ins := &c.batch[c.batchPos]
		c.batchPos++
		c.runLeft = uint64(ins.Run)
		n--
		if ins.PC&c.fetchLineMask != c.lastFetchLine {
			c.warmFetch(ins.PC)
		}
		switch ins.Kind {
		case trace.Load:
			c.warmAccess(ins.Addr|c.base, false)
		case trace.Store:
			c.warmAccess(ins.Addr|c.base, true)
		}
	}
}

// warmFetch is doFetch without timing: install the fetch line in L1I
// (and below on a miss).
func (c *Core) warmFetch(pc uint64) {
	line := pc & c.fetchLineMask
	c.lastFetchLine = line
	addr := line | c.base | 1<<(c.sys.cfg.AddrSpaceShift-1)
	if r := c.l1i.Lookup(addr, 0, true); r.Hit {
		return
	}
	if r2 := c.l2.Lookup(addr, 0, true); !r2.Hit {
		c.warmFill(addr)
	}
	c.l1i.Fill(addr, 0, false, false)
}

// warmAccess is access without timing: walk the hierarchy, install the
// line, propagate dirtiness.
func (c *Core) warmAccess(addr uint64, store bool) {
	if r1 := c.l1d.Lookup(addr, 0, true); r1.Hit {
		if store {
			c.l1d.MarkDirty(addr)
		}
		return
	}
	if r2 := c.l2.Lookup(addr, 0, true); !r2.Hit {
		c.warmFill(addr)
	}
	if v := c.l1d.Fill(addr, 0, false, store); v.Valid && v.Dirty {
		c.l2.MarkDirty(v.Addr)
	}
}

// warmFill installs addr in the LLC and L2 content-only; dirty L2
// victims move to the LLC as in the timed path, but dirty LLC victims
// vanish (the DRAM model is not involved during warmup).
func (c *Core) warmFill(addr uint64) {
	if r3 := c.sys.llc.Lookup(addr, 0, true); !r3.Hit {
		c.sys.llc.Fill(addr, 0, false, false)
	}
	if v := c.l2.Fill(addr, 0, false, false); v.Valid && v.Dirty {
		c.sys.llc.Fill(v.Addr, 0, false, true)
	}
}

// pfRing tracks outstanding prefetches at one level as a ring of
// completion times. The physical ring is rounded up to a power of two
// so index wrap is a mask instead of a modulo; limit keeps the logical
// capacity (the prefetch budget) exact for non-power-of-two configs.
type pfRing struct {
	done  []uint64
	mask  int
	limit int
	head  int
	n     int
}

func newPFRing(capacity int) pfRing {
	if capacity < 1 {
		capacity = 1
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return pfRing{done: make([]uint64, size), mask: size - 1, limit: capacity}
}

// reserve reports whether a new prefetch may be issued at cycle now,
// pruning completed entries.
func (r *pfRing) reserve(now uint64) bool {
	for r.n > 0 && r.done[r.head] <= now {
		r.head = (r.head + 1) & r.mask
		r.n--
	}
	return r.n < r.limit
}

func (r *pfRing) record(done uint64) {
	tail := (r.head + r.n) & r.mask
	r.done[tail] = done
	r.n++
}

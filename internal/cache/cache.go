// Package cache implements the set-associative caches of the simulated
// memory hierarchy: LRU replacement, dirty lines, prefetch bits for
// usefulness accounting, and an in-flight (MSHR-like) tracker that lets
// the synchronous timing model merge outstanding misses.
//
// The cache is a passive state container; the memory-hierarchy walk in
// package sim decides when to look up, fill, and forward requests.
//
// Everything here is on the simulator's per-instruction hot path, so
// the implementation is allocation-free and map-free in steady state:
// the MSHR tracker is a fixed-capacity array scanned linearly (it holds
// at most ~MSHRs entries, so a scan beats hashing), and Lookup memoizes
// the way it resolved — the matched way on a hit, the victim Fill would
// choose on a miss — so the Lookup-then-Fill and Lookup-then-MarkDirty
// patterns of the hierarchy walk touch each set exactly once.
package cache

import (
	"fmt"
	"sync"
)

// Config describes one cache level.
type Config struct {
	Name       string
	Sets       int
	Ways       int
	LineBytes  uint64
	HitLatency uint64 // cycles
	MSHRs      int    // max distinct outstanding miss lines
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: Sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: Ways must be positive, got %d", c.Name, c.Ways)
	}
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: LineBytes must be a positive power of two, got %d", c.Name, c.LineBytes)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: MSHRs must be positive, got %d", c.Name, c.MSHRs)
	}
	return nil
}

// SizeBytes returns the data capacity of the configuration.
func (c Config) SizeBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * c.LineBytes
}

// Stats aggregates per-level counters.
type Stats struct {
	Accesses       uint64 // demand accesses
	Hits           uint64 // demand hits (including hits on in-flight lines)
	Misses         uint64 // demand misses
	Evictions      uint64
	Writebacks     uint64 // dirty evictions
	PrefetchFills  uint64 // lines filled by prefetch
	PrefetchUseful uint64 // prefetched lines later hit by demand
	PrefetchLate   uint64 // useful but demand arrived before the fill landed
	PrefetchUnused uint64 // prefetched lines evicted untouched
}

// Delta returns s - prev, counter-wise.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Accesses:       s.Accesses - prev.Accesses,
		Hits:           s.Hits - prev.Hits,
		Misses:         s.Misses - prev.Misses,
		Evictions:      s.Evictions - prev.Evictions,
		Writebacks:     s.Writebacks - prev.Writebacks,
		PrefetchFills:  s.PrefetchFills - prev.PrefetchFills,
		PrefetchUseful: s.PrefetchUseful - prev.PrefetchUseful,
		PrefetchLate:   s.PrefetchLate - prev.PrefetchLate,
		PrefetchUnused: s.PrefetchUnused - prev.PrefetchUnused,
	}
}

// line is one way of a set, packed into 16 bytes so a set walk streams
// through 2–4 host cache lines instead of 6: the tag word plus a meta
// word holding the LRU timestamp in the high bits and the state flags
// in the low three. The timestamp never overflows its 61 bits (that
// would take ~2e18 cache touches).
type line struct {
	tag  uint64
	meta uint64 // lastUse<<lineUseShift | flag bits
}

const (
	lineValid      = 1 << 0
	lineDirty      = 1 << 1
	linePrefetched = 1 << 2
	lineUseShift   = 3
)

// Victim describes a line displaced by a Fill.
type Victim struct {
	Addr  uint64 // line-aligned address of the evicted line
	Dirty bool
	Valid bool // false when an invalid way was used (no eviction)
	// Prefetched is true when the victim was filled by a prefetch and
	// never touched by demand (useless prefetch).
	Prefetched bool
}

// mshr is one tracked outstanding fill: the line address and the cycle
// its data lands. The tracker is an unordered array scanned linearly —
// it holds at most ~MSHRs entries, so a scan is faster than a map and
// never allocates.
type mshr struct {
	addr  uint64
	ready uint64
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg       Config
	lines     []line // sets*ways, row-major by set
	setMask   uint64
	ways      int // copy of cfg.Ways, hot in setFor
	lineShift uint
	stamp     uint64
	stats     Stats

	// Way memo from the most recent Lookup: the matched way on a hit,
	// the way Fill would victimize on a miss. Valid while no mutation
	// has advanced the stamp; Fill and MarkDirty consult it to skip
	// re-walking the set in the Lookup-then-act patterns of the
	// hierarchy walk. A stale memo falls back to the full walk, so
	// correctness never depends on it.
	memoLine  uint64
	memoStamp uint64
	memoWay   int32 // -1 when no memo
	memoHit   bool

	// inflight tracks line address -> cycle at which the fill lands,
	// emulating MSHRs for the synchronous timing walk. State (the line
	// itself) is installed eagerly; timing consults this array.
	inflight []mshr
}

// lineArrays recycles line arrays between caches of the same geometry:
// a sync.Pool of *[]line per array length. A simulation's arrays are
// its only large allocation (1.8 MB for one core, 2.7 MB for four) and
// short sweep cells build hundreds of systems a second, so without
// reuse the collector runs every simulation or two (ARCHITECTURE.md,
// "Cache-array recycling"). The collector still trims arrays no one
// has taken for two cycles, so an odd geometry does not stay resident.
var lineArrays sync.Map // int -> *sync.Pool

// takeLines returns a zeroed line array of length n.
func takeLines(n int) []line {
	if p, ok := lineArrays.Load(n); ok {
		if a, ok := p.(*sync.Pool).Get().(*[]line); ok {
			clear(*a)
			return *a
		}
	}
	return make([]line, n)
}

// Release returns the cache's line array for reuse by a later New of
// the same geometry. The cache must not be used afterwards except for
// Stats and Config: any lookup or fill panics on the nil array instead
// of corrupting whichever cache took the array over. Releasing twice
// is harmless.
func (c *Cache) Release() {
	if c.lines == nil {
		return
	}
	a := c.lines
	c.lines = nil
	p, _ := lineArrays.LoadOrStore(len(a), new(sync.Pool))
	p.(*sync.Pool).Put(&a)
}

// New constructs a cache. It panics on invalid configuration (a
// programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		lines:     takeLines(cfg.Sets * cfg.Ways),
		setMask:   uint64(cfg.Sets - 1),
		ways:      cfg.Ways,
		lineShift: shift,
		memoWay:   -1,
		// One slot of slack: a fill whose completion precedes every
		// tracked entry is still recorded at capacity (see pruneInflight),
		// so occupancy can transiently exceed MSHRs.
		inflight: make([]mshr, 0, cfg.MSHRs+1),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters while leaving array contents, recency
// state, and in-flight fills untouched — the end-of-warmup transition:
// the timed region starts from warm arrays but counts from zero.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineAddr aligns addr down to its cache line.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

// setFor returns the ways of addr's set. lineNo is addr >> lineShift;
// it doubles as the tag, so callers compute the shift once.
func (c *Cache) setFor(lineNo uint64) []line {
	base := int(lineNo&c.setMask) * c.ways
	return c.lines[base : base+c.ways]
}

// memoFor reports whether the way memo applies to lineNo right now.
func (c *Cache) memoFor(lineNo uint64) bool {
	return c.memoWay >= 0 && c.memoLine == lineNo && c.memoStamp == c.stamp
}

// LookupResult describes the outcome of a Lookup.
type LookupResult struct {
	Hit bool
	// WasPrefetched is true if the hit line was filled by a prefetch and
	// this is the first demand touch (the bit is cleared by the lookup
	// when demand is true).
	WasPrefetched bool
	// ReadyAt is non-zero if the line is present but still in flight;
	// the requester must wait until this cycle.
	ReadyAt uint64
}

// Lookup performs a demand (demand=true) or probe (demand=false) lookup
// at cycle now. Demand lookups update LRU, stats, and prefetch-useful
// accounting; probes leave stats and LRU untouched (expired in-flight
// entries are retired either way).
func (c *Cache) Lookup(addr uint64, now uint64, demand bool) LookupResult {
	lineNo := addr >> c.lineShift
	set := c.setFor(lineNo)
	// Victim selection is fused into the tag walk so a miss costs one
	// pass over the set instead of two: track the first invalid way and
	// the LRU valid way as we search. The choice is identical to a
	// separate victimWay scan (first invalid, else lowest lastUse with
	// lowest index breaking ties).
	invalid, lru := -1, -1
	var minUse uint64
	for i := range set {
		m := set[i].meta
		if m&lineValid == 0 {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if set[i].tag == lineNo {
			var res LookupResult
			res.Hit = true
			if demand {
				c.stamp++
				c.stats.Accesses++
				c.stats.Hits++
				if m&linePrefetched != 0 {
					res.WasPrefetched = true
					c.stats.PrefetchUseful++
				}
				// Refresh LRU; a demand touch clears the prefetched bit.
				set[i].meta = c.stamp<<lineUseShift | lineValid | (m & lineDirty)
			}
			if len(c.inflight) != 0 {
				if j := c.findInflight(lineNo << c.lineShift); j >= 0 {
					if ready := c.inflight[j].ready; ready > now {
						res.ReadyAt = ready
						if demand && res.WasPrefetched {
							c.stats.PrefetchLate++
						}
					} else {
						c.removeInflightAt(j)
					}
				}
			}
			c.memoLine, c.memoStamp, c.memoWay, c.memoHit = lineNo, c.stamp, int32(i), true
			return res
		}
		if use := m >> lineUseShift; lru < 0 || use < minUse {
			lru, minUse = i, use
		}
	}
	if demand {
		c.stats.Accesses++
		c.stats.Misses++
	}
	victim := invalid
	if victim < 0 {
		victim = lru
	}
	c.memoLine, c.memoStamp, c.memoWay, c.memoHit = lineNo, c.stamp, int32(victim), false
	return LookupResult{}
}

// Contains reports whether addr's line is present (no side effects).
func (c *Cache) Contains(addr uint64) bool {
	lineNo := addr >> c.lineShift
	set := c.setFor(lineNo)
	for i := range set {
		if set[i].meta&lineValid != 0 && set[i].tag == lineNo {
			return true
		}
	}
	return false
}

// Fill installs addr's line, evicting the LRU way if needed, and records
// it as in flight until readyAt. prefetched marks the line for
// usefulness accounting; dirty marks it modified (e.g. a store fill or a
// writeback from above). A valid way memo from a preceding Lookup of the
// same line resolves the target way directly; otherwise present-check
// and victim selection share one walk of the set.
func (c *Cache) Fill(addr uint64, readyAt uint64, prefetched, dirty bool) Victim {
	lineNo := addr >> c.lineShift
	set := c.setFor(lineNo)
	c.stamp++
	if c.memoStamp == c.stamp-1 && c.memoLine == lineNo && c.memoWay >= 0 {
		if c.memoHit {
			// Already present (e.g. racing prefetch and demand): refresh.
			m := set[c.memoWay].meta
			nm := c.stamp<<lineUseShift | (m & (lineValid | lineDirty | linePrefetched))
			if dirty {
				nm |= lineDirty
			}
			set[c.memoWay].meta = nm
			return Victim{}
		}
		return c.fillAt(set, int(c.memoWay), lineNo, readyAt, prefetched, dirty)
	}

	firstInvalid, lru := -1, -1
	var minUse uint64
	for i := range set {
		m := set[i].meta
		if m&lineValid == 0 {
			if firstInvalid < 0 {
				firstInvalid = i
			}
			continue
		}
		if set[i].tag == lineNo {
			// Already present: refresh.
			nm := c.stamp<<lineUseShift | (m & (lineValid | lineDirty | linePrefetched))
			if dirty {
				nm |= lineDirty
			}
			set[i].meta = nm
			return Victim{}
		}
		if use := m >> lineUseShift; lru < 0 || use < minUse {
			lru, minUse = i, use
		}
	}
	victimIdx := firstInvalid
	if victimIdx < 0 {
		victimIdx = lru
	}
	return c.fillAt(set, victimIdx, lineNo, readyAt, prefetched, dirty)
}

// fillAt installs lineNo at victimIdx (accounting any eviction) and
// tracks the fill in flight. The caller has already bumped the stamp
// and established that lineNo is absent from the set.
func (c *Cache) fillAt(set []line, victimIdx int, lineNo, readyAt uint64, prefetched, dirty bool) Victim {
	var v Victim
	old := &set[victimIdx]
	if om := old.meta; om&lineValid != 0 {
		v = Victim{Addr: old.tag << c.lineShift, Dirty: om&lineDirty != 0, Valid: true, Prefetched: om&linePrefetched != 0}
		c.stats.Evictions++
		if om&lineDirty != 0 {
			c.stats.Writebacks++
		}
		if om&linePrefetched != 0 {
			c.stats.PrefetchUnused++
		}
		c.dropInflight(v.Addr)
	}
	nm := c.stamp<<lineUseShift | lineValid
	if dirty {
		nm |= lineDirty
	}
	if prefetched {
		nm |= linePrefetched
	}
	*old = line{tag: lineNo, meta: nm}
	if prefetched {
		c.stats.PrefetchFills++
	}
	if readyAt > 0 {
		c.pruneInflight(readyAt)
		c.inflight = append(c.inflight, mshr{addr: lineNo << c.lineShift, ready: readyAt})
	}
	return v
}

// MarkDirty sets the dirty bit on addr's line if present (store hit).
// A valid hit memo from a preceding Lookup resolves the way directly.
func (c *Cache) MarkDirty(addr uint64) {
	lineNo := addr >> c.lineShift
	set := c.setFor(lineNo)
	if c.memoFor(lineNo) {
		if c.memoHit {
			set[c.memoWay].meta |= lineDirty
		}
		return
	}
	for i := range set {
		if set[i].meta&lineValid != 0 && set[i].tag == lineNo {
			set[i].meta |= lineDirty
			return
		}
	}
}

// findInflight returns the tracker index of line address la, or -1.
func (c *Cache) findInflight(la uint64) int {
	for i := range c.inflight {
		if c.inflight[i].addr == la {
			return i
		}
	}
	return -1
}

// removeInflightAt drops entry i (order is not maintained).
func (c *Cache) removeInflightAt(i int) {
	last := len(c.inflight) - 1
	c.inflight[i] = c.inflight[last]
	c.inflight = c.inflight[:last]
}

// dropInflight removes la's entry if tracked.
func (c *Cache) dropInflight(la uint64) {
	if len(c.inflight) == 0 {
		return
	}
	if i := c.findInflight(la); i >= 0 {
		c.removeInflightAt(i)
	}
}

// InflightCount returns the number of tracked outstanding fills (after
// pruning entries that have completed by now).
func (c *Cache) InflightCount(now uint64) int {
	c.pruneInflight(now)
	return len(c.inflight)
}

// MSHRFull reports whether a new distinct miss can be tracked at cycle
// now.
func (c *Cache) MSHRFull(now uint64) bool {
	return c.InflightCount(now) >= c.cfg.MSHRs
}

// pruneInflight drops inflight entries that completed at or before now,
// but only once the tracker is at capacity — matching the lazy pruning
// the timing model was validated with.
func (c *Cache) pruneInflight(now uint64) {
	if len(c.inflight) < c.cfg.MSHRs {
		return
	}
	for i := 0; i < len(c.inflight); {
		if c.inflight[i].ready <= now {
			c.removeInflightAt(i)
		} else {
			i++
		}
	}
}

// Invalidate drops addr's line if present, returning whether it was
// dirty (caller may need to write it back). Invalidation advances the
// LRU stamp so a stale way memo cannot resolve against the changed set.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasValid bool) {
	lineNo := addr >> c.lineShift
	set := c.setFor(lineNo)
	for i := range set {
		if set[i].meta&lineValid != 0 && set[i].tag == lineNo {
			c.stamp++
			wasDirty = set[i].meta&lineDirty != 0
			set[i] = line{}
			c.dropInflight(lineNo << c.lineShift)
			return wasDirty, true
		}
	}
	return false, false
}

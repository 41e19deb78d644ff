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
//
// # Layout
//
// A way is one word, lineNo<<3 | prefetched | dirty | valid, where
// lineNo is the address shifted right by log2(LineBytes); LineBytes ≥ 8
// keeps lineNo below 2⁶¹, so the shift loses nothing. A zero word is an
// invalid way. Recency lives outside the ways, in one rank word per
// set, and a set is ways+1 contiguous words: the rank word, then the
// ways. The rank word holds 4 bits per way (way i in bits 4i..4i+3),
// the way's recency rank with 0 the most recently used; the live ranks
// are always a permutation of 0..ways-1 and the nibbles of ways that do
// not exist are parked at 15, which is why Ways ≤ 16. Nothing
// invalidates a way once filled, so the valid ways of a set are always
// a prefix of it and a walk stops at the first invalid one.
//
// A touch moves the way to the front: it gets rank 0 and every way
// ranked below its old rank moves down one. The victim is the first
// invalid way, else the way ranked ways-1. That is exactly least
// recently used by timestamp, the model this replaced (refCache in the
// tests): every timestamp write (demand hit, fill, refill of a present
// line) is a touch, and timestamps are unique, so the rank order of
// the ways touched so far is their timestamp order; a set with no
// invalid way has had every way filled, hence touched, so the way
// ranked last is the one with the oldest timestamp.
package cache

import (
	"fmt"
	"math/bits"

	"micromama/internal/offheap"
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
	if c.Ways <= 0 || c.Ways > maxWays {
		return fmt.Errorf("cache %s: Ways must be 1..%d (one 4-bit recency rank per way in a set's rank word), got %d", c.Name, maxWays, c.Ways)
	}
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: LineBytes must be a positive power of two, got %d", c.Name, c.LineBytes)
	}
	if c.LineBytes < minLineBytes {
		return fmt.Errorf("cache %s: LineBytes must be at least %d (a way word keeps its 3 state bits below the line number), got %d", c.Name, minLineBytes, c.LineBytes)
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

// The way word and the rank word (see the package doc).
const (
	lineValid      = 1 << 0
	lineDirty      = 1 << 1
	linePrefetched = 1 << 2
	lineFlagBits   = 3
	lineState      = lineDirty | linePrefetched // the bits a tag match ignores

	maxWays      = 16
	minLineBytes = 1 << lineFlagBits

	nibbleOnes = 0x1111111111111111 // 1 in every nibble
	lowNibbles = 0x0F0F0F0F0F0F0F0F // the even nibbles, one per byte lane
	byteOnes   = 0x0101010101010101
	byteTops   = 0x8080808080808080
)

// identityRanks is the rank word of a set no way of which has been
// touched: way i ranked i, the nibbles past the last way parked at 15.
func identityRanks(ways int) uint64 {
	r := ^uint64(0)
	for i := 0; i < ways; i++ {
		r = r&^(15<<(4*i)) | uint64(i)<<(4*i)
	}
	return r
}

// touch moves way to the front of the rank word: the way gets rank 0
// and every nibble below its old rank r gains one. A parked nibble (15)
// is never below r, so it stays put. The nibbles are compared in two
// halves, even and odd, each spread one per byte lane, so that a lane
// computes (x | 0x80) - r without borrowing from its neighbour; the
// lane's top bit is then clear exactly when x < r.
func touch(ranks uint64, way int) uint64 {
	sh := uint(way) * 4
	r := ranks >> sh & 15
	if r == 0 {
		return ranks
	}
	rs := r * byteOnes
	even, odd := ranks&lowNibbles, ranks>>4&lowNibbles
	even += (^((even | byteTops) - rs) & byteTops) >> 7
	odd += (^((odd | byteTops) - rs) & byteTops) >> 7
	return (even | odd<<4) &^ (15 << sh)
}

// lastWay returns the way ranked last. last holds ways-1 in every
// nibble, so XOR leaves exactly one zero nibble among the live ones
// (parked nibbles are 15, and ways-1 = 15 only when there are none);
// the borrow of x-1 marks the lowest zero nibble exactly.
func lastWay(ranks, last uint64) int {
	x := ranks ^ last
	return bits.TrailingZeros64((x-nibbleOnes)&^x&(nibbleOnes<<3)) >> 2
}

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
	words     []uint64 // sets*(ways+1), row-major by set: rank word, then ways
	setMask   uint64
	ways      int // copy of cfg.Ways, hot in setFor
	lineShift uint
	lastRank  uint64 // ways-1 in every nibble, lastWay's key
	stamp     uint64 // advances with every Fill and demand hit; dates the way memo
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

	block *offheap.Block // backs words; holding it keeps the array mapped
}

// takeWords returns the set array of a sets×ways cache and the
// offheap block behind it: every way invalid and every rank word the
// identity permutation. The block is zeroed even when recycled, which
// clears the ways; the rank words need this loop, since a cleared rank
// word is no permutation. The arrays are a simulation's largest
// allocation (0.98 MB for one core, 1.42 MB for four), outweighed only
// by Pythia's Q-vaults on three cores or more (1.8 MB for four), and
// short sweep cells build hundreds of systems a second, so they come
// from offheap's recycled blocks (ARCHITECTURE.md, "Array recycling
// outside the heap").
func takeWords(sets, ways int) (*offheap.Block, []uint64) {
	b, a := offheap.Take[uint64](sets * (ways + 1))
	ranks := identityRanks(ways)
	for i := 0; i < len(a); i += ways + 1 {
		a[i] = ranks
	}
	return b, a
}

// Release returns the cache's set array for reuse by a later New of
// the same array size. The cache must not be used afterwards except
// for Stats and Config: any lookup or fill panics on the nil array
// instead of corrupting whichever cache took the array over. Releasing
// twice is harmless. A cache that is never released gives its array
// back once the collector finds the cache unreachable.
func (c *Cache) Release() {
	if c.block == nil {
		return
	}
	c.block.Release()
	c.block, c.words = nil, nil
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
	block, words := takeWords(cfg.Sets, cfg.Ways)
	return &Cache{
		cfg:       cfg,
		words:     words,
		setMask:   uint64(cfg.Sets - 1),
		ways:      cfg.Ways,
		lineShift: shift,
		lastRank:  uint64(cfg.Ways-1) * nibbleOnes,
		memoWay:   -1,
		// One slot of slack: a fill whose completion precedes every
		// tracked entry is still recorded at capacity (see pruneInflight),
		// so occupancy can transiently exceed MSHRs.
		inflight: make([]mshr, 0, cfg.MSHRs+1),
		block:    block,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// setFor returns the rank word and the ways of lineNo's set. lineNo is
// addr >> lineShift; it doubles as the tag, so callers compute the
// shift once.
func (c *Cache) setFor(lineNo uint64) (ranks *uint64, ways []uint64) {
	base := int(lineNo&c.setMask) * (c.ways + 1)
	return &c.words[base], c.words[base+1 : base+1+c.ways]
}

// tagKey is lineNo's way word with valid set and neither state bit: a
// way holds lineNo iff its word with lineState masked off equals it.
func tagKey(lineNo uint64) uint64 { return lineNo<<lineFlagBits | lineValid }

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
	ranks, set := c.setFor(lineNo)
	key := tagKey(lineNo)
	// The walk also resolves the victim a miss would fill: the first
	// invalid way ends it, and a full set asks the rank word.
	victim := -1
	for i, w := range set {
		if w&lineValid == 0 {
			victim = i
			break
		}
		if w&^lineState != key {
			continue
		}
		var res LookupResult
		res.Hit = true
		if demand {
			c.stamp++
			c.stats.Accesses++
			c.stats.Hits++
			if w&linePrefetched != 0 {
				// A demand touch clears the prefetched bit.
				res.WasPrefetched = true
				c.stats.PrefetchUseful++
				set[i] = w &^ linePrefetched
			}
			*ranks = touch(*ranks, i)
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
	if demand {
		c.stats.Accesses++
		c.stats.Misses++
	}
	if victim < 0 {
		victim = lastWay(*ranks, c.lastRank)
	}
	c.memoLine, c.memoStamp, c.memoWay, c.memoHit = lineNo, c.stamp, int32(victim), false
	return LookupResult{}
}

// Contains reports whether addr's line is present (no side effects).
func (c *Cache) Contains(addr uint64) bool {
	lineNo := addr >> c.lineShift
	_, set := c.setFor(lineNo)
	key := tagKey(lineNo)
	for _, w := range set {
		if w&lineValid == 0 {
			return false
		}
		if w&^lineState == key {
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
	ranks, set := c.setFor(lineNo)
	c.stamp++
	var d uint64
	if dirty {
		d = lineDirty
	}
	if c.memoStamp == c.stamp-1 && c.memoLine == lineNo && c.memoWay >= 0 {
		way := int(c.memoWay)
		if c.memoHit {
			// Already present (e.g. racing prefetch and demand): refresh.
			set[way] |= d
			*ranks = touch(*ranks, way)
			return Victim{}
		}
		return c.fillAt(ranks, set, way, lineNo, readyAt, prefetched, dirty)
	}

	key := tagKey(lineNo)
	victim := -1
	for i, w := range set {
		if w&lineValid == 0 {
			victim = i
			break
		}
		if w&^lineState == key {
			// Already present: refresh.
			set[i] = w | d
			*ranks = touch(*ranks, i)
			return Victim{}
		}
	}
	if victim < 0 {
		victim = lastWay(*ranks, c.lastRank)
	}
	return c.fillAt(ranks, set, victim, lineNo, readyAt, prefetched, dirty)
}

// fillAt installs lineNo at way (accounting any eviction), moves it to
// the front, and tracks the fill in flight. The caller has already
// bumped the stamp and established that lineNo is absent from the set.
func (c *Cache) fillAt(ranks *uint64, set []uint64, way int, lineNo, readyAt uint64, prefetched, dirty bool) Victim {
	var v Victim
	if old := set[way]; old&lineValid != 0 {
		v = Victim{Addr: old >> lineFlagBits << c.lineShift, Dirty: old&lineDirty != 0, Valid: true, Prefetched: old&linePrefetched != 0}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
		if v.Prefetched {
			c.stats.PrefetchUnused++
		}
		c.dropInflight(v.Addr)
	}
	w := tagKey(lineNo)
	if dirty {
		w |= lineDirty
	}
	if prefetched {
		w |= linePrefetched
		c.stats.PrefetchFills++
	}
	set[way] = w
	*ranks = touch(*ranks, way)
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
	_, set := c.setFor(lineNo)
	if c.memoFor(lineNo) {
		if c.memoHit {
			set[c.memoWay] |= lineDirty
		}
		return
	}
	key := tagKey(lineNo)
	for i, w := range set {
		if w&lineValid == 0 {
			return
		}
		if w&^lineState == key {
			set[i] = w | lineDirty
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

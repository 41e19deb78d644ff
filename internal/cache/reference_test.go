package cache

// refCache is the pre-optimization cache model, kept as the reference
// for the differential tests in diff_test.go: LRU by timestamp in a
// flat line array walked once per operation, and the in-flight (MSHR)
// tracker as a map from line address to completion cycle. It is
// deliberately simple and obviously-correct; the optimized Cache must
// be observationally identical to it.

type refLine struct {
	tag        uint64
	lastUse    uint64
	valid      bool
	dirty      bool
	prefetched bool
}

type refCache struct {
	cfg       Config
	lines     []refLine
	setMask   uint64
	lineShift uint
	stamp     uint64
	stats     Stats
	inflight  map[uint64]uint64
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	return &refCache{
		cfg:       cfg,
		lines:     make([]refLine, cfg.Sets*cfg.Ways),
		setMask:   uint64(cfg.Sets - 1),
		lineShift: shift,
		inflight:  make(map[uint64]uint64, cfg.MSHRs*2),
	}
}

func (c *refCache) Stats() Stats { return c.stats }

func (c *refCache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

func (c *refCache) set(addr uint64) []refLine {
	idx := (addr >> c.lineShift) & c.setMask
	base := int(idx) * c.cfg.Ways
	return c.lines[base : base+c.cfg.Ways]
}

func (c *refCache) Lookup(addr uint64, now uint64, demand bool) LookupResult {
	la := c.LineAddr(addr)
	tag := la >> c.lineShift
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			var res LookupResult
			res.Hit = true
			if demand {
				c.stamp++
				set[i].lastUse = c.stamp
				c.stats.Accesses++
				c.stats.Hits++
				if set[i].prefetched {
					set[i].prefetched = false
					res.WasPrefetched = true
					c.stats.PrefetchUseful++
				}
			}
			if ready, ok := c.inflight[la]; ok {
				if ready > now {
					res.ReadyAt = ready
					if demand && res.WasPrefetched {
						c.stats.PrefetchLate++
					}
				} else {
					delete(c.inflight, la)
				}
			}
			return res
		}
	}
	if demand {
		c.stats.Accesses++
		c.stats.Misses++
	}
	return LookupResult{}
}

func (c *refCache) Contains(addr uint64) bool {
	la := c.LineAddr(addr)
	tag := la >> c.lineShift
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr uint64, readyAt uint64, prefetched, dirty bool) Victim {
	la := c.LineAddr(addr)
	tag := la >> c.lineShift
	set := c.set(addr)
	c.stamp++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.stamp
			if dirty {
				set[i].dirty = true
			}
			return Victim{}
		}
	}

	victimIdx := -1
	for i := range set {
		if !set[i].valid {
			victimIdx = i
			break
		}
	}
	var v Victim
	if victimIdx < 0 {
		victimIdx = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victimIdx].lastUse {
				victimIdx = i
			}
		}
		old := set[victimIdx]
		v = Victim{Addr: old.tag << c.lineShift, Dirty: old.dirty, Valid: true, Prefetched: old.prefetched}
		c.stats.Evictions++
		if old.dirty {
			c.stats.Writebacks++
		}
		if old.prefetched {
			c.stats.PrefetchUnused++
		}
		delete(c.inflight, v.Addr)
	}
	set[victimIdx] = refLine{tag: tag, lastUse: c.stamp, valid: true, dirty: dirty, prefetched: prefetched}
	if prefetched {
		c.stats.PrefetchFills++
	}
	if readyAt > 0 {
		c.pruneInflight(readyAt)
		c.inflight[la] = readyAt
	}
	return v
}

func (c *refCache) MarkDirty(addr uint64) {
	la := c.LineAddr(addr)
	tag := la >> c.lineShift
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			return
		}
	}
}

func (c *refCache) inflightCount(now uint64) int {
	c.pruneInflight(now)
	return len(c.inflight)
}

func (c *refCache) mshrFull(now uint64) bool {
	return c.inflightCount(now) >= c.cfg.MSHRs
}

func (c *refCache) pruneInflight(now uint64) {
	if len(c.inflight) < c.cfg.MSHRs {
		return
	}
	for a, ready := range c.inflight {
		if ready <= now {
			delete(c.inflight, a)
		}
	}
}

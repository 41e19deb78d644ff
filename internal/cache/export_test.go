package cache

// MSHR occupancy as the tests read it: tracked outstanding fills after
// pruning those completed by now (pruning is lazy, see pruneInflight).

func (c *Cache) inflightCount(now uint64) int {
	c.pruneInflight(now)
	return len(c.inflight)
}

func (c *Cache) mshrFull(now uint64) bool { return c.inflightCount(now) >= c.cfg.MSHRs }

package cache

import "testing"

// Hot-path microbenchmarks. The per-instruction simulator loop performs
// a demand lookup per access plus a fill per miss, so these gate both
// ns/op and — after the allocation-free rewrite — allocs/op == 0.

func benchCfg() Config {
	return Config{Name: "bench", Sets: 64, Ways: 12, LineBytes: 64, HitLatency: 5, MSHRs: 8}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(benchCfg())
	const lines = 32
	for i := 0; i < lines; i++ {
		c.Fill(uint64(i)*64, 0, false, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i%lines)*64, uint64(i), true)
	}
}

func BenchmarkLookupHitInflight(b *testing.B) {
	// Hits on lines whose fills never complete: exercises the MSHR
	// tracker scan on every lookup.
	c := New(benchCfg())
	const lines = 8
	for i := 0; i < lines; i++ {
		c.Fill(uint64(i)*64, 1<<62, false, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i%lines)*64, uint64(i), true)
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	c := New(benchCfg())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 1<<20 distinct lines: far beyond capacity, always missing.
		c.Lookup(uint64(i%(1<<20))*64, uint64(i), true)
	}
}

func BenchmarkFillEvict(b *testing.B) {
	// Steady-state fills into a full cache, each tracked in flight
	// until shortly after issue: lookup-miss + fill + eviction +
	// MSHR insert/prune per iteration — the full miss-path cost.
	c := New(benchCfg())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		addr := uint64(i%(1<<20)) * 64
		c.Lookup(addr, now, true)
		c.Fill(addr, now+200, false, false)
	}
}

// BenchmarkLLCWorkingSet is the set walk out of the host's caches: the
// Table 3 LLC geometry (8192 sets × 12 ways, an 832 KB array) under
// demand lookups to a pseudo-random working set of twice its capacity,
// filling on every miss (untracked, so the MSHR scan stays out of it).
func BenchmarkLLCWorkingSet(b *testing.B) {
	cfg := Config{Name: "LLC", Sets: 8192, Ways: 12, LineBytes: 64, HitLatency: 40, MSHRs: 64}
	c := New(cfg)
	lines := uint64(2 * cfg.Sets * cfg.Ways)
	x := uint64(1)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 32) % lines * cfg.LineBytes
	}
	for i := uint64(0); i < lines; i++ {
		if a := next(); !c.Lookup(a, 0, true).Hit {
			c.Fill(a, 0, false, false)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := next(); !c.Lookup(a, uint64(i), true).Hit {
			c.Fill(a, 0, false, false)
		}
	}
}

func BenchmarkMarkDirty(b *testing.B) {
	c := New(benchCfg())
	const lines = 32
	for i := 0; i < lines; i++ {
		c.Fill(uint64(i)*64, 0, false, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MarkDirty(uint64(i%lines) * 64)
	}
}

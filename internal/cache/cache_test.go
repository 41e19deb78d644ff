package cache

import (
	"testing"
	"testing/quick"

	"micromama/internal/xrand"
)

func testCfg(sets, ways int) Config {
	return Config{Name: "test", Sets: sets, Ways: ways, LineBytes: 64, HitLatency: 4, MSHRs: 8}
}

func TestConfigValidate(t *testing.T) {
	good := testCfg(16, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "sets0", Sets: 0, Ways: 1, LineBytes: 64, MSHRs: 1},
		{Name: "setsNP2", Sets: 3, Ways: 1, LineBytes: 64, MSHRs: 1},
		{Name: "ways0", Sets: 2, Ways: 0, LineBytes: 64, MSHRs: 1},
		{Name: "line0", Sets: 2, Ways: 1, LineBytes: 0, MSHRs: 1},
		{Name: "lineNP2", Sets: 2, Ways: 1, LineBytes: 48, MSHRs: 1},
		{Name: "mshr0", Sets: 2, Ways: 1, LineBytes: 64, MSHRs: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q validated but should not", c.Name)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	c := Config{Sets: 1024, Ways: 16, LineBytes: 64}
	if got := c.SizeBytes(); got != 1<<20 {
		t.Errorf("SizeBytes = %d, want 1 MiB", got)
	}
}

func TestHitAfterFill(t *testing.T) {
	c := New(testCfg(16, 2))
	addr := uint64(0x1000)
	if r := c.Lookup(addr, 0, true); r.Hit {
		t.Fatal("hit in empty cache")
	}
	c.Fill(addr, 0, false, false)
	if r := c.Lookup(addr, 10, true); !r.Hit {
		t.Fatal("miss after fill")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLineGranularity(t *testing.T) {
	c := New(testCfg(16, 2))
	c.Fill(0x1000, 0, false, false)
	if r := c.Lookup(0x103F, 0, true); !r.Hit {
		t.Error("same-line offset missed")
	}
	if r := c.Lookup(0x1040, 0, true); r.Hit {
		t.Error("next line hit unexpectedly")
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways: fill A, B, touch A, fill C -> B evicted.
	cfg := testCfg(1, 2)
	c := New(cfg)
	a, b, d := uint64(0x0), uint64(0x40), uint64(0x80)
	c.Fill(a, 0, false, false)
	c.Fill(b, 0, false, false)
	c.Lookup(a, 5, true) // promote A
	v := c.Fill(d, 0, false, false)
	if !v.Valid || v.Addr != b {
		t.Fatalf("evicted %+v, want line B (%#x)", v, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("post-eviction contents wrong")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := New(testCfg(1, 1))
	c.Fill(0x0, 0, false, true) // dirty fill
	v := c.Fill(0x40, 0, false, false)
	if !v.Valid || !v.Dirty {
		t.Errorf("victim = %+v, want dirty", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestMarkDirty(t *testing.T) {
	c := New(testCfg(1, 1))
	c.Fill(0x0, 0, false, false)
	c.MarkDirty(0x8) // same line
	v := c.Fill(0x40, 0, false, false)
	if !v.Dirty {
		t.Error("MarkDirty did not stick")
	}
}

func TestPrefetchUsefulAccounting(t *testing.T) {
	c := New(testCfg(16, 2))
	c.Fill(0x1000, 0, true, false)
	r := c.Lookup(0x1000, 10, true)
	if !r.Hit || !r.WasPrefetched {
		t.Fatalf("lookup = %+v, want prefetched hit", r)
	}
	st := c.Stats()
	if st.PrefetchFills != 1 || st.PrefetchUseful != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Second demand touch is no longer "prefetched".
	if r := c.Lookup(0x1000, 20, true); r.WasPrefetched {
		t.Error("prefetch bit not cleared after first demand hit")
	}
}

func TestPrefetchUnusedOnEviction(t *testing.T) {
	c := New(testCfg(1, 1))
	c.Fill(0x0, 0, true, false)
	v := c.Fill(0x40, 0, false, false)
	if !v.Prefetched {
		t.Error("victim should report unused prefetch")
	}
	if c.Stats().PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d, want 1", c.Stats().PrefetchUnused)
	}
}

func TestInflightLateness(t *testing.T) {
	c := New(testCfg(16, 2))
	c.Fill(0x1000, 100, true, false) // fill lands at cycle 100
	r := c.Lookup(0x1000, 50, true)  // demand arrives early
	if !r.Hit || r.ReadyAt != 100 {
		t.Fatalf("lookup = %+v, want hit with ReadyAt 100", r)
	}
	if c.Stats().PrefetchLate != 1 {
		t.Errorf("PrefetchLate = %d, want 1", c.Stats().PrefetchLate)
	}
	// After the fill completes, no more wait.
	c.Fill(0x2000, 120, false, false)
	if r := c.Lookup(0x2000, 200, true); r.ReadyAt != 0 {
		t.Errorf("completed fill still reports ReadyAt %d", r.ReadyAt)
	}
}

func TestProbeLookupIsSideEffectFree(t *testing.T) {
	c := New(testCfg(16, 2))
	c.Fill(0x1000, 0, true, false)
	before := c.Stats()
	r := c.Lookup(0x1000, 10, false)
	if !r.Hit {
		t.Error("probe missed")
	}
	if c.Stats() != before {
		t.Error("probe lookup mutated stats")
	}
	// The prefetch bit must survive probes.
	if r := c.Lookup(0x1000, 10, true); !r.WasPrefetched {
		t.Error("probe consumed the prefetch bit")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(testCfg(16, 2))
	c.Fill(0x1000, 0, false, true)
	dirty, valid := c.Invalidate(0x1000)
	if !dirty || !valid {
		t.Errorf("Invalidate = (%v, %v), want dirty valid", dirty, valid)
	}
	if c.Contains(0x1000) {
		t.Error("line present after Invalidate")
	}
	if _, valid := c.Invalidate(0x9999000); valid {
		t.Error("Invalidate of absent line reported valid")
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := New(testCfg(1, 2))
	c.Fill(0x0, 0, false, false)
	c.Fill(0x40, 0, false, false)
	// Re-fill A (e.g. racing prefetch): must not evict anything and must
	// promote A so B is the LRU victim.
	if v := c.Fill(0x0, 0, false, true); v.Valid {
		t.Errorf("refill evicted %+v", v)
	}
	v := c.Fill(0x80, 0, false, false)
	if v.Addr != 0x40 {
		t.Errorf("evicted %#x, want 0x40", v.Addr)
	}
}

func TestStatsDelta(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 6, Misses: 4}
	b := Stats{Accesses: 25, Hits: 15, Misses: 10}
	d := b.Delta(a)
	if d.Accesses != 15 || d.Hits != 9 || d.Misses != 6 {
		t.Errorf("Delta = %+v", d)
	}
}

// Property: against a reference model, Contains agrees and the number of
// resident lines never exceeds capacity.
func TestQuickAgainstReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := testCfg(4, 2)
		c := New(cfg)
		r := xrand.New(seed)
		resident := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			addr := uint64(r.Intn(32)) * 64 // 32 distinct lines over 4 sets
			switch r.Intn(3) {
			case 0:
				v := c.Fill(addr, 0, r.Intn(2) == 0, r.Intn(2) == 0)
				resident[addr] = true
				if v.Valid {
					delete(resident, v.Addr)
				}
			case 1:
				got := c.Lookup(addr, uint64(i), true).Hit
				if got != resident[addr] {
					return false
				}
			default:
				c.Invalidate(addr)
				delete(resident, addr)
			}
			if len(resident) > cfg.Sets*cfg.Ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == demand accesses.
func TestQuickStatsConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		c := New(testCfg(8, 2))
		r := xrand.New(seed)
		for i := 0; i < 300; i++ {
			addr := uint64(r.Intn(64)) * 64
			if r.Intn(2) == 0 {
				c.Lookup(addr, uint64(i), true)
			} else {
				c.Fill(addr, 0, false, false)
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A released line array comes back to the next cache of the same
// geometry, cleared; the cache that gave it up panics when used instead
// of writing into its successor; stats outlive the release.
func TestReleaseRecyclesLineArray(t *testing.T) {
	cfg := testCfg(32, 3) // a geometry no other test in the package uses
	reused := false
	for round := 0; round < 100 && !reused; round++ {
		old := New(cfg)
		for a := uint64(0); a < 32*3*64; a += 64 {
			old.Lookup(a, 0, true)
			old.Fill(a, 0, false, true)
		}
		array := &old.lines[0]
		old.Release()
		old.Release() // harmless
		if st := old.Stats(); st.Misses != 32*3 {
			t.Fatalf("stats after Release: %+v, want %d misses", st, 32*3)
		}

		next := New(cfg)
		reused = &next.lines[0] == array
		for i, l := range next.lines {
			if l != (line{}) {
				t.Fatalf("round %d: line %d of a new cache is %+v, want zero (reused=%v)", round, i, l, reused)
			}
		}
		if reused {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Lookup on a released cache did not panic")
					}
				}()
				old.Lookup(0, 0, true)
			}()
		}
		// next is dropped, not released: the pool holds at most one array.
	}
	// sync.Pool may drop an array (it does so at random under -race, and
	// at a collection), but not a hundred times running.
	if !reused {
		t.Error("no line array was reused in 100 New/Release rounds")
	}
}

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
		{Name: "ways17", Sets: 2, Ways: 17, LineBytes: 64, MSHRs: 1},
		{Name: "line0", Sets: 2, Ways: 1, LineBytes: 0, MSHRs: 1},
		{Name: "lineNP2", Sets: 2, Ways: 1, LineBytes: 48, MSHRs: 1},
		{Name: "line4", Sets: 2, Ways: 1, LineBytes: 4, MSHRs: 1},
		{Name: "mshr0", Sets: 2, Ways: 1, LineBytes: 64, MSHRs: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q validated but should not", c.Name)
		}
	}
	for _, c := range []Config{
		{Name: "ways16", Sets: 2, Ways: 16, LineBytes: 64, MSHRs: 1},
		{Name: "line8", Sets: 2, Ways: 1, LineBytes: 8, MSHRs: 1},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config %q: %v", c.Name, err)
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
				if c.Contains(addr) != resident[addr] {
					return false
				}
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

// The rank word against a recency list: after every touch, nibble i is
// way i's position in the list (parked nibbles stay 15), and lastWay
// names the list's tail.
func TestRankWordIsRecencyOrder(t *testing.T) {
	if got := identityRanks(3); got != 0xFFFFFFFFFFFFF210 {
		t.Errorf("identityRanks(3) = %#x", got)
	}
	if got := identityRanks(16); got != 0xFEDCBA9876543210 {
		t.Errorf("identityRanks(16) = %#x", got)
	}
	r := xrand.New(7)
	for ways := 1; ways <= maxWays; ways++ {
		ranks, last := identityRanks(ways), uint64(ways-1)*nibbleOnes
		order := make([]int, ways) // MRU first
		for i := range order {
			order[i] = i
		}
		for step := 0; step < 500; step++ {
			way := r.Intn(ways)
			ranks = touch(ranks, way)
			for i, w := range order {
				if w == way {
					copy(order[1:i+1], order[:i])
					order[0] = way
					break
				}
			}
			for i := 0; i < 16; i++ {
				want := uint64(15)
				if i < ways {
					for pos, w := range order {
						if w == i {
							want = uint64(pos)
						}
					}
				}
				if got := ranks >> (4 * i) & 15; got != want {
					t.Fatalf("%d ways, step %d (touched %d): way %d ranked %d, want %d (ranks %#x)", ways, step, way, i, got, want, ranks)
				}
			}
			if got := lastWay(ranks, last); got != order[ways-1] {
				t.Fatalf("%d ways, step %d: lastWay = %d, want %d (ranks %#x)", ways, step, got, order[ways-1], ranks)
			}
		}
	}
}

// A released array comes back to the next cache of the same array
// length indistinguishable from a new one — every way word zero, every
// rank word the identity permutation — whether or not that cache has
// the same way count; the cache that gave it up panics when used
// instead of writing into its successor; stats outlive the release.
func TestReleaseRecyclesLineArray(t *testing.T) {
	// Geometries no other test in the package uses, whose arrays have
	// one length (32×(3+1) = 16×(7+1) words).
	from := testCfg(32, 3)
	for _, to := range []Config{from, testCfg(16, 7)} {
		reused := false
		for round := 0; round < 100 && !reused; round++ {
			old := New(from)
			for a := uint64(0); a < 32*3*64; a += 64 {
				old.Lookup(a, 0, true)
				old.Fill(a, 0, false, true)
			}
			array := &old.words[0]
			old.Release()
			old.Release() // harmless
			if st := old.Stats(); st.Misses != 32*3 {
				t.Fatalf("stats after Release: %+v, want %d misses", st, 32*3)
			}

			next := New(to)
			reused = &next.words[0] == array
			identity := identityRanks(to.Ways)
			for i, w := range next.words {
				want := uint64(0)
				if i%(to.Ways+1) == 0 {
					want = identity
				}
				if w != want {
					t.Fatalf("%d×%d round %d: word %d of a new cache is %#x, want %#x (reused=%v)", to.Sets, to.Ways, round, i, w, want, reused)
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
			t.Errorf("no %d×%d array was reused by a %d×%d cache in 100 New/Release rounds", from.Sets, from.Ways, to.Sets, to.Ways)
		}
	}
}

package cache

import "testing"

// MSHR-tracker edge cases, pinned against the pre-optimization model so
// the allocation-free rewrite reproduces it exactly.

func mshrCfg(mshrs int) Config {
	return Config{Name: "mshr", Sets: 16, Ways: 2, LineBytes: 64, HitLatency: 4, MSHRs: mshrs}
}

func TestMSHRFullAtExactlyConfigured(t *testing.T) {
	const mshrs = 4
	c := New(mshrCfg(mshrs))
	// Track mshrs distinct lines, all landing in the future.
	for i := 0; i < mshrs; i++ {
		c.Fill(uint64(i)*64, 1000+uint64(i), false, false)
		wantFull := i == mshrs-1
		if got := c.mshrFull(0); got != wantFull {
			t.Fatalf("after %d fills: mshrFull = %v, want %v", i+1, got, wantFull)
		}
	}
	if got := c.inflightCount(0); got != mshrs {
		t.Fatalf("inflightCount = %d, want %d", got, mshrs)
	}
	// Once the earliest fill lands, the tracker frees a slot.
	if c.mshrFull(1000) {
		t.Error("mshrFull after the first fill completed")
	}
}

func TestMSHRInflightEntryEvictedByFill(t *testing.T) {
	// 1 set x 1 way: the second fill evicts the first line, and the
	// evicted line's inflight entry must be dropped with it.
	cfg := Config{Name: "tiny", Sets: 1, Ways: 1, LineBytes: 64, HitLatency: 4, MSHRs: 8}
	c := New(cfg)
	c.Fill(0x000, 500, false, false) // line A, in flight until 500
	if got := c.inflightCount(0); got != 1 {
		t.Fatalf("inflightCount = %d, want 1", got)
	}
	v := c.Fill(0x040, 600, false, false) // line B evicts A
	if !v.Valid || v.Addr != 0x000 {
		t.Fatalf("victim = %+v, want line A", v)
	}
	// Only B's entry remains; A's tracked fill went with the eviction.
	if got := c.inflightCount(0); got != 1 {
		t.Errorf("inflightCount = %d after eviction, want 1 (B only)", got)
	}
	if r := c.Lookup(0x040, 100, true); r.ReadyAt != 600 {
		t.Errorf("B ReadyAt = %d, want 600", r.ReadyAt)
	}
	// Refilling A tracks it afresh (no stale entry resurrected).
	c.Fill(0x000, 700, false, false)
	if r := c.Lookup(0x000, 100, true); r.ReadyAt != 700 {
		t.Errorf("refilled A ReadyAt = %d, want 700", r.ReadyAt)
	}
}

func TestMSHRLookupClearsCompletedEntry(t *testing.T) {
	c := New(mshrCfg(4))
	c.Fill(0x2000, 50, false, false)
	// Demand at cycle 50: the fill has landed, entry is retired.
	if r := c.Lookup(0x2000, 50, true); r.ReadyAt != 0 {
		t.Errorf("ReadyAt = %d at completion cycle, want 0", r.ReadyAt)
	}
	if got := c.inflightCount(0); got != 0 {
		t.Errorf("inflightCount = %d, want 0 after completed lookup", got)
	}
}

func TestMSHRZeroReadyFillNotTracked(t *testing.T) {
	c := New(mshrCfg(4))
	// readyAt == 0 means "instantly present" (e.g. a dirty writeback
	// merge) and must not occupy a tracker slot.
	c.Fill(0x3000, 0, false, false)
	if got := c.inflightCount(0); got != 0 {
		t.Errorf("inflightCount = %d, want 0", got)
	}
}

// TestMSHRTrackerOverflowBeyondConfigured pins the historical overflow
// semantics: a fill whose completion precedes every tracked entry is
// still recorded even when the tracker is at capacity (the prune at
// fill time frees nothing), so the count may transiently exceed MSHRs.
func TestMSHRTrackerOverflowBeyondConfigured(t *testing.T) {
	const mshrs = 2
	c := New(mshrCfg(mshrs))
	c.Fill(0x000, 1000, false, false)
	c.Fill(0x040, 1000, false, false)
	c.Fill(0x080, 900, false, false) // earlier than both tracked entries
	if got := c.inflightCount(0); got != 3 {
		t.Errorf("inflightCount = %d, want 3 (overflow preserved)", got)
	}
	// Pruning at a later cycle collapses it back under the cap.
	if got := c.inflightCount(950); got != 2 {
		t.Errorf("inflightCount(950) = %d, want 2", got)
	}
}

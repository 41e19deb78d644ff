package sim

import (
	"testing"
	"testing/quick"

	"micromama/internal/prefetch"
	"micromama/internal/trace"
	"micromama/internal/xrand"
)

// randomTrace builds a small random-but-valid trace.
func randomTrace(seed uint64, n int) trace.Reader {
	r := xrand.New(seed)
	ins := make([]trace.Instr, n)
	for i := range ins {
		switch r.Intn(4) {
		case 0:
			ins[i] = trace.Instr{PC: uint64(0x1000 + r.Intn(64)*4), Addr: uint64(r.Intn(1 << 22)), Kind: trace.Load}
		case 1:
			ins[i] = trace.Instr{PC: uint64(0x2000 + r.Intn(64)*4), Addr: uint64(r.Intn(1 << 22)), Kind: trace.Store}
		default:
			ins[i] = trace.Instr{PC: 0x3000, Kind: trace.Other}
		}
	}
	return trace.NewSlice("random", ins)
}

// Property: for any random trace and any fixed arm, the simulator
// respects basic physical invariants.
func TestQuickSimInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		arm := int(seed % uint64(prefetch.NumArms))
		ctrl := NewFixedController("fixed", func(int) prefetch.Prefetcher {
			e := prefetch.NewEnsemble()
			e.SetArm(arm)
			return e
		})
		cfg := DefaultConfig(1)
		sys, err := New(cfg, []trace.Reader{randomTrace(seed, 4000)}, ctrl)
		if err != nil {
			return false
		}
		res := sys.Run(4000, 4_000_000)
		c := res.Cores[0]
		// IPC cannot exceed the commit width.
		if c.IPC > float64(cfg.CommitWidth)+1e-9 {
			return false
		}
		// Demand accounting is consistent at each level.
		if c.L1D.Hits+c.L1D.Misses != c.L1D.Accesses {
			return false
		}
		if c.L2.Hits+c.L2.Misses != c.L2.Accesses {
			return false
		}
		// L2 demand accesses cannot exceed L1 misses (I-fetch adds its
		// own, so >= relation is on the sum).
		if c.L2.Accesses < c.L1D.Misses {
			return false
		}
		// Useful prefetches cannot exceed prefetch fills.
		if c.L2.PrefetchUseful > c.L2.PrefetchFills {
			return false
		}
		// DRAM traffic is bounded by bus accounting.
		d := res.DRAM
		if d.BusBusyCycles != (d.Reads+d.Writes)*cfg.DRAM.BurstCycles() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: running the same trace with more DRAM bandwidth can only
// help (or leave unchanged) a memory-bound workload's cycle count.
func TestQuickMoreBandwidthNotSlower(t *testing.T) {
	f := func(seed uint64) bool {
		run := func(channels int) uint64 {
			cfg := DefaultConfig(1)
			cfg.DRAM.Channels = channels
			sys, err := New(cfg, []trace.Reader{randomTrace(seed, 3000)}, nil)
			if err != nil {
				return 0
			}
			res := sys.Run(3000, 3_000_000)
			return res.Cores[0].Cycles
		}
		one, two := run(1), run(2)
		// Allow a tiny tolerance: bank-mapping differences can shuffle
		// row hits slightly.
		return float64(two) <= float64(one)*1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

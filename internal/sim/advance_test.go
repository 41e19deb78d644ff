// Tests for the chunked Advance API, functional warmup, and the
// configuration fingerprint every cache key is built on.
package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"micromama/internal/prefetch"
	"micromama/internal/sim"
	"micromama/internal/trace"
	"micromama/internal/workload"
)

// catalogMix builds a mix from catalog trace names, one per core.
func catalogMix(t *testing.T, names []string) workload.Mix {
	t.Helper()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = sp
	}
	return workload.Mix{Specs: specs}
}

// newTestSystem builds a 2-core fixed-controller system over catalog
// traces.
func newTestSystem(t *testing.T) *sim.System {
	t.Helper()
	mix := catalogMix(t, []string{"spec06.libquantum", "spec06.mcf"})
	sys, err := sim.New(sim.DefaultConfig(len(mix.Specs)), mix.Traces(), sim.NewFixedController("spp", func(int) prefetch.Prefetcher {
		return prefetch.NewSPP()
	}))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAdvanceMatchesRun: stepping a system in small epoch chunks must
// land on exactly the Run result, and Close must be repeatable and
// leave Result readable.
func TestAdvanceMatchesRun(t *testing.T) {
	const target = 40_000
	ref := newTestSystem(t)
	want := ref.Run(target, 0)
	ref.Close()
	wj, _ := json.Marshal(want)

	sys := newTestSystem(t)
	steps := 0
	for !sys.Advance(target, 37) { // deliberately odd chunk size
		steps++
		if steps > 1_000_000 {
			t.Fatal("Advance never completed")
		}
	}
	sys.Close()
	sys.Close() // idempotent
	gj, _ := json.Marshal(sys.Result(target))
	if !bytes.Equal(gj, wj) {
		t.Errorf("chunked Advance diverged from Run\n got: %s\nwant: %s", gj, wj)
	}
}

// loopTrace loads round-robin over a cache-resident working set (lines
// 64 B apart), so one full pass through it leaves every line cached.
func loopTrace(name string, lines int, n int) trace.Reader {
	ins := make([]trace.Instr, n)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x1000, Addr: uint64(i%lines) * 64, Kind: trace.Load}
	}
	return trace.NewSlice(name, ins)
}

// TestFunctionalWarmup: warmup must be deterministic (same config →
// bit-identical results), must not leak its own traffic into the timed
// counters, and must actually warm the caches — a cache-resident
// working set touched during warmup turns the timed region's cold
// misses into hits.
func TestFunctionalWarmup(t *testing.T) {
	const (
		lines  = 256    // 16 KB: fits L1D, so a warm run should miss ~never
		length = 1024   // one trace revolution covers every line 4x
		target = 20_000 // several revolutions in the timed region
	)
	run := func(warm uint64) sim.Result {
		cfg := sim.DefaultConfig(2)
		cfg.WarmupInstructions = warm
		traces := []trace.Reader{loopTrace("loop-a", lines, length), loopTrace("loop-b", lines, length)}
		sys, err := sim.New(cfg, traces, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		return sys.Run(target, 0)
	}
	cold := run(0)
	warmA := run(length)
	warmB := run(length)

	aj, _ := json.Marshal(warmA)
	bj, _ := json.Marshal(warmB)
	if !bytes.Equal(aj, bj) {
		t.Errorf("warmed run is not deterministic\n got: %s\nwant: %s", bj, aj)
	}
	// One warmup revolution touched the full working set, so the timed
	// region must see (almost) none of the cold run's compulsory misses.
	if w, c := warmA.Cores[0].L1D.Misses, cold.Cores[0].L1D.Misses; w >= c {
		t.Errorf("warmup did not reduce L1D misses: warm %d >= cold %d", w, c)
	}
	// Counter hygiene: warmup's own accesses must not be visible in the
	// timed stats (both runs retire the same target).
	if w, c := warmA.Cores[0].L1D.Accesses, cold.Cores[0].L1D.Accesses; w > c {
		t.Errorf("warmup traffic leaked into timed stats: %d accesses > cold %d", w, c)
	}
	// The warmed run must be faster end to end, not just miss less.
	if w, c := warmA.Cores[0].Cycles, cold.Cores[0].Cycles; w >= c {
		t.Errorf("warmup did not speed up the timed region: %d cycles >= %d", w, c)
	}
	// WarmupInstructions is a model knob: it must change the
	// fingerprint.
	c0, c1 := sim.DefaultConfig(2), sim.DefaultConfig(2)
	c1.WarmupInstructions = 1000
	if c0.Fingerprint() == c1.Fingerprint() {
		t.Error("WarmupInstructions did not change the fingerprint")
	}
}

// TestFingerprintPinned: Fingerprint is the config's JSON hashed, so
// removing, renaming or re-tagging a Config field changes it — and
// with it every server job key and persisted cache entry, silently.
// The literals are the ones persisted results are filed under; a
// deliberate model change re-pins them and says so.
func TestFingerprintPinned(t *testing.T) {
	warm := sim.DefaultConfig(4)
	warm.WarmupInstructions = 1000
	cases := []struct {
		name string
		cfg  sim.Config
		want string
	}{
		{"1c", sim.DefaultConfig(1), "8ff50d69b8c35a2d"},
		{"4c", sim.DefaultConfig(4), "9aa562346955f3a0"},
		{"8c", sim.DefaultConfig(8), "4bb7e3f64c11116c"},
		{"4c-warmup-1000", warm, "eaae001713f24dd1"},
	}
	for _, tc := range cases {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s (persisted cache entries would be orphaned)", tc.name, got, tc.want)
		}
	}
}

// Tests for the chunked Advance API and the configuration fingerprint
// every cache key is built on.
package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"micromama/internal/prefetch"
	"micromama/internal/sim"
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

// TestFingerprintPinned: Fingerprint is the config's JSON hashed, so
// removing, renaming or re-tagging a Config field changes it — and
// with it every server job key and persisted cache entry, silently.
// The literals are the ones persisted results are filed under; a
// deliberate model change re-pins them and says so.
func TestFingerprintPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  sim.Config
		want string
	}{
		{"1c", sim.DefaultConfig(1), "8ff50d69b8c35a2d"},
		{"4c", sim.DefaultConfig(4), "9aa562346955f3a0"},
		{"8c", sim.DefaultConfig(8), "4bb7e3f64c11116c"},
	}
	for _, tc := range cases {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s (persisted cache entries would be orphaned)", tc.name, got, tc.want)
		}
	}
}

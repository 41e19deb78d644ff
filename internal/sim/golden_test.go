// Golden determinism tests: fixed-seed simulations must produce
// bit-identical sim.Result snapshots (every counter, cycle count, and
// IPC) across refactors of the hot path. The goldens in
// testdata/golden_results.json were generated against the pre-
// optimization cache/MSHR model; any divergence means an optimization
// changed simulated behavior, not just speed.
//
// Regenerate (only when an *intentional* model change is made) with:
//
//	MAMA_UPDATE_GOLDEN=1 go test ./internal/sim -run TestGoldenDeterminism
package sim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"micromama/internal/core"
	"micromama/internal/prefetch"
	"micromama/internal/sim"
)

const goldenPath = "testdata/golden_results.json"

// goldenScenario is one pinned simulation: a mix of catalog traces, a
// controller, and a small fixed instruction target.
type goldenScenario struct {
	name   string
	traces []string
	ctrl   func() sim.Controller
	target uint64
}

func fixedCtrl(name string, f func(int) prefetch.Prefetcher) func() sim.Controller {
	return func() sim.Controller { return sim.NewFixedController(name, f) }
}

func goldenScenarios() []goldenScenario {
	bandit := func() sim.Controller {
		cfg := core.DefaultBanditConfig()
		cfg.Step = 150
		return core.NewBandit(cfg)
	}
	mumama := func() sim.Controller {
		cfg := core.DefaultMuMamaConfig()
		cfg.Step = 150
		return core.NewMuMama(cfg)
	}
	return []goldenScenario{
		// The no-prefetch single-core run mirrors the configuration of
		// BenchmarkSimulatorThroughput: the exact path being optimized.
		{name: "no-1c-stream", traces: []string{"spec06.libquantum"},
			ctrl: func() sim.Controller { return sim.NoPrefetchController() }, target: 150_000},
		// Pointer chasing exercises DependsPrev serialization and the
		// same-line MSHR merge.
		{name: "no-1c-chase", traces: []string{"spec06.mcf"},
			ctrl: func() sim.Controller { return sim.NoPrefetchController() }, target: 120_000},
		// Fixed engines cover the Contains-then-Fill prefetch paths.
		{name: "ipstride-2c", traces: []string{"spec17.cactuBSSN", "spec06.cactusADM"},
			ctrl: fixedCtrl("ip_stride", func(int) prefetch.Prefetcher {
				return prefetch.NewStride("l2_stride", 64, 2)
			}), target: 120_000},
		{name: "spp-2c", traces: []string{"spec06.libquantum", "ligra.BFS"},
			ctrl: fixedCtrl("spp", func(int) prefetch.Prefetcher {
				return prefetch.NewSPP()
			}), target: 120_000},
		// Pythia exercises the prefetch.Feedback hooks (OnUseful /
		// OnUseless), which depend on WasPrefetched and victim metadata.
		{name: "pythia-2c", traces: []string{"spec06.libquantum", "spec06.mcf"},
			ctrl: fixedCtrl("pythia", func(c int) prefetch.Prefetcher {
				return prefetch.NewPythia(uint64(c) + 12345)
			}), target: 120_000},
		// The learning controllers cover the ensemble engines plus the
		// timestep plumbing on the 4-core motivating mix.
		{name: "bandit-4c", traces: []string{"spec06.mcf", "spec17.cactuBSSN", "spec06.cactusADM", "spec06.libquantum"},
			ctrl: bandit, target: 100_000},
		{name: "mumama-4c", traces: []string{"spec06.mcf", "spec17.cactuBSSN", "spec06.cactusADM", "spec06.libquantum"},
			ctrl: mumama, target: 100_000},
		// The tournament families: per-core PhaseSelect, and CoordRL
		// with its cross-core ledger and blended reward.
		{name: "phaseselect-2c", traces: []string{"spec06.libquantum", "spec06.mcf"},
			ctrl: func() sim.Controller {
				cfg := core.DefaultPhaseSelectConfig()
				cfg.Step = 150
				return core.NewPhaseSelect(cfg)
			}, target: 120_000},
		{name: "coordrl-2c", traces: []string{"spec06.libquantum", "spec06.mcf"},
			ctrl: func() sim.Controller {
				cfg := core.DefaultCoordRLConfig()
				cfg.Step = 150
				return core.NewCoordRL(cfg)
			}, target: 120_000},
	}
}

// runGolden executes one scenario from a cold start.
func runGolden(t *testing.T, sc goldenScenario) sim.Result {
	t.Helper()
	mix := catalogMix(t, sc.traces)
	sys, err := sim.New(sim.DefaultConfig(len(mix.Specs)), mix.Traces(), sc.ctrl())
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run(sc.target, sc.target*14)
}

func marshalGolden(t *testing.T, results map[string]sim.Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestGoldenDeterminism(t *testing.T) {
	results := map[string]sim.Result{}
	for _, sc := range goldenScenarios() {
		results[sc.name] = runGolden(t, sc)
	}
	got := marshalGolden(t, results)

	if os.Getenv("MAMA_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with MAMA_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report which scenario diverged, counter by counter, rather than
	// dumping two multi-KB JSON blobs.
	var wantRes map[string]sim.Result
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	for _, sc := range goldenScenarios() {
		g, w := results[sc.name], wantRes[sc.name]
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("scenario %s diverged from golden\n got: %s\nwant: %s", sc.name, gj, wj)
		}
	}
	if !t.Failed() {
		t.Error("golden bytes differ but no scenario diverged (encoding drift?)")
	}
}

// TestGoldenRunToRun guards the determinism claim itself: two cold
// runs of the same scenario in one process must be bit-identical.
func TestGoldenRunToRun(t *testing.T) {
	sc := goldenScenarios()[0]
	a, b := runGolden(t, sc), runGolden(t, sc)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same-seed runs diverged:\n%s\n%s", aj, bj)
	}
}

package experiment

import (
	"context"
	"testing"

	"micromama/internal/sim"
	"micromama/internal/workload"
)

// Integration tests assert the qualitative shapes the paper's
// evaluation rests on, at a tiny scale. They use loose thresholds: the
// quantities are noisy at this scale, but the *signs* must hold.

func TestIntegrationStreamPrefetchSensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r := NewRunner(ScaleTiny)
	sp, _ := workload.ByName("spec06.libquantum")
	mix := workload.Mix{Specs: []workload.Spec{sp}}
	cfg := sim.DefaultConfig(1)
	noPref, err := r.RunMixContext(context.Background(), mix, cfg, "no", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A fixed aggressive streamer should beat no-prefetching by >10%
	// (the paper's prefetch-sensitivity criterion).
	pref, err := r.RunMixContext(context.Background(), mix, cfg, "bandit", Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = pref
	bestIPC := 0.0
	for _, key := range []string{"bingo", "pythia", "bandit"} {
		res, err := r.RunMixContext(context.Background(), mix, cfg, key, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ipc := res.Result.Cores[0].IPC; ipc > bestIPC {
			bestIPC = ipc
		}
	}
	base := noPref.Result.Cores[0].IPC
	if bestIPC < base*1.10 {
		t.Errorf("stream trace not prefetch-sensitive: base %.3f best %.3f", base, bestIPC)
	}
}

func TestIntegrationFairRewardImprovesFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	// A mix with one bandwidth-hog stream and lighter victims: under
	// uncoordinated Bandits the stream claims the channel; µMama-Fair
	// must shrink unfairness.
	names := []string{"spec06.libquantum", "spec17.wrf", "spec06.mcf", "ligra.KCore"}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		specs[i], _ = workload.ByName(n)
	}
	mix := workload.Mix{Specs: specs}
	r := NewRunner(Scale{Target: 1_200_000, MaxCyclesFactor: 14, MixCount: 1, Seed: 7, Step: 200})
	cfg := sim.DefaultConfig(4)

	bandit, err := r.RunMixContext(context.Background(), mix, cfg, "bandit", Options{})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := r.RunMixContext(context.Background(), mix, cfg, "mumama-fair", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bandit: WS=%.3f HS=%.3f unfair=%.2f | mumama-fair: WS=%.3f HS=%.3f unfair=%.2f",
		bandit.WS, bandit.HS, bandit.Unfairness, fair.WS, fair.HS, fair.Unfairness)
	if fair.Unfairness >= bandit.Unfairness {
		t.Errorf("µMama-Fair did not reduce unfairness (%.2f vs %.2f)", fair.Unfairness, bandit.Unfairness)
	}
	if fair.HS <= bandit.HS {
		t.Errorf("µMama-Fair did not improve HS (%.3f vs %.3f)", fair.HS, bandit.HS)
	}
}

func TestIntegrationRunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r1 := NewRunner(ScaleTiny)
	r2 := NewRunner(ScaleTiny)
	mix := workload.Mixes(2, 1, 9)[0]
	cfg := sim.DefaultConfig(2)
	a, err := r1.RunMixContext(context.Background(), mix, cfg, "mumama", Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.RunMixContext(context.Background(), mix, cfg, "mumama", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.WS != b.WS || a.HS != b.HS {
		t.Errorf("non-deterministic µMama runs: %.6f/%.6f vs %.6f/%.6f", a.WS, a.HS, b.WS, b.HS)
	}
}

func TestIntegrationDualControllerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r := NewRunner(ScaleTiny)
	mix := workload.Mixes(2, 1, 5)[0]
	res, err := r.RunMixContext(context.Background(), mix, sim.DefaultConfig(2), "mumama-l1l2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WS <= 0 {
		t.Errorf("dual controller WS = %g", res.WS)
	}
}

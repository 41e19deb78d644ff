package experiment

import (
	"context"
	"sync"
	"testing"

	"micromama/internal/sim"
	"micromama/internal/workload"
)

// concurrencyScale is deliberately minuscule: the point is exercising
// the runner's shared caches under -race, not simulation fidelity.
var concurrencyScale = Scale{Target: 60_000, MaxCyclesFactor: 12, MixCount: 2, Seed: 7, Step: 100}

// TestRunMixConcurrent hammers one Runner from many goroutines —
// including the profile path, which layers profiles on top of
// BaselineIPCContext — and checks that (a) nothing races (run with
// -race), and (b) every goroutine sees identical, deterministic
// metrics for its controller.
func TestRunMixConcurrent(t *testing.T) {
	r := NewRunner(concurrencyScale)
	mix := workload.Mixes(2, 1, 3)[0]
	cfg := sim.DefaultConfig(2)

	keys := []string{"no", "bandit", "mumama-profiled"}
	const perKey = 4
	type slot struct {
		res MixResult
		err error
	}
	out := make([][]slot, len(keys))
	var wg sync.WaitGroup
	for ki := range keys {
		out[ki] = make([]slot, perKey)
		for g := 0; g < perKey; g++ {
			wg.Add(1)
			go func(ki, g int) {
				defer wg.Done()
				res, err := r.RunMixContext(context.Background(), mix, cfg, keys[ki], Options{})
				out[ki][g] = slot{res, err}
			}(ki, g)
		}
	}
	wg.Wait()

	for ki, key := range keys {
		first := out[ki][0]
		if first.err != nil {
			t.Fatalf("%s: %v", key, first.err)
		}
		if first.res.WS <= 0 {
			t.Fatalf("%s: implausible WS %g", key, first.res.WS)
		}
		for g := 1; g < perKey; g++ {
			s := out[ki][g]
			if s.err != nil {
				t.Fatalf("%s[%d]: %v", key, g, s.err)
			}
			if s.res.WS != first.res.WS || s.res.HS != first.res.HS {
				t.Errorf("%s[%d]: nondeterministic result: WS %g vs %g",
					key, g, s.res.WS, first.res.WS)
			}
		}
	}
}

// TestProfilesConcurrentSingleflight checks concurrent profile requests
// for the same key coalesce to one computation and agree exactly.
func TestProfilesConcurrentSingleflight(t *testing.T) {
	r := NewRunner(concurrencyScale)
	mix := workload.Mixes(2, 1, 5)[0]
	cfg := sim.DefaultConfig(2)

	const n = 8
	profs := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			profs[i], errs[i] = r.profiles(context.Background(), mix, cfg, r.Scale)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if len(profs[i]) != 2 {
			t.Fatalf("goroutine %d: profile len %d", i, len(profs[i]))
		}
		for k := range profs[i] {
			if profs[i][k] != profs[0][k] {
				t.Errorf("goroutine %d: profile[%d] %g != %g", i, k, profs[i][k], profs[0][k])
			}
		}
	}
}

// TestRunMixContextCancelled verifies an already-cancelled context
// aborts promptly with the context error and poisons no cache: a
// follow-up uncancelled run succeeds.
func TestRunMixContextCancelled(t *testing.T) {
	r := NewRunner(concurrencyScale)
	mix := workload.Mixes(2, 1, 3)[0]
	cfg := sim.DefaultConfig(2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunMixContext(ctx, mix, cfg, "no", Options{}); err == nil {
		t.Fatal("cancelled RunMixContext returned nil error")
	}

	res, err := r.RunMixContext(context.Background(), mix, cfg, "no", Options{})
	if err != nil {
		t.Fatalf("post-cancel RunMix: %v", err)
	}
	if res.WS <= 0 {
		t.Fatalf("post-cancel RunMix returned implausible WS %g (poisoned baseline cache?)", res.WS)
	}
}

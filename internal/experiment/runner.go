package experiment

import (
	"context"
	"fmt"
	"sync"

	"micromama/internal/metrics"
	"micromama/internal/sim"
	"micromama/internal/workload"
)

// singleflight runs compute for key at most once across concurrent
// callers: the first caller becomes the leader and computes; the rest
// block until the leader finishes (or their context is cancelled) and
// then re-check the cache via cached. Successful results must be
// published by compute itself (under r.mu, via the cached closure's
// backing map); failed computations are not cached, so a later caller
// retries with its own context.
func (r *Runner) singleflight(ctx context.Context, key string, cached func() (any, bool), compute func() (any, error)) (any, error) {
	hits, misses, merges := cacheCounters(key)
	first := true
	for {
		r.mu.Lock()
		if v, ok := cached(); ok {
			r.mu.Unlock()
			if first {
				// Waiters already counted as merges; don't double-count
				// their post-wait cache read.
				hits.Inc()
			}
			return v, nil
		}
		ch, inflight := r.inflight[key]
		if inflight {
			if first {
				merges.Inc()
				first = false
			}
			r.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ch = make(chan struct{})
		r.inflight[key] = ch
		r.mu.Unlock()
		misses.Inc()

		v, err := compute()

		r.mu.Lock()
		delete(r.inflight, key)
		r.mu.Unlock()
		close(ch)
		return v, err
	}
}

// BaselineIPC returns the trace's IPC running alone on cfg's system
// without L2 prefetching (IPC^{base,SP} of Equation 2), computing and
// caching it on first use. Concurrent callers for the same key block on
// one computation. Errors degrade to a zero baseline (and a zero
// speedup downstream); use BaselineIPCContext to observe them.
func (r *Runner) BaselineIPC(spec workload.Spec, cfg sim.Config) float64 {
	ipc, _ := r.BaselineIPCContext(r.baseCtx(), spec, cfg)
	return ipc
}

// BaselineIPCContext is BaselineIPC with cancellation and error
// reporting. A failed or cancelled computation is not cached, so a
// later call retries it.
func (r *Runner) BaselineIPCContext(ctx context.Context, spec workload.Spec, cfg sim.Config) (float64, error) {
	// The baseline always runs single-core; key on the fingerprint of
	// that effective config so sweeps that vary any parameter (cache
	// sizes, latencies, ...) never share a stale baseline, while all
	// core-count variants of one config share the same one.
	c := cfg
	c.Cores = 1
	key := "baseline|" + spec.Name + "|" + c.Fingerprint()
	v, err := r.singleflight(ctx, key,
		func() (any, bool) { v, ok := r.baseline[key]; return v, ok },
		func() (any, error) {
			mix := workload.Mix{Specs: []workload.Spec{spec}}
			sys, err := sim.New(c, mix.Traces(), sim.NoPrefetchController())
			if err != nil {
				return float64(0), fmt.Errorf("experiment: baseline run for %s: %w", spec.Name, err)
			}
			res, err := sys.RunContext(ctx, r.Scale.Target, r.Scale.MaxCycles())
			sys.Close()
			if err != nil {
				return float64(0), err
			}
			ipc := res.Cores[0].IPC
			r.mu.Lock()
			r.baseline[key] = ipc
			r.mu.Unlock()
			return ipc, nil
		})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// Profiles returns the per-core S^MP profile for a mix on cfg's system:
// each core's IPC in the loaded multicore *without* L2 prefetching,
// divided by its single-core baseline (§6.6.3's offline profiling run).
// Results are cached per (mix, DRAM config); concurrent callers for the
// same key share one computation.
func (r *Runner) Profiles(mix workload.Mix, cfg sim.Config) ([]float64, error) {
	return r.ProfilesContext(r.baseCtx(), mix, cfg)
}

// ProfilesContext is Profiles with cancellation. A failed or cancelled
// profiling run is not cached, so a later call retries it.
func (r *Runner) ProfilesContext(ctx context.Context, mix workload.Mix, cfg sim.Config) ([]float64, error) {
	// Like the baseline cache, the profile cache keys on the effective
	// config's fingerprint — two different configs with the same DRAM
	// name must not share S^MP profiles.
	c := cfg
	c.Cores = len(mix.Specs)
	key := "profile|" + mix.Name() + "|" + c.Fingerprint()
	v, err := r.singleflight(ctx, key,
		func() (any, bool) { v, ok := r.profiles[key]; return v, ok },
		func() (any, error) {
			sys, err := sim.New(c, mix.Traces(), sim.NoPrefetchController())
			if err != nil {
				return []float64(nil), fmt.Errorf("experiment: profile run for %s: %w", mix.Name(), err)
			}
			res, err := sys.RunContext(ctx, r.Scale.Target, r.Scale.MaxCycles())
			sys.Close()
			if err != nil {
				return []float64(nil), err
			}
			prof := make([]float64, len(mix.Specs))
			for i, cr := range res.Cores {
				base, err := r.BaselineIPCContext(ctx, mix.Specs[i], c)
				if err != nil {
					return []float64(nil), err
				}
				if base > 0 {
					prof[i] = cr.IPC / base
				}
			}
			r.mu.Lock()
			r.profiles[key] = prof
			r.mu.Unlock()
			return prof, nil
		})
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// RunMix runs one mix under the named controller and computes the
// speedup metrics against single-core no-L2-prefetch baselines.
func (r *Runner) RunMix(mix workload.Mix, cfg sim.Config, key string, opt Options) (MixResult, error) {
	return r.RunMixContext(r.baseCtx(), mix, cfg, key, opt)
}

// RunMixContext is RunMix with cancellation: the simulation (and any
// baseline or profile run it triggers) stops at the next epoch boundary
// once ctx is done, returning ctx's error.
func (r *Runner) RunMixContext(ctx context.Context, mix workload.Mix, cfg sim.Config, key string, opt Options) (MixResult, error) {
	if opt.Step == 0 {
		opt.Step = r.Scale.Step
	}
	if key == "mumama-profiled" && opt.Profiles == nil {
		prof, err := r.ProfilesContext(ctx, mix, cfg)
		if err != nil {
			return MixResult{}, err
		}
		opt.Profiles = prof
	}
	ctrl, err := MakeController(key, opt)
	if err != nil {
		return MixResult{}, err
	}
	res, err := r.RunMixWithContext(ctx, mix, cfg, ctrl)
	if err != nil {
		return MixResult{}, err
	}
	res.Controller = key
	return res, nil
}

// RunMixWith runs one mix under a caller-constructed controller (for
// custom configurations the key-based factory cannot express).
func (r *Runner) RunMixWith(mix workload.Mix, cfg sim.Config, ctrl sim.Controller) (MixResult, error) {
	return r.RunMixWithContext(r.baseCtx(), mix, cfg, ctrl)
}

// RunMixWithContext is RunMixWith with cancellation.
func (r *Runner) RunMixWithContext(ctx context.Context, mix workload.Mix, cfg sim.Config, ctrl sim.Controller) (MixResult, error) {
	cfg.Cores = len(mix.Specs)
	sys, err := sim.New(cfg, mix.Traces(), ctrl)
	if err != nil {
		return MixResult{}, err
	}
	res, err := sys.RunContext(ctx, r.Scale.Target, r.Scale.MaxCycles())
	sys.Close()
	if err != nil {
		return MixResult{}, err
	}

	sp := make([]float64, len(mix.Specs))
	for i, cr := range res.Cores {
		base, err := r.BaselineIPCContext(ctx, mix.Specs[i], cfg)
		if err != nil {
			return MixResult{}, err
		}
		if base > 0 {
			sp[i] = cr.IPC / base
		}
	}
	return MixResult{
		Mix:        mix,
		Controller: ctrl.Name(),
		Result:     res,
		Speedups:   sp,
		WS:         metrics.WS(sp),
		HS:         metrics.HS(sp),
		GM:         metrics.GM(sp),
		Unfairness: metrics.Unfairness(sp),
	}, nil
}

// MixesFor returns the scale's workload mixes for a core count (single
// traces at 1 core, sampled mixes otherwise).
func (r *Runner) MixesFor(cores int) []workload.Mix { return r.mixesFor(cores) }

// RunMixes runs every mix under the named controller, in parallel
// across r.Workers goroutines. Results are index-aligned with mixes.
func (r *Runner) RunMixes(mixes []workload.Mix, cfg sim.Config, key string, opt Options) ([]MixResult, error) {
	return r.RunMixesContext(r.baseCtx(), mixes, cfg, key, opt)
}

// RunMixesContext is RunMixes with cancellation: once ctx is done,
// in-flight simulations stop at their next epoch boundary, queued mixes
// are not started, and ctx's error is returned.
func (r *Runner) RunMixesContext(ctx context.Context, mixes []workload.Mix, cfg sim.Config, key string, opt Options) ([]MixResult, error) {
	// Warm the baseline cache first so the mix workers start from hits.
	// Each distinct trace is a full single-core simulation, so the
	// warming runs span the worker pool too; duplicate keys coalesce via
	// the runner's singleflight.
	seen := map[string]bool{}
	var specs []workload.Spec
	for _, m := range mixes {
		for _, sp := range m.Specs {
			if !seen[sp.Name] {
				seen[sp.Name] = true
				specs = append(specs, sp)
			}
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, r.Workers))
	for _, sp := range specs {
		wg.Add(1)
		go func(sp workload.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			r.BaselineIPCContext(ctx, sp, cfg)
		}(sp)
	}
	wg.Wait()

	out := make([]MixResult, len(mixes))
	errs := make([]error, len(mixes))
	for i := range mixes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = r.RunMixContext(ctx, mixes[i], cfg, key, opt)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MeanWS returns the average Weighted Speedup across results.
func MeanWS(rs []MixResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	var t float64
	for _, r := range rs {
		t += r.WS
	}
	return t / float64(len(rs))
}

// MeanHS returns the average Harmonic-mean Speedup across results.
func MeanHS(rs []MixResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	var t float64
	for _, r := range rs {
		t += r.HS
	}
	return t / float64(len(rs))
}

// MeanUnfairness returns the average Unfairness across results.
func MeanUnfairness(rs []MixResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	var t float64
	for _, r := range rs {
		t += r.Unfairness
	}
	return t / float64(len(rs))
}

package experiment

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"micromama/internal/metrics"
	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

// singleflight runs compute for key at most once across concurrent
// callers: the first caller becomes the leader and computes; the rest
// block until the leader finishes (or their context is cancelled) and
// then re-check the cache via cached. Successful results must be
// published by compute itself (under r.mu, via the cached closure's
// backing map); failed computations are not cached, so a later caller
// retries with its own context.
func (r *Runner) singleflight(ctx context.Context, stats cacheStats, key string, cached func() (any, bool), compute func() (any, error)) (any, error) {
	first := true
	for {
		r.mu.Lock()
		if v, ok := cached(); ok {
			r.mu.Unlock()
			if first {
				// Waiters already counted as merges; don't double-count
				// their post-wait cache read.
				stats.hits.Inc()
			}
			return v, nil
		}
		ch, inflight := r.inflight[key]
		if inflight {
			if first {
				stats.merges.Inc()
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
		stats.misses.Inc()

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
	v, err := r.singleflight(ctx, baselineStats, key,
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
	v, err := r.singleflight(ctx, profileStats, key,
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

// forEach calls fn(0) … fn(n-1) on at most r.Workers goroutines and
// returns the lowest-index error. Once ctx is done, calls not yet
// started are skipped and report ctx's error.
func (r *Runner) forEach(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, max(1, r.Workers))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if errs[i] = ctx.Err(); errs[i] == nil {
				errs[i] = fn(i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warmBaselines fills the baseline cache for runs 0 … n-1 before their
// mix workers start, so those start from hits. Each distinct (trace,
// system) is a full single-core simulation, so the warming spans the
// worker pool too. A failure is left for the run that needs the
// baseline to report.
func (r *Runner) warmBaselines(ctx context.Context, n int, run func(i int) (workload.Mix, sim.Config)) {
	type job struct {
		spec workload.Spec
		cfg  sim.Config
	}
	seen := map[string]bool{}
	var jobs []job
	for i := 0; i < n; i++ {
		mix, cfg := run(i)
		cfg.Cores = 1
		sys := cfg.Fingerprint()
		for _, sp := range mix.Specs {
			if k := sp.Name + "|" + sys; !seen[k] {
				seen[k] = true
				jobs = append(jobs, job{sp, cfg})
			}
		}
	}
	r.forEach(ctx, len(jobs), func(i int) error {
		r.BaselineIPCContext(ctx, jobs[i].spec, jobs[i].cfg)
		return nil
	})
}

// RunMixes runs every mix under the named controller, in parallel
// across r.Workers goroutines. Results are index-aligned with mixes.
// Once the runner's base context is done, in-flight simulations stop at
// their next epoch boundary, queued mixes are not started, and the
// context's error is returned.
func (r *Runner) RunMixes(mixes []workload.Mix, cfg sim.Config, key string, opt Options) ([]MixResult, error) {
	return r.runMixes(mixes, cfg, func(i int) (MixResult, error) { return r.RunMix(mixes[i], cfg, key, opt) })
}

// runMixes warms the baselines of mixes on cfg, then calls run(i) for
// every mix on the worker pool.
func (r *Runner) runMixes(mixes []workload.Mix, cfg sim.Config, run func(i int) (MixResult, error)) ([]MixResult, error) {
	ctx := r.baseCtx()
	r.warmBaselines(ctx, len(mixes), func(i int) (workload.Mix, sim.Config) { return mixes[i], cfg })
	out := make([]MixResult, len(mixes))
	err := r.forEach(ctx, len(mixes), func(i int) (err error) {
		out[i], err = run(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// cellPlan is a sweep cell resolved the way mamaserved resolves it.
type cellPlan struct {
	mix        workload.Mix
	cfg        sim.Config
	controller string
	step       uint64
}

// planCell resolves a cell with the two helpers mamaserved's resolver
// uses (ScaleByName, SystemConfig), so a cell names the same
// simulation on both sides of the Executor seam.
func (r *Runner) planCell(c sweep.Cell) (cellPlan, error) {
	name := c.Scale
	if name == "" {
		name = "default"
	}
	scale, err := ScaleByName(name)
	if err != nil {
		return cellPlan{}, err
	}
	if c.Target > 0 {
		scale.Target = c.Target
	}
	if c.Step > 0 {
		scale.Step = c.Step
	}
	if scale.Target != r.Scale.Target || scale.MaxCyclesFactor != r.Scale.MaxCyclesFactor {
		// The baseline memo is not keyed by budget: one Runner, one budget.
		return cellPlan{}, fmt.Errorf("cell runs %d instructions/core (cycle guard ×%d); this runner simulates %d (×%d)",
			scale.Target, scale.MaxCyclesFactor, r.Scale.Target, r.Scale.MaxCyclesFactor)
	}
	if err := CheckController(c.Controller); err != nil {
		return cellPlan{}, err
	}
	if len(c.Mix) == 0 {
		return cellPlan{}, fmt.Errorf("mix must name at least one trace")
	}
	specs := make([]workload.Spec, len(c.Mix))
	for i, trace := range c.Mix {
		sp, err := workload.ByName(trace)
		if err != nil {
			return cellPlan{}, err
		}
		specs[i] = sp
	}
	return cellPlan{
		mix:        workload.Mix{ID: int(c.Seed), Specs: specs},
		cfg:        SystemConfig(len(specs), c.DRAMMTps, c.DRAMChannels),
		controller: c.Controller,
		step:       scale.Step,
	}, nil
}

// RunCells is the in-process Executor: every cell simulated on the
// worker pool after one baseline warm-up, results index-aligned with
// cells, the first failed cell failing the call. A Runner never
// simulates the same cell twice — figures that share a column (every
// one of them normalises to Bandit) share its results — so results
// must be treated as read-only.
func (r *Runner) RunCells(ctx context.Context, cells []sweep.Cell) ([]CellResult, error) {
	plans := make([]cellPlan, len(cells))
	for i, c := range cells {
		var err error
		if plans[i], err = r.planCell(c); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	r.warmBaselines(ctx, len(plans), func(i int) (workload.Mix, sim.Config) { return plans[i].mix, plans[i].cfg })
	out := make([]CellResult, len(cells))
	err := r.forEach(ctx, len(plans), func(i int) (err error) {
		if out[i], err = r.runCell(ctx, plans[i]); err != nil {
			err = fmt.Errorf("cell %d [%s %s]: %w", i, strings.Join(cells[i].Mix, ","), cells[i].Controller, err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runCell simulates one resolved cell, or returns what this Runner
// measured for it before.
func (r *Runner) runCell(ctx context.Context, p cellPlan) (CellResult, error) {
	key := fmt.Sprintf("cell|%s|%s|%d|%s", p.controller, p.mix.Name(), p.step, p.cfg.Fingerprint())
	v, err := r.singleflight(ctx, cellStats, key,
		func() (any, bool) { v, ok := r.cells[key]; return v, ok },
		func() (any, error) {
			res, err := r.RunMixContext(ctx, p.mix, p.cfg, p.controller, Options{Step: p.step})
			if err != nil {
				return CellResult{}, err
			}
			out := Summarize(res)
			out.Sim = &res.Result
			r.mu.Lock()
			r.cells[key] = out
			r.mu.Unlock()
			return out, nil
		})
	if err != nil {
		return CellResult{}, err
	}
	return v.(CellResult), nil
}

// mean averages f over xs (0 for none).
func mean[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += f(x)
	}
	return t / float64(len(xs))
}

// MeanWS returns the average Weighted Speedup across results.
func MeanWS(rs []MixResult) float64 {
	return mean(rs, func(r MixResult) float64 { return r.WS })
}

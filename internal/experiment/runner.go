package experiment

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"micromama/internal/metrics"
	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

// cell returns what p measured on this Runner, simulating it at most
// once across concurrent callers: the first becomes the leader and
// simulates; the rest block until it finishes (or their context is
// cancelled) and then re-check the memo. A failed or cancelled run is
// not remembered, so a waiter — or a later caller — retries it under
// its own context. stats says on whose behalf the lookup counts.
// Results are shared: treat them as read-only.
func (r *Runner) cell(ctx context.Context, stats cacheStats, p Plan) (CellResult, error) {
	key := p.key()
	first := true
	for {
		r.mu.Lock()
		if v, ok := r.memo[key]; ok {
			r.mu.Unlock()
			if first {
				// Waiters already counted as merges; don't double-count
				// their post-wait memo read.
				stats.hits.Inc()
			}
			return v, nil
		}
		if ch, ok := r.inflight[key]; ok {
			if first {
				stats.merges.Inc()
				first = false
			}
			r.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return CellResult{}, ctx.Err()
			}
		}
		ch := make(chan struct{})
		r.inflight[key] = ch
		r.mu.Unlock()
		stats.misses.Inc()

		var out CellResult
		res, err := r.Run(ctx, p)
		if err == nil {
			out = Summarize(res)
			out.Sim = &res.Result
		}
		r.mu.Lock()
		if err == nil {
			r.memo[key] = out
		}
		delete(r.inflight, key)
		r.mu.Unlock()
		close(ch)
		return out, err
	}
}

// BaselineIPCContext returns the trace's IPC running alone on cfg's
// system without L2 prefetching (IPC^{base,SP} of Equation 2) at the
// Runner's budget: IPC[0] of the one-core "no" plan, simulated on first
// use. All core-count variants of one config share a baseline; configs
// that differ in any other field never do.
func (r *Runner) BaselineIPCContext(ctx context.Context, spec workload.Spec, cfg sim.Config) (float64, error) {
	return r.baselineIPC(ctx, baselinePlan(spec, cfg, r.Scale))
}

// baselineIPC reads a baseline plan's IPC.
func (r *Runner) baselineIPC(ctx context.Context, base Plan) (float64, error) {
	res, err := r.cell(ctx, baselineStats, base)
	if err != nil {
		return 0, err
	}
	return res.IPC[0], nil
}

// profiles returns the per-core S^MP profile for a mix on cfg's system
// (§6.6.3's offline profiling run): the Speedups of the mix's "no" plan
// — each core's IPC in the loaded multicore without L2 prefetching over
// its single-core baseline — simulated on first use.
func (r *Runner) profiles(ctx context.Context, mix workload.Mix, cfg sim.Config, scale Scale) ([]float64, error) {
	res, err := r.cell(ctx, profileStats, newPlan(mix, cfg, "no", scale))
	if err != nil {
		return nil, err
	}
	return res.Speedups, nil
}

// RunMixContext runs one mix under the named controller at the
// Runner's budget and computes the speedup metrics against single-core
// no-L2-prefetch baselines. It simulates on every call — only the
// baselines (and a profiled controller's profile) come from the memo.
// The simulation, and any baseline or profile run it triggers, stops at
// the next epoch boundary once ctx is done, returning ctx's error.
func (r *Runner) RunMixContext(ctx context.Context, mix workload.Mix, cfg sim.Config, key string, opt Options) (MixResult, error) {
	scale := r.Scale
	if opt.Step != 0 {
		scale.Step = opt.Step
	}
	return r.run(ctx, newPlan(mix, cfg, key, scale), opt)
}

// Run simulates a resolved plan, on every call; see RunMixContext.
func (r *Runner) Run(ctx context.Context, p Plan) (MixResult, error) {
	return r.run(ctx, p, Options{})
}

func (r *Runner) run(ctx context.Context, p Plan, opt Options) (MixResult, error) {
	key, err := parseController(p.Controller)
	if err != nil {
		return MixResult{}, err
	}
	p.Controller = key.canonical
	opt.Step = p.Scale.Step
	if key.row.name == "mumama-profiled" && opt.Profiles == nil {
		if opt.Profiles, err = r.profiles(ctx, p.Mix, p.Config, p.Scale); err != nil {
			return MixResult{}, err
		}
	}
	ctrl, err := key.row.build(opt, key.settings)
	if err != nil {
		return MixResult{}, err
	}
	res, err := r.simulate(ctx, p, ctrl)
	if err != nil {
		return MixResult{}, err
	}
	res.Controller = p.Controller
	return res, nil
}

// simulate runs p's mix on p's system under ctrl for p's budget and
// normalises each core by its baseline. A one-core "no" run is its own
// baseline: speedup 1 (0 if nothing retired), no second simulation.
func (r *Runner) simulate(ctx context.Context, p Plan, ctrl sim.Controller) (MixResult, error) {
	sys, err := sim.New(p.Config, p.Mix.Traces(), ctrl)
	if err != nil {
		return MixResult{}, err
	}
	res, err := sys.RunContext(ctx, p.Scale.Target, p.Scale.MaxCycles())
	sys.Close()
	if err != nil {
		return MixResult{}, err
	}

	sp := make([]float64, len(p.Mix.Specs))
	for i, cr := range res.Cores {
		base := cr.IPC
		if !p.selfBaseline() {
			if base, err = r.baselineIPC(ctx, baselinePlan(p.Mix.Specs[i], p.Config, p.Scale)); err != nil {
				return MixResult{}, err
			}
		}
		if base > 0 {
			sp[i] = cr.IPC / base
		}
	}
	return MixResult{
		Mix:        p.Mix,
		Controller: ctrl.Name(),
		Result:     res,
		Speedups:   sp,
		WS:         metrics.WS(sp),
		HS:         metrics.HS(sp),
		GM:         metrics.GM(sp),
		Unfairness: metrics.Unfairness(sp),
	}, nil
}

// forEach calls fn(0) … fn(n-1) on at most r.Workers goroutines, each
// pulling the next index, and returns the lowest-index error. Once ctx
// is done, calls not yet started are skipped and report ctx's error.
func (r *Runner) forEach(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(max(1, r.Workers), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if errs[i] = ctx.Err(); errs[i] == nil {
					errs[i] = fn(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachPlan calls fn(i) for every plan on the worker pool, with the
// plans' distinct baselines as the first items of the same work list:
// each is a full single-core simulation, so they span the pool too, and
// a plan that finishes before its baseline does merges onto that run.
// A baseline's failure is left for the plan that needs it to report.
func (r *Runner) forEachPlan(ctx context.Context, plans []Plan, fn func(i int) error) error {
	var bases []Plan
	seen := map[string]bool{}
	for _, p := range plans {
		if p.selfBaseline() {
			continue
		}
		for _, sp := range p.Mix.Specs {
			b := baselinePlan(sp, p.Config, p.Scale)
			if k := b.key(); !seen[k] {
				seen[k] = true
				bases = append(bases, b)
			}
		}
	}
	return r.forEach(ctx, len(bases)+len(plans), func(i int) error {
		if i < len(bases) {
			_, _ = r.cell(ctx, baselineStats, bases[i])
			return nil
		}
		return fn(i - len(bases))
	})
}

// RunCells is the in-process Executor: every cell resolved, then
// simulated on the worker pool, results index-aligned with cells, the
// first failed cell failing the call. A Runner never simulates the
// same plan twice — figures that share a column (every one of them
// normalises to Bandit) share its results, and a "no" cell doubles as
// the baseline or profile it is — so results must be treated as
// read-only.
func (r *Runner) RunCells(ctx context.Context, cells []sweep.Cell) ([]CellResult, error) {
	plans := make([]Plan, len(cells))
	for i, c := range cells {
		var err error
		if plans[i], err = Resolve(&c); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	out := make([]CellResult, len(cells))
	err := r.forEachPlan(ctx, plans, func(i int) (err error) {
		if out[i], err = r.cell(ctx, cellStats, plans[i]); err != nil {
			err = fmt.Errorf("cell %d [%s %s]: %w", i, strings.Join(cells[i].Mix, ","), cells[i].Controller, err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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

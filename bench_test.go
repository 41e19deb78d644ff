// Package micromama_bench regenerates every table and figure of the
// paper as Go benchmarks (see the experiment index in DESIGN.md). Each
// benchmark runs the corresponding experiment once per iteration and
// reports the headline quantity via b.ReportMetric, printing the full
// report the first time.
//
// The scale is selected with MAMA_BENCH_SCALE (tiny | small | default |
// full; default "tiny" so `go test -bench=.` completes in minutes on a
// laptop). Reports are cached across benchmarks in one process, so
// re-running a benchmark with higher -benchtime does not redo the
// simulations.
package micromama_bench

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"micromama/internal/core"
	"micromama/internal/experiment"
	"micromama/internal/prefetch"
	"micromama/internal/sim"
	"micromama/internal/trace"
)

var (
	runnerOnce sync.Once
	runner     *experiment.Runner

	cacheMu       sync.Mutex
	cache         = map[string]interface{}{}
	cacheInflight = map[string]chan struct{}{}
)

// benchScaleName is MAMA_BENCH_SCALE, or "tiny" when that names no
// scale.
func benchScaleName() string {
	name := os.Getenv("MAMA_BENCH_SCALE")
	if _, err := experiment.ScaleByName(name); err != nil {
		return "tiny"
	}
	return name
}

func getRunner() *experiment.Runner {
	runnerOnce.Do(func() {
		scale, _ := experiment.ScaleByName(benchScaleName())
		runner = experiment.NewRunner(scale)
	})
	return runner
}

// figure draws one registry figure (experiment.Figures) on the shared
// runner's RunCells.
func figure[T fmt.Stringer](b *testing.B, id string) T {
	b.Helper()
	return cached(b, id, func() (T, error) {
		var zero T
		figs := experiment.FiguresByID(id)
		if len(figs) != 1 {
			return zero, fmt.Errorf("%q names %d registry figures", id, len(figs))
		}
		rep, err := figs[0].Run(context.Background(), getRunner().RunCells, benchScaleName(), 0, 0)
		if err != nil {
			return zero, err
		}
		return rep.(T), nil
	})
}

// cached memoizes an experiment across benchmark iterations and
// benchmarks. The lock is scoped to cache bookkeeping only — the
// experiment itself runs unlocked, with per-key in-flight channels
// coalescing concurrent callers, so one slow experiment cannot
// serialize unrelated benchmarks.
func cached[T any](b *testing.B, key string, f func() (T, error)) T {
	b.Helper()
	for {
		cacheMu.Lock()
		if v, ok := cache[key]; ok {
			cacheMu.Unlock()
			return v.(T)
		}
		ch, inflight := cacheInflight[key]
		if inflight {
			cacheMu.Unlock()
			<-ch // leader finished (or failed); re-check the cache
			continue
		}
		ch = make(chan struct{})
		cacheInflight[key] = ch
		cacheMu.Unlock()

		v, err := f()

		cacheMu.Lock()
		delete(cacheInflight, key)
		if err == nil {
			cache[key] = v
		}
		cacheMu.Unlock()
		close(ch)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%v\n", v)
		return v
	}
}

// --- Tables ---------------------------------------------------------

// BenchmarkTable1Params pins the paper's Table 1 hyperparameters.
func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultMuMamaConfig()
		if cfg.Step != 800 || cfg.TArbit != 5 || cfg.KStep != 5 || cfg.JAVSize != 2 {
			b.Fatal("Table 1 defaults drifted")
		}
	}
}

// BenchmarkTable2Arms exercises every Table 2 arm configuration.
func BenchmarkTable2Arms(b *testing.B) {
	e := prefetch.NewEnsemble()
	b.ReportMetric(float64(prefetch.NumArms), "arms")
	for i := 0; i < b.N; i++ {
		e.SetArm(i % prefetch.NumArms)
		e.OnAccess(0x40, uint64(i)*64, false, nil)
	}
}

// BenchmarkTable3System builds the Table 3 system.
func BenchmarkTable3System(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(8)
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures --------------------------------------------------------

// BenchmarkFig1Game: independent learners reach the Nash equilibrium of
// the Figure 1 game; the metric is the steady-state Nash rate.
func BenchmarkFig1Game(b *testing.B) {
	var rep *experiment.GameReport
	for i := 0; i < b.N; i++ {
		rep = experiment.PlayGame(4000, 11)
	}
	b.ReportMetric(rep.NashRate, "nash-rate")
	b.ReportMetric(rep.SupervisedTotal-rep.IndependentTotal, "supervisor-gain")
}

// BenchmarkFig2Timeline: policy timeline of uncoordinated Bandits on the
// motivating mix.
func BenchmarkFig2Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := cached(b, "fig2", func() (*experiment.TimelineReport, error) {
			return getRunner().FigTimeline(context.Background(), "bandit")
		})
		b.ReportMetric(float64(len(rep.Samples)), "policy-changes")
	}
}

// BenchmarkFig3PrefetchScaling: prefetches issued vs core count; the
// metric is Bandit's 8-core blow-up factor (paper: ~10x vs ~8x for the
// others).
func BenchmarkFig3PrefetchScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := cached(b, "fig3", func() (*experiment.PrefetchScalingReport, error) {
			return getRunner().Fig3PrefetchScaling(context.Background(), []int{1, 4, 8})
		})
		n := len(rep.CoreCounts) - 1
		b.ReportMetric(rep.Normalized["bandit"][n], "bandit-8C-x")
		b.ReportMetric(rep.Normalized["bingo"][n], "bingo-8C-x")
	}
}

// BenchmarkFig4SharedReward: policy timeline under the naïve shared
// reward (credit-assignment problem).
func BenchmarkFig4SharedReward(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := cached(b, "fig4", func() (*experiment.TimelineReport, error) {
			return getRunner().FigTimeline(context.Background(), "bandit-shared")
		})
		b.ReportMetric(float64(len(rep.Samples)), "policy-changes")
	}
}

// BenchmarkFig9Throughput: average WS vs Bandit at 1/4/8 cores (paper:
// µMama +1.9%/+2.1% at 4/8 cores).
func BenchmarkFig9Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := figure[*experiment.ThroughputReport](b, "fig9")
		b.ReportMetric(rep.NormWS[4]["mumama"]*100, "mumama-4C-pct")
		b.ReportMetric(rep.NormWS[8]["mumama"]*100, "mumama-8C-pct")
	}
}

// BenchmarkFig10PerWorkload: per-mix WS (µMama) and HS (µMama-Fair)
// normalized to Bandit.
func BenchmarkFig10PerWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := figure[*experiment.PerWorkloadReport](b, "fig10-WS-4C")
		hs := figure[*experiment.PerWorkloadReport](b, "fig10-HS-4C")
		b.ReportMetric(ws.Average*100, "ws-avg-pct")
		b.ReportMetric(hs.Average*100, "hs-avg-pct")
	}
}

// BenchmarkFig11Bandwidth: WS vs Bandit across memory bandwidths
// (paper: µMama's edge grows when bandwidth shrinks).
func BenchmarkFig11Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := figure[*experiment.BandwidthReport](b, "fig11")
		// Metric: µMama's gain at the most constrained 4-core point.
		for _, p := range rep.Points {
			if p.Controller == "mumama" && p.Cores == 4 && p.PeakGBps < 16 {
				b.ReportMetric(p.NormWS*100, "mumama-lowbw-pct")
			}
		}
	}
}

// BenchmarkFig12MuMamaTimeline: µMama's policy timeline with
// JAV-dictated shading (paper §6.5: 64-67% of steps dictated).
func BenchmarkFig12MuMamaTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := cached(b, "fig12", func() (*experiment.TimelineReport, error) {
			return getRunner().FigTimeline(context.Background(), "mumama")
		})
		b.ReportMetric(rep.JointFraction*100, "jav-dictated-pct")
	}
}

// BenchmarkFig13Fairness: unfairness and HS by prefetcher (paper:
// µMama-Fair ~-30% unfairness, +9.4/+10.4% HS vs Bandit).
func BenchmarkFig13Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := figure[*experiment.FairnessReport](b, "fig13")
		b.ReportMetric(rep.NormHS[4]["mumama-fair"]*100, "fair-hs-4C-pct")
		b.ReportMetric(rep.Unfairness[4]["mumama-fair"]/rep.Unfairness[4]["bandit"], "unfair-ratio-4C")
	}
}

// BenchmarkFig14Frontier: the throughput/fairness Pareto frontier
// (paper: µMama variants form the frontier; Bandit is non-Pareto).
func BenchmarkFig14Frontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := figure[*experiment.FrontierReport](b, "fig14")
		var banditDominated bool
		var bp experiment.FrontierPoint
		for _, p := range rep.Points {
			if p.Controller == "bandit" {
				bp = p
			}
		}
		for _, p := range rep.Points {
			if p.Controller != "bandit" && p.WS >= bp.WS && p.Fairness >= bp.Fairness {
				banditDominated = true
			}
		}
		v := 0.0
		if banditDominated {
			v = 1
		}
		b.ReportMetric(v, "bandit-dominated")
	}
}

// BenchmarkFig15aAblation: component breakdown (GRW / JAV / full /
// profiled) at 8 cores.
func BenchmarkFig15aAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := figure[*experiment.AblationReport](b, "fig15a")
		b.ReportMetric(rep.NormWS["mumama"]*100, "mumama-pct")
		b.ReportMetric(rep.NormWS["mumama-profiled"]*100, "profiled-pct")
	}
}

// BenchmarkFig15bJAVSize: WS vs JAV cache size at 4 cores.
func BenchmarkFig15bJAVSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := cached(b, "fig15b", func() (*experiment.JAVSweepReport, error) {
			return getRunner().Fig15bJAVSweep(context.Background(), 4, []int{1, 2, 4, 8, 16})
		})
		b.ReportMetric(rep.NormWS[1]*100, "jav2-pct")
	}
}

// BenchmarkFig16Profiled: per-mix WS of µMama-Profiled vs Bandit at 8
// cores (paper: +3.06% average, fewer slowdown mixes).
func BenchmarkFig16Profiled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := figure[*experiment.PerWorkloadReport](b, "fig16")
		b.ReportMetric(rep.Average*100, "avg-pct")
	}
}

// --- Ablation benches for DESIGN.md's called-out choices -------------

// BenchmarkAblationThetaSweep sweeps the global-reward threshold
// θ_global (DESIGN.md ablation).
func BenchmarkAblationThetaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := cached(b, "ablation-theta", func() ([]float64, error) {
			r := getRunner()
			mixes := r.Scale.MixesFor(4)
			cfg := sim.DefaultConfig(4)
			var out []float64
			for _, theta := range []float64{0.3, 0.65, 0.9} {
				rs, err := r.RunMixesContext(context.Background(), mixes, cfg, "mumama", experiment.Options{Theta: theta})
				if err != nil {
					return nil, err
				}
				out = append(out, experiment.MeanWS(rs))
			}
			return out, nil
		})
		b.ReportMetric(ws[1], "ws-theta-default")
	}
}

// BenchmarkAblationTarbit sweeps the arbiter period (DESIGN.md
// ablation).
func BenchmarkAblationTarbit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := cached(b, "ablation-tarbit", func() ([]float64, error) {
			r := getRunner()
			mixes := r.Scale.MixesFor(4)
			cfg := sim.DefaultConfig(4)
			var out []float64
			for _, ta := range []int{2, 5, 10} {
				rs, err := r.RunMixesContext(context.Background(), mixes, cfg, "mumama", experiment.Options{TArbit: ta})
				if err != nil {
					return nil, err
				}
				out = append(out, experiment.MeanWS(rs))
			}
			return out, nil
		})
		b.ReportMetric(ws[1], "ws-tarbit5")
	}
}

// BenchmarkAblationJAVLCB compares the paper's raw-argmax JAV selection
// (lcb = 0) with this repo's confidence-penalized default (DESIGN.md
// ablation).
func BenchmarkAblationJAVLCB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := cached(b, "ablation-lcb", func() ([]float64, error) {
			r := getRunner()
			mixes := r.Scale.MixesFor(4)
			cfg := sim.DefaultConfig(4)
			var out []float64
			for _, lcb := range []float64{-1, 0.2} { // -1 => raw argmax
				var sum float64
				for _, mix := range mixes {
					c := core.DefaultMuMamaConfig()
					c.Step = r.Scale.Step
					c.JAVLCB = lcb
					res, err := r.RunMixWithContext(context.Background(), mix, cfg, core.NewMuMama(c))
					if err != nil {
						return nil, err
					}
					sum += res.WS
				}
				out = append(out, sum/float64(len(mixes)))
			}
			return out, nil
		})
		b.ReportMetric(ws[0], "ws-raw-argmax")
		b.ReportMetric(ws[1], "ws-lcb")
	}
}

// BenchmarkAblationSync compares timestep synchronization settings
// (k_step cap values; DESIGN.md ablation).
func BenchmarkAblationSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := cached(b, "ablation-sync", func() ([]float64, error) {
			r := getRunner()
			mixes := r.Scale.MixesFor(4)
			cfg := sim.DefaultConfig(4)
			var out []float64
			for _, kstep := range []int{2, 5, 20} {
				var sum float64
				for _, mix := range mixes {
					c := core.DefaultMuMamaConfig()
					c.Step = r.Scale.Step
					c.KStep = kstep
					res, err := r.RunMixWithContext(context.Background(), mix, cfg, core.NewMuMama(c))
					if err != nil {
						return nil, err
					}
					sum += res.WS
				}
				out = append(out, sum/float64(len(mixes)))
			}
			return out, nil
		})
		b.ReportMetric(ws[1], "ws-kstep5")
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed
// (instructions simulated per second, single core, no prefetching).
func BenchmarkSimulatorThroughput(b *testing.B) {
	mix := experiment.MotivatingMix()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(sim.DefaultConfig(1), mix.Traces()[:1], nil)
		if err != nil {
			b.Fatal(err)
		}
		res := sys.Run(200_000, 0)
		sys.Close()
		instr += res.Cores[0].Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSimulatorThroughputCores measures aggregate multicore
// simulation speed at 1/2/4/8 simulated cores. The system is built and
// warmed outside the timed loop and stepped with the chunked Advance
// API, so steady-state allocs/op must be 0. The per-core workloads are
// compute-bound, so instr/s here is the simulator's ceiling at each
// core count, before shared-LLC and DRAM contention.
func BenchmarkSimulatorThroughputCores(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dc", cores), func(b *testing.B) {
			traces := make([]trace.Reader, cores)
			for i := range traces {
				traces[i] = trace.NewCompute(fmt.Sprintf("bench.compute.%d", i), trace.ComputeConfig{
					Seed: 17 + uint64(i)*1031, WorkingSet: 32 << 10, MemRatio: 0.3, Length: 1 << 62,
				})
			}
			sys, err := sim.New(sim.DefaultConfig(cores), traces, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()

			total := func() uint64 {
				var t uint64
				for i := 0; i < cores; i++ {
					t += sys.Instructions(i)
				}
				return t
			}
			// Warm: runs past cold-start growth of the pending-miss FIFOs
			// and cache arrays. The infinite traces and max target mean
			// no core ever freezes.
			const never, chunk = ^uint64(0), 64
			sys.Advance(never, 512)
			start := total()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Advance(never, chunk)
			}
			b.StopTimer()
			b.ReportMetric(float64(total()-start)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

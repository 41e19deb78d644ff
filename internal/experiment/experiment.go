// Package experiment regenerates every table and figure of the paper's
// evaluation: it runs workload mixes under each prefetch controller,
// measures speedups against the single-core no-L2-prefetch baselines,
// and renders the same rows/series the paper reports (see the
// experiment index in DESIGN.md).
package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"micromama/internal/dram"
	"micromama/internal/sim"
	"micromama/internal/workload"
)

// Scale sets the simulation budget. The paper measures 250M
// instructions per core; these scales trade absolute fidelity for
// runnable harnesses while staying far past DUCB convergence
// (step = 800 L2 accesses → thousands of timesteps).
type Scale struct {
	// Target is the instruction-retirement goal per core.
	Target uint64
	// MaxCyclesFactor bounds a run at Target×factor cycles so very slow
	// cores cannot stall the harness; cores still running report their
	// IPC over the elapsed window.
	MaxCyclesFactor uint64
	// MixCount is how many workload mixes to sample (the paper uses 52).
	MixCount int
	// Seed drives mix sampling.
	Seed uint64
	// Step is the agent timestep in L2 demand accesses. The paper uses
	// 800 over 250M instructions/core; scaled-down simulations shrink
	// the step proportionally so agents complete a comparable number of
	// timesteps.
	Step uint64
}

// Predefined scales. Tiny is for unit tests; Small for quick looks;
// Default for the benchmark harness; Full approaches the paper's 52-mix
// evaluation.
var (
	ScaleTiny    = Scale{Target: 400_000, MaxCyclesFactor: 12, MixCount: 2, Seed: 7, Step: 150}
	ScaleSmall   = Scale{Target: 1_500_000, MaxCyclesFactor: 14, MixCount: 4, Seed: 7, Step: 250}
	ScaleDefault = Scale{Target: 4_000_000, MaxCyclesFactor: 14, MixCount: 8, Seed: 7, Step: 250}
	ScaleFull    = Scale{Target: 8_000_000, MaxCyclesFactor: 16, MixCount: 52, Seed: 7, Step: 400}
)

// MaxCycles returns the cycle guard for this scale.
func (s Scale) MaxCycles() uint64 { return s.Target * s.MaxCyclesFactor }

// ScaleNames lists the named scales, smallest budget first. With
// ScaleByName it is the one scale table: mamabench's -scale, a job's or
// cell's "scale" field and GET /v1/catalog all read it.
func ScaleNames() []string { return []string{"tiny", "small", "default", "full"} }

// ScaleByName resolves a scale name exactly as written (Resolve, which
// accepts aliases — case, an empty name — canonicalizes first); the
// error names the known set.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "default":
		return ScaleDefault, nil
	case "full":
		return ScaleFull, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (%s)", name, strings.Join(ScaleNames(), "|"))
}

// SystemConfig is the simulated system of a job or sweep cell: the
// default configuration at that core count, with the memory system
// replaced by DDR4 when either override is set (an unset half
// defaulting to 2400 MT/s or one channel). mamaserved hashes this
// value into every job key, so the rule may never change.
func SystemConfig(cores, dramMTps, dramChannels int) sim.Config {
	cfg := sim.DefaultConfig(cores)
	if dramMTps > 0 || dramChannels > 0 {
		if dramMTps <= 0 {
			dramMTps = 2400
		}
		if dramChannels <= 0 {
			dramChannels = 1
		}
		cfg.DRAM = dram.DDR4(dramMTps, dramChannels)
	}
	return cfg
}

// MixResult is one (mix, controller) measurement.
type MixResult struct {
	Mix        workload.Mix
	Controller string
	Result     sim.Result
	// Speedups are S_i = IPC_i(multicore, controller) /
	// IPC_i(single-core, no L2 prefetch) — Equation 2's terms.
	Speedups   []float64
	WS         float64
	HS         float64
	GM         float64
	Unfairness float64
}

// CellResult is the one projection of a MixResult that leaves the
// process: a finished job's result on mamaserved's wire and in its
// cache files (so the fields, tags and order are fixed), and what a
// figure's reducer is given per cell.
type CellResult struct {
	Mix        string    `json:"mix"`
	Controller string    `json:"controller"`
	WS         float64   `json:"ws"`
	HS         float64   `json:"hs"`
	GM         float64   `json:"gm"`
	Unfairness float64   `json:"unfairness"`
	Speedups   []float64 `json:"speedups"`
	IPC        []float64 `json:"ipc"`
	L2MPKI     []float64 `json:"l2_mpki"`
	Prefetches uint64    `json:"prefetches"`
	// SimMs is the wall-clock simulation time; 0 for cache hits.
	SimMs int64 `json:"sim_ms"`
	// Sim is the full simulator result. Only Runner.RunCells sets it:
	// a result that crossed the wire, or sits in a server's cache, has
	// nil here.
	Sim *sim.Result `json:"-"`
}

// Summarize projects a measurement onto the job-result fields. SimMs
// and Sim are the caller's to fill.
func Summarize(res MixResult) CellResult {
	out := CellResult{
		Mix:        res.Mix.Name(),
		Controller: res.Controller,
		WS:         res.WS,
		HS:         res.HS,
		GM:         res.GM,
		Unfairness: res.Unfairness,
		Speedups:   res.Speedups,
		Prefetches: res.Result.TotalPrefetches(),
	}
	for _, cr := range res.Result.Cores {
		out.IPC = append(out.IPC, cr.IPC)
		out.L2MPKI = append(out.L2MPKI, cr.L2MPKI())
	}
	return out
}

// Runner executes experiments, remembering what it has measured: one
// memo of CellResult keyed by plan (budget included) holds single-core
// baselines, no-prefetch multicore profiles and RunCells results alike,
// so one Runner serves any mixture of budgets. Scale is the budget of
// the entry points that take a mix rather than a plan.
type Runner struct {
	Scale   Scale
	Workers int

	mu       sync.Mutex
	memo     map[string]CellResult    // Plan.key() -> what the plan measured; read-only once stored
	inflight map[string]chan struct{} // Plan.key() -> closed when the keyed simulation ends
}

// NewRunner constructs a Runner with sensible worker parallelism.
func NewRunner(scale Scale) *Runner {
	return &Runner{
		Scale:    scale,
		Workers:  runtime.GOMAXPROCS(0),
		memo:     make(map[string]CellResult),
		inflight: make(map[string]chan struct{}),
	}
}

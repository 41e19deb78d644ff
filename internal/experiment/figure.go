package experiment

import (
	"context"
	"fmt"
	"strings"

	"micromama/internal/sweep"
	"micromama/internal/workload"
)

// Figure is one of the paper's figures as data: the sweep cells it is
// a mean over, and the pure function that folds their results into its
// report. What simulates the cells is the Executor's business.
type Figure struct {
	ID string
	// Cells expands the figure at a named scale. target and step, when
	// non-zero, override the scale's instruction goal and agent
	// timestep in every cell.
	Cells func(scale string, target, step uint64) ([]sweep.Cell, error)
	// Reduce folds results, index-aligned with cells, into the report.
	// It simulates nothing.
	Reduce func(cells []sweep.Cell, results []CellResult) fmt.Stringer
}

// Executor turns cells into results, index-aligned; one failed cell
// fails the call (a mean over a partial sample is not the figure).
// Runner.RunCells is the in-process Executor and client.RunSweep,
// bound to a sweep name, the remote one.
type Executor func(ctx context.Context, cells []sweep.Cell) ([]CellResult, error)

// Run draws the figure: expand, execute, reduce.
func (f Figure) Run(ctx context.Context, exec Executor, scale string, target, step uint64) (fmt.Stringer, error) {
	cells, err := f.Cells(scale, target, step)
	if err != nil {
		return nil, err
	}
	results, err := exec(ctx, cells)
	if err != nil {
		return nil, err
	}
	if len(results) != len(cells) {
		return nil, fmt.Errorf("%s: executor returned %d results for %d cells", f.ID, len(results), len(cells))
	}
	return f.Reduce(cells, results), nil
}

// Figures is the registry: the paper's figures in its order, then
// DESIGN.md's four parameter ablations, then the controller tournament.
// fig2/4/12 and fig3 are not in it because they read controller-internal
// state (the policy timeline, MeanChosenDegree) that no job result
// carries; they stay probes on the local Runner.
var Figures = []Figure{
	fig9(),
	perWorkload("fig10-WS-4C", 4, "mumama", false),
	perWorkload("fig10-HS-4C", 4, "mumama-fair", true),
	perWorkload("fig10-WS-8C", 8, "mumama", false),
	perWorkload("fig10-HS-8C", 8, "mumama-fair", true),
	fig11(),
	fig13(),
	fig14(),
	fig15a(),
	fig15b(),
	perWorkload("fig16", 8, "mumama-profiled", false),
	sec63(),
	sensitivity("abl-theta", "theta", "mumama@theta=0.3", "mumama", "mumama@theta=0.9"),
	sensitivity("abl-tarbit", "tarbit", "mumama@tarbit=2", "mumama", "mumama@tarbit=10"),
	sensitivity("abl-lcb", "lcb", "mumama@lcb=0", "mumama"),
	sensitivity("abl-kstep", "kstep", "mumama@kstep=2", "mumama", "mumama@kstep=20"),
	tournament(),
}

// FiguresByID returns the registry entries an experiment id names:
// the figure with that ID, or every part "id-…" of a multi-part figure
// (fig10 is four reports).
func FiguresByID(id string) []Figure {
	var out []Figure
	for _, f := range Figures {
		if f.ID == id || strings.HasPrefix(f.ID, id+"-") {
			out = append(out, f)
		}
	}
	return out
}

// CellFor is the sweep cell that runs mix under controller at a named
// scale on the default memory system.
func CellFor(mix workload.Mix, controller, scale string, target, step uint64) sweep.Cell {
	names := make([]string, len(mix.Specs))
	for i, sp := range mix.Specs {
		names[i] = sp.Name
	}
	return sweep.Cell{
		Mix: names, Controller: controller, Scale: scale,
		Seed: uint64(mix.ID), Target: target, Step: step,
	}
}

// arm is one column of a figure: a controller on a system, measured
// over the scale's mixes for that core count. Zero mtps and channels
// mean the default memory system.
type arm struct {
	cores          int
	controller     string
	mtps, channels int
}

// armFigure builds the Figure whose cells are arms × the scale's mixes
// (arm-major, mixes in sampling order) and whose reducer sees each
// arm's results in that mix order.
func armFigure(id string, arms []arm, reduce func(byArm map[arm][]CellResult) fmt.Stringer) Figure {
	return Figure{
		ID: id,
		Cells: func(scale string, target, step uint64) ([]sweep.Cell, error) {
			sc, err := ScaleByName(scale)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			var cells []sweep.Cell
			for _, a := range arms {
				for _, mix := range sc.MixesFor(a.cores) {
					c := CellFor(mix, a.controller, scale, target, step)
					c.DRAMMTps, c.DRAMChannels = a.mtps, a.channels
					cells = append(cells, c)
				}
			}
			return cells, nil
		},
		Reduce: func(cells []sweep.Cell, results []CellResult) fmt.Stringer {
			byArm := map[arm][]CellResult{}
			for i, c := range cells {
				a := arm{len(c.Mix), c.Controller, c.DRAMMTps, c.DRAMChannels}
				byArm[a] = append(byArm[a], results[i])
			}
			return reduce(byArm)
		},
	}
}

// defaultArms lists one default-memory arm per (core count, controller),
// core counts varying slowest.
func defaultArms(coreCounts []int, controllers ...string) []arm {
	var out []arm
	for _, n := range coreCounts {
		for _, key := range controllers {
			out = append(out, arm{cores: n, controller: key})
		}
	}
	return out
}

func cellWS(r CellResult) float64         { return r.WS }
func cellHS(r CellResult) float64         { return r.HS }
func cellGM(r CellResult) float64         { return r.GM }
func cellUnfairness(r CellResult) float64 { return r.Unfairness }

// singleMixes builds one-core "mixes", one per sensitive trace, capped
// at the scale's mix count. Traces are taken round-robin across suite
// classes so a small cap still samples diverse behaviours.
func (s Scale) singleMixes() []workload.Mix {
	byClass := map[workload.Class][]workload.Spec{}
	var order []workload.Class
	for _, sp := range workload.Sensitive() {
		if _, ok := byClass[sp.Class]; !ok {
			order = append(order, sp.Class)
		}
		byClass[sp.Class] = append(byClass[sp.Class], sp)
	}
	var specs []workload.Spec
	for len(specs) < len(workload.Sensitive()) {
		progressed := false
		for _, c := range order {
			if len(byClass[c]) > 0 {
				specs = append(specs, byClass[c][0])
				byClass[c] = byClass[c][1:]
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	n := len(specs)
	if s.MixCount < n {
		n = s.MixCount
	}
	mixes := make([]workload.Mix, n)
	for i := 0; i < n; i++ {
		mixes[i] = workload.Mix{ID: i, Specs: []workload.Spec{specs[i]}}
	}
	return mixes
}

// MixesFor returns the scale's workload mixes for a core count: single
// traces at 1 core, sampled mixes otherwise.
func (s Scale) MixesFor(cores int) []workload.Mix {
	if cores == 1 {
		return s.singleMixes()
	}
	return workload.Mixes(cores, s.MixCount, s.Seed)
}

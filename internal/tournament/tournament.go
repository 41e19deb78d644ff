// Package tournament races every prefetch-coordination family in the
// repo head-to-head over the workload catalog and ranks them. A
// tournament is just a deterministic sweep: (controllers × core counts
// × seed replicas × sampled mixes) expands to the exact cells the sweep
// API schedules, so running one against a warm mamaserved answers
// entirely from the content-addressed result cache. Aggregation
// produces WS/HS/GM/fairness leaderboards plus a per-pair win/loss
// matrix on per-cell weighted speedup, and renders via internal/plot —
// the ROADMAP's "Fig-9/10-style wins against new baselines" table.
package tournament

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"micromama/internal/experiment"
	"micromama/internal/plot"
	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

// Spec describes a tournament. The zero value is unusable; fill
// Controllers and use a named scale.
type Spec struct {
	// Controllers are the experiment controller keys racing each other.
	Controllers []string
	// CoreCounts are the multicore sizes raced (each samples its own
	// mixes from the catalog).
	CoreCounts []int
	// Seeds is the number of seed replicas: replica i samples mixes
	// with Scale.Seed+i, so Seeds>1 widens the sample without
	// re-running identical cells.
	Seeds int
	// ScaleName and Scale set the per-cell simulation budget.
	ScaleName string
	Scale     experiment.Scale
	// Target/Step override the scale's per-cell budget (0 = keep).
	Target uint64
	Step   uint64
}

// CellMeta locates one expanded cell in the tournament's aggregation
// space. Group() identifies the arena (everything but the controller):
// cells in the same group raced the same workload under the same
// conditions and are comparable pairwise.
type CellMeta struct {
	Cores      int
	SeedIdx    int
	Controller string
	Mix        string
}

// Group returns the arena key shared by all controllers racing this
// cell's workload.
func (m CellMeta) Group() string {
	return fmt.Sprintf("%dc/s%d/%s", m.Cores, m.SeedIdx, m.Mix)
}

// CellResult is the per-cell metric slice the aggregation consumes —
// the same fields whether the cells ran locally or came back from a
// sweep stream.
type CellResult struct {
	WS         float64 `json:"ws"`
	HS         float64 `json:"hs"`
	GM         float64 `json:"gm"`
	Unfairness float64 `json:"unfairness"`
}

// Validate checks the spec against the controller registry, mirroring
// the server-side 400: an unknown controller fails fast with the known
// set instead of failing mid-sweep.
func (s *Spec) Validate() error {
	if len(s.Controllers) == 0 {
		return fmt.Errorf("tournament: no controllers")
	}
	known := map[string]bool{}
	for _, k := range experiment.ControllerKeys {
		known[k] = true
	}
	for _, c := range s.Controllers {
		if !known[c] {
			return fmt.Errorf("tournament: unknown controller %q (known: %s)",
				c, strings.Join(experiment.ControllerKeys, ", "))
		}
	}
	if len(s.CoreCounts) == 0 {
		return fmt.Errorf("tournament: no core counts")
	}
	if s.Seeds <= 0 {
		return fmt.Errorf("tournament: Seeds must be >= 1")
	}
	return nil
}

// Cells expands the tournament deterministically into sweep cells and
// their aggregation metadata, in a fixed nesting order (cores → seed
// replica → controller → mix). The same spec always yields the same
// cells in the same order, which is what makes a warm resubmission a
// pure cache read.
func (s *Spec) Cells() ([]sweep.Cell, []CellMeta, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	var cells []sweep.Cell
	var metas []CellMeta
	for _, cores := range s.CoreCounts {
		for seedIdx := 0; seedIdx < s.Seeds; seedIdx++ {
			mixes := workload.Mixes(cores, s.Scale.MixCount, s.Scale.Seed+uint64(seedIdx))
			for _, key := range s.Controllers {
				for _, mix := range mixes {
					names := make([]string, len(mix.Specs))
					for i, sp := range mix.Specs {
						names[i] = sp.Name
					}
					cells = append(cells, sweep.Cell{
						Mix:        names,
						Controller: key,
						Scale:      s.ScaleName,
						Seed:       uint64(mix.ID),
						Target:     s.Target,
						Step:       s.Step,
					})
					metas = append(metas, CellMeta{
						Cores:      cores,
						SeedIdx:    seedIdx,
						Controller: key,
						Mix:        strings.Join(names, "+"),
					})
				}
			}
		}
	}
	return cells, metas, nil
}

// SweepSpec wraps the expanded cells as a named sweep for the remote
// path.
func (s *Spec) SweepSpec() (sweep.Spec, []CellMeta, error) {
	cells, metas, err := s.Cells()
	if err != nil {
		return sweep.Spec{}, nil, err
	}
	name := fmt.Sprintf("tournament-%s-%dx%d", s.ScaleName, len(s.Controllers), s.Seeds)
	return sweep.Spec{Name: name, Cells: cells}, metas, nil
}

// Row is one leaderboard line.
type Row struct {
	Rank       int     `json:"rank"`
	Controller string  `json:"controller"`
	Cells      int     `json:"cells"`
	MeanWS     float64 `json:"mean_ws"`
	MeanHS     float64 `json:"mean_hs"`
	MeanGM     float64 `json:"mean_gm"`
	MeanUnfair float64 `json:"mean_unfairness"`
	Wins       int     `json:"wins"`
	Losses     int     `json:"losses"`
	Ties       int     `json:"ties"`
}

// Report is the aggregated tournament: the leaderboard (ranked by mean
// WS, controller name as the deterministic tiebreak) and the pairwise
// win matrix on per-cell WS.
type Report struct {
	ScaleName  string `json:"scale"`
	CoreCounts []int  `json:"core_counts"`
	Seeds      int    `json:"seeds"`
	Rows       []Row  `json:"leaderboard"`
	// Wins[i][j] counts arenas where Rows[i].Controller strictly beat
	// Rows[j].Controller on WS; diagonal is 0.
	Wins [][]int `json:"wins"`
}

// Aggregate folds per-cell results into the tournament report. results
// is keyed by cell index into metas; every index must be present
// (partial tournaments are an error at the driver layer, not here — a
// missing index simply contributes nothing).
func (s *Spec) Aggregate(metas []CellMeta, results map[int]CellResult) *Report {
	type acc struct {
		ws, hs, gm, unfair float64
		n                  int
	}
	byCtrl := map[string]*acc{}
	for _, key := range s.Controllers {
		byCtrl[key] = &acc{}
	}
	// Arena → controller → WS, for the pairwise matrix.
	arenas := map[string]map[string]float64{}
	for idx, res := range results {
		m := metas[idx]
		a := byCtrl[m.Controller]
		a.ws += res.WS
		a.hs += res.HS
		a.gm += res.GM
		a.unfair += res.Unfairness
		a.n++
		g := m.Group()
		if arenas[g] == nil {
			arenas[g] = map[string]float64{}
		}
		arenas[g][m.Controller] = res.WS
	}

	rows := make([]Row, 0, len(s.Controllers))
	for _, key := range s.Controllers {
		a := byCtrl[key]
		r := Row{Controller: key, Cells: a.n}
		if a.n > 0 {
			n := float64(a.n)
			r.MeanWS, r.MeanHS, r.MeanGM, r.MeanUnfair = a.ws/n, a.hs/n, a.gm/n, a.unfair/n
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].MeanWS != rows[j].MeanWS {
			return rows[i].MeanWS > rows[j].MeanWS
		}
		return rows[i].Controller < rows[j].Controller
	})

	rank := map[string]int{}
	for i := range rows {
		rows[i].Rank = i + 1
		rank[rows[i].Controller] = i
	}

	wins := make([][]int, len(rows))
	for i := range wins {
		wins[i] = make([]int, len(rows))
	}
	// Deterministic arena iteration only matters for floating-point-free
	// integer counts, but keep it ordered anyway for reproducible debug
	// output.
	groups := make([]string, 0, len(arenas))
	for g := range arenas {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		ws := arenas[g]
		for _, a := range s.Controllers {
			for _, b := range s.Controllers {
				if a == b {
					continue
				}
				wa, oka := ws[a]
				wb, okb := ws[b]
				if !oka || !okb {
					continue
				}
				switch {
				case wa > wb:
					wins[rank[a]][rank[b]]++
				case wa == wb:
					rows[rank[a]].Ties++
				}
			}
		}
	}
	for i := range rows {
		for j := range rows {
			rows[i].Wins += wins[i][j]
			rows[i].Losses += wins[j][i]
		}
	}

	return &Report{
		ScaleName:  s.ScaleName,
		CoreCounts: s.CoreCounts,
		Seeds:      s.Seeds,
		Rows:       rows,
		Wins:       wins,
	}
}

// String renders the leaderboard and win matrix as text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Controller tournament (scale %s, cores %v, %d seed replica(s))\n",
		r.ScaleName, r.CoreCounts, r.Seeds)
	fmt.Fprintf(&b, "%-4s %-16s %-6s %8s %8s %8s %8s %10s\n",
		"rank", "controller", "cells", "WS", "HS", "GM", "unfair", "W-L-T")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4d %-16s %-6d %8.3f %8.3f %8.3f %8.3f %4d-%d-%d\n",
			row.Rank, row.Controller, row.Cells,
			row.MeanWS, row.MeanHS, row.MeanGM, row.MeanUnfair,
			row.Wins, row.Losses, row.Ties)
	}
	b.WriteString("\nPairwise wins (row beats column on per-arena WS):\n")
	fmt.Fprintf(&b, "%-16s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %7.7s", row.Controller)
	}
	b.WriteByte('\n')
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s", row.Controller)
		for j := range r.Rows {
			if i == j {
				fmt.Fprintf(&b, " %7s", "-")
			} else {
				fmt.Fprintf(&b, " %7d", r.Wins[i][j])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SVG renders the leaderboard as grouped WS/HS bars.
func (r *Report) SVG() string {
	groups := make([]plot.BarGroup, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = plot.BarGroup{
			Label:  row.Controller,
			Values: []float64{row.MeanWS, row.MeanHS},
		}
	}
	title := fmt.Sprintf("Controller tournament (scale %s)", r.ScaleName)
	return plot.Bar(title, "mean speedup", []string{"WS", "HS"}, groups)
}

// Run executes the tournament locally through an experiment.Runner,
// grouping cells so each (cores, seed, controller) batch shares the
// runner's baseline warming and worker pool. The aggregation consumes
// exactly the per-cell metrics the sweep path streams, so local and
// remote tournaments over the same cells produce the same report.
func Run(ctx context.Context, r *experiment.Runner, spec Spec) (*Report, error) {
	_, metas, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	if spec.Target > 0 && spec.Target != r.Scale.Target {
		// A Target override changes the budget of every cell, which is
		// part of the runner's baseline cache keys — stand up a fresh
		// runner at the overridden scale rather than mutating the
		// caller's (Runner holds a mutex; it must not be copied).
		scale := r.Scale
		scale.Target = spec.Target
		nr := experiment.NewRunner(scale)
		nr.Workers = r.Workers
		nr.BaseCtx = r.BaseCtx
		r = nr
	}
	results := make(map[int]CellResult, len(metas))
	idx := 0
	for _, cores := range spec.CoreCounts {
		for seedIdx := 0; seedIdx < spec.Seeds; seedIdx++ {
			mixes := workload.Mixes(cores, spec.Scale.MixCount, spec.Scale.Seed+uint64(seedIdx))
			for _, key := range spec.Controllers {
				cfg := sim.DefaultConfig(cores)
				opt := experiment.Options{Step: spec.Step}
				rs, err := r.RunMixesContext(ctx, mixes, cfg, key, opt)
				if err != nil {
					return nil, fmt.Errorf("tournament: %dc seed %d %s: %w", cores, seedIdx, key, err)
				}
				for _, res := range rs {
					results[idx] = CellResult{
						WS: res.WS, HS: res.HS, GM: res.GM, Unfairness: res.Unfairness,
					}
					idx++
				}
			}
		}
	}
	return spec.Aggregate(metas, results), nil
}

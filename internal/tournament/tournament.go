// Package tournament races every prefetch-coordination family in the
// repo head-to-head over the workload catalog and ranks them. A
// tournament is an experiment.Figure like the paper's: (controllers ×
// core counts × seed replicas × sampled mixes) expands to sweep cells,
// any experiment.Executor turns them into results — so running one
// against a warm mamaserved answers entirely from the content-addressed
// result cache — and Aggregate reduces those to WS/HS/GM/fairness
// leaderboards plus a per-pair win/loss matrix on per-cell weighted
// speedup, rendered via internal/plot: the ROADMAP's "Fig-9/10-style
// wins against new baselines" table.
package tournament

import (
	"fmt"
	"sort"
	"strings"

	"micromama/internal/experiment"
	"micromama/internal/plot"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

// Spec describes a tournament. The zero value is unusable; fill every
// field.
type Spec struct {
	// Controllers are the experiment controller keys racing each other.
	Controllers []string
	// CoreCounts are the multicore sizes raced (each samples its own
	// mixes from the catalog).
	CoreCounts []int
	// Seeds is the number of seed replicas: replica i samples mixes
	// with the scale's seed + i, so Seeds>1 widens the sample without
	// re-running identical cells.
	Seeds int
}

// Validate checks the spec against the controller registry, mirroring
// the server-side 400: an unknown controller fails fast with the known
// set instead of failing mid-sweep.
func (s Spec) Validate() error {
	if len(s.Controllers) == 0 {
		return fmt.Errorf("tournament: no controllers")
	}
	for _, c := range s.Controllers {
		if err := experiment.CheckController(c); err != nil {
			return fmt.Errorf("tournament: %w", err)
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

// Figure is the tournament as cells plus a reducer, for any Executor.
func (s Spec) Figure() experiment.Figure {
	return experiment.Figure{
		ID:    "tournament",
		Cells: s.Cells,
		Reduce: func(cells []sweep.Cell, results []experiment.CellResult) fmt.Stringer {
			return s.Aggregate(cells, results)
		},
	}
}

// Cells expands the tournament deterministically into sweep cells at a
// named scale, in a fixed nesting order (cores → seed replica →
// controller → mix). target and step, when non-zero, override the
// scale's per-cell budget. The same spec always yields the same cells
// in the same order, which is what makes a warm resubmission a pure
// cache read.
func (s Spec) Cells(scale string, target, step uint64) ([]sweep.Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sc, err := experiment.ScaleByName(scale)
	if err != nil {
		return nil, fmt.Errorf("tournament: %w", err)
	}
	var cells []sweep.Cell
	for _, cores := range s.CoreCounts {
		for seedIdx := 0; seedIdx < s.Seeds; seedIdx++ {
			mixes := workload.Mixes(cores, sc.MixCount, sc.Seed+uint64(seedIdx))
			for _, key := range s.Controllers {
				for _, mix := range mixes {
					cells = append(cells, experiment.CellFor(mix, key, scale, target, step))
				}
			}
		}
	}
	return cells, nil
}

// arena identifies the race a cell ran in: everything but the
// controller. Cells in the same arena raced the same workload under
// the same conditions and are comparable pairwise.
func arena(c sweep.Cell) string {
	return fmt.Sprintf("%dc/%d/%s", len(c.Mix), c.Seed, strings.Join(c.Mix, "+"))
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

// Aggregate folds per-cell results, index-aligned with cells, into the
// tournament report.
func (s Spec) Aggregate(cells []sweep.Cell, results []experiment.CellResult) *Report {
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
	scale := ""
	for i, c := range cells {
		res := results[i]
		a := byCtrl[c.Controller]
		a.ws += res.WS
		a.hs += res.HS
		a.gm += res.GM
		a.unfair += res.Unfairness
		a.n++
		g := arena(c)
		if arenas[g] == nil {
			arenas[g] = map[string]float64{}
		}
		arenas[g][c.Controller] = res.WS
		scale = c.Scale
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
		ScaleName:  scale,
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

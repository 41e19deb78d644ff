package experiment

import (
	"fmt"

	"micromama/internal/plot"
	"micromama/internal/prefetch"
)

// SVG renderings of the figure reports, used by cmd/mamabench -svg.

// SVG renders the throughput comparison (Figure 9) as grouped bars.
func (t *ThroughputReport) SVG() string {
	var groups []plot.BarGroup
	for _, n := range t.CoreCounts {
		g := plot.BarGroup{Label: fmt.Sprintf("%d cores", n)}
		for _, c := range t.Controllers {
			g.Values = append(g.Values, t.NormWS[n][c]*100)
		}
		groups = append(groups, g)
	}
	return plot.Bar("Figure 9: Weighted Speedup vs Bandit", "WS vs bandit (%)", t.Controllers, groups)
}

// SVG renders per-workload ratios (Figures 10/16) as a sorted curve.
func (p *PerWorkloadReport) SVG() string {
	sorted := append([]float64(nil), p.Ratios...)
	for i := 1; i < len(sorted); i++ { // insertion sort, tiny N
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	s := plot.Series{Name: p.Controller}
	for i, v := range sorted {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, v)
	}
	title := fmt.Sprintf("%s of %s vs Bandit (%d cores)", p.MetricName, p.Controller, p.Cores)
	return plot.Line(title, "workload (sorted)", p.MetricName+" / bandit", []plot.Series{s})
}

// SVG renders prefetch-traffic scaling (Figure 3).
func (p *PrefetchScalingReport) SVG() string {
	var series []plot.Series
	for _, c := range p.Controllers {
		s := plot.Series{Name: c}
		for i, n := range p.CoreCounts {
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, p.Normalized[c][i])
		}
		series = append(series, s)
	}
	return plot.Line("Figure 3: prefetches issued vs core count",
		"active cores", "normalized prefetches", series)
}

// SVG renders the bandwidth sweep (Figure 11).
func (p *BandwidthReport) SVG() string {
	bySeries := map[string]*plot.Series{}
	var order []string
	for _, pt := range p.Points {
		key := fmt.Sprintf("%s %dC", pt.Controller, pt.Cores)
		s, ok := bySeries[key]
		if !ok {
			s = &plot.Series{Name: key}
			bySeries[key] = s
			order = append(order, key)
		}
		s.X = append(s.X, pt.PeakGBps)
		s.Y = append(s.Y, pt.NormWS*100)
	}
	var series []plot.Series
	for _, k := range order {
		series = append(series, *bySeries[k])
	}
	return plot.Line("Figure 11: WS vs Bandit across memory bandwidth",
		"memory bandwidth (GB/s)", "WS vs bandit (%)", series)
}

// SVG renders the fairness comparison (Figure 13a: unfairness).
func (f *FairnessReport) SVG() string {
	var groups []plot.BarGroup
	for _, n := range f.CoreCounts {
		g := plot.BarGroup{Label: fmt.Sprintf("%d cores", n)}
		for _, c := range f.Controllers {
			g.Values = append(g.Values, f.Unfairness[n][c])
		}
		groups = append(groups, g)
	}
	return plot.Bar("Figure 13a: Unfairness (lower is fairer)", "unfairness", f.Controllers, groups)
}

// SVG renders the throughput/fairness frontier (Figure 14).
func (f *FrontierReport) SVG() string {
	var series []plot.Series
	for _, p := range f.Points {
		series = append(series, plot.Series{Name: p.Controller, X: []float64{p.WS}, Y: []float64{p.Fairness}})
	}
	return plot.Scatter(fmt.Sprintf("Figure 14: throughput vs fairness (%d cores)", f.Cores),
		"Weighted Speedup", "1 - Unfairness", series)
}

// SVG renders the ablation breakdown (Figure 15a).
func (a *AblationReport) SVG() string {
	var groups []plot.BarGroup
	label := map[string]string{
		"mumama-grw-only": "GRW", "mumama-jav-only": "JAV",
		"mumama": "µmama", "mumama-profiled": "profiled",
	}
	for _, key := range a.Order {
		groups = append(groups, plot.BarGroup{Label: label[key], Values: []float64{a.NormWS[key] * 100}})
	}
	return plot.Bar(fmt.Sprintf("Figure 15a: component breakdown (%d cores)", a.Cores),
		"WS vs bandit (%)", []string{"WS"}, groups)
}

// SVG renders the JAV-size sweep (Figure 15b).
func (j *JAVSweepReport) SVG() string {
	s := plot.Series{Name: "µmama"}
	for i, sz := range j.Sizes {
		s.X = append(s.X, float64(sz))
		s.Y = append(s.Y, j.NormWS[i]*100)
	}
	return plot.Line(fmt.Sprintf("Figure 15b: WS vs JAV size (%d cores)", j.Cores),
		"JAV entries", "WS vs bandit (%)", []plot.Series{s})
}

// SVG renders the tournament leaderboard as grouped WS/HS bars.
func (r *TournamentReport) SVG() string {
	groups := make([]plot.BarGroup, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = plot.BarGroup{Label: row.Controller, Values: []float64{row.MeanWS, row.MeanHS}}
	}
	return plot.Bar(fmt.Sprintf("Controller tournament (%d cores)", r.Cores), "mean speedup", []string{"WS", "HS"}, groups)
}

// SVG renders a policy timeline (Figures 2/4/12); dictated samples are
// hollow, matching the paper's gray shading semantics.
func (t *TimelineReport) SVG() string {
	perCore := map[int]*plot.StepSeries{}
	var order []int
	for _, s := range t.Samples {
		ss, ok := perCore[s.Core]
		if !ok {
			ss = &plot.StepSeries{Name: fmt.Sprintf("core %d (%s)", s.Core, t.Mix.Specs[s.Core].Name)}
			perCore[s.Core] = ss
			order = append(order, s.Core)
		}
		ss.Samples = append(ss.Samples, plot.StepSample{
			X:      float64(s.Cycle),
			Y:      float64(s.Arm),
			Hollow: s.Joint,
		})
	}
	var series []plot.StepSeries
	for _, c := range order {
		series = append(series, *perCore[c])
	}
	return plot.StepChart("Prefetch policies over time ("+t.Controller+")",
		"cycles", "policy number", series, float64(prefetch.NumArms-1))
}

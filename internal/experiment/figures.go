package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"micromama/internal/core"
	"micromama/internal/sim"
	"micromama/internal/workload"
)

// ThroughputReport reproduces Figure 9 (average WS of ip_stride, bingo,
// pythia, and µMama normalized to Bandit at 1/4/8 cores) plus the §6.1
// side statistics (prefetch-traffic reduction and per-core
// aggressiveness shifts between Bandit and µMama).
type ThroughputReport struct {
	CoreCounts  []int
	Controllers []string
	// NormWS[cores][controller] = mean WS / mean WS(bandit) - 1.
	NormWS map[int]map[string]float64
	// PrefetchReduction[cores] is µMama's L2-prefetch traffic change vs
	// Bandit (§6.1 reports −23.9% at 4 cores, −15.5% at 8).
	PrefetchReduction map[int]float64
	// MoreAggressive[cores] is the mean number of cores per mix that
	// issue more L2 prefetches under µMama than under Bandit (§6.1:
	// ~1.5 at 4 cores, ~3.5 at 8).
	MoreAggressive map[int]float64
}

// fig9 is the throughput comparison at 1/4/8 cores.
func fig9() Figure {
	coreCounts := []int{1, 4, 8}
	controllers := []string{"ip_stride", "bingo", "pythia", "mumama"}
	return armFigure("fig9", defaultArms(coreCounts, append([]string{"bandit"}, controllers...)...),
		func(byArm map[arm][]CellResult) fmt.Stringer {
			rep := &ThroughputReport{
				CoreCounts:        coreCounts,
				Controllers:       controllers,
				NormWS:            map[int]map[string]float64{},
				PrefetchReduction: map[int]float64{},
				MoreAggressive:    map[int]float64{},
			}
			for _, n := range coreCounts {
				bandit := byArm[arm{cores: n, controller: "bandit"}]
				banditWS := mean(bandit, cellWS)
				rep.NormWS[n] = map[string]float64{"bandit": 0}
				for _, key := range controllers {
					rep.NormWS[n][key] = ratioPct(mean(byArm[arm{cores: n, controller: key}], cellWS), banditWS)
				}
				mama := byArm[arm{cores: n, controller: "mumama"}]
				// Every result of an Executor carries Sim (RunCells) or none
				// does (the wire); without it String notes the missing lines.
				if len(mama) == 0 || mama[0].Sim == nil || bandit[0].Sim == nil {
					continue
				}
				var bPF, mPF uint64
				var moreAgg float64
				for i := range mama {
					bPF += bandit[i].Sim.TotalL2Prefetches()
					mPF += mama[i].Sim.TotalL2Prefetches()
					for c := range mama[i].Sim.Cores {
						if mama[i].Sim.Cores[c].L2PrefIssued > bandit[i].Sim.Cores[c].L2PrefIssued {
							moreAgg++
						}
					}
				}
				rep.PrefetchReduction[n] = ratioPct(float64(mPF), float64(bPF))
				rep.MoreAggressive[n] = moreAgg / float64(len(mama))
			}
			return rep
		})
}

// String renders the report.
func (t *ThroughputReport) String() string {
	headers := append([]string{"cores"}, t.Controllers...)
	var rows [][]string
	for _, n := range t.CoreCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, c := range t.Controllers {
			row = append(row, pct(t.NormWS[n][c]))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("Figure 9: average Weighted Speedup normalized to Bandit\n")
	b.WriteString(table(headers, rows))
	omitted := false
	for _, n := range t.CoreCounts {
		if n == 1 {
			continue
		}
		if _, ok := t.PrefetchReduction[n]; !ok {
			omitted = true
			continue
		}
		fmt.Fprintf(&b, "§6.1 (%d cores): µMama L2-prefetch traffic vs Bandit: %s; cores more aggressive under µMama: %.1f\n",
			n, pct(t.PrefetchReduction[n]), t.MoreAggressive[n])
	}
	if omitted {
		b.WriteString("§6.1 traffic lines omitted: a job result that crossed the wire carries no per-core L2-prefetch counts\n")
	}
	return b.String()
}

// PerWorkloadReport reproduces Figures 10a–d and 16: per-mix speedups
// of a µMama variant normalized to Bandit.
type PerWorkloadReport struct {
	Cores      int
	Controller string
	MetricName string // "WS" or "HS"
	Ratios     []float64
	MixNames   []string
	Average    float64
}

// perWorkload is the per-mix speedup of one µMama variant normalized
// to Bandit. metricHS selects harmonic speedup (Figures 10c/d) instead
// of weighted (10a/b, 16).
func perWorkload(id string, cores int, key string, metricHS bool) Figure {
	return armFigure(id, defaultArms([]int{cores}, "bandit", key),
		func(byArm map[arm][]CellResult) fmt.Stringer {
			bandit := byArm[arm{cores: cores, controller: "bandit"}]
			rs := byArm[arm{cores: cores, controller: key}]
			rep := &PerWorkloadReport{Cores: cores, Controller: key, MetricName: "WS"}
			metric := cellWS
			if metricHS {
				rep.MetricName, metric = "HS", cellHS
			}
			var sum float64
			for i := range rs {
				ratio := 0.0
				if metric(bandit[i]) > 0 {
					ratio = metric(rs[i]) / metric(bandit[i])
				}
				rep.Ratios = append(rep.Ratios, ratio)
				rep.MixNames = append(rep.MixNames, rs[i].Mix)
				sum += ratio
			}
			rep.Average = sum/float64(len(rs)) - 1
			return rep
		})
}

// String renders the report.
func (p *PerWorkloadReport) String() string {
	var rows [][]string
	idx := make([]int, len(p.Ratios))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.Ratios[idx[a]] < p.Ratios[idx[b]] })
	for _, i := range idx {
		rows = append(rows, []string{fmt.Sprintf("%d", i), num(p.Ratios[i]), p.MixNames[i]})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Per-workload %s of %s normalized to Bandit (%d cores), sorted; average=%s\n",
		p.MetricName, p.Controller, p.Cores, pct(p.Average))
	b.WriteString(table([]string{"rank", p.MetricName + "/bandit", "mix"}, rows))
	return b.String()
}

// PrefetchScalingReport reproduces Figure 3: prefetches issued vs core
// count, normalized to each configuration's single-core count.
//
// Note: this repo's memory controller rejects prefetches under
// saturation (DESIGN.md's backpressure substitution), so *issued*
// counts understate Bandit's aggression in constrained systems. The
// policy-level signal the paper's figure demonstrates — Bandit choosing
// more aggressive arms as core count grows — is therefore also reported
// as BanditMeanDegree.
type PrefetchScalingReport struct {
	CoreCounts  []int
	Controllers []string
	// Normalized[controller][coreIdx] = prefetches / prefetches(1 core).
	Normalized map[string][]float64
	// BanditMeanDegree[coreIdx] is the mean Table 2 total degree of the
	// arms Bandit agents chose.
	BanditMeanDegree []float64
}

// Fig3PrefetchScaling runs the prefetch-traffic scaling study.
func (r *Runner) Fig3PrefetchScaling(ctx context.Context, coreCounts []int) (*PrefetchScalingReport, error) {
	rep := &PrefetchScalingReport{
		CoreCounts:  coreCounts,
		Controllers: []string{"bandit", "no", "pythia", "bingo"},
		Normalized:  map[string][]float64{},
	}
	totals := map[string][]float64{}
	for _, n := range coreCounts {
		cfg := sim.DefaultConfig(n)
		mixes := r.Scale.MixesFor(n)
		for _, key := range rep.Controllers {
			plans := make([]Plan, len(mixes))
			for i, mix := range mixes {
				plans[i] = newPlan(mix, cfg, key, r.Scale)
			}
			// Each run keeps its controller: a Bandit's chosen arms are the
			// policy-level aggressiveness reported alongside the counts.
			pf, degree := make([]float64, len(mixes)), make([]float64, len(mixes))
			err := r.forEachPlan(ctx, plans, func(i int) error {
				ctrl, err := MakeController(key, Options{Step: r.Scale.Step})
				if err != nil {
					return err
				}
				res, err := r.simulate(ctx, plans[i], ctrl)
				if err != nil {
					return err
				}
				pf[i] = float64(res.Result.TotalPrefetches())
				if b, ok := ctrl.(*core.Bandit); ok {
					degree[i] = b.MeanChosenDegree()
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			self := func(x float64) float64 { return x }
			totals[key] = append(totals[key], mean(pf, self))
			if key == "bandit" {
				rep.BanditMeanDegree = append(rep.BanditMeanDegree, mean(degree, self))
			}
		}
	}
	for _, key := range rep.Controllers {
		base := totals[key][0]
		norm := make([]float64, len(coreCounts))
		for i, v := range totals[key] {
			if base > 0 {
				norm[i] = v / base
			}
		}
		rep.Normalized[key] = norm
	}
	return rep, nil
}

// String renders the report.
func (p *PrefetchScalingReport) String() string {
	headers := []string{"config"}
	for _, n := range p.CoreCounts {
		headers = append(headers, fmt.Sprintf("%dC", n))
	}
	var rows [][]string
	for _, c := range p.Controllers {
		row := []string{c}
		for _, v := range p.Normalized[c] {
			row = append(row, fmt.Sprintf("%.2fx", v))
		}
		rows = append(rows, row)
	}
	out := "Figure 3: prefetches issued, normalized to 1 core\n" + table(headers, rows)
	if len(p.BanditMeanDegree) > 0 {
		out += "bandit mean chosen arm degree (policy-level aggression):"
		for i, n := range p.CoreCounts {
			out += fmt.Sprintf(" %dC=%.1f", n, p.BanditMeanDegree[i])
		}
		out += "\n"
	}
	return out
}

// BandwidthPoint is one point of Figure 11.
type BandwidthPoint struct {
	DRAMName   string
	PeakGBps   float64
	Cores      int
	Controller string
	// NormWS is mean WS normalized to Bandit on the same system.
	NormWS float64
}

// BandwidthReport reproduces Figure 11.
type BandwidthReport struct{ Points []BandwidthPoint }

// fig11 sweeps memory configurations (DDR4-1866/2400 × 1/2 channels)
// for µMama and Pythia at 4 and 8 cores.
func fig11() Figure {
	systems := [][2]int{{1866, 1}, {2400, 1}, {1866, 2}, {2400, 2}} // MT/s, channels
	coreCounts := []int{4, 8}
	var all []arm
	for _, sys := range systems {
		for _, n := range coreCounts {
			for _, key := range []string{"bandit", "mumama", "pythia"} {
				all = append(all, arm{n, key, sys[0], sys[1]})
			}
		}
	}
	return armFigure("fig11", all, func(byArm map[arm][]CellResult) fmt.Stringer {
		rep := &BandwidthReport{}
		for _, sys := range systems {
			d := SystemConfig(1, sys[0], sys[1]).DRAM
			for _, n := range coreCounts {
				bws := mean(byArm[arm{n, "bandit", sys[0], sys[1]}], cellWS)
				for _, key := range []string{"mumama", "pythia"} {
					rep.Points = append(rep.Points, BandwidthPoint{
						DRAMName:   d.Name,
						PeakGBps:   d.PeakGBps(),
						Cores:      n,
						Controller: key,
						NormWS:     ratioPct(mean(byArm[arm{n, key, sys[0], sys[1]}], cellWS), bws),
					})
				}
			}
		}
		sort.Slice(rep.Points, func(i, j int) bool {
			a, b := rep.Points[i], rep.Points[j]
			if a.Controller != b.Controller {
				return a.Controller < b.Controller
			}
			if a.Cores != b.Cores {
				return a.Cores < b.Cores
			}
			return a.PeakGBps < b.PeakGBps
		})
		return rep
	})
}

// String renders the report.
func (p *BandwidthReport) String() string {
	var rows [][]string
	for _, pt := range p.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%s %dC", pt.Controller, pt.Cores),
			pt.DRAMName, fmt.Sprintf("%.1f", pt.PeakGBps), pct(pt.NormWS),
		})
	}
	return "Figure 11: Weighted Speedup vs Bandit across memory bandwidths\n" +
		table([]string{"series", "dram", "GB/s", "WS vs bandit"}, rows)
}

// FairnessReport reproduces Figures 13a/13b.
type FairnessReport struct {
	CoreCounts  []int
	Controllers []string
	Unfairness  map[int]map[string]float64 // cores -> controller -> mean unfairness
	NormHS      map[int]map[string]float64 // cores -> controller -> mean HS vs bandit
}

// fig13 is the fairness comparison at 4 and 8 cores.
func fig13() Figure {
	coreCounts := []int{4, 8}
	controllers := []string{"no", "bandit", "bingo", "pythia", "mumama", "mumama-fair"}
	return armFigure("fig13", defaultArms(coreCounts, controllers...),
		func(byArm map[arm][]CellResult) fmt.Stringer {
			rep := &FairnessReport{
				CoreCounts:  coreCounts,
				Controllers: controllers,
				Unfairness:  map[int]map[string]float64{},
				NormHS:      map[int]map[string]float64{},
			}
			for _, n := range coreCounts {
				rep.Unfairness[n] = map[string]float64{}
				rep.NormHS[n] = map[string]float64{}
				banditHS := mean(byArm[arm{cores: n, controller: "bandit"}], cellHS)
				for _, key := range controllers {
					rs := byArm[arm{cores: n, controller: key}]
					rep.Unfairness[n][key] = mean(rs, cellUnfairness)
					rep.NormHS[n][key] = ratioPct(mean(rs, cellHS), banditHS)
				}
			}
			return rep
		})
}

// String renders the report.
func (f *FairnessReport) String() string {
	var b strings.Builder
	b.WriteString("Figure 13a: Unfairness (lower is fairer)\n")
	headers := append([]string{"cores"}, f.Controllers...)
	var rows [][]string
	for _, n := range f.CoreCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, c := range f.Controllers {
			row = append(row, num(f.Unfairness[n][c]))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(headers, rows))
	b.WriteString("Figure 13b: Harmonic Speedup normalized to Bandit\n")
	rows = rows[:0]
	for _, n := range f.CoreCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, c := range f.Controllers {
			row = append(row, pct(f.NormHS[n][c]))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(headers, rows))
	return b.String()
}

// FrontierPoint is one point of Figure 14.
type FrontierPoint struct {
	Controller string
	WS         float64 // absolute mean weighted speedup
	Fairness   float64 // 1 - mean unfairness (higher is fairer)
}

// FrontierReport reproduces Figure 14: the throughput/fairness tradeoff
// across µMama reward blends and the baselines.
type FrontierReport struct {
	Cores  int
	Points []FrontierPoint
}

// fig14 is the tradeoff study at 4 cores.
func fig14() Figure {
	const cores = 4
	keys := []string{"mumama", "mumama-25", "mumama-50", "mumama-75", "mumama-fair", "mumama-gm", "pythia", "bingo", "bandit"}
	return armFigure("fig14", defaultArms([]int{cores}, keys...),
		func(byArm map[arm][]CellResult) fmt.Stringer {
			rep := &FrontierReport{Cores: cores}
			for _, key := range keys {
				rs := byArm[arm{cores: cores, controller: key}]
				rep.Points = append(rep.Points, FrontierPoint{
					Controller: key,
					WS:         mean(rs, cellWS),
					Fairness:   1 - mean(rs, cellUnfairness),
				})
			}
			return rep
		})
}

// String renders the report.
func (f *FrontierReport) String() string {
	var rows [][]string
	for _, p := range f.Points {
		rows = append(rows, []string{p.Controller, num(p.WS), num(p.Fairness)})
	}
	return fmt.Sprintf("Figure 14: throughput/fairness tradeoff (%d cores)\n", f.Cores) +
		table([]string{"config", "WS", "1-Unfairness"}, rows)
}

// AblationReport reproduces Figure 15a: WS contribution of µMama's
// components at 8 cores, normalized to Bandit.
type AblationReport struct {
	Cores  int
	NormWS map[string]float64
	Order  []string
}

// fig15a is the component breakdown at 8 cores.
func fig15a() Figure {
	const cores = 8
	order := []string{"mumama-grw-only", "mumama-jav-only", "mumama", "mumama-profiled"}
	return armFigure("fig15a", defaultArms([]int{cores}, append([]string{"bandit"}, order...)...),
		func(byArm map[arm][]CellResult) fmt.Stringer {
			bws := mean(byArm[arm{cores: cores, controller: "bandit"}], cellWS)
			rep := &AblationReport{Cores: cores, NormWS: map[string]float64{}, Order: order}
			for _, key := range order {
				rep.NormWS[key] = ratioPct(mean(byArm[arm{cores: cores, controller: key}], cellWS), bws)
			}
			return rep
		})
}

// String renders the report.
func (a *AblationReport) String() string {
	var rows [][]string
	label := map[string]string{
		"mumama-grw-only": "GRW", "mumama-jav-only": "JAV",
		"mumama": "µmama", "mumama-profiled": "µmama-profiled",
	}
	for _, key := range a.Order {
		rows = append(rows, []string{label[key], pct(a.NormWS[key])})
	}
	return fmt.Sprintf("Figure 15a: component breakdown (%d cores), WS vs Bandit\n", a.Cores) +
		table([]string{"config", "WS vs bandit"}, rows)
}

// JAVSweepReport reproduces Figure 15b: µMama's speedup over Bandit vs
// JAV cache size.
type JAVSweepReport struct {
	Cores  int
	Sizes  []int
	NormWS []float64
}

// fig15b is the JAV-size sensitivity study at 4 cores; the paper's
// 2-entry point is plain µMama.
func fig15b() Figure {
	const cores = 4
	sizes := []int{1, 2, 4, 8, 16}
	keys := []string{"mumama@jav=1", "mumama", "mumama@jav=4", "mumama@jav=8", "mumama@jav=16"}
	return armFigure("fig15b", defaultArms([]int{cores}, append([]string{"bandit"}, keys...)...),
		func(byArm map[arm][]CellResult) fmt.Stringer {
			return &JAVSweepReport{Cores: cores, Sizes: sizes, NormWS: normWS(byArm, cores, keys)}
		})
}

// normWS is each key's mean WS over Bandit's on the default system at
// one core count.
func normWS(byArm map[arm][]CellResult, cores int, keys []string) []float64 {
	bws := mean(byArm[arm{cores: cores, controller: "bandit"}], cellWS)
	out := make([]float64, len(keys))
	for i, key := range keys {
		out[i] = ratioPct(mean(byArm[arm{cores: cores, controller: key}], cellWS), bws)
	}
	return out
}

// String renders the report.
func (j *JAVSweepReport) String() string {
	var rows [][]string
	for i, sz := range j.Sizes {
		rows = append(rows, []string{fmt.Sprintf("%d", sz), pct(j.NormWS[i])})
	}
	return fmt.Sprintf("Figure 15b: WS vs Bandit by JAV cache size (%d cores)\n", j.Cores) +
		table([]string{"JAV entries", "WS vs bandit"}, rows)
}

// SensitivityReport is one of DESIGN.md's ablations: µMama's WS over
// Bandit's at 4 cores as one Table 1 parameter moves off its default.
type SensitivityReport struct {
	Param  string
	Cores  int
	Keys   []string
	NormWS []float64
}

// sensitivity is the ablation of one µMama parameter over keys, each
// "mumama@param=value" or, for the default point, plain "mumama" —
// fig9's cell.
func sensitivity(id, param string, keys ...string) Figure {
	const cores = 4
	return armFigure(id, defaultArms([]int{cores}, append([]string{"bandit"}, keys...)...),
		func(byArm map[arm][]CellResult) fmt.Stringer {
			return &SensitivityReport{Param: param, Cores: cores, Keys: keys, NormWS: normWS(byArm, cores, keys)}
		})
}

// String renders the report.
func (s *SensitivityReport) String() string {
	var rows [][]string
	for i, key := range s.Keys {
		rows = append(rows, []string{key, pct(s.NormWS[i])})
	}
	return fmt.Sprintf("Ablation: µMama WS vs Bandit by %s (%d cores)\n", s.Param, s.Cores) +
		table([]string{"controller", "WS vs bandit"}, rows)
}

// TimelineReport reproduces Figures 2, 4, and 12: the policy choices of
// the four agents on the motivating workload mix over time.
type TimelineReport struct {
	Controller string
	Mix        workload.Mix
	Samples    []core.PolicySample
	// JointFraction is the share of timesteps dictated from the JAV
	// (µMama only; §6.5 reports 64–67%).
	JointFraction float64
}

// MotivatingMix returns the 4-core mix analogous to the paper's Figure
// 2 workload (one core preferring prefetching off, two strided codes,
// one aggressive streamer).
func MotivatingMix() workload.Mix {
	names := []string{"spec06.mcf", "spec17.cactuBSSN", "spec06.cactusADM", "spec06.libquantum"}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		specs[i] = sp
	}
	return workload.Mix{ID: 0, Specs: specs}
}

// FigTimeline runs the motivating mix under the given controller with
// policy-timeline recording ("bandit" → Figure 2, "bandit-shared" →
// Figure 4, "mumama" → Figure 12).
func (r *Runner) FigTimeline(ctx context.Context, key string) (*TimelineReport, error) {
	mix := MotivatingMix()
	cfg := sim.DefaultConfig(len(mix.Specs))
	ctrl, err := MakeController(key, Options{Timeline: true, Step: r.Scale.Step})
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(cfg, mix.Traces(), ctrl)
	if err != nil {
		return nil, err
	}
	_, err = sys.RunContext(ctx, r.Scale.Target, r.Scale.MaxCycles())
	sys.Close()
	if err != nil {
		return nil, err
	}
	rep := &TimelineReport{Controller: key, Mix: mix}
	if tr, ok := ctrl.(core.TimelineRecorder); ok {
		rep.Samples = tr.Timeline()
	}
	if mm, ok := ctrl.(*core.MuMama); ok {
		rep.JointFraction = mm.JointFraction()
	}
	return rep, nil
}

// String renders a compact view: per core, the most-used arms and the
// tail of the policy sequence.
func (t *TimelineReport) String() string {
	perCore := map[int][]core.PolicySample{}
	for _, s := range t.Samples {
		perCore[s.Core] = append(perCore[s.Core], s)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Policy timeline (%s) on %s: %d policy changes\n", t.Controller, t.Mix.Name(), len(t.Samples))
	if t.JointFraction > 0 {
		fmt.Fprintf(&b, "JAV-dictated timestep fraction: %.0f%%\n", t.JointFraction*100)
	}
	cores := make([]int, 0, len(perCore))
	for c := range perCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		ss := perCore[c]
		counts := map[int]int{}
		for _, s := range ss {
			counts[s.Arm]++
		}
		best, bestN := 0, 0
		for arm, n := range counts {
			if n > bestN {
				best, bestN = arm, n
			}
		}
		tail := ss
		if len(tail) > 12 {
			tail = tail[len(tail)-12:]
		}
		arms := make([]string, len(tail))
		for i, s := range tail {
			j := ""
			if s.Joint {
				j = "*"
			}
			arms[i] = fmt.Sprintf("%d%s", s.Arm, j)
		}
		fmt.Fprintf(&b, "core %d (%s): mode arm %d; last policies: %s\n",
			c, t.Mix.Specs[c].Name, best, strings.Join(arms, " "))
	}
	b.WriteString("(* = dictated from the JAV cache)\n")
	return b.String()
}

package experiment

import (
	"fmt"
	"sort"
	"strings"

	"micromama/internal/core"
	"micromama/internal/sim"
	"micromama/internal/workload"
)

// singleMixes builds one-core "mixes", one per sensitive trace, capped
// at the scale's mix count. Traces are taken round-robin across suite
// classes so a small cap still samples diverse behaviours.
func (r *Runner) singleMixes() []workload.Mix {
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
	if r.Scale.MixCount < n {
		n = r.Scale.MixCount
	}
	mixes := make([]workload.Mix, n)
	for i := 0; i < n; i++ {
		mixes[i] = workload.Mix{ID: i, Specs: []workload.Spec{specs[i]}}
	}
	return mixes
}

// mixesFor samples the scale's mixes for a core count.
func (r *Runner) mixesFor(cores int) []workload.Mix {
	if cores == 1 {
		return r.singleMixes()
	}
	return workload.Mixes(cores, r.Scale.MixCount, r.Scale.Seed)
}

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

// Fig9Throughput runs the throughput comparison.
func (r *Runner) Fig9Throughput(coreCounts []int) (*ThroughputReport, error) {
	rep := &ThroughputReport{
		CoreCounts:        coreCounts,
		Controllers:       []string{"ip_stride", "bingo", "pythia", "mumama"},
		NormWS:            map[int]map[string]float64{},
		PrefetchReduction: map[int]float64{},
		MoreAggressive:    map[int]float64{},
	}
	for _, n := range coreCounts {
		cfg := sim.DefaultConfig(n)
		mixes := r.mixesFor(n)
		banditRes, err := r.RunMixes(mixes, cfg, "bandit", Options{})
		if err != nil {
			return nil, err
		}
		banditWS := MeanWS(banditRes)
		rep.NormWS[n] = map[string]float64{"bandit": 0}
		for _, key := range rep.Controllers {
			rs, err := r.RunMixes(mixes, cfg, key, Options{})
			if err != nil {
				return nil, err
			}
			rep.NormWS[n][key] = ratioPct(MeanWS(rs), banditWS)
			if key == "mumama" {
				var bPF, mPF uint64
				var moreAgg float64
				for i := range rs {
					bPF += banditRes[i].Result.TotalL2Prefetches()
					mPF += rs[i].Result.TotalL2Prefetches()
					for c := range rs[i].Result.Cores {
						if rs[i].Result.Cores[c].L2PrefIssued > banditRes[i].Result.Cores[c].L2PrefIssued {
							moreAgg++
						}
					}
				}
				rep.PrefetchReduction[n] = ratioPct(float64(mPF), float64(bPF))
				rep.MoreAggressive[n] = moreAgg / float64(len(rs))
			}
		}
	}
	return rep, nil
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
	for _, n := range t.CoreCounts {
		if n == 1 {
			continue
		}
		fmt.Fprintf(&b, "§6.1 (%d cores): µMama L2-prefetch traffic vs Bandit: %s; cores more aggressive under µMama: %.1f\n",
			n, pct(t.PrefetchReduction[n]), t.MoreAggressive[n])
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

// FigPerWorkload computes per-mix normalized speedups. metricHS selects
// harmonic speedup (Figures 10c/d) instead of weighted (10a/b, 16).
func (r *Runner) FigPerWorkload(cores int, key string, metricHS bool) (*PerWorkloadReport, error) {
	cfg := sim.DefaultConfig(cores)
	mixes := r.mixesFor(cores)
	banditRes, err := r.RunMixes(mixes, cfg, "bandit", Options{})
	if err != nil {
		return nil, err
	}
	rs, err := r.RunMixes(mixes, cfg, key, Options{})
	if err != nil {
		return nil, err
	}
	rep := &PerWorkloadReport{Cores: cores, Controller: key, MetricName: "WS"}
	if metricHS {
		rep.MetricName = "HS"
	}
	var sum float64
	for i := range rs {
		a, b := rs[i].WS, banditRes[i].WS
		if metricHS {
			a, b = rs[i].HS, banditRes[i].HS
		}
		ratio := 0.0
		if b > 0 {
			ratio = a / b
		}
		rep.Ratios = append(rep.Ratios, ratio)
		rep.MixNames = append(rep.MixNames, mixes[i].Name())
		sum += ratio
	}
	rep.Average = sum/float64(len(rs)) - 1
	return rep, nil
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
func (r *Runner) Fig3PrefetchScaling(coreCounts []int) (*PrefetchScalingReport, error) {
	rep := &PrefetchScalingReport{
		CoreCounts:  coreCounts,
		Controllers: []string{"bandit", "no", "pythia", "bingo"},
		Normalized:  map[string][]float64{},
	}
	totals := map[string][]float64{}
	for _, n := range coreCounts {
		cfg := sim.DefaultConfig(n)
		mixes := r.mixesFor(n)
		for _, key := range rep.Controllers {
			if key == "bandit" {
				// Run with retained controllers to collect the
				// policy-level aggressiveness alongside the counts.
				var pf, degSum float64
				for _, mix := range mixes {
					bc := core.DefaultBanditConfig()
					bc.Step = r.Scale.Step
					ctrl := core.NewBandit(bc)
					res, err := r.RunMixWith(mix, cfg, ctrl)
					if err != nil {
						return nil, err
					}
					pf += float64(res.Result.TotalPrefetches())
					degSum += ctrl.MeanChosenDegree()
				}
				totals[key] = append(totals[key], pf/float64(len(mixes)))
				rep.BanditMeanDegree = append(rep.BanditMeanDegree, degSum/float64(len(mixes)))
				continue
			}
			rs, err := r.RunMixes(mixes, cfg, key, Options{})
			if err != nil {
				return nil, err
			}
			var pf float64
			for _, x := range rs {
				pf += float64(x.Result.TotalPrefetches())
			}
			totals[key] = append(totals[key], pf/float64(len(rs)))
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

// Fig11Bandwidth sweeps memory configurations (DDR4-1866/2400 × 1/2
// channels) for µMama and Pythia at the given core counts.
func (r *Runner) Fig11Bandwidth(coreCounts []int, drams []sim.Config) (*BandwidthReport, error) {
	rep := &BandwidthReport{}
	for _, base := range drams {
		for _, n := range coreCounts {
			cfg := base
			cfg.Cores = n
			mixes := r.mixesFor(n)
			banditRes, err := r.RunMixes(mixes, cfg, "bandit", Options{})
			if err != nil {
				return nil, err
			}
			bws := MeanWS(banditRes)
			for _, key := range []string{"mumama", "pythia"} {
				rs, err := r.RunMixes(mixes, cfg, key, Options{})
				if err != nil {
					return nil, err
				}
				rep.Points = append(rep.Points, BandwidthPoint{
					DRAMName:   cfg.DRAM.Name,
					PeakGBps:   cfg.DRAM.PeakGBps(),
					Cores:      n,
					Controller: key,
					NormWS:     ratioPct(MeanWS(rs), bws),
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
	return rep, nil
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

// Fig13Fairness runs the fairness comparison.
func (r *Runner) Fig13Fairness(coreCounts []int) (*FairnessReport, error) {
	rep := &FairnessReport{
		CoreCounts:  coreCounts,
		Controllers: []string{"no", "bandit", "bingo", "pythia", "mumama", "mumama-fair"},
		Unfairness:  map[int]map[string]float64{},
		NormHS:      map[int]map[string]float64{},
	}
	for _, n := range coreCounts {
		cfg := sim.DefaultConfig(n)
		mixes := r.mixesFor(n)
		rep.Unfairness[n] = map[string]float64{}
		rep.NormHS[n] = map[string]float64{}
		var banditHS float64
		results := map[string][]MixResult{}
		for _, key := range rep.Controllers {
			rs, err := r.RunMixes(mixes, cfg, key, Options{})
			if err != nil {
				return nil, err
			}
			results[key] = rs
			if key == "bandit" {
				banditHS = MeanHS(rs)
			}
		}
		for _, key := range rep.Controllers {
			rep.Unfairness[n][key] = MeanUnfairness(results[key])
			rep.NormHS[n][key] = ratioPct(MeanHS(results[key]), banditHS)
		}
	}
	return rep, nil
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

// Fig14Frontier runs the tradeoff study.
func (r *Runner) Fig14Frontier(cores int) (*FrontierReport, error) {
	cfg := sim.DefaultConfig(cores)
	mixes := r.mixesFor(cores)
	keys := []string{"mumama", "mumama-25", "mumama-50", "mumama-75", "mumama-fair", "mumama-gm", "pythia", "bingo", "bandit"}
	rep := &FrontierReport{Cores: cores}
	for _, key := range keys {
		rs, err := r.RunMixes(mixes, cfg, key, Options{})
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, FrontierPoint{
			Controller: key,
			WS:         MeanWS(rs),
			Fairness:   1 - MeanUnfairness(rs),
		})
	}
	return rep, nil
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

// Fig15aAblation runs the component breakdown.
func (r *Runner) Fig15aAblation(cores int) (*AblationReport, error) {
	cfg := sim.DefaultConfig(cores)
	mixes := r.mixesFor(cores)
	banditRes, err := r.RunMixes(mixes, cfg, "bandit", Options{})
	if err != nil {
		return nil, err
	}
	bws := MeanWS(banditRes)
	rep := &AblationReport{
		Cores:  cores,
		NormWS: map[string]float64{},
		Order:  []string{"mumama-grw-only", "mumama-jav-only", "mumama", "mumama-profiled"},
	}
	for _, key := range rep.Order {
		rs, err := r.RunMixes(mixes, cfg, key, Options{})
		if err != nil {
			return nil, err
		}
		rep.NormWS[key] = ratioPct(MeanWS(rs), bws)
	}
	return rep, nil
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

// Fig15bJAVSweep runs the JAV-size sensitivity study.
func (r *Runner) Fig15bJAVSweep(cores int, sizes []int) (*JAVSweepReport, error) {
	cfg := sim.DefaultConfig(cores)
	mixes := r.mixesFor(cores)
	banditRes, err := r.RunMixes(mixes, cfg, "bandit", Options{})
	if err != nil {
		return nil, err
	}
	bws := MeanWS(banditRes)
	rep := &JAVSweepReport{Cores: cores, Sizes: sizes}
	for _, sz := range sizes {
		rs, err := r.RunMixes(mixes, cfg, "mumama", Options{JAVSize: sz})
		if err != nil {
			return nil, err
		}
		rep.NormWS = append(rep.NormWS, ratioPct(MeanWS(rs), bws))
	}
	return rep, nil
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
func (r *Runner) FigTimeline(key string) (*TimelineReport, error) {
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
	sys.Run(r.Scale.Target, r.Scale.MaxCycles())
	sys.Close()
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

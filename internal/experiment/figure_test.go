package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"micromama/internal/sim"
	"micromama/internal/sweep"
)

// reduce draws registry figure id from hand-made results: its cells at
// the tiny scale (two mixes per arm), each answered by result, which
// sees the cell and the index of its mix within the arm. Nothing is
// simulated.
func reduce(t *testing.T, id string, result func(c sweep.Cell, mix int) CellResult) fmt.Stringer {
	t.Helper()
	figs := FiguresByID(id)
	if len(figs) != 1 {
		t.Fatalf("%q names %d registry figures, want 1", id, len(figs))
	}
	cells, err := figs[0].Cells("tiny", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]CellResult, len(cells))
	for i, c := range cells {
		results[i] = result(c, int(c.Seed))
		results[i].Mix = fmt.Sprintf("mix%02d", c.Seed)
	}
	return figs[0].Reduce(cells, results)
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// l2pref is a simulator result whose cores issued the given numbers of
// L2 prefetches.
func l2pref(perCore ...uint64) *sim.Result {
	res := &sim.Result{Cores: make([]sim.CoreResult, len(perCore))}
	for i, n := range perCore {
		res.Cores[i].L2PrefIssued = n
	}
	return res
}

func TestFig9Reducer(t *testing.T) {
	ws := map[string]float64{"bandit": 2, "ip_stride": 1, "bingo": 1.5, "pythia": 1.9, "mumama": 2.2}
	withSim := func(c sweep.Cell, mix int) CellResult {
		r := CellResult{WS: ws[c.Controller] * float64(len(c.Mix))}
		// Bandit issues 10 per core; µMama 20 on core 0 and 5 elsewhere.
		per := make([]uint64, len(c.Mix))
		for i := range per {
			per[i] = 10
			if c.Controller == "mumama" {
				per[i] = 5
			}
		}
		if c.Controller == "mumama" {
			per[0] = 20
		}
		r.Sim = l2pref(per...)
		return r
	}
	rep := reduce(t, "fig9", withSim).(*ThroughputReport)
	if fmt.Sprint(rep.CoreCounts) != "[1 4 8]" || fmt.Sprint(rep.Controllers) != "[ip_stride bingo pythia mumama]" {
		t.Fatalf("axes: cores %v controllers %v", rep.CoreCounts, rep.Controllers)
	}
	for _, n := range rep.CoreCounts {
		if rep.NormWS[n]["bandit"] != 0 {
			t.Errorf("%dC bandit normalises to %g, want 0", n, rep.NormWS[n]["bandit"])
		}
		for key, want := range map[string]float64{"ip_stride": -0.5, "bingo": -0.25, "pythia": -0.05, "mumama": 0.1} {
			if got := rep.NormWS[n][key]; !near(got, want) {
				t.Errorf("%dC %s NormWS = %g, want %g", n, key, got, want)
			}
		}
	}
	// 4 cores: 40 → 35 prefetches per mix, one core more aggressive.
	if got := rep.PrefetchReduction[4]; !near(got, 35.0/40-1) {
		t.Errorf("4C prefetch reduction = %g", got)
	}
	if got := rep.PrefetchReduction[8]; !near(got, 55.0/80-1) {
		t.Errorf("8C prefetch reduction = %g", got)
	}
	if rep.MoreAggressive[4] != 1 || rep.MoreAggressive[8] != 1 {
		t.Errorf("more-aggressive cores = %v, want 1 at 4 and 8 cores", rep.MoreAggressive)
	}
	if s := rep.String(); !strings.Contains(s, "§6.1 (4 cores)") || !strings.Contains(s, "§6.1 (8 cores)") || strings.Contains(s, "omitted") {
		t.Errorf("§6.1 lines missing from:\n%s", s)
	}

	// The same cells without the simulator result (what a server sends):
	// same table, no §6.1 lines, one note saying so.
	wire := reduce(t, "fig9", func(c sweep.Cell, mix int) CellResult {
		r := withSim(c, mix)
		r.Sim = nil
		return r
	}).(*ThroughputReport)
	if len(wire.PrefetchReduction) != 0 || len(wire.MoreAggressive) != 0 {
		t.Errorf("Sim-less fig9 still has §6.1 data: %v %v", wire.PrefetchReduction, wire.MoreAggressive)
	}
	if s := wire.String(); strings.Contains(s, "§6.1 (") || strings.Count(s, "omitted") != 1 {
		t.Errorf("Sim-less fig9 should note the omission once:\n%s", s)
	}
	rep.PrefetchReduction, rep.MoreAggressive = map[int]float64{}, map[int]float64{}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(wire)
	if string(a) != string(b) {
		t.Errorf("fig9 differs beyond the §6.1 maps:\n%s\n%s", a, b)
	}
}

func TestPerWorkloadReducer(t *testing.T) {
	// Mix 0: WS ratio 1.5, HS ratio 0.5. Mix 1: both ratios 1.
	result := func(c sweep.Cell, mix int) CellResult {
		if c.Controller == "bandit" {
			return CellResult{WS: 2, HS: 0.8}
		}
		if mix == 0 {
			return CellResult{WS: 3, HS: 0.4}
		}
		return CellResult{WS: 2, HS: 0.8}
	}
	for _, tc := range []struct {
		id, controller, metric string
		cores                  int
		first                  float64
	}{
		{"fig10-WS-4C", "mumama", "WS", 4, 1.5},
		{"fig10-HS-4C", "mumama-fair", "HS", 4, 0.5},
		{"fig10-WS-8C", "mumama", "WS", 8, 1.5},
		{"fig10-HS-8C", "mumama-fair", "HS", 8, 0.5},
		{"fig16", "mumama-profiled", "WS", 8, 1.5},
	} {
		rep := reduce(t, tc.id, result).(*PerWorkloadReport)
		if rep.Cores != tc.cores || rep.Controller != tc.controller || rep.MetricName != tc.metric {
			t.Errorf("%s: got %dC %s %s", tc.id, rep.Cores, rep.Controller, rep.MetricName)
		}
		if len(rep.Ratios) != 2 || !near(rep.Ratios[0], tc.first) || !near(rep.Ratios[1], 1) {
			t.Errorf("%s: ratios %v, want [%g 1]", tc.id, rep.Ratios, tc.first)
		}
		if !near(rep.Average, (tc.first+1)/2-1) {
			t.Errorf("%s: average %g", tc.id, rep.Average)
		}
		if fmt.Sprint(rep.MixNames) != "[mix00 mix01]" {
			t.Errorf("%s: mix names %v", tc.id, rep.MixNames)
		}
	}
	if n := len(FiguresByID("fig10")); n != 4 {
		t.Errorf("fig10 names %d registry figures, want its 4 parts", n)
	}
}

func TestFig11Reducer(t *testing.T) {
	// WS grows with bandwidth for µMama only; Bandit is 2 everywhere.
	rep := reduce(t, "fig11", func(c sweep.Cell, mix int) CellResult {
		switch c.Controller {
		case "mumama":
			return CellResult{WS: 2 + float64(c.DRAMMTps*c.DRAMChannels)/10000}
		case "pythia":
			return CellResult{WS: 1}
		}
		return CellResult{WS: 2}
	}).(*BandwidthReport)
	if len(rep.Points) != 16 {
		t.Fatalf("fig11 has %d points, want 2 controllers × 2 core counts × 4 systems", len(rep.Points))
	}
	sorted := sort.SliceIsSorted(rep.Points, func(i, j int) bool {
		a, b := rep.Points[i], rep.Points[j]
		if a.Controller != b.Controller {
			return a.Controller < b.Controller
		}
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		return a.PeakGBps < b.PeakGBps
	})
	if !sorted {
		t.Errorf("points not ordered by controller, cores, bandwidth: %+v", rep.Points)
	}
	first, last := rep.Points[0], rep.Points[len(rep.Points)-1]
	if first.Controller != "mumama" || first.Cores != 4 || first.DRAMName != "DDR4-1866 x1ch" || !near(first.NormWS, 0.1866/2) {
		t.Errorf("first point %+v", first)
	}
	if last.Controller != "pythia" || last.Cores != 8 || last.DRAMName != "DDR4-2400 x2ch" || !near(last.NormWS, -0.5) {
		t.Errorf("last point %+v", last)
	}
}

func TestFig13Reducer(t *testing.T) {
	rep := reduce(t, "fig13", func(c sweep.Cell, mix int) CellResult {
		r := CellResult{HS: 0.5, Unfairness: 2}
		if c.Controller == "mumama-fair" {
			r = CellResult{HS: 0.6, Unfairness: 1 + float64(mix)} // mean unfairness 1.5
		}
		if c.Controller == "no" && len(c.Mix) == 8 {
			r.HS = 0.25
		}
		return r
	}).(*FairnessReport)
	if fmt.Sprint(rep.CoreCounts) != "[4 8]" || fmt.Sprint(rep.Controllers) != "[no bandit bingo pythia mumama mumama-fair]" {
		t.Fatalf("axes: cores %v controllers %v", rep.CoreCounts, rep.Controllers)
	}
	for _, n := range rep.CoreCounts {
		if rep.Unfairness[n]["bandit"] != 2 || rep.Unfairness[n]["mumama-fair"] != 1.5 {
			t.Errorf("%dC unfairness table %v", n, rep.Unfairness[n])
		}
		if rep.NormHS[n]["bandit"] != 0 || !near(rep.NormHS[n]["mumama-fair"], 0.2) {
			t.Errorf("%dC HS table %v", n, rep.NormHS[n])
		}
	}
	if rep.NormHS[4]["no"] != 0 || !near(rep.NormHS[8]["no"], -0.5) {
		t.Errorf("no-prefetch HS: 4C %g 8C %g", rep.NormHS[4]["no"], rep.NormHS[8]["no"])
	}
}

func TestFig14Reducer(t *testing.T) {
	rep := reduce(t, "fig14", func(c sweep.Cell, mix int) CellResult {
		if c.Controller == "mumama-gm" {
			return CellResult{WS: 3 + float64(mix), Unfairness: 1.25}
		}
		return CellResult{WS: 2, Unfairness: 1.5}
	}).(*FrontierReport)
	var order []string
	for _, p := range rep.Points {
		order = append(order, p.Controller)
		want := FrontierPoint{Controller: p.Controller, WS: 2, Fairness: -0.5}
		if p.Controller == "mumama-gm" {
			want.WS, want.Fairness = 3.5, -0.25
		}
		if p != want {
			t.Errorf("point %+v, want %+v", p, want)
		}
	}
	if rep.Cores != 4 || fmt.Sprint(order) != "[mumama mumama-25 mumama-50 mumama-75 mumama-fair mumama-gm pythia bingo bandit]" {
		t.Errorf("fig14: %d cores, order %v", rep.Cores, order)
	}
}

func TestFig15aReducer(t *testing.T) {
	ws := map[string]float64{"bandit": 4, "mumama-grw-only": 4.1, "mumama-jav-only": 4.2, "mumama": 4.4, "mumama-profiled": 5}
	rep := reduce(t, "fig15a", func(c sweep.Cell, mix int) CellResult {
		return CellResult{WS: ws[c.Controller]}
	}).(*AblationReport)
	if rep.Cores != 8 || fmt.Sprint(rep.Order) != "[mumama-grw-only mumama-jav-only mumama mumama-profiled]" {
		t.Fatalf("fig15a: %d cores, order %v", rep.Cores, rep.Order)
	}
	for key, want := range map[string]float64{"mumama-grw-only": 0.025, "mumama-jav-only": 0.05, "mumama": 0.1, "mumama-profiled": 0.25} {
		if got := rep.NormWS[key]; !near(got, want) {
			t.Errorf("%s NormWS = %g, want %g", key, got, want)
		}
	}
	if _, ok := rep.NormWS["bandit"]; ok {
		t.Error("bandit is the baseline, not a row")
	}
}

// TestParameterSweepReducers: fig15b and the four ablations. Bandit's
// WS is 2, plain µMama's (every sweep's default point) 2.2, and an arm
// whose key sets a parameter to v has 2·(1 + v/100).
func TestParameterSweepReducers(t *testing.T) {
	result := func(c sweep.Cell, mix int) CellResult {
		_, value, set := strings.Cut(c.Controller, "=")
		switch v, err := strconv.ParseFloat(value, 64); {
		case c.Controller == "bandit":
			return CellResult{WS: 2}
		case c.Controller == "mumama":
			return CellResult{WS: 2.2}
		case set && err == nil && len(c.Mix) == 4:
			return CellResult{WS: 2 * (1 + v/100)}
		}
		t.Errorf("unexpected cell %+v", c)
		return CellResult{}
	}
	jav := reduce(t, "fig15b", result).(*JAVSweepReport)
	if jav.Cores != 4 || fmt.Sprint(jav.Sizes) != "[1 2 4 8 16]" || !slices.EqualFunc(jav.NormWS, []float64{0.01, 0.1, 0.04, 0.08, 0.16}, near) {
		t.Errorf("fig15b: %+v", jav)
	}
	if data, _ := json.Marshal(jav); !strings.HasPrefix(string(data), `{"Cores":4,"Sizes":[1,2,4,8,16],"NormWS":[`) {
		t.Errorf("fig15b.json moved: %s", data)
	}
	for _, tc := range []struct {
		id, param, keys string
		normWS          []float64
	}{
		{"abl-theta", "theta", "[mumama@theta=0.3 mumama mumama@theta=0.9]", []float64{0.003, 0.1, 0.009}},
		{"abl-tarbit", "tarbit", "[mumama@tarbit=2 mumama mumama@tarbit=10]", []float64{0.02, 0.1, 0.1}},
		{"abl-lcb", "lcb", "[mumama@lcb=0 mumama]", []float64{0, 0.1}},
		{"abl-kstep", "kstep", "[mumama@kstep=2 mumama mumama@kstep=20]", []float64{0.02, 0.1, 0.2}},
	} {
		rep := reduce(t, tc.id, result).(*SensitivityReport)
		if rep.Param != tc.param || rep.Cores != 4 || fmt.Sprint(rep.Keys) != tc.keys || !slices.EqualFunc(rep.NormWS, tc.normWS, near) {
			t.Errorf("%s: %+v", tc.id, rep)
		}
		if s := rep.String(); !strings.Contains(s, tc.param+" (4 cores)") || strings.Count(s, "\n") != 3+len(tc.normWS) {
			t.Errorf("%s renders as:\n%s", tc.id, s)
		}
	}
}

func TestSec63Reducer(t *testing.T) {
	// Mix 0: MPKI {1,1,9,9} → µ 5, σ 4, µ−σ = 1 < 2.5 (filtered in),
	// ratio 1.2. Mix 1: MPKI {8,8,8,8} → µ 8, σ 0 (out), ratio 0.9.
	result := func(low []float64) func(c sweep.Cell, mix int) CellResult {
		return func(c sweep.Cell, mix int) CellResult {
			switch c.Controller {
			case "no":
				if mix == 0 {
					return CellResult{L2MPKI: low}
				}
				return CellResult{L2MPKI: []float64{8, 8, 8, 8}}
			case "mumama":
				return CellResult{WS: []float64{2.4, 1.8}[mix]}
			}
			return CellResult{WS: 2}
		}
	}
	rep := reduce(t, "sec63", result([]float64{1, 1, 9, 9})).(*CharacteristicsReport)
	if rep.Cores != 4 || rep.Threshold != 2.5 || fmt.Sprint(rep.MixNames) != "[mix00 mix01]" {
		t.Fatalf("sec63 header: %+v", rep)
	}
	if fmt.Sprint(rep.MeanMPKI) != "[5 8]" || fmt.Sprint(rep.SigmaMPKI) != "[4 0]" {
		t.Errorf("µ %v σ %v", rep.MeanMPKI, rep.SigmaMPKI)
	}
	if !near(rep.Ratio[0], 1.2) || !near(rep.Ratio[1], 0.9) || !near(rep.AvgAll, 0.05) {
		t.Errorf("ratios %v, average %g", rep.Ratio, rep.AvgAll)
	}
	if rep.FilteredN != 1 || !near(rep.AvgFiltered, 0.2) {
		t.Errorf("filter kept %d mixes at %g, want 1 at 0.2", rep.FilteredN, rep.AvgFiltered)
	}
	if s := rep.String(); !strings.Contains(s, "0*") || strings.Contains(s, "1*") {
		t.Errorf("only mix 0 should be starred:\n%s", s)
	}

	none := reduce(t, "sec63", result([]float64{8, 8, 8, 8})).(*CharacteristicsReport)
	if none.FilteredN != 0 || none.AvgFiltered != 0 || !near(none.AvgAll, 0.05) {
		t.Errorf("empty filter: N %d filtered %g all %g", none.FilteredN, none.AvgFiltered, none.AvgAll)
	}
	if strings.Contains(none.String(), "NaN") {
		t.Errorf("empty filter renders NaN:\n%s", none)
	}
}

// TestRunCellsSimulatesDistinctCellsOnce: the union of every registry
// figure's cells holds each Bandit, µMama, … column several times over
// (and fig11's DDR4-2400×1 spelling of the default memory system); one
// Runner starts exactly one simulation per distinct cell plus one per
// distinct baseline, in one call or across calls, hands every duplicate
// the same result, and never runs a profile: fig15a's and fig16's
// µMama-Profiled cells read the Speedups of fig13's 8-core "no" cells.
func TestRunCellsSimulatesDistinctCellsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	const target = 30_000
	r := NewRunner(ScaleTiny)
	var union []sweep.Cell
	cellKeys, baseKeys := map[string]bool{}, map[string]bool{}
	for _, fig := range Figures {
		cells, err := fig.Cells("tiny", target, 0)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, cells...)
		for _, c := range cells {
			p, err := Resolve(&c)
			if err != nil {
				t.Fatal(err)
			}
			cellKeys[p.key()] = true
			for _, sp := range p.Mix.Specs {
				baseKeys[baselinePlan(sp, p.Config, p.Scale).key()] = true
			}
		}
	}
	if len(cellKeys) >= len(union) {
		t.Fatalf("the figures share no cells (%d of %d distinct): nothing to dedupe", len(cellKeys), len(union))
	}
	for k := range cellKeys {
		if baseKeys[k] {
			t.Fatalf("cell %s is also a baseline: the counts below would overlap", k)
		}
	}

	runs := simRuns()
	cellsBefore, basesBefore, profilesBefore := cellStats.misses.Value(), baselineStats.misses.Value(), profileStats.misses.Value()
	runsBefore := runs.Value()
	first, err := r.RunCells(context.Background(), union)
	if err != nil {
		t.Fatal(err)
	}
	if got := cellStats.misses.Value() - cellsBefore; got != uint64(len(cellKeys)) {
		t.Errorf("RunCells simulated %d cells for %d distinct of %d", got, len(cellKeys), len(union))
	}
	if got := baselineStats.misses.Value() - basesBefore; got != uint64(len(baseKeys)) {
		t.Errorf("RunCells simulated %d baselines for %d distinct (trace, system) pairs", got, len(baseKeys))
	}
	if got := profileStats.misses.Value() - profilesBefore; got != 0 {
		t.Errorf("RunCells ran %d profiles although every profiled mix has a \"no\" cell", got)
	}
	if got, want := runs.Value()-runsBefore, uint64(len(cellKeys)+len(baseKeys)); got != want {
		t.Errorf("mama_sim_runs_total moved by %d; want %d distinct cells + %d distinct baselines", got, len(cellKeys), len(baseKeys))
	}

	runsBefore = runs.Value()
	again, err := r.RunCells(context.Background(), union)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Value() - runsBefore; got != 0 {
		t.Errorf("a second RunCells over the same cells started %d simulations", got)
	}
	for i := range first {
		if first[i].WS != again[i].WS || first[i].Sim != again[i].Sim {
			t.Fatalf("cell %d: second call returned a different result", i)
		}
	}
}

// TestRunCellsRejects: a cell that does not resolve fails the call
// before anything is simulated.
func TestRunCellsRejects(t *testing.T) {
	r := NewRunner(ScaleTiny)
	good := sweep.Cell{Mix: []string{"spec06.mcf"}, Controller: "no", Scale: "tiny"}
	runs := simRuns()
	before := runs.Value()
	for name, bad := range map[string]sweep.Cell{
		"unknown controller": {Mix: good.Mix, Controller: "mumamma", Scale: "tiny"},
		"no controller":      {Mix: good.Mix, Scale: "tiny"},
		"unknown trace":      {Mix: []string{"spec06.nope"}, Controller: "no", Scale: "tiny"},
		"unknown scale":      {Mix: good.Mix, Controller: "no", Scale: "huge"},
		"empty mix":          {Controller: "no", Scale: "tiny"},
	} {
		if _, err := r.RunCells(context.Background(), []sweep.Cell{good, bad}); err == nil || !strings.Contains(err.Error(), "cell 1") {
			t.Errorf("%s: err = %v, want one naming cell 1", name, err)
		}
	}
	if got := runs.Value() - before; got != 0 {
		t.Errorf("rejected calls started %d simulations", got)
	}
}

package experiment

import (
	"context"
	"strings"
	"testing"

	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

func TestMakeControllerAllKeys(t *testing.T) {
	for _, key := range ControllerKeys {
		opt := Options{}
		if key == "mumama-profiled" {
			opt.Profiles = []float64{1, 1}
		}
		ctrl, err := MakeController(key, opt)
		if err != nil {
			t.Errorf("MakeController(%q): %v", key, err)
			continue
		}
		if ctrl == nil || ctrl.Name() == "" {
			t.Errorf("MakeController(%q) returned unusable controller", key)
		}
	}
}

func TestMakeControllerErrors(t *testing.T) {
	if _, err := MakeController("nope", Options{}); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := MakeController("mumama-profiled", Options{}); err == nil {
		t.Error("profiled without profiles accepted")
	}
}

func TestBaselineCaching(t *testing.T) {
	r := NewRunner(ScaleTiny)
	spec, _ := workload.ByName("spec06.povray")
	cfg := sim.DefaultConfig(1)
	a, err := r.BaselineIPCContext(context.Background(), spec, cfg)
	if err != nil || a <= 0 {
		t.Fatalf("baseline IPC = %g, %v", a, err)
	}
	b, _ := r.BaselineIPCContext(context.Background(), spec, cfg)
	if a != b {
		t.Error("cached baseline differs")
	}
}

func TestRunMixProducesMetrics(t *testing.T) {
	r := NewRunner(ScaleTiny)
	mixes := workload.Mixes(2, 1, 3)
	res, err := r.RunMixContext(context.Background(), mixes[0], sim.DefaultConfig(2), "bandit", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WS <= 0 || res.HS <= 0 || res.Unfairness < 1 {
		t.Errorf("metrics: WS=%g HS=%g unfair=%g", res.WS, res.HS, res.Unfairness)
	}
	if len(res.Speedups) != 2 {
		t.Errorf("speedups len %d", len(res.Speedups))
	}
}

func TestRunMixesParallelMatchesSerial(t *testing.T) {
	r := NewRunner(ScaleTiny)
	mixes := workload.Mixes(2, 2, 3)
	cells := make([]sweep.Cell, len(mixes))
	for i, mix := range mixes {
		cells[i] = CellFor(mix, "no", "tiny", 0, 0)
	}
	par, err := r.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixes {
		ser, err := r.RunMixContext(context.Background(), mixes[i], sim.DefaultConfig(2), "no", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ser.WS != par[i].WS {
			t.Errorf("mix %d: parallel WS %g != serial %g", i, par[i].WS, ser.WS)
		}
	}
}

func TestProfiles(t *testing.T) {
	r := NewRunner(ScaleTiny)
	mix := workload.Mixes(2, 1, 3)[0]
	cfg := sim.DefaultConfig(2)
	p, err := r.profiles(context.Background(), mix, cfg, r.Scale)
	if err != nil {
		t.Fatalf("Profiles: %v", err)
	}
	if len(p) != 2 {
		t.Fatalf("profiles len %d", len(p))
	}
	for i, v := range p {
		if v <= 0 || v > 1.5 {
			t.Errorf("profile[%d] = %g, implausible S^MP", i, v)
		}
	}
}

func TestFigTimelineBanditAndMuMama(t *testing.T) {
	r := NewRunner(ScaleTiny)
	for _, key := range []string{"bandit", "mumama"} {
		rep, err := r.FigTimeline(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Samples) == 0 {
			t.Errorf("%s: no timeline samples", key)
		}
		if !strings.Contains(rep.String(), "core 0") {
			t.Errorf("%s: report rendering incomplete", key)
		}
	}
}

func TestMotivatingMixShape(t *testing.T) {
	m := MotivatingMix()
	if len(m.Specs) != 4 {
		t.Fatalf("motivating mix has %d cores", len(m.Specs))
	}
}

func TestTableRendering(t *testing.T) {
	out := table([]string{"a", "bbb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a") {
		t.Error("header missing")
	}
}

func TestMeanHelpers(t *testing.T) {
	rs := []CellResult{{WS: 1, HS: 0.4, Unfairness: 2}, {WS: 3, HS: 0.6, Unfairness: 4}}
	if mean(rs, cellWS) != 2 || mean(rs, cellHS) != 0.5 || mean(rs, cellUnfairness) != 3 {
		t.Error("mean helpers wrong")
	}
	if mean(nil, cellWS) != 0 {
		t.Error("mean of nothing")
	}
}

// TestFig15bSmall draws a real (tiny) registry figure end to end.
func TestFig15bSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run figure driver")
	}
	rep, err := FiguresByID("fig15b")[0].Run(context.Background(), NewRunner(ScaleTiny).RunCells, "tiny", 60_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sweep := rep.(*JAVSweepReport); len(sweep.NormWS) != len(sweep.Sizes) {
		t.Fatalf("sweep returned %d points for %d sizes", len(sweep.NormWS), len(sweep.Sizes))
	}
	if !strings.Contains(rep.String(), "JAV") {
		t.Error("rendering incomplete")
	}
}

func TestSingleMixesInterleaveClasses(t *testing.T) {
	mixes := Scale{MixCount: 4, Seed: 7}.singleMixes()
	if len(mixes) != 4 {
		t.Fatalf("got %d single mixes", len(mixes))
	}
	classes := map[workload.Class]bool{}
	for _, m := range mixes {
		classes[m.Specs[0].Class] = true
	}
	if len(classes) < 3 {
		t.Errorf("first 4 single mixes span only %d classes: %v", len(classes), classes)
	}
}

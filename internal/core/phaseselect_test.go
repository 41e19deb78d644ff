package core

import (
	"testing"

	"micromama/internal/prefetch"
	"micromama/internal/sim"
)

func TestPhaseSelectRunsAndClassifies(t *testing.T) {
	cfg := DefaultPhaseSelectConfig()
	cfg.Step = 100
	p := NewPhaseSelect(cfg)
	res := runTiny(t, p, 2, 400_000)
	if res.Controller != "phase-select" {
		t.Fatalf("controller name %q", res.Controller)
	}
	for i, cr := range res.Cores {
		if cr.Instructions == 0 {
			t.Fatalf("core %d retired nothing", i)
		}
		if a := p.ActiveEngine(i); a < 0 || a >= prefetch.NumSelectorEngines {
			t.Fatalf("core %d active engine %d out of range", i, a)
		}
	}
	// libquantum is a dense streaming workload: after a few intervals
	// the classifier must have left the initial "off" engine at least
	// once on core 0.
	if p.Switches(0) == 0 {
		t.Error("core 0 never switched engines on a streaming workload")
	}
}

func TestPhaseSelectDecisionTable(t *testing.T) {
	p := NewPhaseSelect(DefaultPhaseSelectConfig())
	cases := []struct {
		name    string
		f       prefetch.SelectorFeatures
		mpki    float64
		current int
		want    int
	}{
		{"idle phase → off",
			prefetch.SelectorFeatures{Accesses: 100}, 0.1, prefetch.SelSPP, prefetch.SelOff},
		{"dense stream → streamer",
			prefetch.SelectorFeatures{Accesses: 100, StrideHits: 80, SmallDelta: 80}, 20, prefetch.SelOff, prefetch.SelStream},
		{"large strides → stride",
			prefetch.SelectorFeatures{Accesses: 100, StrideHits: 80, SmallDelta: 10}, 20, prefetch.SelOff, prefetch.SelStride},
		{"page-local irregular → bingo",
			prefetch.SelectorFeatures{Accesses: 100, SamePage: 70}, 20, prefetch.SelOff, prefetch.SelBingo},
		{"irregular high-miss → pythia",
			prefetch.SelectorFeatures{Accesses: 100, Misses: 60}, 20, prefetch.SelOff, prefetch.SelPythia},
		{"irregular low-miss → spp",
			prefetch.SelectorFeatures{Accesses: 100, Misses: 10}, 20, prefetch.SelOff, prefetch.SelSPP},
		{"inaccurate spp demoted to pythia",
			prefetch.SelectorFeatures{Accesses: 100, Misses: 10, Useful: 1, Useless: 99}, 20, prefetch.SelSPP, prefetch.SelPythia},
		{"inaccurate pythia demoted to spp",
			prefetch.SelectorFeatures{Accesses: 100, Misses: 60, Useful: 1, Useless: 99}, 20, prefetch.SelPythia, prefetch.SelSPP},
	}
	for _, tc := range cases {
		if got := p.classify(tc.f, tc.mpki, tc.current); got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name,
				prefetch.SelectorEngineNames[got], prefetch.SelectorEngineNames[tc.want])
		}
	}
}

func TestPhaseSelectHysteresisDebounces(t *testing.T) {
	cfg := DefaultPhaseSelectConfig()
	cfg.Step = 1 // every demand access is an interval boundary
	cfg.Hysteresis = 3
	p := NewPhaseSelect(cfg)
	sys, err := sim.New(sim.DefaultConfig(1), tinyTraces(t, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(50_000, 1_000_000)
	// With single-access intervals the features are nearly
	// uninformative; hysteresis must keep the switch count far below
	// the interval count.
	if sw := p.Switches(0); sw > 2000 {
		t.Errorf("hysteresis failed to debounce: %d switches", sw)
	}
}

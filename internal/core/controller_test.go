package core

import (
	"testing"

	"micromama/internal/sim"
	"micromama/internal/trace"
	"micromama/internal/workload"
)

// tinyTraces builds n small looping traces with distinct behaviours.
func tinyTraces(t *testing.T, n int) []trace.Reader {
	t.Helper()
	names := []string{"spec06.libquantum", "spec06.gromacs", "ligra.BFS", "spec17.wrf",
		"spec06.mcf", "spec17.fotonik3d", "ligra.PageRank", "spec17.roms"}
	out := make([]trace.Reader, n)
	for i := 0; i < n; i++ {
		sp, err := workload.ByName(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sp.New()
	}
	return out
}

func runTiny(t *testing.T, ctrl sim.Controller, cores int, target uint64) sim.Result {
	t.Helper()
	sys, err := sim.New(sim.DefaultConfig(cores), tinyTraces(t, cores), ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run(target, target*20)
}

func TestBanditControllerLearnsAndActs(t *testing.T) {
	cfg := DefaultBanditConfig()
	cfg.Step = 100
	cfg.RecordTimeline = true
	b := NewBandit(cfg)
	res := runTiny(t, b, 2, 400_000)
	for i, cr := range res.Cores {
		if cr.Instructions == 0 {
			t.Fatalf("core %d retired nothing", i)
		}
	}
	for core := 0; core < 2; core++ {
		if b.Agent(core).Steps() < 20 {
			t.Errorf("core %d agent completed only %d timesteps", core, b.Agent(core).Steps())
		}
	}
	if len(b.Timeline()) == 0 {
		t.Error("timeline recording enabled but empty")
	}
	if b.Name() != "bandit" {
		t.Errorf("Name = %q", b.Name())
	}
}

func TestSharedRewardBanditRuns(t *testing.T) {
	cfg := DefaultBanditConfig()
	cfg.Step = 100
	cfg.SharedReward = true
	b := NewBandit(cfg)
	res := runTiny(t, b, 2, 300_000)
	if res.Controller != "bandit-shared" {
		t.Errorf("controller name %q", res.Controller)
	}
	if b.Agent(0).Steps() == 0 {
		t.Error("shared-reward agents never stepped")
	}
}

// TestTable1Defaults pins the paper's Table 1 hyperparameters.
func TestTable1Defaults(t *testing.T) {
	if cfg := DefaultMuMamaConfig(); cfg.Step != 800 || cfg.TArbit != 5 || cfg.KStep != 5 || cfg.JAVSize != 2 {
		t.Errorf("Table 1 defaults drifted: %+v", cfg)
	}
}

// A global step allocates nothing: its per-core vectors and the next
// policy are sized in Attach, and a JAV slot keeps its action buffer
// from one occupant to the next.
func TestMuMamaStepAllocatesNothing(t *testing.T) {
	cfg := DefaultMuMamaConfig()
	cfg.Step = 100
	m := NewMuMama(cfg)
	sys, err := sim.New(sim.DefaultConfig(4), tinyTraces(t, 4), m)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Run(200_000, 4_000_000)
	if m.GlobalSteps() < 20 || m.JAVCache().Len() != m.JAVCache().Cap() {
		t.Fatalf("warm-up took %d global steps and filled %d of %d JAV slots", m.GlobalSteps(), m.JAVCache().Len(), m.JAVCache().Cap())
	}
	now := sys.Cycles(0)
	if allocs := testing.AllocsPerRun(200, func() {
		now += 1000
		m.advance(now)
	}); allocs != 0 {
		t.Errorf("a global step allocates %v times", allocs)
	}
}

func TestMuMamaAdvancesGlobalTimesteps(t *testing.T) {
	cfg := DefaultMuMamaConfig()
	cfg.Step = 100
	cfg.RecordTimeline = true
	m := NewMuMama(cfg)
	runTiny(t, m, 4, 400_000)
	if m.GlobalSteps() < 20 {
		t.Fatalf("only %d global steps", m.GlobalSteps())
	}
	if jf := m.JointFraction(); jf < 0 || jf > 1 {
		t.Errorf("JointFraction = %g", jf)
	}
	if m.JAVCache().Len() == 0 {
		t.Error("JAV never populated")
	}
	if len(m.Timeline()) == 0 {
		t.Error("timeline empty")
	}
	if m.Name() != "µmama-WS" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestMuMamaJointActionsHaveValidArms(t *testing.T) {
	cfg := DefaultMuMamaConfig()
	cfg.Step = 100
	m := NewMuMama(cfg)
	runTiny(t, m, 2, 300_000)
	for _, e := range m.JAVCache().Entries() {
		if len(e.Action) != 2 {
			t.Fatalf("joint action arity %d, want 2", len(e.Action))
		}
		for _, a := range e.Action {
			if int(a) >= 17 {
				t.Fatalf("arm %d out of range", a)
			}
		}
	}
}

func TestMuMamaAblationNames(t *testing.T) {
	cases := map[string]MuMamaConfig{
		"µmama-WS-jav-only": {DisableGRW: true},
		"µmama-WS-grw-only": {DisableJAV: true},
		"µmama-HS":          {Metric: MetricHS()},
	}
	for want, cfg := range cases {
		if got := NewMuMama(cfg).Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestMuMamaDisableJAVNeverDictates(t *testing.T) {
	cfg := DefaultMuMamaConfig()
	cfg.Step = 100
	cfg.DisableJAV = true
	m := NewMuMama(cfg)
	runTiny(t, m, 2, 300_000)
	if m.JointFraction() != 0 {
		t.Errorf("DisableJAV but JointFraction = %g", m.JointFraction())
	}
	if m.JAVCache().Len() != 0 {
		t.Error("DisableJAV but JAV populated")
	}
}

func TestMuMamaProfiledUsesProfiles(t *testing.T) {
	cfg := DefaultMuMamaConfig()
	cfg.Step = 100
	cfg.Profiles = []float64{0.9, 0.2}
	m := NewMuMama(cfg)
	runTiny(t, m, 2, 300_000)
	if m.Name() != "µmama-WS-profiled" {
		t.Errorf("Name = %q", m.Name())
	}
	// The low-importance core (profile 0.2 < θ) should accumulate
	// global-reward assignments.
	if m.GlobalRewardAssignments() == 0 {
		t.Error("profiled run never assigned a global reward")
	}
}

func TestMuMamaCommunicationAccounted(t *testing.T) {
	cfg := DefaultMuMamaConfig()
	cfg.Step = 100
	m := NewMuMama(cfg)
	sys, err := sim.New(sim.DefaultConfig(2), tinyTraces(t, 2), m)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(300_000, 6_000_000)
	st := sys.Network().Stats()
	if st.Messages == 0 || st.Bytes == 0 {
		t.Errorf("no NoC traffic accounted: %+v", st)
	}
}

func TestMuMamaKStepForcesAdvance(t *testing.T) {
	// One fast core and one idle-ish core: without k_step the global
	// timestep would stall on the majority rule (n=2 needs both).
	cfg := DefaultMuMamaConfig()
	cfg.Step = 100
	cfg.KStep = 3
	m := NewMuMama(cfg)
	sp1, _ := workload.ByName("spec06.libquantum")
	sp2, _ := workload.ByName("spec06.povray") // nearly no L2 traffic
	sys, err := sim.New(sim.DefaultConfig(2), []trace.Reader{sp1.New(), sp2.New()}, m)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(300_000, 6_000_000)
	if m.GlobalSteps() == 0 {
		t.Error("k_step cap never forced a global timestep")
	}
}

func TestMuMamaSingleCoreSMPGuard(t *testing.T) {
	// Equation 5 degenerates at n = 1 (S^MP would be 0 and every system
	// reward 0, letting the JAV dictate arbitrary arms). The guard pins
	// S^MP = 1, so single-core µMama behaves like best-arm exploitation.
	cfg := DefaultMuMamaConfig()
	cfg.Step = 100
	m := NewMuMama(cfg)
	runTiny(t, m, 1, 400_000)
	if m.GlobalSteps() < 20 {
		t.Fatalf("only %d steps", m.GlobalSteps())
	}
	if m.JAVCache().BestReward() <= 0 {
		t.Errorf("single-core JAV best reward = %g; the S^MP guard is broken",
			m.JAVCache().BestReward())
	}
}

package core

import (
	"micromama/internal/prefetch"
	"micromama/internal/sim"
)

// PhaseSelectConfig parameterizes the phase-classifying prefetcher
// selector (Alcorta et al., arXiv 2307.08635 style): per-interval
// features drive a small decision table that switches each core's L2
// among heterogeneous engines rather than tuning one engine's degree.
type PhaseSelectConfig struct {
	// Step is the interval length in L2 demand accesses (the same
	// timestep unit as the Bandit/µMama agents).
	Step uint64
	// Hysteresis is how many consecutive intervals must agree on a new
	// engine before the switch is applied (debounces phase boundaries).
	Hysteresis int
	// Seed feeds each core's Pythia sub-engine RNG.
	Seed uint64

	// Decision-table thresholds; zero values take the defaults below.
	LowMPKI      float64 // below this, prefetching is turned off
	StrideReg    float64 // stride-regularity bound for stream/stride
	PageLocality float64 // page-locality bound for Bingo
	HighMissRate float64 // miss-rate bound for Pythia over SPP
	LowAccuracy  float64 // active-engine accuracy that forces a demotion
}

// DefaultPhaseSelectConfig returns the thresholds used in the tournament
// runs.
func DefaultPhaseSelectConfig() PhaseSelectConfig {
	return PhaseSelectConfig{
		Step:         800,
		Hysteresis:   2,
		LowMPKI:      0.5,
		StrideReg:    0.5,
		PageLocality: 0.6,
		HighMissRate: 0.5,
		LowAccuracy:  0.2,
	}
}

func (c *PhaseSelectConfig) fillDefaults() {
	d := DefaultPhaseSelectConfig()
	if c.Step == 0 {
		c.Step = d.Step
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = d.Hysteresis
	}
	if c.LowMPKI == 0 {
		c.LowMPKI = d.LowMPKI
	}
	if c.StrideReg == 0 {
		c.StrideReg = d.StrideReg
	}
	if c.PageLocality == 0 {
		c.PageLocality = d.PageLocality
	}
	if c.HighMissRate == 0 {
		c.HighMissRate = d.HighMissRate
	}
	if c.LowAccuracy == 0 {
		c.LowAccuracy = d.LowAccuracy
	}
}

// phaseCore is one core's selector state. Everything here is owned by
// the demanding core, which is what makes PhaseSelect core-local.
type phaseCore struct {
	sel       *prefetch.Selector
	accesses  uint64
	lastInstr uint64
	current   int
	pending   int // candidate engine awaiting hysteresis confirmation
	pendingN  int // consecutive intervals that agreed on pending
	switches  uint64
}

// PhaseSelect switches each core's L2 engine among off/stream/stride/
// Bingo/Pythia/SPP by classifying the running interval's phase from
// features the Selector engine already taps (L2 miss rate and MPKI,
// global stride regularity, page locality, active-engine accuracy). It
// holds no cross-core state at all.
type PhaseSelect struct {
	cfg   PhaseSelectConfig
	sys   *sim.System
	cores []phaseCore
}

// NewPhaseSelect constructs the controller.
func NewPhaseSelect(cfg PhaseSelectConfig) *PhaseSelect {
	cfg.fillDefaults()
	return &PhaseSelect{cfg: cfg}
}

// Name implements sim.Controller.
func (p *PhaseSelect) Name() string { return "phase-select" }

// Attach implements sim.Controller.
func (p *PhaseSelect) Attach(sys *sim.System) {
	p.sys = sys
	n := sys.Config().Cores
	p.cores = make([]phaseCore, n)
	for i := range p.cores {
		// Stagger seeds per core the same way MakeController seeds
		// Pythia instances.
		p.cores[i] = phaseCore{
			sel:     prefetch.NewSelector(p.cfg.Seed + uint64(i)*0x9e3779b97f4a7c15),
			pending: -1,
		}
	}
}

// Engine implements sim.Controller.
func (p *PhaseSelect) Engine(core int) prefetch.Prefetcher { return p.cores[core].sel }

// ActiveEngine returns the engine index core is currently issuing from
// (for tests and reports).
func (p *PhaseSelect) ActiveEngine(core int) int { return p.cores[core].current }

// Switches returns how many engine switches core has applied.
func (p *PhaseSelect) Switches(core int) uint64 { return p.cores[core].switches }

// OnL2Demand implements sim.Controller: counts the core's interval and,
// at each boundary, classifies the phase and (with hysteresis) switches
// the active engine.
func (p *PhaseSelect) OnL2Demand(core int, now uint64) {
	c := &p.cores[core]
	c.accesses++
	if c.accesses < p.cfg.Step {
		return
	}
	c.accesses = 0

	f := c.sel.TakeFeatures()
	instr := p.sys.Instructions(core)
	dI := instr - c.lastInstr
	c.lastInstr = instr
	mpki := 0.0
	if dI > 0 {
		mpki = float64(f.Misses) / float64(dI) * 1000
	}

	want := p.classify(f, mpki, c.current)
	switch {
	case want == c.current:
		c.pending, c.pendingN = -1, 0
	case want == c.pending:
		c.pendingN++
		if c.pendingN >= p.cfg.Hysteresis {
			c.current = want
			c.sel.SetActive(want)
			c.switches++
			c.pending, c.pendingN = -1, 0
		}
	default:
		c.pending, c.pendingN = want, 1
		if p.cfg.Hysteresis <= 1 {
			c.current = want
			c.sel.SetActive(want)
			c.switches++
			c.pending, c.pendingN = -1, 0
		}
	}
}

// classify is the decision table. Order matters: cheap dominant signals
// first (idle phase, regular strides), then spatial footprints, then
// the learning engines for irregular phases.
func (p *PhaseSelect) classify(f prefetch.SelectorFeatures, mpki float64, current int) int {
	if mpki < p.cfg.LowMPKI {
		// The L2 barely misses; any prefetcher is pure bandwidth noise.
		return prefetch.SelOff
	}
	if f.StrideRegularity() >= p.cfg.StrideReg {
		// Regular deltas: dense (sub-page) streams go to the streamer,
		// large repeating strides to the PC-local stride table.
		if f.StrideHits > 0 && f.SmallDelta*2 >= f.StrideHits {
			return prefetch.SelStream
		}
		return prefetch.SelStride
	}
	if f.PageLocality() >= p.cfg.PageLocality {
		// Irregular within a page: Bingo's footprint regime.
		return prefetch.SelBingo
	}
	var want int
	if f.MissRate() >= p.cfg.HighMissRate {
		want = prefetch.SelPythia
	} else {
		want = prefetch.SelSPP
	}
	// Accuracy veto: if the table re-picks the current engine but its
	// resolved prefetches this interval were mostly useless, demote to
	// the other learning engine rather than keep polluting.
	if want == current && current != prefetch.SelOff {
		if acc := f.Accuracy(); acc >= 0 && acc < p.cfg.LowAccuracy {
			if want == prefetch.SelPythia {
				return prefetch.SelSPP
			}
			return prefetch.SelPythia
		}
	}
	return want
}

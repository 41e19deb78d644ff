package experiment

import (
	"fmt"

	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

// Plan is one simulation, resolved: the traces, the system, the
// controller key and the budget. Everything a Runner measures is a
// plan's result — a sweep cell, a job, and also Equation 2's two
// normalisers: a trace's baseline IPC^{base,SP} is IPC[0] of its
// one-core "no" plan, and a mix's S^MP profile (§6.6.3) is the
// Speedups of its n-core "no" plan.
type Plan struct {
	Mix workload.Mix
	// Config is the simulated system; Config.Cores == len(Mix.Specs).
	Config     sim.Config
	Controller string
	// Scale is the resolved budget (Target, MaxCyclesFactor) and agent
	// timestep (Step). MixCount and Seed ride along from the named
	// scale: mamaserved hashes the whole value into the job key.
	Scale Scale
}

// newPlan is the plan that runs mix under controller on cfg's system at
// scale's budget.
func newPlan(mix workload.Mix, cfg sim.Config, controller string, scale Scale) Plan {
	cfg.Cores = len(mix.Specs)
	return Plan{Mix: mix, Config: cfg, Controller: controller, Scale: scale}
}

// CheckCell is the validating half of Resolve, for a caller that needs
// a cell's identity and not its simulation (mamaserved keying a sweep):
// it normalizes c in place (its controller key to canonical form),
// checks it against the catalog, the controller registry and the scale
// table, and returns the scale with the Target/Step overrides applied.
// A cell in canonical form costs no allocation.
func CheckCell(c *sweep.Cell) (Scale, error) {
	c.Normalize()
	if len(c.Mix) == 0 {
		return Scale{}, fmt.Errorf("mix must name at least one trace")
	}
	for _, name := range c.Mix {
		if !workload.Known(name) {
			return Scale{}, fmt.Errorf("unknown trace %q (see GET /v1/catalog)", name)
		}
	}
	if c.Controller == "" {
		return Scale{}, fmt.Errorf("controller is required")
	}
	// The error names what is accepted so tournament clients can
	// self-correct without a second round trip to /v1/catalog.
	key, err := parseController(c.Controller)
	if err != nil {
		return Scale{}, err
	}
	c.Controller = key.canonical
	scale, err := ScaleByName(c.Scale)
	if err != nil {
		return Scale{}, err
	}
	if c.Target > 0 {
		scale.Target = c.Target
	}
	if c.Step > 0 {
		scale.Step = c.Step
	}
	return scale, nil
}

// Resolve is the one way a cell becomes a plan — mamaserved's resolver
// and Runner.RunCells both go through its two halves, so a cell names
// the same simulation on both sides of the Executor seam however it is
// spelled: CheckCell, then PlanOf.
func Resolve(c *sweep.Cell) (Plan, error) {
	scale, err := CheckCell(c)
	if err != nil {
		return Plan{}, err
	}
	return PlanOf(c, scale), nil
}

// PlanOf is the plan-building half of Resolve: the traces and the
// system a cell names, for a cell CheckCell accepted at the scale it
// returned.
func PlanOf(c *sweep.Cell, scale Scale) Plan {
	specs := make([]workload.Spec, len(c.Mix))
	for i, name := range c.Mix {
		specs[i], _ = workload.ByName(name) // CheckCell found it
	}
	mix := workload.Mix{ID: int(c.Seed), Specs: specs}
	return newPlan(mix, SystemConfig(len(specs), c.DRAMMTps, c.DRAMChannels), c.Controller, scale)
}

// key is the plan's memo key: what decides the simulation's outcome,
// budget included, plus the mix label its result carries.
func (p Plan) key() string {
	step := p.Scale.Step
	if p.Controller == "no" {
		step = 0 // no agent, so no timestep: baselines and profiles are shared across steps
	}
	return fmt.Sprintf("%s|%s|%d|%d|%d|%s", p.Controller, p.Mix.Name(),
		p.Scale.Target, p.Scale.MaxCyclesFactor, step, p.Config.Fingerprint())
}

// baselinePlan is the plan whose IPC[0] normalises spec's speedups on
// cfg's system (at any core count) at scale's budget: the trace alone,
// without L2 prefetching. Its mix label is always 0, so every mix and
// seed shares it.
func baselinePlan(spec workload.Spec, cfg sim.Config, scale Scale) Plan {
	return newPlan(workload.Mix{Specs: []workload.Spec{spec}}, cfg, "no", scale)
}

// selfBaseline reports whether p is a one-core "no" run: the same
// simulation as its own baseline, so its speedup needs no second run.
func (p Plan) selfBaseline() bool {
	return p.Controller == "no" && len(p.Mix.Specs) == 1
}

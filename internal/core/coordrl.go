package core

import (
	"micromama/internal/prefetch"
	"micromama/internal/sim"
	"micromama/internal/xrand"
)

// CoordRLConfig parameterizes the coordinated RL controller (the
// cross-core coordinated prefetching architecture of arXiv 2509.10719,
// reduced to this simulator's action space): one tabular Q-learner per
// core over the 17 ensemble arms, with a *shared* state component — the
// other cores' current aggressiveness and the DRAM bus utilization —
// and a reward that blends the core's own normalized IPC with the
// system mean.
type CoordRLConfig struct {
	// Step is the timestep length in L2 demand accesses.
	Step uint64
	// Epsilon is the exploration rate of the epsilon-greedy policy.
	Epsilon float64
	// LR is the Q-learning step size.
	LR float64
	// Gamma is the discount factor.
	Gamma float64
	// Blend weighs the local reward against the system mean: reward =
	// Blend*local + (1-Blend)*mean. Blend 1 degenerates to independent
	// learners; the coordinated default is 0.5.
	Blend float64
	// Seed drives the per-core exploration RNGs.
	Seed uint64
}

// DefaultCoordRLConfig returns the tournament parameters.
func DefaultCoordRLConfig() CoordRLConfig {
	return CoordRLConfig{Step: 800, Epsilon: 0.08, LR: 0.2, Gamma: 0.9, Blend: 0.5, Seed: 1}
}

func (c *CoordRLConfig) fillDefaults() {
	d := DefaultCoordRLConfig()
	if c.Step == 0 {
		c.Step = d.Step
	}
	if c.Epsilon == 0 {
		c.Epsilon = d.Epsilon
	}
	if c.LR == 0 {
		c.LR = d.LR
	}
	if c.Gamma == 0 {
		c.Gamma = d.Gamma
	}
	if c.Blend == 0 {
		c.Blend = d.Blend
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// coordRL state-space geometry: local miss-rate bucket × bus-utilization
// bucket × others'-aggressiveness bucket.
const (
	coordMissBuckets = 3
	coordBWBuckets   = 3
	coordAggrBuckets = 3
	coordStates      = coordMissBuckets * coordBWBuckets * coordAggrBuckets
)

// coordAgent is one core's learner. Unlike localAgent it is *not*
// self-contained: ledger reads in state() and the counter sweep in
// reward() reach across cores by design.
type coordAgent struct {
	engine *prefetch.Ensemble
	rng    xrand.RNG
	q      [coordStates][prefetch.NumArms]float64

	accesses   uint64
	lastInstr  uint64
	lastCycle  uint64
	lastMisses uint64
	refIPC     float64
	curArm     int
	prevState  int
}

// CoordRL is the coordinated RL controller. Every timestep a core (a)
// observes a state that includes the other cores' current prefetch
// aggressiveness (via a shared ledger) and the live DRAM bus
// utilization, (b) receives a reward blending its own normalized IPC
// with the live system mean, and (c) greedily/exploringly picks the
// next ensemble arm. Both (a) and (b) read and write cross-core state
// mid-epoch.
type CoordRL struct {
	cfg    CoordRLConfig
	sys    *sim.System
	agents []*coordAgent
	// aggr is the shared aggressiveness ledger: aggr[i] is core i's
	// current arm total degree.
	aggr []int
}

// NewCoordRL constructs the controller.
func NewCoordRL(cfg CoordRLConfig) *CoordRL {
	cfg.fillDefaults()
	return &CoordRL{cfg: cfg}
}

// Name implements sim.Controller.
func (c *CoordRL) Name() string { return "coord-rl" }

// Attach implements sim.Controller.
func (c *CoordRL) Attach(sys *sim.System) {
	c.sys = sys
	n := sys.Config().Cores
	c.agents = make([]*coordAgent, n)
	c.aggr = make([]int, n)
	for i := range c.agents {
		c.agents[i] = &coordAgent{
			engine: prefetch.NewEnsemble(),
			rng:    xrand.New(c.cfg.Seed + uint64(i)*0x9e3779b97f4a7c15),
		}
	}
}

// Engine implements sim.Controller.
func (c *CoordRL) Engine(core int) prefetch.Prefetcher { return c.agents[core].engine }

// Arm returns core i's current ensemble arm (for tests).
func (c *CoordRL) Arm(core int) int { return c.agents[core].curArm }

// OnL2Demand implements sim.Controller.
func (c *CoordRL) OnL2Demand(core int, now uint64) {
	a := c.agents[core]
	a.accesses++
	if a.accesses < c.cfg.Step {
		return
	}
	a.accesses = 0

	r := c.reward(core, a)
	s := c.state(core, a)

	// Q-learning backup for the transition we just finished.
	best := a.q[s][0]
	for _, v := range a.q[s][1:] {
		if v > best {
			best = v
		}
	}
	q := &a.q[a.prevState][a.curArm]
	*q += c.cfg.LR * (r + c.cfg.Gamma*best - *q)

	// Epsilon-greedy action for the next interval.
	next := 0
	if a.rng.Float64() < c.cfg.Epsilon {
		next = a.rng.Intn(prefetch.NumArms)
	} else {
		bestQ := a.q[s][0]
		for i, v := range a.q[s][1:] {
			if v > bestQ {
				bestQ, next = v, i+1
			}
		}
	}
	if next != a.curArm {
		a.curArm = next
		a.engine.SetArm(next)
	}
	a.prevState = s
	c.aggr[core] = prefetch.Arms[next].TotalDegree()
}

// state discretizes (local miss rate, bus utilization, others'
// aggressiveness) into one of coordStates indices. The ledger read is
// the cross-core coordination channel.
func (c *CoordRL) state(core int, a *coordAgent) int {
	misses := c.sys.L2Stats(core).Misses
	dM := misses - a.lastMisses
	a.lastMisses = misses
	missRate := float64(dM) / float64(c.cfg.Step)
	mb := bucket3(missRate, 0.1, 0.4)

	bb := bucket3(c.sys.RecentBandwidthUtil(), 0.3, 0.7)

	others := 0
	for i, d := range c.aggr {
		if i != core {
			others += d
		}
	}
	// Max total degree per arm is 12 (Table 2's most aggressive arm).
	denom := 12 * (len(c.aggr) - 1)
	frac := 0.0
	if denom > 0 {
		frac = float64(others) / float64(denom)
	}
	ab := bucket3(frac, 0.2, 0.5)

	return (mb*coordBWBuckets+bb)*coordAggrBuckets + ab
}

// reward blends the core's own normalized interval IPC with the live
// mean across all cores — the cooperative term that makes agents back
// off when their aggressiveness hurts neighbors.
func (c *CoordRL) reward(core int, a *coordAgent) float64 {
	var local, sum float64
	n := len(c.agents)
	for j := 0; j < n; j++ {
		aj := c.agents[j]
		instr, cyc := c.sys.Instructions(j), c.sys.Cycles(j)
		if j != core {
			// Peers' snapshots are refreshed only by their own
			// timesteps; read live IPC against their last reference.
			dI, dC := instr-aj.lastInstr, cyc-aj.lastCycle
			if dC > 0 && aj.refIPC > 0 {
				sum += (float64(dI) / float64(dC)) / aj.refIPC
			}
			continue
		}
		dI, dC := instr-a.lastInstr, cyc-a.lastCycle
		a.lastInstr, a.lastCycle = instr, cyc
		if dC == 0 {
			continue
		}
		ipc := float64(dI) / float64(dC)
		if a.refIPC == 0 {
			a.refIPC = ipc
		}
		if a.curArm == 0 && ipc > 0 {
			a.refIPC = (1-refEWMA)*a.refIPC + refEWMA*ipc
		}
		if a.refIPC > 0 {
			local = ipc / a.refIPC
		}
		sum += local
	}
	mean := sum / float64(n)
	return c.cfg.Blend*local + (1-c.cfg.Blend)*mean
}

// bucket3 maps v into {0,1,2} using two thresholds.
func bucket3(v, lo, hi float64) int {
	switch {
	case v < lo:
		return 0
	case v < hi:
		return 1
	default:
		return 2
	}
}

var _ sim.Controller = (*CoordRL)(nil)

package core

import (
	"micromama/internal/bandit"
	"micromama/internal/prefetch"
	"micromama/internal/sim"
)

// PolicySample records which arm a core's prefetcher used from a given
// point in time — the data behind the paper's policy-timeline figures
// (2, 4, and 12). A controller records one on each change of a core's
// arm, so consecutive samples of one core never share an arm.
type PolicySample struct {
	Cycle uint64 // core-local cycle when the policy took effect
	Core  int
	Arm   int
	// Joint is true when the arm was dictated from the JAV cache
	// (µMama only; the gray shading in Figure 12).
	Joint bool
}

// TimelineRecorder is implemented by controllers that can log policy
// timelines.
type TimelineRecorder interface {
	Timeline() []PolicySample
}

// BanditConfig parameterizes the uncoordinated Micro-Armed Bandit
// controller (paper Table 1: c = 0.01, γ = 0.9995, step = 800 L2
// demand accesses).
type BanditConfig struct {
	C     float64
	Gamma float64
	Step  uint64
	// RecordTimeline enables policy-timeline sampling.
	RecordTimeline bool
	// SharedReward replaces each agent's local reward with the mean
	// normalized IPC of all cores — the naïve cooperative scheme of
	// §3.2 that runs into the credit-assignment problem.
	SharedReward bool
}

// DefaultBanditConfig returns the paper's Bandit parameters.
func DefaultBanditConfig() BanditConfig {
	return BanditConfig{C: 0.01, Gamma: 0.9995, Step: 800}
}

// refEWMA is the smoothing factor for the per-core no-prefetch
// reference IPC that normalizes interval IPCs into speedup-like
// rewards (the r_i ≈ S^opt_i of Equation 5). The reference is an EWMA
// of the IPC observed when the core's own arm is 0 (prefetching off),
// so r_i measures the speedup the L2 prefetcher provides under the
// prevailing multicore contention. Under µMama the reference is only
// refreshed on non-dictated timesteps: refreshing it while the JAV
// dictates correlated joint actions (e.g. all-off) would couple the
// baseline to that regime's contention level and bias the supervisor
// toward low-contention joint actions.
const refEWMA = 0.2

// localAgent is one per-L2 Micro-Armed Bandit: a DUCB over the 17
// ensemble arms, interval accounting at step-many L2 demand accesses,
// and a running estimate of the core's no-prefetch IPC for reward
// normalization.
type localAgent struct {
	d      *bandit.DUCB
	engine *prefetch.Ensemble

	accesses  uint64
	lastInstr uint64
	lastCycle uint64
	refIPC    float64
	curArm    int

	// Per-core counter snapshots for shared-reward mode.
	lastInstrAll []uint64
	lastCycleAll []uint64
}

func newLocalAgent(c, gamma float64, cores, id int) *localAgent {
	// Stagger each core's initial exploration order so the joint
	// actions produced during cold start are diverse rather than
	// uniform [k,k,...,k] vectors (which would otherwise be the only
	// candidates seeding the JAV cache).
	offset := (id * 7) % prefetch.NumArms
	return &localAgent{
		d:            bandit.New(bandit.Config{Arms: prefetch.NumArms, C: c, Gamma: gamma, InitOffset: offset}),
		engine:       prefetch.NewEnsemble(),
		lastInstrAll: make([]uint64, cores),
		lastCycleAll: make([]uint64, cores),
	}
}

// intervalIPC returns the core's IPC since the agent's last snapshot
// and refreshes the snapshot.
func (a *localAgent) intervalIPC(sys *sim.System, core int) float64 {
	instr, cyc := sys.Instructions(core), sys.Cycles(core)
	dI, dC := instr-a.lastInstr, cyc-a.lastCycle
	a.lastInstr, a.lastCycle = instr, cyc
	if dC == 0 {
		return 0
	}
	return float64(dI) / float64(dC)
}

// normalize converts an interval IPC into a speedup-like reward
// against the agent's no-prefetch reference. allowRefUpdate permits
// refreshing the reference when arm 0 was played this interval.
func (a *localAgent) normalize(ipc float64, allowRefUpdate bool) float64 {
	if a.refIPC == 0 {
		a.refIPC = ipc
	}
	if allowRefUpdate && a.curArm == 0 && ipc > 0 {
		a.refIPC = (1-refEWMA)*a.refIPC + refEWMA*ipc
	}
	if a.refIPC == 0 {
		return 0
	}
	return ipc / a.refIPC
}

// Bandit is the uncoordinated Micro-Armed Bandit controller: one
// independent DUCB agent per L2, each maximizing its own core's
// normalized IPC (or, with SharedReward, the system mean).
type Bandit struct {
	cfg      BanditConfig
	sys      *sim.System
	agents   []*localAgent
	timeline []PolicySample

	// Aggressiveness accounting for the Figure 3 analysis: the summed
	// total degree (Table 2 ordering) of every arm chosen, and the
	// number of choices.
	degreeSum   uint64
	degreeSteps uint64
}

// NewBandit constructs the controller.
func NewBandit(cfg BanditConfig) *Bandit {
	if cfg.Step == 0 {
		cfg.Step = 800
	}
	return &Bandit{cfg: cfg}
}

// Name implements sim.Controller.
func (b *Bandit) Name() string {
	if b.cfg.SharedReward {
		return "bandit-shared"
	}
	return "bandit"
}

// Attach implements sim.Controller.
func (b *Bandit) Attach(sys *sim.System) {
	b.sys = sys
	n := sys.Config().Cores
	b.agents = make([]*localAgent, n)
	for i := range b.agents {
		b.agents[i] = newLocalAgent(b.cfg.C, b.cfg.Gamma, n, i)
	}
}

// Engine implements sim.Controller.
func (b *Bandit) Engine(core int) prefetch.Prefetcher { return b.agents[core].engine }

// Agent exposes core i's DUCB (for tests and introspection).
func (b *Bandit) Agent(core int) *bandit.DUCB { return b.agents[core].d }

// Timeline implements TimelineRecorder.
func (b *Bandit) Timeline() []PolicySample { return b.timeline }

// MeanChosenDegree returns the average total degree (aggressiveness) of
// the arms the agents chose — the policy-level signal behind the
// paper's Figure 3 (Bandit grows more aggressive with core count).
func (b *Bandit) MeanChosenDegree() float64 {
	steps := b.degreeSteps
	if steps == 0 {
		return 0
	}
	return float64(b.degreeSum) / float64(steps)
}

// OnL2Demand implements sim.Controller: each agent independently ends
// its timestep after Step demand accesses, updates its DUCB with the
// interval reward, and applies the next arm.
func (b *Bandit) OnL2Demand(core int, now uint64) {
	a := b.agents[core]
	a.accesses++
	if a.accesses < b.cfg.Step {
		return
	}
	a.accesses = 0

	var reward float64
	if b.cfg.SharedReward {
		reward = b.sharedReward(core, a)
	} else {
		reward = a.normalize(a.intervalIPC(b.sys, core), true)
	}
	a.d.Update(a.curArm, reward)
	next := a.d.Select()
	if next != a.curArm {
		a.curArm = next
		a.engine.SetArm(next)
		if b.cfg.RecordTimeline {
			b.timeline = append(b.timeline, PolicySample{Cycle: now, Core: core, Arm: next})
		}
	}
	b.degreeSum += uint64(prefetch.Arms[next].TotalDegree())
	b.degreeSteps++
}

// sharedReward computes the mean normalized IPC of all cores over this
// agent's interval window (§3.2). Each core's IPC is normalized by that
// core's own no-prefetch reference, so the sum is a speedup-like
// quantity.
func (b *Bandit) sharedReward(core int, a *localAgent) float64 {
	var sum float64
	n := len(b.agents)
	for j := 0; j < n; j++ {
		instr, cyc := b.sys.Instructions(j), b.sys.Cycles(j)
		dI, dC := instr-a.lastInstrAll[j], cyc-a.lastCycleAll[j]
		a.lastInstrAll[j], a.lastCycleAll[j] = instr, cyc
		if dC == 0 {
			continue
		}
		ipc := float64(dI) / float64(dC)
		if j == core {
			// Keep this agent's own no-prefetch reference fresh.
			sum += a.normalize(ipc, true)
			continue
		}
		ref := b.agents[j].refIPC
		if ref == 0 {
			ref = ipc
		}
		if ref > 0 {
			sum += ipc / ref
		}
	}
	return sum / float64(n)
}

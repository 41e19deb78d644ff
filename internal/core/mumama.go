package core

import (
	"micromama/internal/bandit"
	"micromama/internal/noc"
	"micromama/internal/prefetch"
	"micromama/internal/sim"
)

// MuMamaConfig parameterizes the µMama supervisor. Defaults follow the
// paper's Table 1.
type MuMamaConfig struct {
	// Step is the per-agent timestep threshold in L2 demand accesses.
	Step uint64
	// KStep forces a global timestep once any agent accumulates
	// KStep×Step accesses, so one slow core cannot stall the system.
	KStep int
	// Local agents (Table 1: c = 0.01, γ = 0.995 — lower γ than plain
	// Bandit because their role is exploring changing environments).
	LocalC     float64
	LocalGamma float64
	// Arbiter (Table 1: c = 0.1, γ = 0.995), queried every TArbit
	// global timesteps.
	ArbiterC     float64
	ArbiterGamma float64
	TArbit       int
	// JAV cache (Table 1: 2 entries, γ = 0.999 — higher γ to remember
	// high-performing joint actions). JAVLCB penalizes low-confidence
	// entries during selection (see JAV docs); negative means 0.
	JAVSize  int
	JAVGamma float64
	JAVLCB   float64
	// ThetaGlobal is the sensitivity threshold below which a local
	// agent receives the system reward (Table 1: 1 - 1.4/n). Zero means
	// "use the Table 1 formula".
	ThetaGlobal float64
	// Metric selects the optimization target (WS by default).
	Metric Metric
	// Profiles optionally supplies per-core S^MP values measured
	// offline (µMama-Profiled, §6.6.3). When nil, S^MP is estimated at
	// runtime from δ_i (Equation 5).
	Profiles []float64
	// DisableJAV / DisableGRW turn off the two major components for the
	// ablation of §6.6.1.
	DisableJAV bool
	DisableGRW bool
	// RecordTimeline enables policy-timeline sampling (Figure 12).
	RecordTimeline bool
}

// DefaultMuMamaConfig returns the paper's Table 1 parameters.
func DefaultMuMamaConfig() MuMamaConfig {
	return MuMamaConfig{
		Step:         800,
		KStep:        5,
		LocalC:       0.01,
		LocalGamma:   0.995,
		ArbiterC:     0.1,
		ArbiterGamma: 0.995,
		TArbit:       5,
		JAVSize:      2,
		JAVGamma:     0.999,
		JAVLCB:       0.2,
		Metric:       MetricWS(),
	}
}

// Arbiter actions.
const (
	arbActLocal = 0
	arbActJoint = 1
)

// MuMama is the µMama controller: distributed local Bandit agents for
// exploration, a JAV cache of high-performing joint actions for
// exploitation, and a two-action DUCB arbiter choosing between them
// each timestep (Algorithm 1).
type MuMama struct {
	cfg    MuMamaConfig
	sys    *sim.System
	agents []*localAgent
	arb    *bandit.DUCB
	jav    *JAV
	theta  float64
	// profiles holds the rescaled offline S^MP profile (nil when
	// estimating at runtime).
	profiles []float64

	// Global timestep state.
	ready      []bool
	readyCount int
	globalStep uint64

	// Per-core interval snapshots for δ_i (Equation 5).
	lastMisses []uint64
	lastUseful []uint64

	// Arbiter period accounting.
	arbAction    int
	arbRewardSum float64
	arbSteps     int

	// Whether the current timestep's actions were dictated by the JAV.
	dictated bool

	// One-step-ahead pipeline (paper Figure 8): the policy chosen at a
	// timestep boundary takes effect only after the µMama unit's
	// broadcast arrives (the 200-cycle critical path); until then the
	// prefetchers keep operating under the previous policy.
	pending         bool  // pendingArms awaits its broadcast
	pendingArms     []int // one arm per core, sized in Attach
	pendingDictated bool
	applyAt         uint64

	// Per-timestep scratch of advance, sized in Attach so that a
	// global step allocates nothing: the normalized IPCs, the would-be
	// miss rates δ, the S^MP estimates, their products Ŝ, and the joint
	// action played.
	r, delta, smp, shat []float64
	played              JointAction

	// sysEWMA tracks the typical system reward so global rewards handed
	// to local agents can be rescaled to the ~1.0 scale of their local
	// normalized-IPC rewards (mismatched scales would corrupt DUCB
	// cross-arm comparisons).
	sysEWMA float64

	// Diagnostics.
	jointSteps uint64 // timesteps whose actions came from the JAV
	localSteps uint64
	grwAssigns uint64 // global-reward assignments to local agents

	timeline []PolicySample
	lastArms []int // last recorded arm per core, to dedupe timeline
}

// NewMuMama constructs the controller; zero-valued fields of cfg fall
// back to the paper's defaults.
func NewMuMama(cfg MuMamaConfig) *MuMama {
	def := DefaultMuMamaConfig()
	if cfg.Step == 0 {
		cfg.Step = def.Step
	}
	if cfg.KStep == 0 {
		cfg.KStep = def.KStep
	}
	if cfg.LocalC == 0 {
		cfg.LocalC = def.LocalC
	}
	if cfg.LocalGamma == 0 {
		cfg.LocalGamma = def.LocalGamma
	}
	if cfg.ArbiterC == 0 {
		cfg.ArbiterC = def.ArbiterC
	}
	if cfg.ArbiterGamma == 0 {
		cfg.ArbiterGamma = def.ArbiterGamma
	}
	if cfg.TArbit == 0 {
		cfg.TArbit = def.TArbit
	}
	if cfg.JAVSize == 0 {
		cfg.JAVSize = def.JAVSize
	}
	if cfg.JAVGamma == 0 {
		cfg.JAVGamma = def.JAVGamma
	}
	if cfg.JAVLCB == 0 {
		cfg.JAVLCB = def.JAVLCB
	} else if cfg.JAVLCB < 0 {
		cfg.JAVLCB = 0
	}
	return &MuMama{cfg: cfg}
}

// Name implements sim.Controller.
func (m *MuMama) Name() string {
	n := m.cfg.Metric.String()
	switch {
	case m.cfg.Profiles != nil:
		n += "-profiled"
	case m.cfg.DisableJAV && !m.cfg.DisableGRW:
		n += "-grw-only"
	case m.cfg.DisableGRW && !m.cfg.DisableJAV:
		n += "-jav-only"
	}
	return n
}

// Attach implements sim.Controller.
func (m *MuMama) Attach(sys *sim.System) {
	m.sys = sys
	n := sys.Config().Cores
	m.agents = make([]*localAgent, n)
	for i := range m.agents {
		m.agents[i] = newLocalAgent(m.cfg.LocalC, m.cfg.LocalGamma, n, i)
	}
	m.arb = bandit.New(bandit.Config{Arms: 2, C: m.cfg.ArbiterC, Gamma: m.cfg.ArbiterGamma})
	m.jav = NewJAVLCB(m.cfg.JAVSize, m.cfg.JAVGamma, m.cfg.JAVLCB)
	m.theta = m.cfg.ThetaGlobal
	if m.theta == 0 {
		m.theta = 1 - 1.4/float64(n)
	}
	if m.cfg.Profiles != nil {
		// Rescale offline profiles to the same scale as the runtime
		// estimate (whose mean is (n-1)/n by construction), so the
		// θ_global comparison is meaningful: only the *relative* values
		// across cores matter (§6.6.3).
		var sum float64
		for _, p := range m.cfg.Profiles {
			sum += p
		}
		m.profiles = make([]float64, n)
		if sum > 0 {
			scale := float64(n-1) / sum
			for i, p := range m.cfg.Profiles {
				m.profiles[i] = p * scale
			}
		} else {
			for i := range m.profiles {
				m.profiles[i] = 1
			}
		}
	}
	m.ready = make([]bool, n)
	m.pendingArms = make([]int, n)
	m.r = make([]float64, n)
	m.delta = make([]float64, n)
	m.smp = make([]float64, n)
	m.shat = make([]float64, n)
	m.played = make(JointAction, n)
	m.lastMisses = make([]uint64, n)
	m.lastUseful = make([]uint64, n)
	m.lastArms = make([]int, n)
	for i := range m.lastArms {
		m.lastArms[i] = -1
	}
	m.arbAction = arbActLocal
}

// Engine implements sim.Controller.
func (m *MuMama) Engine(core int) prefetch.Prefetcher { return m.agents[core].engine }

// JAVCache exposes the JAV cache for tests and introspection.
func (m *MuMama) JAVCache() *JAV { return m.jav }

// Arbiter exposes the arbiter bandit.
func (m *MuMama) Arbiter() *bandit.DUCB { return m.arb }

// Timeline implements TimelineRecorder.
func (m *MuMama) Timeline() []PolicySample { return m.timeline }

// JointFraction returns the fraction of global timesteps whose actions
// were dictated from the JAV cache (§6.5 reports 64–67%).
func (m *MuMama) JointFraction() float64 {
	t := m.jointSteps + m.localSteps
	if t == 0 {
		return 0
	}
	return float64(m.jointSteps) / float64(t)
}

// GlobalRewardAssignments returns how many (core, timestep) pairs
// received the system-level reward instead of a local one.
func (m *MuMama) GlobalRewardAssignments() uint64 { return m.grwAssigns }

// GlobalSteps returns the number of completed global timesteps.
func (m *MuMama) GlobalSteps() uint64 { return m.globalStep }

// JointSteps returns how many global timesteps were dictated from the
// JAV cache (the numerator of JointFraction).
func (m *MuMama) JointSteps() uint64 { return m.jointSteps }

// LocalSteps returns how many global timesteps fell back to the local
// agents' own arm choices.
func (m *MuMama) LocalSteps() uint64 { return m.localSteps }

// OnL2Demand implements sim.Controller. Local agents mark themselves
// ready at Step accesses; once a majority is ready — or one agent hits
// KStep×Step — the global timestep advances (§4.3.1).
func (m *MuMama) OnL2Demand(core int, now uint64) {
	if m.pending && now >= m.applyAt {
		m.applyPending(now)
	}
	a := m.agents[core]
	a.accesses++
	if !m.ready[core] && a.accesses >= m.cfg.Step {
		m.ready[core] = true
		m.readyCount++
	}
	n := len(m.agents)
	if m.readyCount*2 > n || a.accesses >= uint64(m.cfg.KStep)*m.cfg.Step {
		m.advance(now)
	}
}

// applyPending installs the policy chosen at the previous boundary
// (the broadcast has arrived).
func (m *MuMama) applyPending(now uint64) {
	for i, a := range m.agents {
		arm := m.pendingArms[i]
		if arm != a.curArm {
			a.curArm = arm
			a.engine.SetArm(arm)
			if m.cfg.RecordTimeline && arm != m.lastArms[i] {
				m.timeline = append(m.timeline, PolicySample{Cycle: now, Core: i, Arm: arm, Joint: m.pendingDictated})
				m.lastArms[i] = arm
			}
		}
	}
	m.dictated = m.pendingDictated
	m.pending = false
}

// advance ends the global timestep at cycle now: it computes the
// system reward from per-core estimates, updates the JAV, arbiter, and
// local agents, and selects the next joint policy.
func (m *MuMama) advance(now uint64) {
	// If the previous boundary's broadcast is still in flight (possible
	// only for degenerately short timesteps), apply it first so action
	// attribution stays coherent.
	if m.pending {
		m.applyPending(now)
	}
	n := len(m.agents)
	m.globalStep++

	// Per-core interval measurements.
	r := m.r         // S^opt estimates (normalized IPC)
	delta := m.delta // δ_i: would-be L2 misses per instruction
	var deltaSum float64
	for i, a := range m.agents {
		prevInstr := a.lastInstr
		ipc := a.intervalIPC(m.sys, i)
		r[i] = a.normalize(ipc, !m.dictated)
		dInstr := a.lastInstr - prevInstr

		st := m.sys.L2Stats(i)
		dMiss := st.Misses - m.lastMisses[i]
		dUseful := st.PrefetchUseful - m.lastUseful[i]
		m.lastMisses[i], m.lastUseful[i] = st.Misses, st.PrefetchUseful
		delta[i] = 0
		if dInstr > 0 {
			delta[i] = float64(dMiss+dUseful) / float64(dInstr)
		}
		deltaSum += delta[i]
	}

	// S^MP estimates (Equation 5) or offline profiles (§6.6.3).
	// Equation 5 assumes n >= 2: with a single core there is no
	// multicore slowdown to apportion, so S^MP is 1 by definition.
	smp := m.smp
	for i := range smp {
		switch {
		case n == 1:
			smp[i] = 1
		case m.profiles != nil:
			smp[i] = m.profiles[i]
		case deltaSum > 0:
			smp[i] = 1 - delta[i]/deltaSum
		default:
			smp[i] = 1
		}
	}
	shat := m.shat
	for i := range shat {
		shat[i] = smp[i] * r[i]
	}
	sysReward := m.cfg.Metric.Reward(shat)

	// Current joint action (what was actually played this timestep).
	played := m.played
	for i, a := range m.agents {
		played[i] = uint8(a.curArm)
	}

	// Update the JAV with the observed system reward.
	if !m.cfg.DisableJAV {
		m.jav.Update(played, sysReward)
	}

	// Update local agents: local reward, or the (rescaled) system
	// reward for low-importance cores (§4.2.4). Timesteps whose actions
	// were dictated from the JAV do not update the local tables: the
	// local agents' role is exploration, and folding long dictated
	// phases into their discounted statistics would evaporate every
	// alternative arm's history and freeze them on the dictated policy.
	if m.sysEWMA == 0 {
		m.sysEWMA = sysReward
	} else {
		m.sysEWMA = 0.95*m.sysEWMA + 0.05*sysReward
	}
	if !m.dictated {
		for i, a := range m.agents {
			reward := r[i]
			if !m.cfg.DisableGRW && m.cfg.Metric.Sensitivity(i, smp, shat) < m.theta {
				if m.sysEWMA > 0 {
					reward = sysReward / m.sysEWMA
				} else {
					reward = sysReward
				}
				m.grwAssigns++
			}
			a.d.Update(a.curArm, reward)
		}
	}

	// Warmup: until every local agent has finished its initial
	// exploration pass, the system stays in local mode so the JAV is
	// seeded from (staggered) exploration rather than locking onto a
	// cold-start entry, and the arbiter does not learn from warmup
	// noise.
	warm := true
	for _, a := range m.agents {
		if a.d.Exploring() {
			warm = false
			break
		}
	}

	// Arbiter period accounting: queried once every TArbit timesteps.
	if warm {
		m.arbRewardSum += sysReward
		m.arbSteps++
		if m.arbSteps >= m.cfg.TArbit {
			m.arb.Update(m.arbAction, m.arbRewardSum/float64(m.arbSteps))
			m.arbRewardSum, m.arbSteps = 0, 0
			m.arbAction = m.arb.Select()
		}
	}

	// Select the next joint policy (Algorithm 1). It takes effect only
	// when the µMama unit's broadcast lands (Figure 8's critical path).
	// The previous choice has been applied above, so its buffer is free.
	nextDictated := false
	nextArms := m.pendingArms
	if warm && !m.cfg.DisableJAV && m.arbAction == arbActJoint {
		if best := m.jav.Best(); best != nil {
			nextDictated = true
			for i := range nextArms {
				nextArms[i] = int(best[i])
			}
		}
	}
	if !nextDictated {
		for i, a := range m.agents {
			nextArms[i] = a.d.Select()
		}
	}
	if nextDictated {
		m.jointSteps++
	} else {
		m.localSteps++
	}

	// Communication accounting: the 2-byte critical-path exchange plus
	// the 27 bytes each agent trades with the µMama unit per timestep
	// (§4.4.2). The new policy applies once the broadcast arrives.
	net := m.sys.Network()
	m.applyAt = net.CriticalPath(now)
	net.Broadcast(now, noc.PerStepBytes, n)
	m.pending = true
	m.pendingDictated = nextDictated

	// Reset per-timestep state.
	for i := range m.ready {
		m.ready[i] = false
		m.agents[i].accesses = 0
	}
	m.readyCount = 0
}

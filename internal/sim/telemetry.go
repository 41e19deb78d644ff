package sim

import "micromama/internal/telemetry"

// Process-wide simulator progress counters, exported through the
// default telemetry registry (mamaserved /metrics; -metrics-dump on the
// batch binaries). Updates happen only at epoch-poll boundaries
// (ctxCheckEpochs) and at run completion, never inside Core.advance, so
// the per-instruction hot path stays untouched.
var (
	simRunsTotal = telemetry.Default().Counter("mama_sim_runs_total",
		"Simulations started (System.RunContext entries).")
	simRunsActive = telemetry.Default().Gauge("mama_sim_active_runs",
		"Simulations currently executing.")
	simInstrTotal = telemetry.Default().Counter("mama_sim_instructions_total",
		"Instructions committed across all cores of all simulations.")
	simEpochsTotal = telemetry.Default().Counter("mama_sim_epochs_total",
		"Simulation epochs advanced across all simulations.")
	simPrefIssuedL1 = telemetry.Default().Counter("mama_sim_prefetches_issued_total",
		"Prefetches issued, by cache level.", telemetry.L("level", "l1"))
	simPrefIssuedL2 = telemetry.Default().Counter("mama_sim_prefetches_issued_total",
		"Prefetches issued, by cache level.", telemetry.L("level", "l2"))
	simPrefUseful = telemetry.Default().Counter("mama_sim_prefetches_useful_total",
		"L2 prefetched lines later hit by a demand access.")
	simPrefDropped = telemetry.Default().Counter("mama_sim_prefetches_dropped_total",
		"Prefetch candidates dropped by budget or DRAM backpressure.")
	simJAVJointSteps = telemetry.Default().Counter("mama_sim_jav_steps_total",
		"µMama global timesteps, by action source (hit rate = joint/(joint+local)).",
		telemetry.L("source", "joint"))
	simJAVLocalSteps = telemetry.Default().Counter("mama_sim_jav_steps_total",
		"µMama global timesteps, by action source (hit rate = joint/(joint+local)).",
		telemetry.L("source", "local"))
)

// javStepSource is implemented by controllers (µMama) that arbitrate
// between JAV-dictated joint actions and local agent actions.
type javStepSource interface {
	JointSteps() uint64
	LocalSteps() uint64
}

// committedInstructions sums live per-core retirement counts.
func (s *System) committedInstructions() uint64 {
	var t uint64
	for _, c := range s.cores {
		t += c.instr
	}
	return t
}

// publishProgress pushes the instruction and epoch deltas accumulated
// since the last publication (the published totals persist on the
// System, so resumed runs keep publishing deltas correctly).
func (s *System) publishProgress() {
	instr := s.committedInstructions()
	simInstrTotal.Add(instr - s.pubInstr)
	simEpochsTotal.Add(s.epochs - s.pubEpochs)
	s.pubInstr, s.pubEpochs = instr, s.epochs
}

// finishRunTelemetry publishes end-of-run totals that are too expensive
// (or meaningless) to sample mid-run: prefetch issue/usefulness and the
// µMama JAV arbitration split.
func (s *System) finishRunTelemetry() {
	var l1, l2, useful, dropped uint64
	for _, c := range s.cores {
		l1 += c.l1PrefIssued
		l2 += c.l2PrefIssued
		dropped += c.prefDropped
		useful += c.l2.Stats().PrefetchUseful
	}
	simPrefIssuedL1.Add(l1)
	simPrefIssuedL2.Add(l2)
	simPrefUseful.Add(useful)
	simPrefDropped.Add(dropped)
	if js, ok := s.controller.(javStepSource); ok {
		simJAVJointSteps.Add(js.JointSteps())
		simJAVLocalSteps.Add(js.LocalSteps())
	}
}

package sim

import (
	"context"
	"fmt"

	"micromama/internal/cache"
	"micromama/internal/dram"
	"micromama/internal/noc"
	"micromama/internal/trace"
)

// bwSampleEpochs controls how often recent DRAM-bus utilization is
// re-sampled and pushed to bandwidth-aware engines (Pythia).
const bwSampleEpochs = 1024

// bandwidthAware is implemented by engines that scale behaviour with
// memory-bus load.
type bandwidthAware interface {
	SetBandwidthUtil(u float64)
}

// System is one simulated multicore: cores with private L1D/L2, a
// shared LLC, DRAM, and a prefetch controller.
type System struct {
	cfg        Config
	cores      []*Core
	llc        *cache.Cache
	dram       *dram.DRAM
	network    *noc.Network
	controller Controller

	frozen int // cores that reached their instruction target

	// Persistent epoch-loop state, so stepping is resumable: RunContext
	// and the chunked Advance API share one clock.
	epochEnd uint64 // upper cycle bound of the next epoch to run
	epochs   uint64 // epochs completed

	pubInstr  uint64 // totals already published to telemetry
	pubEpochs uint64

	lastBWCycle uint64
	lastBWBusy  uint64
	recentUtil  float64
}

// New builds a system running the given traces (one per core) under the
// given prefetch controller. Traces are looped if they end early.
func New(cfg Config, traces []trace.Reader, ctrl Controller) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(traces) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d traces for %d cores", len(traces), cfg.Cores)
	}
	if ctrl == nil {
		ctrl = NoPrefetchController()
	}
	s := &System{
		cfg:        cfg,
		llc:        cache.New(cfg.LLC),
		dram:       dram.New(cfg.DRAM),
		network:    noc.New(cfg.NoC),
		controller: ctrl,
	}
	ctrl.Attach(s)
	s.cores = make([]*Core, cfg.Cores)
	for i := range s.cores {
		s.cores[i] = newCore(s, i, traces[i], ctrl.Engine(i))
	}
	s.epochEnd = cfg.Epoch
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Controller returns the attached prefetch controller.
func (s *System) Controller() Controller { return s.controller }

// Network returns the µMama communication fabric.
func (s *System) Network() *noc.Network { return s.network }

// DRAM returns the memory model (for stats).
func (s *System) DRAM() *dram.DRAM { return s.dram }

// LLCStats returns the shared-LLC counters.
func (s *System) LLCStats() cache.Stats { return s.llc.Stats() }

// Instructions returns core i's retired instruction count.
func (s *System) Instructions(core int) uint64 { return s.cores[core].instr }

// Cycles returns core i's local cycle counter.
func (s *System) Cycles(core int) uint64 { return s.cores[core].cycle }

// L2Stats returns core i's L2 counters.
func (s *System) L2Stats(core int) cache.Stats { return s.cores[core].l2.Stats() }

// L1DStats returns core i's L1D counters.
func (s *System) L1DStats(core int) cache.Stats { return s.cores[core].l1d.Stats() }

// RecentBandwidthUtil returns the most recent sampled DRAM-bus
// utilization in [0, 1].
func (s *System) RecentBandwidthUtil() float64 { return s.recentUtil }

// TraceName returns the name of the trace running on core i.
func (s *System) TraceName(core int) string { return s.cores[core].traceName }

// Run simulates until every core has retired at least target
// instructions (cores that finish early keep running, preserving
// contention, but their reported stats freeze at the target — the
// paper's methodology). maxCycles guards against pathological stalls; 0
// means no guard.
func (s *System) Run(target uint64, maxCycles uint64) Result {
	res, _ := s.RunContext(context.Background(), target, maxCycles)
	return res
}

// ctxCheckEpochs is how often (in epochs) RunContext polls its context;
// at the default 64-cycle epoch this is a check every ~16K cycles.
const ctxCheckEpochs = 256

// RunContext is Run with cooperative cancellation: the context is
// polled at epoch granularity, and on cancellation the simulation stops
// early and returns the partial Result alongside ctx.Err(). Callers
// that need a hard per-job bound (the mamaserved worker pool) combine
// this with context.WithTimeout.
func (s *System) RunContext(ctx context.Context, target uint64, maxCycles uint64) (Result, error) {
	simRunsTotal.Inc()
	simRunsActive.Add(1)
	defer simRunsActive.Add(-1)
	// Telemetry publication rides the existing context-poll cadence: a
	// handful of atomic adds every ctxCheckEpochs epochs, nothing inside
	// Core.advance itself.
	for s.frozen < len(s.cores) {
		s.stepEpoch(target)
		if s.epochs%ctxCheckEpochs == 0 {
			s.publishProgress()
			if err := ctx.Err(); err != nil {
				s.finishRunTelemetry()
				return s.Result(target), err
			}
		}
		if maxCycles > 0 && s.epochEnd > maxCycles {
			break
		}
	}
	s.publishProgress()
	s.finishRunTelemetry()
	return s.Result(target), nil
}

// Advance is the chunked stepping API: it runs at most epochs further
// simulation epochs toward target and reports whether every core has
// now reached it. Unlike RunContext it publishes no run telemetry, and
// steady-state stepping is allocation-free.
func (s *System) Advance(target uint64, epochs uint64) bool {
	for i := uint64(0); i < epochs; i++ {
		if s.frozen >= len(s.cores) {
			return true
		}
		s.stepEpoch(target)
	}
	return s.frozen >= len(s.cores)
}

// stepEpoch advances every core through one epoch, in core order, then
// performs the epoch-boundary work.
func (s *System) stepEpoch(target uint64) {
	for _, c := range s.cores {
		c.advance(s.epochEnd, target)
	}
	s.epochEnd += s.cfg.Epoch
	s.epochs++
	if s.epochs%bwSampleEpochs == 0 {
		s.sampleBandwidth(s.epochEnd)
	}
}

// Close hands the cache arrays back for the next system of the same
// geometry (cache.Release). Result and the stats accessors still work
// afterwards; advancing a closed system panics. A system that is never
// closed only costs the collector its arrays. Safe to call repeatedly.
func (s *System) Close() {
	for _, c := range s.cores {
		c.l1i.Release()
		c.l1d.Release()
		c.l2.Release()
	}
	s.llc.Release()
}

func (s *System) sampleBandwidth(now uint64) {
	busy := s.dram.BusBusy()
	dc := now - s.lastBWCycle
	db := busy - s.lastBWBusy
	if dc > 0 {
		s.recentUtil = float64(db) / (float64(dc) * float64(s.cfg.DRAM.Channels))
		if s.recentUtil > 1 {
			s.recentUtil = 1
		}
	}
	s.lastBWCycle, s.lastBWBusy = now, busy
	for _, c := range s.cores {
		if ba, ok := c.l2Engine.(bandwidthAware); ok {
			ba.SetBandwidthUtil(s.recentUtil)
		}
	}
}

// CoreResult reports one core's frozen-at-target statistics.
type CoreResult struct {
	Trace        string
	Instructions uint64
	Cycles       uint64
	IPC          float64
	L1D          cache.Stats
	L2           cache.Stats
	L1PrefIssued uint64
	L2PrefIssued uint64
	PrefDropped  uint64
}

// L2MPKI returns demand L2 misses per thousand instructions.
func (r CoreResult) L2MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.L2.Misses) * 1000 / float64(r.Instructions)
}

// Result aggregates a finished simulation.
type Result struct {
	Controller string
	Cores      []CoreResult
	LLC        cache.Stats
	DRAM       dram.Stats
}

// TotalPrefetches sums prefetches issued at all levels by all cores.
func (r Result) TotalPrefetches() uint64 {
	var t uint64
	for _, c := range r.Cores {
		t += c.L1PrefIssued + c.L2PrefIssued
	}
	return t
}

// TotalL2Prefetches sums L2 prefetches issued by all cores.
func (r Result) TotalL2Prefetches() uint64 {
	var t uint64
	for _, c := range r.Cores {
		t += c.L2PrefIssued
	}
	return t
}

// Result snapshots per-core stats, preferring the frozen-at-target
// values when a core crossed the target.
func (s *System) Result(target uint64) Result {
	res := Result{Controller: s.controller.Name(), LLC: s.llc.Stats(), DRAM: s.dram.Stats()}
	res.Cores = make([]CoreResult, len(s.cores))
	for i, c := range s.cores {
		cr := CoreResult{Trace: c.traceName}
		if c.frozenAt > 0 {
			cr.Instructions = target
			cr.Cycles = c.frozenAt
			cr.L1D = c.frozenL1D
			cr.L2 = c.frozenL2
			cr.L1PrefIssued = c.frozenL1Pref
			cr.L2PrefIssued = c.frozenL2Pref
			cr.PrefDropped = c.frozenDropped
		} else {
			cr.Instructions = c.instr
			cr.Cycles = c.cycle
			cr.L1D = c.l1d.Stats()
			cr.L2 = c.l2.Stats()
			cr.L1PrefIssued = c.l1PrefIssued
			cr.L2PrefIssued = c.l2PrefIssued
			cr.PrefDropped = c.prefDropped
		}
		if cr.Cycles > 0 {
			cr.IPC = float64(cr.Instructions) / float64(cr.Cycles)
		}
		res.Cores[i] = cr
	}
	return res
}

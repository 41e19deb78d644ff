// Package sim is the trace-driven multicore simulator: an MLP/ROB-
// limited core timing model in front of private L1D/L2 caches, a shared
// LLC, and a banked, bandwidth-limited DRAM (see DESIGN.md for how this
// substitutes for ChampSim). Prefetcher *controllers* — the paper's
// Bandit and µMama designs, in package core — plug in through the
// Controller interface.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"micromama/internal/cache"
	"micromama/internal/dram"
	"micromama/internal/noc"
)

// Config describes the simulated system (paper Table 3 by default).
type Config struct {
	// Cores is the number of active cores (each runs one trace).
	Cores int
	// CommitWidth is the peak instructions retired per cycle.
	CommitWidth int
	// ROB bounds how far execution runs ahead of an outstanding miss.
	ROB int
	// MLP bounds concurrently outstanding demand misses per core
	// (LQ/MSHR limited run-ahead).
	MLP int
	// PrefetchQueue bounds concurrently outstanding prefetches per core.
	PrefetchQueue int

	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	LLC cache.Config

	DRAM dram.Config
	NoC  noc.Config

	// Epoch is the global-time interleave granularity in cycles: cores
	// advance round-robin in windows of this size, which bounds how far
	// their local clocks diverge when they contend for DRAM.
	Epoch uint64

	// AddrSpaceShift namespaces each core's trace addresses (virtual
	// address spaces of distinct programs) by ORing (core+1) at this bit
	// position.
	AddrSpaceShift uint

	// WarmupInstructions, when non-zero, fast-forwards each core's
	// trace by this many instructions in functional-warmup mode before
	// timing starts: caches (L1I/L1D/L2/LLC) are populated content-only
	// — no cycle accounting, no prefetching, no DRAM traffic — and all
	// cache counters are reset afterwards, the ChampSim-style warmup
	// that skips cold-start effects on long trace prefixes. It changes
	// simulated results, so it participates in Fingerprint (omitted
	// when zero to keep existing fingerprints stable).
	WarmupInstructions uint64 `json:",omitempty"`
}

// table3DRAM is Table 3's memory system, built once: DefaultConfig is on
// mamaserved's per-cell resolve path, and dram.DDR4 formats a name.
var table3DRAM = dram.DDR4(2400, 1)

// DefaultConfig returns the paper's Table 3 system with the given core
// count: 4 GHz CPU, 48 KB L1D (5 cyc), 1 MB L2 (10 cyc), 6 MB shared
// LLC (40 cyc), one channel of DDR4-2400.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:          cores,
		CommitWidth:    4,
		ROB:            352,
		MLP:            8,
		PrefetchQueue:  32,
		L1I:            cache.Config{Name: "L1I", Sets: 64, Ways: 8, LineBytes: 64, HitLatency: 4, MSHRs: 4},
		L1D:            cache.Config{Name: "L1D", Sets: 64, Ways: 12, LineBytes: 64, HitLatency: 5, MSHRs: 8},
		L2:             cache.Config{Name: "L2", Sets: 1024, Ways: 16, LineBytes: 64, HitLatency: 10, MSHRs: 16},
		LLC:            cache.Config{Name: "LLC", Sets: 8192, Ways: 12, LineBytes: 64, HitLatency: 40, MSHRs: 64},
		DRAM:           table3DRAM,
		NoC:            noc.DefaultConfig(),
		Epoch:          64,
		AddrSpaceShift: 44,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: Cores must be >= 1, got %d", c.Cores)
	}
	if c.CommitWidth < 1 {
		return fmt.Errorf("sim: CommitWidth must be >= 1, got %d", c.CommitWidth)
	}
	if c.ROB < 1 || c.MLP < 1 {
		return fmt.Errorf("sim: ROB and MLP must be >= 1")
	}
	if c.PrefetchQueue < 0 {
		return fmt.Errorf("sim: PrefetchQueue must be >= 0")
	}
	if c.Epoch == 0 {
		return fmt.Errorf("sim: Epoch must be positive")
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2, c.LLC} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	return c.DRAM.Validate()
}

// Fingerprint returns a short, stable digest of the full configuration,
// for use as a cache key: two configs share a fingerprint iff every
// field (cache geometries, latencies, DRAM timing, core limits, ...)
// marshals identically. Prefer this over any single field (e.g. the
// DRAM name) when memoizing per-config results.
func (c Config) Fingerprint() string {
	b, err := json.Marshal(c)
	if err != nil {
		// Config is a plain value struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("sim: fingerprint config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

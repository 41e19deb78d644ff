package sim

import (
	"testing"

	"micromama/internal/prefetch"
	"micromama/internal/trace"
)

// Core hot-path microbenchmarks: steady-state per-instruction cost of
// Core.advance (the generator packed on the fly by trace.Packed, front
// end, hierarchy walk, prefetch issue) with the system constructed once
// outside the timed loop, so allocs/op reflects the per-instruction path
// only and must be 0.

func benchSystem(b *testing.B, tr trace.Reader, ctrl Controller) *System {
	b.Helper()
	sys, err := New(DefaultConfig(1), []trace.Reader{tr}, ctrl)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: run past cold-start growth of the caches' in-flight lists
	// and the trace adapter's buffer, sized on first use.
	advanceInstrs(sys, 20_000)
	return sys
}

// advanceInstrs runs the core for roughly n instructions by walking
// epoch windows, reporting exactly how many retired.
func advanceInstrs(sys *System, n uint64) uint64 {
	c := sys.cores[0]
	start := c.instr
	epochEnd := c.cycle + sys.cfg.Epoch
	for c.instr-start < n {
		c.advance(epochEnd, 0)
		epochEnd += sys.cfg.Epoch
	}
	return c.instr - start
}

func benchAdvance(b *testing.B, tr trace.Reader, ctrl Controller) {
	sys := benchSystem(b, tr, ctrl)
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		instr += advanceInstrs(sys, 1000)
	}
	b.StopTimer()
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

func streamTrace() trace.Reader {
	return trace.NewStream("bench.stream", trace.StreamConfig{
		Seed: 11, Footprint: 32 << 20, Streams: 4,
		MemRatio: 0.3, StoreRatio: 0.2, Length: 1 << 62,
	})
}

func chaseTrace() trace.Reader {
	return trace.NewChase("bench.chase", trace.ChaseConfig{
		Seed: 13, Footprint: 64 << 20, MemRatio: 0.25, LocalRatio: 0.5, Length: 1 << 62,
	})
}

func computeTrace() trace.Reader {
	return trace.NewCompute("bench.compute", trace.ComputeConfig{
		Seed: 17, WorkingSet: 32 << 10, MemRatio: 0.3, Length: 1 << 62,
	})
}

// BenchmarkCoreAdvanceL1Hit: cache-resident working set, nearly every
// access an L1 hit — the single hottest path in any simulation.
func BenchmarkCoreAdvanceL1Hit(b *testing.B) {
	benchAdvance(b, computeTrace(), NoPrefetchController())
}

// BenchmarkCoreAdvanceStream: streaming misses through the whole
// hierarchy with no prefetching.
func BenchmarkCoreAdvanceStream(b *testing.B) {
	benchAdvance(b, streamTrace(), NoPrefetchController())
}

// BenchmarkCoreAdvanceChase: dependent pointer chasing (DependsPrev
// serialization and the same-line MSHR merge scan).
func BenchmarkCoreAdvanceChase(b *testing.B) {
	benchAdvance(b, chaseTrace(), NoPrefetchController())
}

// BenchmarkCoreAdvancePrefetch: streaming with an L2 stride engine, so
// the Contains-then-Fill prefetch-issue path runs every few accesses.
func BenchmarkCoreAdvancePrefetch(b *testing.B) {
	ctrl := NewFixedController("l2_stride", func(int) prefetch.Prefetcher {
		return prefetch.NewStride("l2_stride", 64, 2)
	})
	benchAdvance(b, streamTrace(), ctrl)
}

// Package micromama_bench holds the end-to-end simulator throughput
// benchmarks: the allocation gate of `make bench-smoke`. The paper's
// tables and figures are drawn by cmd/mamabench (see the experiment
// index in DESIGN.md), which `make figures-smoke` runs over every id.
package micromama_bench

import (
	"fmt"
	"testing"

	"micromama/internal/experiment"
	"micromama/internal/sim"
	"micromama/internal/trace"
)

// BenchmarkSimulatorThroughput measures raw simulator speed
// (instructions simulated per second, single core, no prefetching).
func BenchmarkSimulatorThroughput(b *testing.B) {
	mix := experiment.MotivatingMix()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(sim.DefaultConfig(1), mix.Traces()[:1], nil)
		if err != nil {
			b.Fatal(err)
		}
		res := sys.Run(200_000, 0)
		sys.Close()
		instr += res.Cores[0].Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSimulatorThroughputCores measures aggregate multicore
// simulation speed at 1/2/4/8 simulated cores. The system is built and
// warmed outside the timed loop and stepped with the chunked Advance
// API, so steady-state allocs/op must be 0. The per-core workloads are
// compute-bound, so instr/s here is the simulator's ceiling at each
// core count, before shared-LLC and DRAM contention.
func BenchmarkSimulatorThroughputCores(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dc", cores), func(b *testing.B) {
			traces := make([]trace.Reader, cores)
			for i := range traces {
				traces[i] = trace.NewCompute(fmt.Sprintf("bench.compute.%d", i), trace.ComputeConfig{
					Seed: 17 + uint64(i)*1031, WorkingSet: 32 << 10, MemRatio: 0.3, Length: 1 << 62,
				})
			}
			sys, err := sim.New(sim.DefaultConfig(cores), traces, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()

			total := func() uint64 {
				var t uint64
				for i := 0; i < cores; i++ {
					t += sys.Instructions(i)
				}
				return t
			}
			// Warm: runs past cold-start growth of the pending-miss FIFOs
			// and cache arrays. The infinite traces and max target mean
			// no core ever freezes.
			const never, chunk = ^uint64(0), 64
			sys.Advance(never, 512)
			start := total()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Advance(never, chunk)
			}
			b.StopTimer()
			b.ReportMetric(float64(total()-start)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

package main

import (
	"testing"
	"unsafe"

	"micromama/internal/trace"
)

func TestAnalyzeStream(t *testing.T) {
	s := trace.NewStream("s", trace.StreamConfig{Seed: 1, Streams: 1, MemRatio: 0.5, Length: 100_000})
	st := Analyze(s, 100_000)
	if st.Instructions != 100_000 {
		t.Fatalf("analyzed %d instructions", st.Instructions)
	}
	mem := st.Loads + st.Stores
	ratio := float64(mem) / float64(st.Instructions)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("memory ratio %.2f, want ~0.5", ratio)
	}
	// Sequential 8B stream: the dominant stride is +8.
	if len(st.TopStrides) == 0 || st.TopStrides[0].Stride != 8 {
		t.Errorf("top stride = %+v, want +8", st.TopStrides)
	}
	if st.StrideRegularity < 0.9 {
		t.Errorf("stride regularity %.2f for a perfect stream", st.StrideRegularity)
	}
	// 50k accesses x 8B = 400 KB of footprint, ~6250 lines.
	if st.DistinctLines < 5000 || st.DistinctLines > 8000 {
		t.Errorf("distinct lines = %d", st.DistinctLines)
	}
}

func TestAnalyzeChaseDependence(t *testing.T) {
	c := trace.NewChase("c", trace.ChaseConfig{Seed: 2, MemRatio: 0.4, LocalRatio: 0.5, Length: 50_000})
	st := Analyze(c, 50_000)
	if st.Dependent == 0 {
		t.Error("chase trace shows no dependent loads")
	}
	if st.EstMPKI < 10 {
		t.Errorf("est MPKI %.1f for a pointer chase, want high", st.EstMPKI)
	}
}

func TestAnalyzeComputeLowMPKI(t *testing.T) {
	c := trace.NewCompute("k", trace.ComputeConfig{Seed: 3, WorkingSet: 64 << 10, MemRatio: 0.2, Length: 200_000})
	st := Analyze(c, 200_000)
	// 64 KB working set = 1024 lines, well inside the reuse window.
	if st.EstMPKI > 6 {
		t.Errorf("est MPKI %.1f for cache-resident code, want ~0", st.EstMPKI)
	}
}

func TestAnalyzeStopsAtN(t *testing.T) {
	s := trace.NewStream("s", trace.StreamConfig{Seed: 1, MemRatio: 0.3, Length: 1 << 40})
	st := Analyze(s, 1234)
	if st.Instructions != 1234 {
		t.Errorf("analyzed %d, want 1234", st.Instructions)
	}
}

// Run statistics are of the packed records: nine runs of 1..9 and a
// tenth of 91, each after one of ten loads, 146 instructions in 10
// records (a load carries the run after it).
func TestAnalyzeRuns(t *testing.T) {
	var ins []trace.Instr
	for _, run := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 91} {
		ins = append(ins, trace.Instr{PC: 0x2000, Addr: uint64(run) * 64, Kind: trace.Load})
		for i := 0; i < run; i++ {
			ins = append(ins, trace.Instr{PC: trace.IdlePC})
		}
	}
	st := Analyze(trace.NewSlice("runs", ins), 1000)
	if st.Instructions != 146 || st.Loads != 10 || st.Runs != 10 {
		t.Fatalf("instructions/loads/runs = %d/%d/%d, want 146/10/10", st.Instructions, st.Loads, st.Runs)
	}
	if st.RunMean != 13.6 || st.RunP50 != 5 || st.RunP99 != 91 || st.RunMax != 91 {
		t.Errorf("run mean/p50/p99/max = %v/%d/%d/%d, want 13.6/5/91/91", st.RunMean, st.RunP50, st.RunP99, st.RunMax)
	}
	if want := 10 * float64(unsafe.Sizeof(trace.Rec{})) / 146; st.PackedBytesPerInstr != want {
		t.Errorf("packed bytes per instruction = %v, want %v", st.PackedBytesPerInstr, want)
	}
}

// Analyze counts the records a pool slab holds for the same stream,
// whose runs are cut at every 64 Ki-instruction chunk floor: over 16
// chunks of a sparse stream its run count and packed bytes per
// instruction are the slab's, read to the end. A prefix cut inside a
// run is still exactly n instructions long.
func TestAnalyzeMatchesPoolSlab(t *testing.T) {
	const n = 1 << 20
	gen := func() trace.Reader {
		return trace.NewCompute("k", trace.ComputeConfig{Seed: 3, WorkingSet: 64 << 10, MemRatio: 0.02, Length: n})
	}
	pool := trace.NewPool(1<<30, 0)
	slab := pool.Shared("k", gen).(trace.PackedReader)
	var records, runs uint64
	for blk := slab.NextPacked(256); len(blk) > 0; blk = slab.NextPacked(256) {
		for _, rec := range blk {
			records++
			if rec.Kind() == trace.Other || rec.Run() > 0 {
				runs++
			}
		}
	}
	ps := pool.Stats()
	if ps.Instructions != n || ps.UsedBytes != int64(records)*int64(unsafe.Sizeof(trace.Rec{})) {
		t.Fatalf("pool holds %d instructions in %d bytes, want %d in %d records", ps.Instructions, ps.UsedBytes, n, records)
	}

	st := Analyze(gen(), n)
	if st.Instructions != n || st.Runs != runs {
		t.Errorf("analyzed %d instructions in %d runs, the pool slab holds %d in %d", st.Instructions, st.Runs, n, runs)
	}
	if want := float64(ps.UsedBytes) / float64(ps.Instructions); st.PackedBytesPerInstr != want {
		t.Errorf("packed bytes per instruction = %v (%.0f records), the pool slab's are %v (%d records)",
			st.PackedBytesPerInstr, st.PackedBytesPerInstr*n/8, want, records)
	}

	for _, cut := range []uint64{n - 1, n/2 + 7, 1} {
		if st := Analyze(gen(), cut); st.Instructions != cut {
			t.Errorf("Analyze(%d) read %d instructions", cut, st.Instructions)
		}
	}
}

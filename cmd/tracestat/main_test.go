package main

import (
	"testing"

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
// tenth of 91 between ten loads, 146 instructions in 20 records of 16
// bytes.
func TestAnalyzeRuns(t *testing.T) {
	var ins []trace.Instr
	for _, run := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 91} {
		ins = append(ins, trace.Instr{PC: 0x2000, Addr: uint64(run) * 64, Kind: trace.Load})
		for i := 0; i < run; i++ {
			ins = append(ins, trace.Instr{PC: 0x1000})
		}
	}
	st := Analyze(trace.NewSlice("runs", ins), 1000)
	if st.Instructions != 146 || st.Loads != 10 || st.Runs != 10 {
		t.Fatalf("instructions/loads/runs = %d/%d/%d, want 146/10/10", st.Instructions, st.Loads, st.Runs)
	}
	if st.RunMean != 13.6 || st.RunP50 != 5 || st.RunP99 != 91 || st.RunMax != 91 {
		t.Errorf("run mean/p50/p99/max = %v/%d/%d/%d, want 13.6/5/91/91", st.RunMean, st.RunP50, st.RunP99, st.RunMax)
	}
	if want := 20 * 16.0 / 146; st.PackedBytesPerInstr != want {
		t.Errorf("packed bytes per instruction = %v, want %v", st.PackedBytesPerInstr, want)
	}
}

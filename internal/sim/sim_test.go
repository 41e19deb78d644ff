package sim

import (
	"testing"

	"micromama/internal/dram"
	"micromama/internal/prefetch"
	"micromama/internal/trace"
	"micromama/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(4)
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("Cores=0 validated")
	}
	bad = DefaultConfig(4)
	bad.Epoch = 0
	if err := bad.Validate(); err == nil {
		t.Error("Epoch=0 validated")
	}
	bad = DefaultConfig(4)
	bad.L2.Sets = 3
	if err := bad.Validate(); err == nil {
		t.Error("bad L2 validated")
	}
}

// DefaultConfig is called once per cell by mamaserved's resolver: it
// must stay a plain value copy, and still Table 3's DDR4-2400 x1.
func TestDefaultConfigDoesNotAllocate(t *testing.T) {
	if got, want := DefaultConfig(4).DRAM, dram.DDR4(2400, 1); got != want {
		t.Errorf("default DRAM = %+v, want %+v", got, want)
	}
	var c Config
	if allocs := testing.AllocsPerRun(100, func() { c = DefaultConfig(4) }); allocs != 0 {
		t.Errorf("DefaultConfig allocates %v times, want 0", allocs)
	}
	_ = c
}

func TestNewRejectsTraceMismatch(t *testing.T) {
	spec, _ := workload.ByName("spec06.povray")
	if _, err := New(DefaultConfig(2), []trace.Reader{spec.New()}, nil); err == nil {
		t.Error("1 trace for 2 cores accepted")
	}
}

func TestNilControllerDefaultsToNoPrefetch(t *testing.T) {
	spec, _ := workload.ByName("spec06.povray")
	sys, err := New(DefaultConfig(1), []trace.Reader{spec.New()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Controller().Name() != "no" {
		t.Errorf("default controller = %q", sys.Controller().Name())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		specs := []string{"spec06.libquantum", "ligra.BFS"}
		traces := make([]trace.Reader, 2)
		for i, n := range specs {
			sp, _ := workload.ByName(n)
			traces[i] = sp.New()
		}
		ctrl := NewFixedController("fixed", func(c int) prefetch.Prefetcher {
			e := prefetch.NewEnsemble()
			e.SetArm(8)
			return e
		})
		sys, _ := New(DefaultConfig(2), traces, ctrl)
		return sys.Run(200_000, 0)
	}
	a, b := run(), run()
	for i := range a.Cores {
		if a.Cores[i].Cycles != b.Cores[i].Cycles || a.Cores[i].Instructions != b.Cores[i].Instructions {
			t.Fatalf("nondeterministic run: core %d %+v vs %+v", i, a.Cores[i], b.Cores[i])
		}
	}
	if a.DRAM != b.DRAM {
		t.Error("DRAM stats differ between identical runs")
	}
}

func TestFreezeAtTarget(t *testing.T) {
	spec, _ := workload.ByName("spec06.povray")
	sys, _ := New(DefaultConfig(1), []trace.Reader{spec.New()}, nil)
	res := sys.Run(123_456, 0)
	if res.Cores[0].Instructions != 123_456 {
		t.Errorf("frozen instructions = %d, want exactly the target", res.Cores[0].Instructions)
	}
	if res.Cores[0].IPC <= 0 {
		t.Error("IPC not computed")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	// mcf at IPC ~0.06 cannot retire 10M instructions within 1M cycles;
	// the guard must stop the run and report partial progress.
	spec, _ := workload.ByName("spec06.mcf")
	sys, _ := New(DefaultConfig(1), []trace.Reader{spec.New()}, nil)
	res := sys.Run(10_000_000, 1_000_000)
	if res.Cores[0].Instructions >= 10_000_000 {
		t.Error("guard did not stop the run")
	}
	if res.Cores[0].Instructions == 0 || res.Cores[0].IPC <= 0 {
		t.Errorf("partial stats unusable: %+v", res.Cores[0])
	}
}

func TestAddressSpaceIsolation(t *testing.T) {
	// Two cores running the IDENTICAL trace must not share cache lines:
	// the shared LLC would otherwise give core 1 free hits on core 0's
	// fills. With namespacing, both cores' LLC demand misses are
	// independent.
	spec, _ := workload.ByName("spec06.libquantum")
	sys, _ := New(DefaultConfig(2), []trace.Reader{spec.New(), spec.New()}, nil)
	res := sys.Run(100_000, 0)
	llc := res.LLC
	if llc.Hits > llc.Misses/4 {
		t.Errorf("suspiciously many LLC hits (%d vs %d misses) — address spaces overlapping?", llc.Hits, llc.Misses)
	}
}

func TestResultAggregates(t *testing.T) {
	spec, _ := workload.ByName("spec06.libquantum")
	ctrl := NewFixedController("fixed", func(int) prefetch.Prefetcher {
		e := prefetch.NewEnsemble()
		e.SetArm(8)
		return e
	})
	sys, _ := New(DefaultConfig(1), []trace.Reader{spec.New()}, ctrl)
	res := sys.Run(200_000, 0)
	if res.TotalL2Prefetches() == 0 {
		t.Error("no L2 prefetches with streamer arm")
	}
	if res.TotalPrefetches() < res.TotalL2Prefetches() {
		t.Error("total prefetches < L2 prefetches")
	}
	if res.Cores[0].L2MPKI() < 0 {
		t.Error("negative MPKI")
	}
}

func TestFixedControllerPerCoreFactory(t *testing.T) {
	seen := map[int]bool{}
	ctrl := NewFixedController("f", func(c int) prefetch.Prefetcher {
		seen[c] = true
		return prefetch.None{}
	})
	specs := []string{"spec06.povray", "spec06.gamess"}
	traces := make([]trace.Reader, 2)
	for i, n := range specs {
		sp, _ := workload.ByName(n)
		traces[i] = sp.New()
	}
	if _, err := New(DefaultConfig(2), traces, ctrl); err != nil {
		t.Fatal(err)
	}
	if !seen[0] || !seen[1] {
		t.Error("factory not called per core")
	}
}

func TestStoreHeavyWritebacks(t *testing.T) {
	// lbm is 40% stores. With a deliberately tiny hierarchy, dirty lines
	// must ripple L1 -> L2 -> LLC -> DRAM as writebacks.
	cfg := DefaultConfig(1)
	cfg.L1D.Sets, cfg.L1D.Ways = 16, 2
	cfg.L2.Sets, cfg.L2.Ways = 64, 2
	cfg.LLC.Sets, cfg.LLC.Ways = 128, 2
	spec, _ := workload.ByName("spec06.lbm")
	sys, err := New(cfg, []trace.Reader{spec.New()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(200_000, 0)
	if res.DRAM.Writes == 0 {
		t.Error("store-heavy trace produced no DRAM writebacks")
	}
	if res.LLC.Writebacks == 0 {
		t.Error("no LLC writebacks recorded")
	}
}

func TestEmptyTraceCoreTerminates(t *testing.T) {
	// A core whose trace is empty can never retire its target; the run
	// must still terminate at the cycle guard with the other core's
	// stats intact.
	spec, _ := workload.ByName("spec06.povray")
	empty := trace.NewSlice("empty", nil)
	sys, err := New(DefaultConfig(2), []trace.Reader{spec.New(), empty}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(100_000, 2_000_000)
	if res.Cores[0].Instructions == 0 {
		t.Error("healthy core made no progress beside an empty one")
	}
	if res.Cores[1].Instructions != 0 {
		t.Error("empty trace somehow retired instructions")
	}
}

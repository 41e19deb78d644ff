package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"micromama/internal/prefetch"
	"micromama/internal/sim"
	"micromama/internal/trace"
	"micromama/internal/xrand"
)

// The run-length step of Core.advance and warmupAdvance is checked
// against the loop it replaces: the same instruction stream is given to
// one system a record per instruction (trace.Slice, Run == 0 throughout)
// and to another run-length packed, both are stepped one epoch at a
// time, and every core's (Instructions, Cycles) must agree after every
// epoch, and the Result at the end.

// packedOf is how a test case turns a stream into the packed reader.
type packedOf func(core int, ins []trace.Instr) trace.Reader

func materialized(core int, ins []trace.Instr) trace.Reader {
	return trace.NewMaterialized(fmt.Sprintf("core%d", core), ins).Replay()
}

// pooledCapped serves the stream from a pool whose per-trace cap is
// recs records, so that all but a short prefix is tail-streamed.
func pooledCapped(recs int64) packedOf {
	return func(core int, ins []trace.Instr) trace.Reader {
		name := fmt.Sprintf("core%d", core)
		pool := trace.NewPool(1<<20, recs*24)
		return pool.Shared(name, func() trace.Reader { return trace.NewSlice(name, ins) })
	}
}

func strideController() sim.Controller {
	return sim.NewFixedController("l2_stride", func(int) prefetch.Prefetcher {
		return prefetch.NewStride("l2_stride", 64, 2)
	})
}

// diffRun steps an unpacked and a packed system over streams in lock
// step for at most maxEpochs epochs and returns the common Result.
func diffRun(t *testing.T, what string, cfg sim.Config, target, maxEpochs uint64, streams [][]trace.Instr, packed packedOf) sim.Result {
	t.Helper()
	build := func(reader packedOf) *sim.System {
		traces := make([]trace.Reader, len(streams))
		for i, ins := range streams {
			traces[i] = reader(i, ins)
		}
		sys, err := sim.New(cfg, traces, strideController())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return sys
	}
	plain := build(func(i int, ins []trace.Instr) trace.Reader { return trace.NewSlice(fmt.Sprintf("core%d", i), ins) })
	run := build(packed)
	defer plain.Close()
	defer run.Close()

	for epoch := uint64(1); epoch <= maxEpochs; epoch++ {
		donePlain, doneRun := plain.Advance(target, 1), run.Advance(target, 1)
		for c := 0; c < cfg.Cores; c++ {
			if plain.Instructions(c) != run.Instructions(c) || plain.Cycles(c) != run.Cycles(c) {
				t.Fatalf("%s: epoch %d core %d: packed at (instr %d, cycle %d), unpacked at (instr %d, cycle %d)",
					what, epoch, c, run.Instructions(c), run.Cycles(c), plain.Instructions(c), plain.Cycles(c))
			}
		}
		if donePlain != doneRun {
			t.Fatalf("%s: epoch %d: packed done=%v, unpacked done=%v", what, epoch, doneRun, donePlain)
		}
		if donePlain {
			break
		}
	}
	want, got := plain.Result(target), run.Result(target)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ\npacked:   %+v\nunpacked: %+v", what, got, want)
	}
	return got
}

// runnyStream is a random stream shaped like the catalog's: mostly
// runs of one non-memory record, of every length, between loads (some
// dependent), stores, and non-memory instructions on other fetch lines.
func runnyStream(r *xrand.RNG, n int) []trace.Instr {
	ins := make([]trace.Instr, 0, n)
	other := func(pc uint64, k int) {
		for ; k > 0; k-- {
			ins = append(ins, trace.Instr{PC: pc})
		}
	}
	for len(ins) < n {
		switch r.Intn(8) {
		case 0, 1:
			load := trace.Instr{PC: uint64(0x2000 + r.Intn(16)*4), Addr: uint64(r.Intn(1 << 22)), Kind: trace.Load}
			if r.Intn(4) == 0 {
				load.Flags = trace.DependsPrev
			}
			ins = append(ins, load)
		case 2:
			ins = append(ins, trace.Instr{PC: uint64(0x3000 + r.Intn(16)*4), Addr: uint64(r.Intn(1 << 22)), Kind: trace.Store})
		case 3:
			other(0x1000, 1)
		case 4, 5:
			other(0x1000, 2+r.Intn(40))
		case 6:
			other(0x1000, 100+r.Intn(2000))
		case 7:
			other(uint64(0x8000+r.Intn(64)*64), 1+r.Intn(20)) // another fetch line
		}
	}
	return ins[:n]
}

func TestPackedStepMatchesUnpackedRandom(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 10
	}
	for seed := uint64(1); seed <= uint64(cases); seed++ {
		r := xrand.New(seed * 0x9e3779b97f4a7c15)
		cores := 1 + r.Intn(4)
		cfg := sim.DefaultConfig(cores)
		cfg.CommitWidth = 1 + r.Intn(8)
		cfg.Epoch = uint64(1 + r.Intn(256))
		if r.Intn(2) == 0 {
			cfg.WarmupInstructions = uint64(r.Intn(4000))
		}
		target := uint64(1 + r.Intn(15000))
		// The guard: sometimes far too few epochs for the target, so
		// that cores stop mid-run, unfrozen.
		maxEpochs := uint64(1 + r.Intn(2_000_000/int(cfg.Epoch)))
		if r.Intn(3) == 0 {
			maxEpochs = uint64(1 + r.Intn(40))
		}
		streams := make([][]trace.Instr, cores)
		for i := range streams {
			streams[i] = runnyStream(&r, 200+r.Intn(5000)) // most are shorter than the target and wrap
		}
		what := fmt.Sprintf("seed %d (cores %d, width %d, epoch %d, warmup %d, target %d, max epochs %d)",
			seed, cores, cfg.CommitWidth, cfg.Epoch, cfg.WarmupInstructions, target, maxEpochs)
		diffRun(t, what, cfg, target, maxEpochs, streams, materialized)
	}
}

// Run (RunContext) over the same streams with a MaxCycles guard.
func TestPackedRunMatchesUnpackedMaxCycles(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := xrand.New(seed)
		ins := runnyStream(&r, 3000)
		cfg := sim.DefaultConfig(1)
		cfg.CommitWidth = 1 + r.Intn(8)
		target, maxCycles := uint64(20_000), uint64(500+r.Intn(60_000))
		run := func(tr trace.Reader) sim.Result {
			sys, err := sim.New(cfg, []trace.Reader{tr}, strideController())
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			return sys.Run(target, maxCycles)
		}
		want, got := run(trace.NewSlice("core0", ins)), run(materialized(0, ins))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, max cycles %d: results differ\npacked:   %+v\nunpacked: %+v", seed, maxCycles, got, want)
		}
	}
}

// group is a load followed by run non-memory instructions at one PC.
func group(addr uint64, run int) []trace.Instr {
	ins := []trace.Instr{{PC: 0x2000, Addr: addr, Kind: trace.Load}}
	for i := 0; i < run; i++ {
		ins = append(ins, trace.Instr{PC: 0x1000})
	}
	return ins
}

func TestPackedStepCases(t *testing.T) {
	var long []trace.Instr
	for g := 0; g < 30; g++ {
		long = append(long, group(uint64(g)*4096, 100)...)
	}
	cases := []struct {
		name   string
		stream []trace.Instr
		target uint64
		tune   func(*sim.Config)
		packed packedOf
	}{
		// Width 3 and an epoch of 7 cycles: 21 commit slots an epoch, so
		// the run of 1000 is entered mid-cycle (the load took a slot) and
		// is cut at dozens of boundaries.
		{name: "run crossing epoch boundaries, entered with subCycle != 0", stream: group(0x40, 1000), target: 3000,
			tune: func(c *sim.Config) { c.CommitWidth, c.Epoch = 3, 7 }},
		{name: "target strictly inside a run", stream: group(0x40, 1000), target: 500},
		{name: "run ending exactly on the target", stream: append(group(0x40, 499), group(0x80, 10)...), target: 500},
		{name: "target on the head of a run", stream: group(0x40, 1000), target: 2},
		{name: "warmup ending inside a run", stream: group(0x40, 1000), target: 1500,
			tune: func(c *sim.Config) { c.WarmupInstructions = 300 }},
		{name: "warmup ending exactly on a run's end", stream: group(0x40, 299), target: 700,
			tune: func(c *sim.Config) { c.WarmupInstructions = 300 }},
		{name: "trace wrap directly after a run", stream: group(0x40, 50), target: 1000},
		{name: "trace that is one run", stream: group(0x40, 50)[1:], target: 1000},
		// Two records fit: the load, and a run head whose 99 followers the
		// budget no longer admits — they and everything after are streamed.
		{name: "capped slab whose frontier falls inside a run", stream: long, target: 2 * uint64(len(long)), packed: pooledCapped(2)},
		{name: "capped slab whose frontier falls on a load", stream: long, target: 2 * uint64(len(long)), packed: pooledCapped(3)},
	}
	for _, tc := range cases {
		for _, cores := range []int{1, 2} {
			cfg := sim.DefaultConfig(cores)
			if tc.tune != nil {
				tc.tune(&cfg)
			}
			packed := tc.packed
			if packed == nil {
				packed = materialized
			}
			streams := [][]trace.Instr{tc.stream, long}[:cores]
			what := fmt.Sprintf("%s (%d cores)", tc.name, cores)
			res := diffRun(t, what, cfg, tc.target, 1<<20, streams, packed)
			if got := res.Cores[0].Instructions; got != tc.target {
				t.Errorf("%s: core 0 froze at %d instructions, want %d", what, got, tc.target)
			}
		}
	}
}

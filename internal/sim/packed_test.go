package sim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"micromama/internal/prefetch"
	"micromama/internal/sim"
	"micromama/internal/trace"
	"micromama/internal/xrand"
)

// The run-length step of Core.advance and warmupAdvance is checked
// against the loop it replaces: the same instruction stream is given to
// one system a record per instruction (trace.Slice, no runs) and to
// another run-length packed, both are stepped one epoch at a time, and
// every core's (Instructions, Cycles) must agree after every epoch, and
// the Result at the end. The packed side is a slab read in place, or a
// stream packed on the fly by trace.Packed: a bare generator's, or the
// tail past a capped slab.

// packedOf is how a test case turns a stream into the packed reader.
type packedOf func(core int, ins []trace.Instr) trace.Reader

func materialized(core int, ins []trace.Instr) trace.Reader {
	return trace.NewMaterialized(fmt.Sprintf("core%d", core), ins).Replay()
}

// pooledCapped serves the stream from a pool whose per-trace cap is
// recs records, so that all but a prefix is packed on the fly.
func pooledCapped(recs int64) packedOf {
	return func(core int, ins []trace.Instr) trace.Reader {
		name := fmt.Sprintf("core%d", core)
		pool := trace.NewPool(1<<20, recs*int64(unsafe.Sizeof(trace.Rec{})))
		return pool.Shared(name, func() trace.Reader { return trace.NewSlice(name, ins) })
	}
}

// generator hides every surface of the stream but Next, Reset and Name,
// as a synthetic generator or a trace file has them.
type generator struct{ trace.Reader }

// unbudgeted serves the stream from a pool with no budget: Shared
// returns the generator itself, and the core packs it on the fly.
func unbudgeted(core int, ins []trace.Instr) trace.Reader {
	name := fmt.Sprintf("core%d", core)
	r := trace.NewPool(0, 0).Shared(name, func() trace.Reader { return generator{trace.NewSlice(name, ins)} })
	if _, ok := r.(generator); !ok {
		panic(fmt.Sprintf("a pool with no budget returned a %T, not the generator", r))
	}
	return r
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
// One stream in eight also holds, at a random place, a run longer than
// one packed record stands for, which the packer splits.
func runnyStream(r *xrand.RNG, n int) []trace.Instr {
	ins := make([]trace.Instr, 0, n)
	other := func(pc uint16, k int) {
		for ; k > 0; k-- {
			ins = append(ins, trace.Instr{PC: pc})
		}
	}
	for len(ins) < n {
		switch r.Intn(8) {
		case 0, 1:
			load := trace.Instr{PC: uint16(0x2000 + r.Intn(16)*4), Addr: uint64(r.Intn(1 << 22)), Kind: trace.Load}
			if r.Intn(4) == 0 {
				load.Flags = trace.DependsPrev
			}
			ins = append(ins, load)
		case 2:
			ins = append(ins, trace.Instr{PC: uint16(0x3000 + r.Intn(16)*4), Addr: uint64(r.Intn(1 << 22)), Kind: trace.Store})
		case 3:
			other(0x1000, 1)
		case 4, 5:
			other(0x1000, 2+r.Intn(40))
		case 6:
			other(0x1000, 100+r.Intn(2000))
		case 7:
			other(uint16(0x8000+r.Intn(64)*64), 1+r.Intn(20)) // another fetch line
		}
	}
	ins = ins[:n]
	if r.Intn(8) == 0 {
		long := make([]trace.Instr, 1<<16+r.Intn(1<<12))
		for i := range long {
			long[i] = trace.Instr{PC: 0x1000}
		}
		ins = slices.Insert(ins, r.Intn(n+1), long...)
	}
	return ins
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
			if len(streams[i]) > 1<<16 {
				target += uint64(len(streams[i])) // through the split run, guard permitting
			}
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

// evictingStream is groups of nine loads at PCs 0x2000, 0x3000, …
// 0xA000, then an idle run. With IdlePC those are ten lines of one
// 8-way L1I set, so by the time a run starts the loads have evicted its
// line, and the run's first fetch misses. The loads rotate, so each PC
// is in turn the one a run follows.
func evictingStream(groups int) []trace.Instr {
	var ins []trace.Instr
	for g := 0; g < groups; g++ {
		for k := 0; k < 9; k++ {
			pc := uint16(0x2000 + (g+k)%9*0x1000)
			ins = append(ins, trace.Instr{PC: pc, Addr: uint64(g*9+k) * 64, Kind: trace.Load})
		}
		for i := 1 + g*37%200; i > 0; i-- {
			ins = append(ins, trace.Instr{PC: trace.IdlePC})
		}
	}
	return ins
}

func TestPackedStepCases(t *testing.T) {
	var long []trace.Instr
	for g := 0; g < 30; g++ {
		long = append(long, group(uint64(g)*4096, 100)...)
	}
	evicting := evictingStream(40)
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
		// An L1I miss is at least 14 cycles, two epochs of 7.
		{name: "run whose first fetch misses the L1I", stream: evicting, target: 3000,
			tune: func(c *sim.Config) { c.CommitWidth, c.Epoch = 3, 7 }},
		{name: "run whose first fetch misses the L1I, after warmup", stream: evicting, target: 3000,
			tune: func(c *sim.Config) { c.CommitWidth, c.Epoch, c.WarmupInstructions = 3, 7, 1500 }},
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

// The core's read path through trace.Packed: a pool with no budget hands
// the core a bare generator, and a per-trace cap of one chunk (65 536
// records; every instruction of the first chunk is a load, so the first
// chunk fills it) leaves the rest of the trace to the capped tail. Both
// must step exactly like the unpacked stream, through a trace wrap; the
// capped one into its tail a second time, which rebuilds the generator
// and skips the slab's prefix.
func TestPackedAdapterMatchesUnpacked(t *testing.T) {
	const chunk = 1 << 16
	for seed := uint64(1); seed <= 6; seed++ {
		r := xrand.New(seed)
		cfg := sim.DefaultConfig(1 + r.Intn(2))
		cfg.CommitWidth = 1 + r.Intn(8)
		cfg.Epoch = uint64(1 + r.Intn(256))
		streams := make([][]trace.Instr, cfg.Cores)
		for i := range streams {
			streams[i] = runnyStream(&r, 200+r.Intn(5000))
		}
		what := fmt.Sprintf("seed %d, no budget (cores %d, width %d, epoch %d)", seed, cfg.Cores, cfg.CommitWidth, cfg.Epoch)
		diffRun(t, what, cfg, 20_000, 1<<20, streams, unbudgeted)

		dense := make([]trace.Instr, chunk, chunk+20_000)
		for i := range dense {
			dense[i] = trace.Instr{PC: 0x2000, Addr: uint64(i%4096) * 64, Kind: trace.Load}
		}
		streams = [][]trace.Instr{append(dense, runnyStream(&r, 20_000)...)}
		cfg = sim.DefaultConfig(1)
		cfg.Epoch = uint64(1 + r.Intn(256))
		what = fmt.Sprintf("seed %d, cap of one chunk (epoch %d)", seed, cfg.Epoch)
		diffRun(t, what, cfg, 2*uint64(len(streams[0]))+5_000, 1<<20, streams, pooledCapped(chunk))
	}
}

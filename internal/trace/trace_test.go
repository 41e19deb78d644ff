package trace

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Other.String() != "other" || Load.String() != "load" || Store.String() != "store" {
		t.Error("Kind.String mnemonics wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestSliceReader(t *testing.T) {
	ins := []Instr{{PC: 1, Kind: Other}, {PC: 2, Addr: 0x40, Kind: Load}}
	s := NewSlice("t", ins)
	if s.Name() != "t" {
		t.Errorf("Name = %q", s.Name())
	}
	var got []Instr
	for {
		i, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, i)
	}
	if len(got) != 2 || got[1].Addr != 0x40 {
		t.Errorf("read %v", got)
	}
	s.Reset()
	if i, ok := s.Next(); !ok || i.PC != 1 {
		t.Error("Reset did not rewind")
	}
}

func TestLoopingWraps(t *testing.T) {
	s := NewSlice("t", []Instr{{PC: 1}, {PC: 2}})
	l := NewLooping(s)
	for i := 0; i < 7; i++ {
		if _, ok := l.Next(); !ok {
			t.Fatal("looping trace ended")
		}
	}
	if l.Wraps() != 3 {
		t.Errorf("Wraps = %d, want 3 (7 reads of a 2-instr trace)", l.Wraps())
	}
	l.Reset()
	if l.Wraps() != 0 {
		t.Error("Reset did not clear wrap count")
	}
}

func TestLoopingEmptyTrace(t *testing.T) {
	l := NewLooping(NewSlice("empty", nil))
	if _, ok := l.Next(); ok {
		t.Error("empty looping trace returned an instruction")
	}
}

// generators lists a representative of each synthetic class.
func generators() []Reader {
	return []Reader{
		NewStream("s", StreamConfig{Seed: 1, MemRatio: 0.3, StoreRatio: 0.2, Length: 5000}),
		NewStride("st", StrideConfig{Seed: 2, Strides: []uint64{128, 384}, MemRatio: 0.3, NoiseRatio: 0.05, Length: 5000}),
		NewChase("c", ChaseConfig{Seed: 3, MemRatio: 0.3, LocalRatio: 0.5, Length: 5000}),
		NewGraph("g", GraphConfig{Seed: 4, MemRatio: 0.3, GatherMemRatio: 0.1, ScanPhase: 500, GatherPhase: 500, Length: 5000}),
		NewCompute("k", ComputeConfig{Seed: 5, MemRatio: 0.2, Length: 5000}),
		NewMixed("m", 700, 5000,
			NewStream("m.a", StreamConfig{Seed: 6, MemRatio: 0.3, Length: 5000}),
			NewCompute("m.b", ComputeConfig{Seed: 7, MemRatio: 0.2, Length: 5000})),
	}
}

func drain(r Reader) []Instr {
	var out []Instr
	for {
		i, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, i)
	}
}

func TestGeneratorsDeterministicAfterReset(t *testing.T) {
	for _, g := range generators() {
		first := drain(g)
		if len(first) != 5000 {
			t.Errorf("%s: produced %d instructions, want 5000", g.Name(), len(first))
		}
		g.Reset()
		second := drain(g)
		if len(second) != len(first) {
			t.Fatalf("%s: reset replay length %d != %d", g.Name(), len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: reset replay diverged at %d: %+v vs %+v", g.Name(), i, first[i], second[i])
			}
		}
	}
}

func TestGeneratorMemRatios(t *testing.T) {
	for _, g := range generators() {
		mem := 0
		for _, ins := range drain(g) {
			if ins.Kind != Other {
				mem++
				if ins.Addr == 0 && ins.Kind == Load {
					// chase starts at address base+0; allow it
					continue
				}
			}
		}
		if mem == 0 {
			t.Errorf("%s: no memory instructions", g.Name())
		}
		if mem == 5000 {
			t.Errorf("%s: every instruction is memory", g.Name())
		}
	}
}

func TestChaseMarksDependencies(t *testing.T) {
	c := NewChase("c", ChaseConfig{Seed: 1, MemRatio: 0.5, LocalRatio: 0.3, Length: 10000})
	dep, loads := 0, 0
	for _, ins := range drain(c) {
		if ins.Kind == Load {
			loads++
			if ins.Flags&DependsPrev != 0 {
				dep++
			}
		}
	}
	if dep == 0 {
		t.Fatal("chase generator produced no dependent loads")
	}
	if dep >= loads {
		t.Error("every load dependent; local accesses should not be")
	}
}

func TestStreamIsSequential(t *testing.T) {
	s := NewStream("s", StreamConfig{Seed: 9, Streams: 1, MemRatio: 1.0, Length: 1000})
	var last uint64
	var have bool
	for _, ins := range drain(s) {
		if ins.Kind == Store { // stores share the stream pattern
			continue
		}
		if have && ins.Addr != last+8 {
			t.Fatalf("stream jumped from %#x to %#x", last, ins.Addr)
		}
		last, have = ins.Addr, true
	}
}

func TestGraphPhasesAlternate(t *testing.T) {
	g := NewGraph("g", GraphConfig{
		Seed: 2, Vertices: 1 << 16, MemRatio: 1.0, GatherMemRatio: 1.0,
		ScanPhase: 100, GatherPhase: 100, Length: 1000,
	})
	scanPC, gatherPC := 0, 0
	for _, ins := range drain(g) {
		switch ins.PC {
		case 0x5000:
			scanPC++
		case 0x5004:
			gatherPC++
		}
	}
	if scanPC == 0 || gatherPC == 0 {
		t.Errorf("graph phases did not alternate: scan=%d gather=%d", scanPC, gatherPC)
	}
}

func TestMixedRotatesPhases(t *testing.T) {
	a := NewStream("a", StreamConfig{Seed: 1, MemRatio: 1, Length: 1 << 62})
	b := NewCompute("b", ComputeConfig{Seed: 2, MemRatio: 1, Length: 1 << 62})
	m := NewMixed("m", 10, 40, a, b)
	pcs := map[uint32]int{}
	for _, ins := range drain(m) {
		pcs[ins.PC]++
	}
	if pcs[0x2000] == 0 || pcs[0x6000] == 0 {
		t.Errorf("mixed did not draw from both sub-generators: %v", pcs)
	}
}

// Property: every generator, for any seed, yields identical streams from
// two instances with the same config.
func TestQuickGeneratorSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewGraph("g", GraphConfig{Seed: seed, MemRatio: 0.4, GatherMemRatio: 0.2, ScanPhase: 50, GatherPhase: 50, Length: 300})
		b := NewGraph("g", GraphConfig{Seed: seed, MemRatio: 0.4, GatherMemRatio: 0.2, ScanPhase: 50, GatherPhase: 50, Length: 300})
		x, y := drain(a), drain(b)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

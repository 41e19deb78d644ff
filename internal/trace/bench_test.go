package trace

import "testing"

// benchCfg matches the catalog's chase-heavy traces (the simulator
// benchmark's workload class) at a finite length.
func benchStreamGen() Reader {
	return NewChase("bench.chase", ChaseConfig{Seed: 42, MemRatio: 0.3, LocalRatio: 0.5, Length: 1 << 16})
}

// BenchmarkTraceNext measures streaming generation: one PRNG-driven
// Next() per instruction, looping via Reset.
func BenchmarkTraceNext(b *testing.B) {
	g := benchStreamGen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins, ok := g.Next()
		if !ok {
			g.Reset()
			ins, _ = g.Next()
		}
		sink += ins.Addr
	}
}

// BenchmarkTraceReplay measures materialized replay through the same
// Reader interface; steady state must be 0 allocs/op.
func BenchmarkTraceReplay(b *testing.B) {
	m := Materialize(benchStreamGen(), 0)
	r := m.Replay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins, ok := r.Next()
		if !ok {
			r.Reset()
			ins, _ = r.Next()
		}
		sink += ins.Addr
	}
}

// BenchmarkTraceReplayBlock measures block replay for a consumer that
// wants one record per instruction (runs expanded into the cursor's
// buffer); 0 allocs/op.
func BenchmarkTraceReplayBlock(b *testing.B) {
	m := Materialize(benchStreamGen(), 0)
	r := m.Replay()
	r.NextBlock(256) // the cursor's one allocation: its expansion buffer
	r.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		blk := r.NextBlock(256)
		if len(blk) == 0 {
			r.Reset()
			continue
		}
		for _, ins := range blk {
			sink += ins.Addr
		}
		n += len(blk)
	}
}

// BenchmarkTraceReplayPacked measures the zero-copy packed path the
// simulator core uses, per instruction the records stand for; 0
// allocs/op. It also reports the slab's density, bytes held per
// instruction.
func BenchmarkTraceReplayPacked(b *testing.B) {
	m := Materialize(benchStreamGen(), 0)
	r := m.Replay()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		blk := r.NextPacked(256)
		if len(blk) == 0 {
			r.Reset()
			continue
		}
		for _, rec := range blk {
			sink += rec.Addr
			n += int(rec.Run) + 1
		}
	}
	b.ReportMetric(float64(m.Footprint())/float64(m.Len()), "B/instr")
}

var sink uint64

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

// benchReplay is a pool replay of the bench trace whose slab is
// already whole, so that a benchmark times reads, not the extension.
func benchReplay() (*sharedReplay, *Pool) {
	pool := NewPool(1<<30, 0)
	r := pool.Shared("bench.chase", benchStreamGen).(*sharedReplay)
	for len(r.NextPacked(packBatch)) > 0 {
	}
	r.Reset()
	return r, pool
}

// BenchmarkTraceReplay measures pool replay through the same Reader
// interface; steady state must be 0 allocs/op.
func BenchmarkTraceReplay(b *testing.B) {
	r, _ := benchReplay()
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
	r, _ := benchReplay()
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
// instruction. The trace is one extendChunk, so no chunk floor cuts a
// run.
func BenchmarkTraceReplayPacked(b *testing.B) {
	r, pool := benchReplay()
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
			sink += rec.Addr()
			n += int(rec.Run()) + 1
		}
	}
	st := pool.Stats()
	b.ReportMetric(float64(st.UsedBytes)/float64(st.Instructions), "B/instr")
}

var sink uint64

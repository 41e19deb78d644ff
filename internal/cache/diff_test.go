package cache

import (
	"encoding/binary"
	"testing"

	"micromama/internal/xrand"
)

// Differential testing: the optimized Cache and the map-based refCache
// consume identical operation streams and must report identical
// observable behavior after every step — lookup outcomes, victims,
// MSHR occupancy, and the full Stats counters.
//
// The byte-stream driver is shared between the native fuzzer
// (FuzzCacheVsReference; `make fuzz-smoke` runs it for ten seconds, and
// `go test -fuzz=FuzzCacheVsReference ./internal/cache` for as long as
// wanted) and a seeded soak test that runs on every `go test`.

// The geometries cover the edges of the one-word layout: 1 way (the
// rank word never changes), 12 ways (Table 3's L1D and LLC), 16 ways
// (every nibble of the rank word live, none parked) and 8-byte lines
// (the smallest Validate allows, the line number filling 61 bits).
var diffCfgs = []Config{
	{Name: "l1-like", Sets: 4, Ways: 3, LineBytes: 64, HitLatency: 5, MSHRs: 4},
	{Name: "direct", Sets: 8, Ways: 1, LineBytes: 32, HitLatency: 4, MSHRs: 2},
	{Name: "fat", Sets: 2, Ways: 8, LineBytes: 128, HitLatency: 10, MSHRs: 8},
	{Name: "mshr1", Sets: 4, Ways: 2, LineBytes: 64, HitLatency: 4, MSHRs: 1},
	{Name: "ways12", Sets: 4, Ways: 12, LineBytes: 64, HitLatency: 5, MSHRs: 8},
	{Name: "ways16", Sets: 2, Ways: 16, LineBytes: 64, HitLatency: 10, MSHRs: 16},
	{Name: "line8", Sets: 8, Ways: 4, LineBytes: 8, HitLatency: 4, MSHRs: 4},
}

// applyOps drives both models with the operation stream encoded in
// data, reporting the first divergence. Addresses are confined to a
// small line space so sets collide, evictions are common, and the MSHR
// tracker saturates.
func applyOps(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	got := New(cfg)
	want := newRefCache(cfg)

	var now uint64
	for step := 0; len(data) >= 4; step++ {
		op := data[0] % 8
		// 64 distinct lines, each with or without the top address bit:
		// tags are not pure set indices, and a way word's line number
		// reaches its top bit.
		addr := (uint64(data[1]) % 64) * cfg.LineBytes
		if data[1]&0x80 != 0 {
			addr |= 1 << 63
		}
		addr += uint64(data[2]) % cfg.LineBytes // sub-line offset
		arg := uint64(data[3])
		data = data[4:]
		now += arg % 7 // time advances irregularly

		switch op {
		case 0, 1: // demand lookup (weighted: the hot path)
			g := got.Lookup(addr, now, true)
			w := want.Lookup(addr, now, true)
			compareLookup(t, step, "demand lookup", g, w)
		case 2: // probe lookup
			g := got.Lookup(addr, now, false)
			w := want.Lookup(addr, now, false)
			compareLookup(t, step, "probe lookup", g, w)
		case 3, 4: // fill, sometimes tracked in flight
			readyAt := uint64(0)
			if arg%3 != 0 {
				readyAt = now + 1 + arg%97
			}
			gv := got.Fill(addr, readyAt, arg&8 != 0, arg&16 != 0)
			wv := want.Fill(addr, readyAt, arg&8 != 0, arg&16 != 0)
			if gv != wv {
				t.Fatalf("step %d: fill victim diverged: got %+v want %+v", step, gv, wv)
			}
		case 5: // mark dirty
			got.MarkDirty(addr)
			want.MarkDirty(addr)
		case 6: // the hierarchy walk's pattern, which the way memo resolves:
			// a demand lookup, then mark dirty on a hit or fill on a miss
			g := got.Lookup(addr, now, true)
			w := want.Lookup(addr, now, true)
			compareLookup(t, step, "lookup-then-act", g, w)
			if g.Hit {
				got.MarkDirty(addr)
				want.MarkDirty(addr)
				break
			}
			gv := got.Fill(addr, now+1+arg%97, arg&8 != 0, arg&16 != 0)
			wv := want.Fill(addr, now+1+arg%97, arg&8 != 0, arg&16 != 0)
			if gv != wv {
				t.Fatalf("step %d: memoized fill victim diverged: got %+v want %+v", step, gv, wv)
			}
		case 7: // MSHR occupancy probes
			if g, w := got.Contains(addr), want.Contains(addr); g != w {
				t.Fatalf("step %d: contains diverged: got %v want %v", step, g, w)
			}
			if g, w := got.inflightCount(now), want.inflightCount(now); g != w {
				t.Fatalf("step %d: inflight count diverged: got %d want %d", step, g, w)
			}
			if g, w := got.mshrFull(now), want.mshrFull(now); g != w {
				t.Fatalf("step %d: mshrFull diverged: got %v want %v", step, g, w)
			}
		}
		if gs, ws := got.Stats(), want.Stats(); gs != ws {
			t.Fatalf("step %d: stats diverged:\n got %+v\nwant %+v", step, gs, ws)
		}
	}
}

func compareLookup(t *testing.T, step int, what string, g, w LookupResult) {
	t.Helper()
	if g.Hit != w.Hit || g.WasPrefetched != w.WasPrefetched || g.ReadyAt != w.ReadyAt {
		t.Fatalf("step %d: %s diverged: got {Hit:%v WasPrefetched:%v ReadyAt:%d} want {Hit:%v WasPrefetched:%v ReadyAt:%d}",
			step, what, g.Hit, g.WasPrefetched, g.ReadyAt, w.Hit, w.WasPrefetched, w.ReadyAt)
	}
}

func FuzzCacheVsReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(1), []byte{3, 10, 0, 5, 0, 10, 0, 0, 3, 10, 0, 7, 6, 10, 0, 0})
	seedRNG := xrand.New(42)
	seed := make([]byte, 512)
	for i := range seed {
		seed[i] = byte(seedRNG.Uint64())
	}
	f.Add(uint8(2), seed)
	f.Fuzz(func(t *testing.T, cfgSel uint8, data []byte) {
		applyOps(t, diffCfgs[int(cfgSel)%len(diffCfgs)], data)
	})
}

// TestCacheDifferentialSoak runs the differential driver over seeded
// pseudo-random streams on every plain `go test` invocation, fifteen
// per geometry. Short mode trims the stream count.
func TestCacheDifferentialSoak(t *testing.T) {
	streams := 15 * len(diffCfgs)
	if testing.Short() {
		streams = 2 * len(diffCfgs)
	}
	r := xrand.New(20250806)
	buf := make([]byte, 4096)
	for s := 0; s < streams; s++ {
		for i := 0; i+8 <= len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], r.Uint64())
		}
		cfg := diffCfgs[s%len(diffCfgs)]
		t.Run(cfg.Name, func(t *testing.T) { applyOps(t, cfg, buf) })
	}
}

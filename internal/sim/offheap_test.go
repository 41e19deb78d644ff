package sim_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"

	"micromama/internal/cache"
	"micromama/internal/offheap"
	"micromama/internal/prefetch"
	"micromama/internal/sim"
	"micromama/internal/trace"
)

// pythiaSystem builds a four-core system under the pythia baseline over
// the given traces.
func pythiaSystem(t *testing.T, traces []trace.Reader) *sim.System {
	t.Helper()
	sys, err := sim.New(sim.DefaultConfig(4), traces, sim.NewFixedController("pythia", func(c int) prefetch.Prefetcher {
		return prefetch.NewPythia(uint64(c) + 12345)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// pythiaTraces is a four-core catalog mix.
func pythiaTraces(t *testing.T) []trace.Reader {
	return catalogMix(t, []string{"spec06.libquantum", "spec06.mcf", "ligra.BFS", "spec17.wrf"}).Traces()
}

// settleMapped collects until done(MappedBytes()) holds, and reports
// whether it did within ten seconds. Mappings are unmapped by
// finalizers, which run after a collection and on their own goroutine.
func settleMapped(done func(int64) bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !done(offheap.MappedBytes()) {
		if time.Now().After(deadline) {
			return false
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestSimArraysOffHeap: on Linux outside race builds a system's cache
// set arrays and Pythia's Q-vaults live outside the collected heap, a
// system nobody closes is unmapped once it is unreachable, and a system
// on recycled blocks computes what one on fresh blocks does. Race
// builds keep every array on the heap and check only the last.
func TestSimArraysOffHeap(t *testing.T) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		t.Fatal("no build info")
	}
	race := false
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			race = s.Value == "true"
		}
	}
	if want := runtime.GOOS == "linux" && !race; offheap.Enabled != want {
		t.Fatalf("offheap.Enabled = %v on %s with race=%v, want %v", offheap.Enabled, runtime.GOOS, race, want)
	}
	cfg := sim.DefaultConfig(4)
	// The L2s, the LLC and the four engines' vaults (two of 4 096
	// states × 14 actions × 4 bytes each); the L1s are too small to map.
	arrayBytes := func(c cache.Config) int64 { return 8 * int64(c.Sets*(c.Ways+1)) }
	wantMapped := 4*arrayBytes(cfg.L2) + arrayBytes(cfg.LLC) + 4*2*4096*14*4

	t.Run("heap", func(t *testing.T) {
		if !offheap.Enabled {
			t.Skip("this build keeps the arrays on the heap")
		}
		live := func() int64 {
			runtime.GC()
			s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			metrics.Read(s)
			return int64(s[0].Value.Uint64())
		}
		traces := pythiaTraces(t)
		before := live()
		sys := pythiaSystem(t, traces)
		grew := live() - before
		t.Logf("sim.New grew the live heap by %d bytes", grew)
		if grew >= 256<<10 {
			t.Errorf("sim.New of a four-core pythia system grew the live heap by %d bytes, want < 256 KiB", grew)
		}
		runtime.KeepAlive(sys)
	})

	t.Run("unclosed", func(t *testing.T) {
		if !offheap.Enabled {
			t.Skip("this build keeps the arrays on the heap")
		}
		if !settleMapped(func(m int64) bool { return m == 0 }) {
			t.Fatalf("%d bytes stay mapped with no system alive", offheap.MappedBytes())
		}
		sys := pythiaSystem(t, pythiaTraces(t))
		if m := offheap.MappedBytes(); m != wantMapped {
			t.Fatalf("a four-core pythia system maps %d bytes, want %d", m, wantMapped)
		}
		runtime.KeepAlive(sys)
		if !settleMapped(func(m int64) bool { return m == 0 }) {
			t.Fatalf("%d bytes stay mapped after the unclosed system became unreachable", offheap.MappedBytes())
		}
	})

	t.Run("recycled", func(t *testing.T) {
		const target = 30_000
		if offheap.Enabled && !settleMapped(func(m int64) bool { return m == 0 }) {
			t.Fatalf("%d bytes stay mapped with no system alive", offheap.MappedBytes())
		}
		fresh := pythiaSystem(t, pythiaTraces(t))
		mapped := offheap.MappedBytes()
		want := fresh.Run(target, 0)
		// Every array the run dirtied goes back to the pool, and the next
		// system of the same geometry takes them all. Nothing runs in
		// between: a pool keeps a block on the P that released it.
		traces := pythiaTraces(t)
		fresh.Close()
		again := pythiaSystem(t, traces)
		defer again.Close()
		if m := offheap.MappedBytes(); m != mapped {
			t.Errorf("the second system mapped %d bytes more instead of taking the first one's blocks", m-mapped)
		}
		if got := again.Run(target, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("on recycled blocks:\n%+v\nwant\n%+v", got, want)
		}
	})
}

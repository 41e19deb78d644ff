package trace

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

func poolGen() Reader {
	return NewStream("s", StreamConfig{Seed: 1, MemRatio: 0.3, StoreRatio: 0.2, Length: 5000})
}

// A pool-shared reader must replay exactly the streaming sequence, and
// wrap after Reset just like the generator itself.
func TestPoolSharedEquivalence(t *testing.T) {
	for _, g := range generators() {
		want := drain(g)
		g.Reset()

		pool := NewPool(1<<30, 0)
		factory := func() Reader { g.Reset(); return g }
		r := pool.Shared(g.Name(), factory)
		for loop := 0; loop < 2; loop++ {
			got := drain(r)
			if len(got) != len(want) {
				t.Fatalf("%s loop %d: %d records, want %d", g.Name(), loop, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s loop %d: record %d = %+v, want %+v", g.Name(), loop, i, got[i], want[i])
				}
			}
			r.Reset()
		}
	}
}

// NextBlock must walk the same sequence as Next, in any block size,
// and report exhaustion as an empty block.
func TestReplayBatchForms(t *testing.T) {
	g := NewStride("st", StrideConfig{Seed: 2, Strides: []uint64{128, 384}, MemRatio: 0.3, Length: 777})
	want := drain(g)
	r := NewPool(1<<30, 0).Shared("st", func() Reader { return NewSlice("st", want) }).(BlockReader)
	for _, max := range []int{1, 7, 100, 1000} {
		var got []Instr
		for blk := r.NextBlock(max); len(blk) > 0; blk = r.NextBlock(max) {
			got = append(got, blk...)
		}
		equalInstrs(t, fmt.Sprintf("NextBlock(%d)", max), got, want)
		r.Reset()
	}
}

// Two readers of the same key share one materialization; each keeps an
// independent cursor.
func TestPoolSharedIndependentCursors(t *testing.T) {
	pool := NewPool(1<<30, 0)
	a := pool.Shared("s", poolGen)
	b := pool.Shared("s", poolGen)
	ia, _ := a.Next()
	for i := 0; i < 9; i++ {
		a.Next()
	}
	ib, ok := b.Next()
	if !ok || ib != ia {
		t.Fatalf("second reader starts at %+v, want first record %+v", ib, ia)
	}
	if st := pool.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// With no budget the pool must transparently hand out plain streaming
// generators (and count the fallbacks).
func TestPoolBudgetFallback(t *testing.T) {
	pool := NewPool(0, 0)
	r := pool.Shared("s", poolGen)
	if _, shared := r.(*sharedReplay); shared {
		t.Fatalf("expected a streaming fallback reader, got %T", r)
	}
	if got := len(drain(r)); got != 5000 {
		t.Fatalf("fallback drained %d records, want 5000", got)
	}
	if st := pool.Stats(); st.Fallbacks != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 fallback, 0 entries", st)
	}
}

// A per-trace cap must degrade to tail streaming without perturbing the
// sequence, for the frontier reader (which inherits the shared
// generator) and for a later reader (which rebuilds and skips).
func TestPoolPerTraceCapDegrade(t *testing.T) {
	g := poolGen()
	want := drain(g)

	// Cap the slab below the trace length: 1000 instructions worth.
	pool := NewPool(1<<30, 1000*recBytes)
	a := pool.Shared("s", poolGen)
	got := drain(a)
	if len(got) != len(want) {
		t.Fatalf("capped reader drained %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("capped reader record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// A second reader crosses the frontier after the shared generator
	// was handed to the first: it must rebuild its own and skip.
	b := pool.Shared("s", poolGen)
	got = drain(b)
	if len(got) != len(want) {
		t.Fatalf("second capped reader drained %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("second capped reader record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Looping a capped reader must also replay identically.
	a.Reset()
	got = drain(a)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("capped reader after Reset: record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Concurrent readers of one entry must all see the exact sequence
// (exercised under -race: snapshot publication vs chunked extension).
func TestPoolConcurrentReaders(t *testing.T) {
	g := poolGen()
	want := drain(g)

	pool := NewPool(1<<30, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		r := pool.Shared("s", poolGen)
		wg.Add(1)
		go func(w int, r Reader) {
			defer wg.Done()
			for i := 0; ; i++ {
				ins, ok := r.Next()
				if !ok {
					if i != len(want) {
						errs <- fmt.Errorf("worker %d: trace ended at %d, want %d", w, i, len(want))
					}
					return
				}
				if ins != want[i] {
					errs <- fmt.Errorf("worker %d: record %d = %+v, want %+v", w, i, ins, want[i])
					return
				}
			}
		}(w, r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// On Linux outside race builds a slab lives outside the collected heap
// and never moves: materializing it leaves the live heap where it was,
// and a view taken early reads the same bytes at the same address after
// the slab has grown by many chunks. Race builds keep slabs on the heap,
// where the detector sees every write.
func TestPoolSlabOffHeap(t *testing.T) {
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
	if want := runtime.GOOS == "linux" && !race; slabOffHeap != want {
		t.Fatalf("slabOffHeap = %v on %s with race=%v, want %v", slabOffHeap, runtime.GOOS, race, want)
	}
	if !slabOffHeap {
		t.Skip("this build grows slabs on the heap")
	}

	live := func() uint64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	const chunks = 24
	gen := func() Reader {
		return NewStream("mem", StreamConfig{Seed: 3, MemRatio: 0.5, StoreRatio: 0.2, Length: chunks * extendChunk})
	}
	pool := NewPool(1<<30, 0)
	before := live()

	a := pool.Shared("mem", gen).(*sharedReplay)
	view := a.NextPacked(256)
	if a.sh.snap.Load().n != extendChunk {
		t.Fatalf("first read extended the slab to %d instructions, want one chunk", a.sh.snap.Load().n)
	}
	want := slices.Clone(view)

	b := pool.Shared("mem", gen).(PackedReader)
	for len(b.NextPacked(256)) > 0 {
	}
	snap := a.sh.snap.Load()
	if !snap.done || snap.n != chunks*extendChunk {
		t.Fatalf("slab holds %d instructions (done=%v), want %d", snap.n, snap.done, chunks*extendChunk)
	}
	slab := int64(len(snap.recs)) * recBytes
	if slab < 4<<20 {
		t.Fatalf("slab is %d bytes, want at least 4 MiB", slab)
	}
	if grew := int64(live()) - int64(before); grew >= 1<<20 {
		t.Errorf("a %d-byte slab grew the live heap by %d bytes", slab, grew)
	}
	if unsafe.SliceData(view) != unsafe.SliceData(snap.recs) || !slices.Equal(view, want) {
		t.Errorf("the first view moved or changed after %d further chunks", chunks-1)
	}
}

func TestPoolEmptyTrace(t *testing.T) {
	pool := NewPool(1<<30, 0)
	r := pool.Shared("empty", func() Reader { return NewSlice("empty", nil) })
	if _, ok := r.Next(); ok {
		t.Fatal("empty trace returned a record")
	}
	r.Reset()
	if _, ok := r.Next(); ok {
		t.Fatal("empty trace returned a record after Reset")
	}
}

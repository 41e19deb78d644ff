package trace

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
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
	pool := NewPool(1<<30, 1000*instrFootprint)
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

// PreloadDir must pick up tracegen-style MMT1 files and serve them
// through Shared without invoking the factory.
func TestPoolPreloadDir(t *testing.T) {
	g := poolGen()
	m := Materialize(g, 0)
	dir := t.TempDir()
	if err := SaveMaterialized(filepath.Join(dir, "s.mmt"), m); err != nil {
		t.Fatalf("SaveMaterialized: %v", err)
	}

	pool := NewPool(1<<30, 0)
	n, errs := pool.PreloadDir(dir)
	if len(errs) > 0 {
		t.Fatalf("PreloadDir errors: %v", errs)
	}
	if n != 1 {
		t.Fatalf("preloaded %d traces, want 1", n)
	}
	r := pool.Shared("s", func() Reader {
		t.Fatal("factory invoked for a preloaded trace")
		return nil
	})
	equalInstrs(t, "preloaded replay", drain(r), drain(m.Replay()))
}

package offheap

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// A recycled block comes back zeroed, whatever its last owner wrote,
// and serves a Take of another element type of the same byte size.
func TestTakeZeroesRecycled(t *testing.T) {
	for _, n := range []int{64 * 9, minMapped / 8, 3 * minMapped / 8} {
		for round := 0; round < 3; round++ {
			b, a := Take[uint64](n)
			if len(a) != n {
				t.Fatalf("Take(%d) gave %d words", n, len(a))
			}
			for i, w := range a {
				if w != 0 {
					t.Fatalf("round %d: word %d of %d reads %#x, want 0", round, i, n, w)
				}
				a[i] = ^uint64(0)
			}
			b.Release()
			fb, f := Take[float32](2 * n)
			for i, v := range f {
				if v != 0 {
					t.Fatalf("round %d: float %d of %d reads %v, want 0", round, i, 2*n, v)
				}
				f[i] = 1
			}
			fb.Release()
		}
	}
}

// Simulations on several goroutines share the pool: no block is handed
// to two owners at once, and each comes back zeroed.
func TestTakeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				b, a := Take[uint64](minMapped / 8)
				for i, w := range a {
					if w != 0 {
						t.Errorf("goroutine %d round %d: word %d reads %#x, want 0", g, round, i, w)
						return
					}
					a[i] = uint64(g + 1)
				}
				for i, w := range a {
					if w != uint64(g+1) {
						t.Errorf("goroutine %d round %d: word %d reads %d, another owner wrote it", g, round, i, w)
						return
					}
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
}

// Mappings are bounded: a block below minMapped stays on the heap, and
// past maxMapped bytes further blocks do too, so code that never
// releases cannot pile up mappings. Every block is unmapped once it is
// unreachable.
func TestMappingBound(t *testing.T) {
	if !Enabled {
		t.Skip("this build maps nothing")
	}
	base := MappedBytes()
	small, _ := Take[uint64](minMapped/8 - 1)
	if m := MappedBytes(); m != base {
		t.Fatalf("a %d-byte block mapped %d bytes", minMapped-8, m-base)
	}
	small.Release()

	// Fresh mappings are never written here, so they commit no pages.
	var held []*Block
	for i := 0; i < maxMapped/minMapped+8; i++ {
		b, _ := Take[byte](minMapped)
		held = append(held, b)
		if m := MappedBytes(); m > maxMapped {
			t.Fatalf("%d blocks of %d bytes mapped %d bytes, more than the %d cap", len(held), minMapped, m, maxMapped)
		}
	}
	if m := MappedBytes(); m < maxMapped-minMapped {
		t.Errorf("%d blocks of %d bytes mapped only %d bytes", len(held), minMapped, m)
	}
	runtime.KeepAlive(held)
	held = nil

	deadline := time.Now().Add(10 * time.Second)
	for MappedBytes() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes stay mapped after every block became unreachable, %d before", MappedBytes(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

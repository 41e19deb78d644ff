// Package offheap places the simulator's large pointer-free arrays
// outside the collected heap: the cache set arrays and Pythia's
// Q-vaults (Take), and the trace pool's slabs (Reserve).
//
// On Linux outside race builds both are anonymous private mappings
// (mmap_linux.go); race builds and every other system allocate on the
// heap as plain make would (mmap_other.go). Memory outside the heap is
// neither scanned by the collector nor counted towards its heap goal,
// so a simulation's few megabytes of arrays no longer set how often
// the collector runs, nor how far the heap may grow before it does.
//
// # Blocks
//
// Take hands out a zeroed array and the Block that backs it; Release
// hands the block back. A released block waits in a per-size sync.Pool
// for the next Take of the same byte size, so short simulations reuse
// one set of arrays, and the pool's own trimming applies unchanged: a
// block nobody takes for two collections drops out of the pool. Once a
// mapped block is unreachable — dropped by the pool, or held by an
// owner that was never released — its finalizer unmaps it. The owner
// must therefore keep the *Block, not only the slice: the slice points
// outside the heap and does not keep the mapping alive.
//
// Mappings are bounded in size and number. A block smaller than
// minMapped (an L1's 4.6 KB array) stays on the heap path, and once
// maxMapped bytes are mapped further blocks do too, until collections
// unmap what is no longer reachable. Code that builds many caches and
// never releases them therefore cannot pile up mappings the collector
// does not know about: past the cap its arrays land on the heap, which
// drives the collections that unmap the rest.
package offheap

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"micromama/internal/telemetry"
)

const (
	// minMapped is the smallest block that is mapped: one mapping per
	// L1 array would buy nothing and multiply the mapping count.
	minMapped = 64 << 10
	// maxMapped caps the bytes of blocks mapped at once, in use or
	// pooled: 20 four-core Pythia systems' worth.
	maxMapped = 64 << 20
)

// mapped is the bytes of blocks mapped now (in use plus pooled).
var mapped atomic.Int64

func init() {
	telemetry.Default().GaugeFunc("mama_offheap_mapped_bytes",
		"Bytes of simulator arrays (cache sets, Pythia Q-vaults) mapped outside the Go heap, in use plus pooled; trace slabs are mama_trace_pool_used_bytes.",
		func() float64 { return float64(MappedBytes()) })
}

// MappedBytes returns the bytes of blocks mapped outside the heap now,
// in use plus pooled. It is 0 where Enabled is false.
func MappedBytes() int64 { return mapped.Load() }

// Block is the memory behind one array Take returned.
type Block struct {
	ptr  unsafe.Pointer
	size int
}

// pools holds released blocks: byte size -> *sync.Pool of *Block.
var pools sync.Map

// Take returns a zeroed array of n T's and the block behind it. T must
// hold no pointers: the collector does not scan a mapped block. The
// array is valid until the block is released or becomes unreachable,
// so the caller keeps the block for as long as it uses the array.
func Take[T any](n int) (*Block, []T) {
	var zero T
	b := take(n * int(unsafe.Sizeof(zero)))
	return b, unsafe.Slice((*T)(b.ptr), n)
}

func take(size int) *Block {
	if p, ok := pools.Load(size); ok {
		if b, ok := p.(*sync.Pool).Get().(*Block); ok {
			clear(unsafe.Slice((*byte)(b.ptr), size))
			return b
		}
	}
	if Enabled && size >= minMapped {
		if mapped.Add(int64(size)) <= maxMapped {
			if p := mapBytes(size, false); p != nil {
				b := &Block{ptr: p, size: size}
				runtime.SetFinalizer(b, (*Block).unmap)
				return b
			}
		}
		mapped.Add(-int64(size))
	}
	// A []uint64 keeps the array word-aligned and marks it pointer-free.
	words := make([]uint64, (size+7)/8)
	return &Block{ptr: unsafe.Pointer(unsafe.SliceData(words)), size: size}
}

// Release hands the block back for the next Take of its size. Neither
// the block nor any array taken with it may be used afterwards.
func (b *Block) Release() {
	p, ok := pools.Load(b.size)
	if !ok {
		p, _ = pools.LoadOrStore(b.size, new(sync.Pool))
	}
	p.(*sync.Pool).Put(b)
}

// unmap is a mapped block's finalizer: nothing can reach the block, so
// nothing uses its array.
func (b *Block) unmap() {
	unmapBytes(b.ptr, b.size)
	mapped.Add(-int64(b.size))
}

// Reserve returns an empty slice with room for n T's in one mapping
// that is never unmapped, or nil where Enabled is false or the mapping
// fails. The kernel commits a page only when it is first written, so
// resident bytes follow what is appended, not n. T must hold no
// pointers. The trace pool grows each slab in place in one such
// reservation; its bytes are not counted in MappedBytes.
func Reserve[T any](n int) []T {
	var zero T
	p := mapBytes(n*int(unsafe.Sizeof(zero)), true)
	if p == nil {
		return nil
	}
	return unsafe.Slice((*T)(p), n)[:0]
}

//go:build !linux || race

package trace

// slabOffHeap is false: slabs grow on the Go heap. Race builds take this
// path on Linux too, because the race detector does not instrument
// memory outside the Go heap, and TestPoolConcurrentGrowth relies on it
// to catch a published record being written.
const slabOffHeap = false

// newSlab returns nil: the caller grows its slab on the heap.
func newSlab(int) []Instr { return nil }

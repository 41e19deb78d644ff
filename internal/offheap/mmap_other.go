//go:build !linux || race

package offheap

import "unsafe"

// Enabled reports whether this build maps memory outside the Go heap:
// here every block is heap memory. Race builds take this path on Linux
// too, because the race detector does not instrument memory outside the
// Go heap, and the trace pool's TestPoolConcurrentGrowth relies on it
// to catch a published record being written.
const Enabled = false

// mapBytes returns nil: nothing is mapped.
func mapBytes(int, bool) unsafe.Pointer { return nil }

// unmapBytes is never called: no block is mapped.
func unmapBytes(unsafe.Pointer, int) {}

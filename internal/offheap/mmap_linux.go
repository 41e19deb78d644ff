//go:build linux && !race

package offheap

import (
	"syscall"
	"unsafe"
)

// Enabled reports whether this build maps memory outside the Go heap:
// here blocks and reservations are anonymous private mappings.
const Enabled = true

// mapBytes maps size zeroed bytes, or returns nil if the kernel
// refuses. noreserve asks for MAP_NORESERVE: no swap is accounted for
// pages never written, which a reservation far larger than its use
// needs.
func mapBytes(size int, noreserve bool) unsafe.Pointer {
	flags := syscall.MAP_PRIVATE | syscall.MAP_ANON
	if noreserve {
		flags |= syscall.MAP_NORESERVE
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, flags)
	if err != nil {
		return nil
	}
	return unsafe.Pointer(unsafe.SliceData(b))
}

// unmapBytes returns a mapping from mapBytes to the kernel.
func unmapBytes(p unsafe.Pointer, size int) {
	// Munmap fails only on an address no mapping starts at, which
	// would be a bug here; the bytes then stay mapped, which is safe.
	_ = syscall.Munmap(unsafe.Slice((*byte)(p), size))
}

//go:build linux && !race

package trace

import (
	"syscall"
	"unsafe"
)

// slabOffHeap reports that newSlab places slabs outside the Go heap.
const slabOffHeap = true

// newSlab reserves address space for maxRecords records in one
// anonymous private mapping and returns it as an empty slice of that
// capacity. MAP_NORESERVE leaves the kernel to commit a page only when a
// record is first written to it, so resident bytes follow the records
// held, not the reservation. The mapping is never unmapped: a pool entry
// lives as long as the process, and any reader may alias any prefix of
// it, including one of an entry that Preload replaced. It holds only
// pointer-free records, so the collector neither scans it nor counts it
// towards its heap target. nil means the mapping failed; the caller then
// grows its slab on the heap.
func newSlab(maxRecords int) []Rec {
	b, err := syscall.Mmap(-1, 0, maxRecords*int(recBytes),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	return unsafe.Slice((*Rec)(unsafe.Pointer(unsafe.SliceData(b))), maxRecords)[:0]
}

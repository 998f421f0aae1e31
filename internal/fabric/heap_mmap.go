//go:build linux && !race

package fabric

import (
	"fmt"
	"syscall"
)

// mapHeap returns a size-byte node heap backed by a private anonymous
// mapping. MAP_NORESERVE commits no swap up front and the kernel backs a
// page only on first touch, so a nominal 16 MiB heap costs what the
// simulation writes into it. The mapping is invisible to the Go
// collector: it neither inflates the pacer's live-heap figure nor gets
// scanned (node memory holds no Go pointers). A failed mapping panics, as
// the make([]byte) it replaces would abort the process: node heaps are
// sized up front, and AddNode has no error path.
func mapHeap(size int) []byte {
	if size == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("fabric: mapping a %d-byte node heap: %v", size, err))
	}
	return b
}

// unmapHeap returns a mapHeap heap to the kernel. The slice must not be
// touched afterwards: its pages are gone, and an access faults.
func unmapHeap(b []byte) {
	if len(b) == 0 {
		return
	}
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("fabric: unmapping a node heap: %v", err))
	}
}

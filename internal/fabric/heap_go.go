//go:build !linux || race

package fabric

// mapHeap returns a size-byte node heap from the Go heap. Race builds
// use it on purpose: the race detector only shadows the Go arena, and
// guest-memory races across shard workers must stay visible to it.
func mapHeap(size int) []byte { return make([]byte, size) }

// unmapHeap drops a Go-heap node heap; the collector reclaims it once the
// last slice into it is gone.
func unmapHeap([]byte) {}

package bench

import (
	"os"
	"runtime/debug"
	"testing"
)

// TestMain bounds the suite's resident memory. Every simulated node owns
// a 16 MiB heap. On linux outside race builds those heaps are anonymous
// mappings backed only where touched, and the suite peaks at a few
// hundred MiB. Race builds (and other platforms) keep node heaps on the
// Go heap: there each 256-node scale cluster is 4 GiB of []byte, the
// suite builds dozens of them back to back, the runtime zeroes a reused
// span on allocation (so a cluster built from freed memory is fully
// resident), and under the default GC pacing the heap may reach twice
// the live cluster before collecting — enough to get the process
// OOM-killed on an 8 GiB host. A soft memory limit makes the collector
// run and return freed pages before that point. It changes no simulated
// outcome. An explicit GOMEMLIMIT in the environment wins.
func TestMain(m *testing.M) {
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(4 << 30)
	}
	os.Exit(m.Run())
}

package bench

import (
	"os"
	"runtime/debug"
	"testing"
)

// TestMain bounds the suite's resident memory. Every simulated node owns
// a 16 MiB heap, so each 256-node scale cluster is 4 GiB of []byte, and
// the suite builds dozens of such clusters back to back. The Go runtime
// zeroes a reused span on allocation, so a cluster built from freed
// memory is fully resident; under the default GC pacing the heap may
// reach twice the live cluster before collecting, which on an 8 GiB host
// is enough to get the process OOM-killed. A soft memory limit makes the
// collector run and return freed pages before that point. It changes no
// simulated outcome. An explicit GOMEMLIMIT in the environment wins.
func TestMain(m *testing.M) {
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(4 << 30)
	}
	os.Exit(m.Run())
}

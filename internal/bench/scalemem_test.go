//go:build linux && !race

package bench

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"threechains/internal/place"
	"threechains/internal/testbed"
)

// TestScale4000NodesMemorySmoke is the host-memory bound at scale: 500
// groups × 8 nodes (4000 nominal 16 MiB heaps, 62.5 GiB of address
// space) run one short stream round, and the process's peak resident
// set — everything this test binary has touched so far, not just this
// run — stays under 2 GiB. Node heaps are anonymous mappings backed only
// where the simulation writes, so memory follows use, not node count ×
// nominal heap size. Race builds keep Go-heap node memory (the race
// detector ignores mappings), hence the build tag.
func TestScale4000NodesMemorySmoke(t *testing.T) {
	sc := ScaleScenario{
		Name: "scale-4000",
		Params: place.ScaleParams{
			Seed: 29, Groups: 500, GroupNodes: 8, OpsPerGroup: 8,
			Template: ScaleScenarios()[1].Params.Template,
		},
	}
	o, err := RunScaleScenario(testbed.ThorXeon(), sc, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	if o.Events == 0 || o.Virtual <= 0 {
		t.Fatalf("4000-node round did not run: %+v", o)
	}
	hwm := vmHWMBytes(t)
	t.Logf("4000 nodes: %d events, peak RSS %d MiB", o.Events, hwm>>20)
	if hwm >= 2<<30 {
		t.Fatalf("peak RSS %d MiB, want < 2048 MiB", hwm>>20)
	}
}

// vmHWMBytes reads the process's peak resident set size from
// /proc/self/status.
func vmHWMBytes(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("VmHWM not found in /proc/self/status")
	return 0
}

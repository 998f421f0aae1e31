//go:build linux && !race

package fabric

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"threechains/internal/isa"
	"threechains/internal/sim"
)

// TestNodeHeapsOffGoHeap pins that node heaps are mappings, not Go
// allocations: 256 nominal 16 MiB heaps (4 GiB) barely move the Go
// heap's footprint, so the collector's pacer never counts them as live
// data. The heaps still work as memory, and Close unmaps them.
func TestNodeHeapsOffGoHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	nw := New(sim.New(), params())
	for i := 0; i < 256; i++ {
		nw.AddNode("n", isa.XeonE5(), 16<<20)
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapSys) - int64(before.HeapSys); grew >= 32<<20 {
		t.Fatalf("HeapSys grew %d MiB for 256 node heaps, want < 32 MiB", grew>>20)
	}
	last := nw.Node(255)
	top := uint64(len(last.Mem())) - 8
	if err := last.WriteMem(top, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if got, err := last.ReadMem(top, 8); err != nil || got[7] != 8 {
		t.Fatalf("read back %v, %v", got, err)
	}
	nw.Close()
	if len(last.Mem()) != 0 {
		t.Fatal("heap still visible after Close")
	}
}

// TestDroppedNetworkHeapsUnmapped pins the finalizer backstop: networks
// dropped without Close give their touched pages back once collected.
// 64 networks each dirty 4 MiB of heap; were their mappings leaked,
// resident memory would grow by 256 MiB.
func TestDroppedNetworkHeapsUnmapped(t *testing.T) {
	before := vmRSS(t)
	for i := 0; i < 64; i++ {
		nw := New(sim.New(), params())
		n := nw.AddNode("n", isa.XeonE5(), 8<<20)
		mem := n.Mem()
		for off := 0; off < 4<<20; off += 4096 {
			mem[off] = 1
		}
		runtime.KeepAlive(nw)
		runtime.GC()
	}
	var grew int64
	for try := 0; try < 500; try++ {
		runtime.GC()
		if grew = vmRSS(t) - before; grew < 64<<20 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("resident memory grew %d MiB after dropping 64 networks with 4 MiB touched each", grew>>20)
}

// vmRSS reads the process's current resident set size.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("VmRSS not found in /proc/self/status")
	return 0
}

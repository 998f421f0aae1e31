package fabric

import (
	"testing"

	"threechains/internal/isa"
	"threechains/internal/sim"
)

func params() NetParams {
	return NetParams{
		BaseLatency:  sim.Time(1300) * sim.Nanosecond,
		LatPerByte:   sim.FromNanos(0.4),
		GapPerByte:   sim.FromNanos(0.08),
		SendOverhead: 100 * sim.Nanosecond,
		RecvOverhead: 80 * sim.Nanosecond,
		NICOverhead:  30 * sim.Nanosecond,
	}
}

func pair(t *testing.T) (*sim.Engine, *Network, *Node, *Node) {
	t.Helper()
	eng := sim.New()
	nw := New(eng, params())
	a := nw.AddNode("a", isa.XeonE5(), 1<<20)
	b := nw.AddNode("b", isa.XeonE5(), 1<<20)
	return eng, nw, a, b
}

func TestOneWayLatency(t *testing.T) {
	eng, _, a, b := pair(t)
	p := params()
	size := 1000
	var arrived sim.Time
	a.Send(b, make([]byte, size), nil, func(*Message) { arrived = eng.Now() })
	eng.Run()
	want := p.SendOverhead + p.BaseLatency + sim.Time(size)*p.LatPerByte
	if arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
}

func TestSenderNICSerializes(t *testing.T) {
	eng, _, a, b := pair(t)
	p := params()
	const size = 5000
	var arrivals []sim.Time
	for i := 0; i < 3; i++ {
		a.Send(b, make([]byte, size), nil, func(*Message) { arrivals = append(arrivals, eng.Now()) })
	}
	eng.Run()
	// Successive sends are spaced by the NIC gap, not delivered together.
	gap := p.SendOverhead + sim.Time(size)*p.GapPerByte
	if arrivals[1]-arrivals[0] != gap || arrivals[2]-arrivals[1] != gap {
		t.Fatalf("arrivals %v, want spacing %v", arrivals, gap)
	}
}

func TestInOrderDelivery(t *testing.T) {
	eng, _, a, b := pair(t)
	var order []int
	// A big message followed by a tiny one: the tiny one must not overtake.
	a.Send(b, make([]byte, 100000), nil, func(*Message) { order = append(order, 1) })
	a.Send(b, make([]byte, 1), nil, func(*Message) { order = append(order, 2) })
	eng.Run()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestLocalCompletionBeforeDelivery(t *testing.T) {
	eng, _, a, b := pair(t)
	var local, remote sim.Time
	sig := a.Send(b, make([]byte, 100), nil, func(*Message) { remote = eng.Now() })
	sig.OnFire(func() { local = eng.Now() })
	eng.Run()
	if !(local > 0 && remote > 0 && local < remote) {
		t.Fatalf("local %v, remote %v", local, remote)
	}
}

func TestExecCPUSerializes(t *testing.T) {
	eng, _, a, _ := pair(t)
	var done []sim.Time
	a.ExecCPU(10*sim.Microsecond, func() { done = append(done, eng.Now()) })
	a.ExecCPU(5*sim.Microsecond, func() { done = append(done, eng.Now()) })
	eng.Run()
	if done[0] != 10*sim.Microsecond || done[1] != 15*sim.Microsecond {
		t.Fatalf("done = %v", done)
	}
	if a.Stats.CPUBusy != 15*sim.Microsecond {
		t.Fatalf("cpu busy = %v", a.Stats.CPUBusy)
	}
}

func TestAllocBumpAndAlignment(t *testing.T) {
	_, _, a, _ := pair(t)
	p1 := a.Alloc(3)
	p2 := a.Alloc(8)
	if p1%8 != 0 || p2%8 != 0 {
		t.Fatalf("unaligned allocations %d %d", p1, p2)
	}
	if p2 != p1+8 {
		t.Fatalf("bump allocator skipped: %d -> %d", p1, p2)
	}
	if a.HeapUsed() != 16 {
		t.Fatalf("heap used = %d", a.HeapUsed())
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	eng := sim.New()
	nw := New(eng, params())
	n := nw.AddNode("tiny", isa.XeonE5(), 4096)
	defer func() {
		if recover() == nil {
			t.Error("heap exhaustion did not panic")
		}
	}()
	n.Alloc(1 << 20)
}

func TestStackRegionReserved(t *testing.T) {
	eng := sim.New()
	nw := New(eng, params())
	n := nw.AddNode("n", isa.A64FX(), 1<<20)
	base, size := n.StackRegion()
	if size == 0 || base+size != uint64(len(n.Mem())) {
		t.Fatalf("stack region [%d,%d) in %d", base, base+size, len(n.Mem()))
	}
}

func TestRemoteMemoryBounds(t *testing.T) {
	_, _, a, _ := pair(t)
	if err := a.WriteMem(uint64(len(a.Mem()))-4, make([]byte, 8)); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if _, err := a.ReadMem(1<<40, 8); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if err := a.WriteMem(16, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadMem(16, 3)
	if err != nil || got[1] != 2 {
		t.Fatalf("read back %v, %v", got, err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng, _, a, b := pair(t)
	a.Send(b, make([]byte, 100), nil, func(*Message) {})
	a.Send(b, make([]byte, 50), nil, func(*Message) {})
	eng.Run()
	if a.Stats.MsgsSent != 2 || a.Stats.BytesSent != 150 {
		t.Fatalf("sender stats %+v", a.Stats)
	}
	if b.Stats.MsgsReceived != 2 || b.Stats.BytesReceived != 150 {
		t.Fatalf("receiver stats %+v", b.Stats)
	}
}

func TestWireTime(t *testing.T) {
	p := params()
	if p.WireTime(0) != p.BaseLatency {
		t.Fatal("zero-byte wire time")
	}
	if p.WireTime(1000) != p.BaseLatency+1000*p.LatPerByte {
		t.Fatal("per-byte wire time")
	}
}

func TestCloseReleasesHeapsIdempotently(t *testing.T) {
	eng, nw, a, b := pair(t)
	if err := a.WriteMem(64, []byte{7}); err != nil {
		t.Fatal(err)
	}
	nw.Close()
	nw.Close()
	for _, n := range []*Node{a, b} {
		if len(n.Mem()) != 0 {
			t.Fatalf("node %s: Mem() holds %d bytes after Close", n.Name, len(n.Mem()))
		}
	}
	if err := a.WriteMem(64, []byte{7}); err == nil {
		t.Fatal("write into a closed network accepted")
	}
	if _, err := b.ReadMem(0, 1); err == nil {
		t.Fatal("read from a closed network accepted")
	}
	eng.Run()
}

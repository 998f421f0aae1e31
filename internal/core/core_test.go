package core

import (
	"errors"
	"runtime"
	"testing"

	"threechains/internal/fabric"
	"threechains/internal/ifunc"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/sim"
	"threechains/internal/ucx"
)

func testParams() fabric.NetParams {
	return fabric.NetParams{
		BaseLatency:  1300 * sim.Nanosecond,
		LatPerByte:   sim.FromNanos(0.4),
		GapPerByte:   sim.FromNanos(0.08),
		SendOverhead: 100 * sim.Nanosecond,
		RecvOverhead: 80 * sim.Nanosecond,
		NICOverhead:  30 * sim.Nanosecond,
	}
}

// twoNodes builds a Xeon + BF2 pair — a host and a DPU, like Thor.
func twoNodes() *Cluster {
	return NewCluster(testParams(), []NodeSpec{
		{Name: "host", March: isa.XeonE5()},
		{Name: "dpu", March: isa.CortexA72()},
	})
}

var allTriples = []isa.Triple{isa.TripleXeon, isa.TripleA64FX, isa.TripleBF2}

func TestTSIBitcodeEndToEnd(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)

	counter := dst.Node.Alloc(8)
	dst.TargetPtr = counter

	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	var execAt sim.Time
	dst.Observer = func(name, entry string, result uint64, when sim.Time) {
		execAt = when
	}
	sig, err := src.Send(1, h, "main", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if ucx.Status(sig.Value()) != ucx.OK {
		t.Fatalf("send status %v", ucx.Status(sig.Value()))
	}
	if got := readU64(dst, counter); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	if dst.Stats.JITCompiles != 1 || dst.Stats.Executions != 1 {
		t.Fatalf("stats %+v", dst.Stats)
	}
	if execAt <= 0 {
		t.Fatal("observer not called")
	}
	if dst.LastExecErr != nil {
		t.Fatal(dst.LastExecErr)
	}
}

func readU64(r *Runtime, addr uint64) uint64 {
	v, err := ir.LoadMem(r.Node.Mem(), addr, ir.I64)
	runtime.KeepAlive(r) // node heaps are unmapped once r's cluster is unreachable
	if err != nil {
		panic(err)
	}
	return v
}

func TestCachingProtocolFrameSizes(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	dst.TargetPtr = dst.Node.Alloc(8)
	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}

	// First send: full frame with the fat-bitcode archive.
	if _, err := src.Send(1, h, "main", []byte{0}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	firstBytes := src.Node.Stats.BytesSent
	wantFull := uint64(ifunc.FullLen(1, len(h.ArchiveBytes)))
	if firstBytes != wantFull {
		t.Fatalf("first frame %d bytes, want %d", firstBytes, wantFull)
	}

	// Second send: truncated to header+payload+magic = 26 bytes, the
	// exact cached-ifunc size from §V-A.
	if _, err := src.Send(1, h, "main", []byte{0}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	second := src.Node.Stats.BytesSent - firstBytes
	if second != 26 {
		t.Fatalf("cached frame = %d bytes, want 26", second)
	}
	if src.Stats.FullFrames != 1 || src.Stats.TruncatedFrames != 1 {
		t.Fatalf("frame stats %+v", src.Stats)
	}
	// JIT ran once; the second execution was a cache hit.
	if dst.Stats.JITCompiles != 1 || dst.Stats.Executions != 2 {
		t.Fatalf("dst stats %+v", dst.Stats)
	}
	if got := readU64(dst, dst.TargetPtr); got != 2 {
		t.Fatalf("counter = %d", got)
	}
}

func TestUncachedMuchSlowerThanCached(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	dst.TargetPtr = dst.Node.Alloc(8)
	h, _ := src.RegisterBitcode("tsi", BuildTSI(), allTriples)

	var times []sim.Time
	dst.Observer = func(_, _ string, _ uint64, when sim.Time) { times = append(times, when) }

	start1 := c.Eng.Now()
	src.Send(1, h, "main", []byte{0})
	c.Run()
	lat1 := times[0] - start1

	start2 := c.Eng.Now()
	src.Send(1, h, "main", []byte{0})
	c.Run()
	lat2 := times[1] - start2

	// First delivery pays JIT (~ms); second pays lookup only (~µs).
	if lat1 < 50*lat2 {
		t.Fatalf("uncached %v not vastly slower than cached %v", lat1, lat2)
	}
	if lat2 > 10*sim.Microsecond || lat2 < sim.Microsecond {
		t.Fatalf("cached latency %v outside µs regime", lat2)
	}
}

func TestBinaryIfuncEndToEnd(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	dst.TargetPtr = dst.Node.Alloc(8)
	// Cross-compile for both testbed µarches.
	h, err := src.RegisterBinary("tsi-bin", BuildTSI(), []*isa.MicroArch{isa.XeonE5(), isa.CortexA72()})
	if err != nil {
		t.Fatal(err)
	}
	src.Send(1, h, "main", []byte{0})
	c.Run()
	if got := readU64(dst, dst.TargetPtr); got != 1 {
		t.Fatalf("counter = %d", got)
	}
	if dst.Stats.BinaryLoads != 1 || dst.Stats.JITCompiles != 0 {
		t.Fatalf("stats %+v", dst.Stats)
	}
	// Cached resend.
	src.Send(1, h, "main", []byte{0})
	c.Run()
	if got := readU64(dst, dst.TargetPtr); got != 2 {
		t.Fatalf("counter = %d", got)
	}
}

func TestBinaryMissingArchFails(t *testing.T) {
	c := twoNodes()
	src := c.Runtime(0)
	// Only x86_64 compiled; the DPU (aarch64) is unreachable — §III-B.
	h, err := src.RegisterBinary("tsi-x86", BuildTSI(), []*isa.MicroArch{isa.XeonE5()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Send(1, h, "main", []byte{0}); !errors.Is(err, ErrNoBinary) {
		t.Fatalf("err = %v, want no-binary", err)
	}
}

func TestBitcodeReachesAllArchesWhereBinaryCannot(t *testing.T) {
	// The same heterogeneous cluster: fat bitcode reaches every node.
	c := NewCluster(testParams(), []NodeSpec{
		{Name: "xeon", March: isa.XeonE5()},
		{Name: "a64fx", March: isa.A64FX()},
		{Name: "bf2", March: isa.CortexA72()},
	})
	src := c.Runtime(0)
	h, _ := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	for i := 1; i < 3; i++ {
		rt := c.Runtime(i)
		rt.TargetPtr = rt.Node.Alloc(8)
		if _, err := src.Send(i, h, "main", []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	for i := 1; i < 3; i++ {
		if got := readU64(c.Runtime(i), c.Runtime(i).TargetPtr); got != 1 {
			t.Fatalf("node %d counter = %d", i, got)
		}
	}
}

func TestPredeployedAM(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	dst.TargetPtr = dst.Node.Alloc(8)
	if err := dst.PredeployAM(7, "tsi", BuildTSI()); err != nil {
		t.Fatal(err)
	}
	ep := src.Worker.Connect(dst.Worker)
	sig := ep.SendAM(7, 0 /* entry main */, []byte{0})
	c.Run()
	if ucx.Status(sig.Value()) != ucx.OK {
		t.Fatalf("status %v", ucx.Status(sig.Value()))
	}
	if got := readU64(dst, dst.TargetPtr); got != 1 {
		t.Fatalf("counter = %d", got)
	}
	// No code moved, no JIT charged at message time: the only compile
	// happened locally at predeploy time.
	if dst.Stats.JITCompiles != 0 || dst.Session.Stats.Compiles != 1 {
		t.Fatalf("runtime stats %+v, session stats %+v", dst.Stats, dst.Session.Stats)
	}
}

func TestSelfPropagation(t *testing.T) {
	// A 5-node ring: the propagator visits each node once (TTL 4).
	specs := make([]NodeSpec, 5)
	for i := range specs {
		specs[i] = NodeSpec{Name: "n", March: isa.XeonE5()}
	}
	c := NewCluster(testParams(), specs)
	for _, r := range c.Runtimes {
		r.TargetPtr = r.Node.Alloc(8)
	}
	src := c.Runtime(0)
	h, err := src.RegisterBitcode("prop", BuildPropagator(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16)
	payload[0] = 4 // TTL
	payload[8] = 1 // stride
	if _, err := src.Send(1, h, "main", payload); err != nil {
		t.Fatal(err)
	}
	c.Run()
	// Nodes 1,2,3,4,0 each incremented once (TTL 4 = 4 hops after first).
	for i, r := range c.Runtimes {
		want := uint64(1)
		if got := readU64(r, r.TargetPtr); got != want {
			t.Fatalf("node %d visits = %d, want %d", i, got, want)
		}
	}
	// Each forwarding node paid a full frame only once per peer.
	if src.Stats.ExecErrors != 0 {
		t.Fatal("propagation errored")
	}
}

func TestGuestSendSelfCachesPerDestination(t *testing.T) {
	// Propagate twice around a 3-node ring: second lap sends truncated
	// frames (guest-side caching). The closing hop of lap one (2->0)
	// targets the originator, whose content store already pins the
	// archive from registration — the cluster-wide negotiation turns
	// what used to be a third full frame into a hash-ref, so the code
	// bytes cross the wire exactly twice: once per node that has never
	// held them.
	specs := []NodeSpec{{Name: "a", March: isa.XeonE5()}, {Name: "b", March: isa.XeonE5()}, {Name: "c", March: isa.XeonE5()}}
	c := NewCluster(testParams(), specs)
	for _, r := range c.Runtimes {
		r.TargetPtr = r.Node.Alloc(8)
	}
	src := c.Runtime(0)
	h, _ := src.RegisterBitcode("prop", BuildPropagator(), allTriples)
	payload := make([]byte, 16)
	payload[0] = 6 // two laps
	payload[8] = 1
	src.Send(1, h, "main", payload)
	c.Run()
	var full, trunc, href uint64
	for _, r := range c.Runtimes {
		full += r.Stats.FullFrames
		trunc += r.Stats.TruncatedFrames
		href += r.Stats.HashRefFrames
	}
	if full != 2 { // 0->1 (host), 1->2; 2->0 resolves from node 0's store
		t.Fatalf("full frames = %d, want 2 (one per destination without the bytes)", full)
	}
	if href != 1 {
		t.Fatalf("hash-ref frames = %d, want 1 (the 2->0 closing hop)", href)
	}
	if trunc < 3 {
		t.Fatalf("truncated frames = %d, want >= 3", trunc)
	}
	// The dedup changed framing only: every node still executed its laps
	// (TTL 6 from node 1 lands the final hop back on node 1).
	for i, r := range c.Runtimes {
		want := uint64(2)
		if i == 1 {
			want = 3
		}
		if got := readU64(r, r.TargetPtr); got != want {
			t.Fatalf("node %d visits = %d, want %d", i, got, want)
		}
	}
}

func TestDAPCChaserSmall(t *testing.T) {
	// 1 client + 2 servers; a 16-entry table split across the servers.
	c := NewCluster(testParams(), []NodeSpec{
		{Name: "client", March: isa.XeonE5()},
		{Name: "s0", March: isa.CortexA72()},
		{Name: "s1", March: isa.CortexA72()},
	})
	client := c.Runtime(0)
	servers := []*Runtime{c.Runtime(1), c.Runtime(2)}

	const entries = 16
	shard := uint64(entries / 2)
	// Build a permutation cycle 0 -> 1 -> 2 ... -> 15 -> 0 distributed
	// across shards (entry value = next global index).
	table := make([]uint64, entries)
	for i := range table {
		table[i] = uint64((i + 1) % entries)
	}
	for s, rt := range servers {
		base := rt.Node.Alloc(int(shard) * 8)
		for i := uint64(0); i < shard; i++ {
			ir.StoreMem(rt.Node.Mem(), base+i*8, ir.I64, table[uint64(s)*shard+i])
		}
		ctx := rt.Node.Alloc(SrvCtxBytes)
		mem := rt.Node.Mem()
		ir.StoreMem(mem, ctx+SrvCtxTableBase, ir.I64, base)
		ir.StoreMem(mem, ctx+SrvCtxShardSize, ir.I64, shard)
		ir.StoreMem(mem, ctx+SrvCtxNumServers, ir.I64, 2)
		ir.StoreMem(mem, ctx+SrvCtxFirstServer, ir.I64, 1)
		rt.TargetPtr = ctx
	}
	resultSlot := client.Node.Alloc(8)
	client.TargetPtr = resultSlot

	h, err := client.RegisterBitcode("dapc", BuildChaser(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	// The client must understand return_result frames arriving back.
	if err := client.RegisterLocal(h); err != nil {
		t.Fatal(err)
	}

	done := client.SetCompletion()
	payload := make([]byte, ChaseBytes)
	// addr=3, depth=5: 3 -> 4 -> 5 -> 6 -> 7 -> value 8 returned.
	payload[ChaseAddr] = 3
	payload[ChaseDepth] = 5
	payload[ChaseDest] = 0
	if _, err := client.Send(1, h, "chase", payload); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if !done.Fired() {
		for i, r := range c.Runtimes {
			t.Logf("node %d: %+v lastErr=%v", i, r.Stats, r.LastExecErr)
		}
		t.Fatal("chase never completed")
	}
	if got := done.Value(); got != 8 {
		t.Fatalf("chase result = %d, want 8", got)
	}
	if got := readU64(client, resultSlot); got != 8 {
		t.Fatalf("result slot = %d, want 8", got)
	}
}

func TestRuntimeRejectsOversizedPayload(t *testing.T) {
	c := twoNodes()
	src := c.Runtime(0)
	h, _ := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if _, err := src.Send(1, h, "main", make([]byte, payloadArena+1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v", err)
	}
}

func TestSendUnknownEntryFails(t *testing.T) {
	c := twoNodes()
	src := c.Runtime(0)
	h, _ := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if _, err := src.Send(1, h, "nonexistent", nil); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("err = %v", err)
	}
}

func TestHandleLookup(t *testing.T) {
	c := twoNodes()
	src := c.Runtime(0)
	if _, err := src.Handle("missing"); !errors.Is(err, ErrNoHandle) {
		t.Fatalf("err = %v", err)
	}
	h, _ := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	got, err := src.Handle("tsi")
	if err != nil || got != h {
		t.Fatalf("handle lookup: %v", err)
	}
	if h.CodeSize(isa.ArchX86_64) != len(h.ArchiveBytes) {
		t.Fatal("code size wrong for bitcode")
	}
}

func TestGuestUCXPut(t *testing.T) {
	// An ifunc that writes a value into the *source* node's memory via a
	// guest-issued one-sided PUT.
	m := ir.NewModule("putback")
	b := ir.NewBuilder(m)
	b.AddDep(LibUCX)
	b.DeclareExtern(SymPutU64)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	dstNode := b.Load(ir.I64, b.Param(0), 0)
	remoteAddr := b.Load(ir.I64, b.Param(0), 8)
	b.Call(SymPutU64, true, dstNode, remoteAddr, b.Const64(777))
	b.Ret(b.Const64(0))

	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	slot := src.Node.Alloc(8)
	h, err := src.RegisterBitcode("putback", m, allTriples)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16)
	// dstNode=0 (the client), remoteAddr=slot.
	for i := 0; i < 8; i++ {
		payload[8+i] = byte(slot >> (8 * i))
	}
	src.Send(1, h, "main", payload)
	c.Run()
	if dst.LastExecErr != nil {
		t.Fatal(dst.LastExecErr)
	}
	if got := readU64(src, slot); got != 777 {
		t.Fatalf("X-RDMA write-back = %d, want 777", got)
	}
}

func TestTSIKernelBitcodeSizeRealistic(t *testing.T) {
	// The paper ships 5159 bytes of fat bitcode for the TSI kernel (two
	// ISAs). Our archive for three targets should be within the same
	// order of magnitude (KiB range, not tens of bytes or MiB).
	c := twoNodes()
	src := c.Runtime(0)
	h, _ := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if n := len(h.ArchiveBytes); n < 1000 || n > 20000 {
		t.Fatalf("TSI fat bitcode = %d bytes, want KiB-scale", n)
	}
}

package core

// Tests and benchmarks for the zero-allocation send/parse fast path:
// pooled frame building, in-place decode + grouping, buffer recycling
// integrity under bursts of in-flight frames, and content-hash interning
// of registered code sections.

import (
	"testing"

	"threechains/internal/ifunc"
	"threechains/internal/ir"
	"threechains/internal/ucx"
)

// buildPayloadAdder returns an ifunc that adds the payload's leading u64
// into the target counter — payload bytes matter, so premature frame
// buffer reuse corrupts the observable sum.
func buildPayloadAdder() *ir.Module {
	m := ir.NewModule("payloadadd")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	v := b.Load(ir.I64, b.Param(0), 0)
	old := b.Load(ir.I64, b.Param(2), 0)
	b.Store(ir.I64, b.Add(old, v), b.Param(2), 0)
	b.Ret(v)
	return m
}

// warmSendWorld returns a two-node cluster with the payload adder warm
// on the cached path (registered on the target, sender cache marked).
func warmSendWorld(t *testing.T) (*Cluster, *Runtime, *Runtime, *Handle, uint64) {
	t.Helper()
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	counter := dst.Node.Alloc(8)
	dst.TargetPtr = counter
	h, err := src.RegisterBitcode("payloadadd", buildPayloadAdder(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Send(1, h, "main", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if dst.LastExecErr != nil {
		t.Fatal(dst.LastExecErr)
	}
	return c, src, dst, h, counter
}

// TestSendBuildAllocFree pins the sender fast path: building a cached
// (truncated) frame into the per-destination pool and recycling it
// allocates nothing in steady state, and neither does the uncached full
// form once its (larger) buffer has entered the pool.
func TestSendBuildAllocFree(t *testing.T) {
	_, src, _, h, _ := warmSendWorld(t)
	payload := make([]byte, 8)

	build := func() {
		frame, err := src.buildFrame(1, h, 0, payload)
		if err != nil {
			t.Fatal(err)
		}
		src.link(1).release(frame)
	}
	if allocs := testing.AllocsPerRun(200, build); allocs > 0 {
		t.Errorf("cached buildFrame allocates %.2f objects/op, want 0", allocs)
	}

	src.Cache = CacheNone
	if allocs := testing.AllocsPerRun(200, build); allocs > 0 {
		t.Errorf("uncached buildFrame allocates %.2f objects/op, want 0", allocs)
	}
}

// TestDecodeGroupAllocFree pins the receiver fast path: decoding a
// cached frame of a registered type, grouping it and releasing the group
// allocates nothing in steady state.
func TestDecodeGroupAllocFree(t *testing.T) {
	_, src, dst, h, _ := warmSendWorld(t)
	frame, err := src.buildFrame(1, h, 0, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	batch := []ucx.IfuncDelivery{{SrcNode: 0, Frame: frame}}
	decode := func() {
		groups := dst.groupFrames(batch)
		if len(groups) != 1 {
			t.Fatalf("groups = %d, want 1", len(groups))
		}
		dst.releaseGroup(groups[0])
	}
	if allocs := testing.AllocsPerRun(200, decode); allocs > 0 {
		t.Errorf("decode+group allocates %.2f objects/op, want 0", allocs)
	}
}

// TestPooledFrameBurstIntegrity floods the link with distinct payloads
// while every frame is in flight simultaneously: if a pooled buffer were
// recycled before the receiver consumed it, payloads would corrupt and
// the sum would diverge. Runs both the cached path and the full-frame
// (cache-disabled) path, then checks buffers actually came back.
func TestPooledFrameBurstIntegrity(t *testing.T) {
	for _, uncached := range []bool{false, true} {
		c, src, dst, h, counter := warmSendWorld(t)
		if uncached {
			src.Cache = CacheNone
		}
		const n = 48
		want := readU64(dst, counter)
		for i := 1; i <= n; i++ {
			payload := make([]byte, 8)
			payload[0] = byte(i)
			if _, err := src.Send(1, h, "main", payload); err != nil {
				t.Fatal(err)
			}
			want += uint64(i)
		}
		c.Run()
		if dst.LastExecErr != nil {
			t.Fatal(dst.LastExecErr)
		}
		if got := readU64(dst, counter); got != want {
			t.Fatalf("uncached=%v: sum = %d, want %d (frame buffer corrupted in flight?)",
				uncached, got, want)
		}
		if len(src.links[1].pool) == 0 {
			t.Errorf("uncached=%v: no frame buffers returned to the pool", uncached)
		}
	}
}

// TestCodeInternSharing checks received code sections are deduplicated
// by content: two types shipping identical modules share one buffer, and
// a deregister/re-register cycle reuses it instead of copying again.
func TestCodeInternSharing(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	dst.TargetPtr = dst.Node.Alloc(8)

	hA, err := src.RegisterBitcode("typeA", buildPayloadAdder(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := src.RegisterBitcode("typeB", buildPayloadAdder(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{hA, hB} {
		if _, err := src.Send(1, h, "main", make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()

	regA, ok := dst.Reg.Get(hA.Hash)
	if !ok {
		t.Fatal("typeA not registered")
	}
	regB, ok := dst.Reg.Get(hB.Hash)
	if !ok {
		t.Fatal("typeB not registered")
	}
	if &regA.CodeBytes[0] != &regB.CodeBytes[0] {
		t.Error("identical code sections were not interned to one buffer")
	}

	// Re-registration after local deregistration: the intern table, not a
	// fresh copy, supplies the code bytes.
	if !dst.DeregisterLocal(hA.Hash) {
		t.Fatal("deregister failed")
	}
	src.Sent.Forget(hA.Hash)
	if _, err := src.Send(1, hA, "main", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	c.Run()
	regA2, ok := dst.Reg.Get(hA.Hash)
	if !ok {
		t.Fatal("typeA not re-registered")
	}
	if &regA2.CodeBytes[0] != &regA.CodeBytes[0] {
		t.Error("re-registration copied the code section instead of reusing the interned buffer")
	}
}

// BenchmarkSendFrameFastPath measures the sender fast path in isolation:
// pooled cached-frame build + release. The acceptance bar is 0 allocs/op
// warm (asserted by TestSendBuildAllocFree; reported here for the
// trajectory).
func BenchmarkSendFrameFastPath(b *testing.B) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	dst.TargetPtr = dst.Node.Alloc(8)
	h, err := src.RegisterBitcode("payloadadd", buildPayloadAdder(), allTriples)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.Send(1, h, "main", make([]byte, 8)); err != nil {
		b.Fatal(err)
	}
	c.Run()
	payload := make([]byte, 8)
	rel := src.link(1).release
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := src.buildFrame(1, h, 0, payload)
		if err != nil {
			b.Fatal(err)
		}
		rel(frame)
	}
}

// BenchmarkDeliveryDecodeFastPath measures the receiver decode+group
// stage in isolation on a cached frame of a warm type: ParseInto plus
// pooled grouping, 0 allocs/op warm.
func BenchmarkDeliveryDecodeFastPath(b *testing.B) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	dst.TargetPtr = dst.Node.Alloc(8)
	h, err := src.RegisterBitcode("payloadadd", buildPayloadAdder(), allTriples)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.Send(1, h, "main", make([]byte, 8)); err != nil {
		b.Fatal(err)
	}
	c.Run()
	frame, err := src.buildFrame(1, h, 0, make([]byte, 8))
	if err != nil {
		b.Fatal(err)
	}
	batch := []ucx.IfuncDelivery{{SrcNode: 0, Frame: frame}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := dst.groupFrames(batch)
		dst.releaseGroup(groups[0])
	}
}

// TestWarmDeliveryAllocs pins the end-to-end warm delivery path — quiet
// send, wire, poll, drain, group, execute — at zero steady-state
// allocations per message. The sim event heap stores events by value,
// the fabric Message is pooled, every pipeline stage (NIC hop, ifunc
// enqueue, batch consume, group run, batch flush) runs through a
// memoized func value, and quiet sends carry no transport signals. The
// 0.5 budget leaves headroom only for a GC emptying the sync.Pool
// mid-run; any reintroduced per-message closure or boxing shows up as
// ≥1 alloc/msg and fails immediately.
func TestWarmDeliveryAllocs(t *testing.T) {
	c, src, _, h, _ := warmSendWorld(t)
	payload := make([]byte, 8)
	for i := 0; i < 32; i++ {
		if err := src.SendQuiet(1, h, "main", payload); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()

	msg := func() {
		if err := src.SendQuiet(1, h, "main", payload); err != nil {
			t.Fatal(err)
		}
		c.Run()
	}
	const budget = 0.5
	if allocs := testing.AllocsPerRun(300, msg); allocs > budget {
		t.Errorf("warm delivery allocates %.2f objects/msg, budget %.0f", allocs, budget)
	}
}

// TestNegotiatedBuildAllocFree pins the cluster-wide negotiation path:
// probing the destination's registry and content store and building the
// hash-ref (or CAS-truncated) frame into the pooled per-destination
// buffer allocates nothing in steady state. Content hashes are memoized
// on handles and registrations at registration time, so the per-send
// path never touches a hash state at all — hashing stays off the alloc
// path by construction, and this test catches any regression that
// reintroduces it (an allocating hash.Hash would show up immediately).
func TestNegotiatedBuildAllocFree(t *testing.T) {
	c := threeNodes()
	src, dst := c.Runtime(0), c.Runtime(2)
	dst.TargetPtr = dst.Node.Alloc(8)
	h, err := src.RegisterBitcode("m", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	// The destination pins the same content under another name but has
	// no registration for type "m": the negotiation answers hash-ref.
	if _, err := dst.RegisterBitcode("m2", BuildTSI(), allTriples); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1)
	rel := src.link(2).release
	buildHashRef := func() {
		src.Sent.Forget(h.Hash)
		frame, err := src.buildFrame(2, h, 0, payload)
		if err != nil {
			t.Fatal(err)
		}
		if want := ifunc.FrameLen(ifunc.FormHashRef, len(payload), 0); len(frame) != want {
			t.Fatalf("frame = %d bytes, want hash-ref %d", len(frame), want)
		}
		rel(frame)
	}
	buildHashRef() // warm the pool with the (slightly larger) hash-ref size
	if allocs := testing.AllocsPerRun(200, buildHashRef); allocs > 0 {
		t.Errorf("hash-ref negotiation allocates %.2f objects/op, want 0", allocs)
	}

	// Deliver once so the type registers at the destination (forget the
	// pairwise mark the loop above left behind, or the send would go out
	// truncated and be dropped): the same forget-and-rebuild loop now
	// exercises the CAS-truncate verdict.
	src.Sent.Forget(h.Hash)
	if _, err := src.Send(2, h, "main", payload); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if dst.Stats.Executions != 1 {
		t.Fatalf("dst stats %+v", dst.Stats)
	}
	buildTruncated := func() {
		src.Sent.Forget(h.Hash)
		frame, err := src.buildFrame(2, h, 0, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != ifunc.TruncatedLen(len(payload)) {
			t.Fatalf("frame = %d bytes, want truncated %d", len(frame), ifunc.TruncatedLen(len(payload)))
		}
		rel(frame)
	}
	if allocs := testing.AllocsPerRun(200, buildTruncated); allocs > 0 {
		t.Errorf("CAS-truncate negotiation allocates %.2f objects/op, want 0", allocs)
	}
}

// TestContentHashAllocFree pins the hash itself: one pass over a
// multi-KiB archive with the inlined FNV state allocates nothing (the
// cold-path cost is pure CPU, never GC pressure).
func TestContentHashAllocFree(t *testing.T) {
	blob := make([]byte, 8192)
	for i := range blob {
		blob[i] = byte(i)
	}
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() {
		sink += ifunc.ContentHash(blob)
	}); allocs > 0 {
		t.Errorf("ContentHash allocates %.2f objects/op, want 0", allocs)
	}
	_ = sink
}

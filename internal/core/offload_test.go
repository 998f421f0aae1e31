package core

// Unit tests for Runtime.Offload's three routes: pull-data mutates the
// remote region via GET + local execution + put-back exactly like a ship
// executes it in place, run-local handles self-offloads, and the policy
// edge cases (oversized regions, PolicyLocal on remote data) behave.

import (
	"testing"

	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/jit"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/ucx"
)

// offloadWorld is a warm two-node TSI setup: counter region on dst,
// handle registered on src.
func offloadWorld(t *testing.T) (*Cluster, *Runtime, *Runtime, *Handle, uint64) {
	t.Helper()
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	counter := dst.Node.Alloc(8)
	dst.TargetPtr = counter
	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	return c, src, dst, h, counter
}

func offloadOnce(t *testing.T, c *Cluster, src *Runtime, dst int, h *Handle, opts OffloadOpts) uint64 {
	t.Helper()
	sig, err := src.Offload(dst, h, "main", []byte{0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	return sig.Value()
}

// TestOffloadPullMatchesShip runs the same increment through a ship and
// through a pull with write-back: both must leave the remote counter
// bumped, and the pull's completion signal reports OK.
func TestOffloadPullMatchesShip(t *testing.T) {
	c, src, dst, h, counter := offloadWorld(t)
	opts := OffloadOpts{DataAddr: counter, DataSize: 8, WriteBack: true}

	opts.Policy = place.PolicyShipCode
	offloadOnce(t, c, src, 1, h, opts)
	if got := readU64(dst, counter); got != 1 {
		t.Fatalf("after ship: counter = %d, want 1", got)
	}

	opts.Policy = place.PolicyPullData
	if v := offloadOnce(t, c, src, 1, h, opts); ucx.Status(v) != ucx.OK {
		t.Fatalf("pull completion status %v", ucx.Status(v))
	}
	if got := readU64(dst, counter); got != 2 {
		t.Fatalf("after pull+writeback: counter = %d, want 2", got)
	}
	if src.Planner.Stats.Pull != 1 || src.Planner.Stats.Ship != 1 {
		t.Fatalf("planner stats %+v, want 1 ship + 1 pull", src.Planner.Stats)
	}
	if dst.Stats.Executions != 1 || src.Stats.Executions != 1 {
		t.Fatalf("executions dst=%d src=%d, want 1 each (ship ran remotely, pull locally)",
			dst.Stats.Executions, src.Stats.Executions)
	}
}

// TestOffloadPullNoWriteBack leaves the remote region untouched.
func TestOffloadPullNoWriteBack(t *testing.T) {
	c, src, dst, h, counter := offloadWorld(t)
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: counter, DataSize: 8}
	offloadOnce(t, c, src, 1, h, opts)
	if got := readU64(dst, counter); got != 0 {
		t.Fatalf("read-only pull mutated the remote region: %d", got)
	}
	if src.Stats.Executions != 1 {
		t.Fatalf("src executions = %d, want 1", src.Stats.Executions)
	}
}

// TestOffloadLocalRoute: a self-offload executes in place with no wire
// traffic under every policy.
func TestOffloadLocalRoute(t *testing.T) {
	c, src, _, h, _ := offloadWorld(t)
	region := src.Node.Alloc(8)
	msgs := src.Node.Stats.MsgsSent
	opts := OffloadOpts{Policy: place.PolicyLocal, DataAddr: region, DataSize: 8, WriteBack: true}
	if v := offloadOnce(t, c, src, 0, h, opts); ucx.Status(v) != ucx.OK {
		t.Fatalf("local completion status %v", ucx.Status(v))
	}
	if got := readU64(src, region); got != 1 {
		t.Fatalf("local region = %d, want 1", got)
	}
	if src.Node.Stats.MsgsSent != msgs {
		t.Fatal("run-local route sent wire messages")
	}
	if src.Planner.Stats.Local != 1 {
		t.Fatalf("planner stats %+v, want 1 local", src.Planner.Stats)
	}
}

// TestOffloadPolicyLocalRejectsRemote: PolicyLocal on remote data is a
// caller error, not a silent reroute.
func TestOffloadPolicyLocalRejectsRemote(t *testing.T) {
	_, src, _, h, counter := offloadWorld(t)
	_, err := src.Offload(1, h, "main", []byte{0}, OffloadOpts{
		Policy: place.PolicyLocal, DataAddr: counter, DataSize: 8,
	})
	if err == nil {
		t.Fatal("PolicyLocal accepted a remote region")
	}
}

// TestOffloadOversizedRegionFallsBack: a region beyond the pull arena is
// not pull-viable — PolicyPullData ships instead and still completes.
func TestOffloadOversizedRegionFallsBack(t *testing.T) {
	c, src, dst, h, counter := offloadWorld(t)
	opts := OffloadOpts{
		Policy: place.PolicyPullData, DataAddr: counter,
		DataSize: pullArena + 8, WriteBack: true,
	}
	offloadOnce(t, c, src, 1, h, opts)
	if got := readU64(dst, counter); got != 1 {
		t.Fatalf("fallback ship did not execute: counter = %d", got)
	}
	if src.Planner.Stats.Fallbacks != 1 || src.Planner.Stats.Ship != 1 {
		t.Fatalf("planner stats %+v, want 1 ship fallback", src.Planner.Stats)
	}
}

// TestOffloadPullVirtualTime pins the pull route's virtual-time
// composition: it must cost at least a GET round trip plus the put-back
// leg (the same calibrated one-sided ops any RDMA read-modify-write
// pays), and complete strictly after a pure GET of the same region.
func TestOffloadPullVirtualTime(t *testing.T) {
	c, src, _, h, counter := offloadWorld(t)
	start := c.Eng.Now()
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: counter, DataSize: 8, WriteBack: true}
	offloadOnce(t, c, src, 1, h, opts)
	elapsed := c.Eng.Now() - start

	p := c.Net.Params
	// Lower bound: request + response + put, each at least base latency.
	min := 3 * p.BaseLatency
	if elapsed < min {
		t.Fatalf("pull route took %v, below the 3-leg wire minimum %v", elapsed, min)
	}
	if elapsed > sim.Second {
		t.Fatalf("pull route took %v, absurd", elapsed)
	}
}

// TestOffloadPayloadBufferReuse pins the route-independent payload
// contract: callers may reuse their payload buffer as soon as Offload
// returns, exactly as with Send, even though the pull route consumes the
// payload at a later virtual time (it must snapshot).
func TestOffloadPayloadBufferReuse(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	counter := dst.Node.Alloc(8)
	dst.TargetPtr = counter
	h, err := src.RegisterBitcode("payloadadd", buildPayloadAdder(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: counter, DataSize: 8, WriteBack: true}
	buf[0] = 5
	if _, err := src.Offload(1, h, "main", buf, opts); err != nil {
		t.Fatal(err)
	}
	buf[0] = 9 // overwrite while the pull is in flight
	c.Run()
	if got := readU64(dst, counter); got != 5 {
		t.Fatalf("counter = %d, want 5 (pull route read the reused buffer)", got)
	}
}

// TestOffloadKeepsPlannerPolicy is the regression test for the planner
// clobber: Offload used to write opts.Policy into Planner.Policy, so any
// Offload with default opts silently reset a caller-configured planner
// to PolicyCostModel (the zero value). The per-request policy must flow
// through the decision without mutating the planner.
func TestOffloadKeepsPlannerPolicy(t *testing.T) {
	c, src, _, h, counter := offloadWorld(t)
	src.Planner.Policy = place.PolicyShipCode
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: counter, DataSize: 8, WriteBack: true}
	offloadOnce(t, c, src, 1, h, opts)
	if src.Planner.Policy != place.PolicyShipCode {
		t.Fatalf("Offload clobbered Planner.Policy: %v, want %v (configured)",
			src.Planner.Policy, place.PolicyShipCode)
	}
	if src.Planner.Stats.Pull != 1 {
		t.Fatalf("per-request pull policy not honored: stats %+v", src.Planner.Stats)
	}
	// The planner's own Decide must still follow the configured policy.
	d, err := src.Planner.Plan(src.Planner.Policy, place.CostModel{}, place.Request{ShipViable: true})
	if err != nil || d.Route != place.RouteShipCode {
		t.Fatalf("configured policy lost: %v route %v", err, d.Route)
	}
}

// TestOffloadBinaryShipUnviableRoutesPull is the regression test for the
// mispriced unshippable route: a KindBinary handle with no object for
// the destination's architecture used to price ship registration as 0 —
// free precisely when ship-code cannot work there — so the cost model
// picked ship and the offload failed in buildFrame after the decision.
// The planner must see the inviability and route to pull instead.
func TestOffloadBinaryShipUnviableRoutesPull(t *testing.T) {
	c, src, dst, _, counter := offloadWorld(t)
	// Binary form, compiled only for the source's Xeon — the CortexA72
	// destination cannot receive it.
	h, err := src.RegisterBinary("tsi-bin", BuildTSI(), []*isa.MicroArch{isa.XeonE5()})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the mean-steps estimate so the cost model prices rather than
	// explores (the pre-fix bug needs the priced branch to manifest).
	region := src.Node.Alloc(8)
	offloadOnce(t, c, src, 0, h, OffloadOpts{
		Policy: place.PolicyCostModel, DataAddr: region, DataSize: 8, WriteBack: true,
	})

	opts := OffloadOpts{Policy: place.PolicyCostModel, DataAddr: counter, DataSize: 8, WriteBack: true}
	if v := offloadOnce(t, c, src, 1, h, opts); ucx.Status(v) != ucx.OK {
		t.Fatalf("unshippable offload status %v", ucx.Status(v))
	}
	if got := readU64(dst, counter); got != 1 {
		t.Fatalf("counter = %d, want 1 (pull route must have executed)", got)
	}
	if src.Planner.Stats.Ship != 0 || src.Planner.Stats.Pull != 1 {
		t.Fatalf("planner stats %+v, want the unshippable request routed pull", src.Planner.Stats)
	}
	// A forced ship of the same handle is a caller error, surfaced at
	// decision time — not after.
	if _, err := src.Offload(1, h, "main", []byte{0}, OffloadOpts{
		Policy: place.PolicyShipCode, DataAddr: counter, DataSize: 8,
	}); err == nil {
		t.Fatal("forced ship of an unshippable binary succeeded")
	}
}

// TestPlannerStatsCountLaunchedRoutesOnly is the regression test for
// decision accounting: stats and trace used to record a decision before
// its route launched, so a failure between Decide and launch (frame
// build, local registration) skewed the route mix the benchmarks
// report. A failed launch must leave no record.
func TestPlannerStatsCountLaunchedRoutesOnly(t *testing.T) {
	_, src, _, h, counter := offloadWorld(t)
	var trace []place.Decision
	src.Planner.OnCommit = func(d place.Decision) { trace = append(trace, d) }
	// An over-arena payload passes the decision (payload size does not
	// gate routing) and then fails the ship route's frame build.
	huge := make([]byte, 1<<17)
	_, err := src.Offload(1, h, "main", huge, OffloadOpts{
		Policy: place.PolicyShipCode, DataAddr: counter, DataSize: 8,
	})
	if err == nil {
		t.Fatal("oversized payload shipped")
	}
	if src.Planner.Stats != (place.Stats{}) {
		t.Fatalf("failed launch was counted: stats %+v", src.Planner.Stats)
	}
	if len(trace) != 0 {
		t.Fatalf("failed launch was traced: %d entries", len(trace))
	}
}

// streamWorld builds an n-node Xeon cluster with a per-node counter
// region and a registered TSI handle on the driver.
func streamWorld(t *testing.T, n int) (*Cluster, *Runtime, *Handle, []uint64) {
	t.Helper()
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Name: "n", March: isa.XeonE5()}
	}
	c := NewCluster(testParams(), specs)
	src := c.Runtime(0)
	regions := make([]uint64, n)
	for i, rt := range c.Runtimes {
		regions[i] = rt.Node.Alloc(8)
		rt.TargetPtr = regions[i]
	}
	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	return c, src, h, regions
}

// TestOffloadStreamSerializesPerDestination: W-deep streams keep ops to
// one destination strictly ordered, whatever the route — the k-th op to
// a region observes exactly k prior increments, and Results attributes
// each value to its op.
func TestOffloadStreamSerializesPerDestination(t *testing.T) {
	for _, pol := range []place.Policy{
		place.PolicyShipCode, place.PolicyPullData,
		place.PolicyCostModel, place.PolicyCostModelQueue,
	} {
		c, src, h, regions := streamWorld(t, 2)
		opts := OffloadOpts{Policy: pol, DataAddr: regions[1], DataSize: 8, WriteBack: true}
		ops := make([]StreamOp, 4)
		for i := range ops {
			ops[i] = StreamOp{Dst: 1, H: h, Fn: "main", Payload: []byte{0}, Opts: opts}
		}
		s := src.StartOffloadStream(ops, 4)
		c.Run()
		if s.Err != nil || !s.Done.Fired() {
			t.Fatalf("%v: stream err=%v done=%v", pol, s.Err, s.Done.Fired())
		}
		// TSI returns the post-increment value: the k-th op to the region
		// must observe exactly k prior increments.
		for i, v := range s.Results {
			if v != uint64(i+1) {
				t.Fatalf("%v: op %d returned %d, want %d (serialization or attribution broken)", pol, i, v, i+1)
			}
		}
		if got := readU64(c.Runtime(1), regions[1]); got != 4 {
			t.Fatalf("%v: counter = %d, want 4", pol, got)
		}
	}
}

// TestOffloadStreamConcurrentPulls: overlapping pulls to distinct
// destinations each stage in their own arena slot (the shared-buffer
// corruption fix) and the window genuinely overlaps requests.
func TestOffloadStreamConcurrentPulls(t *testing.T) {
	c, src, h, regions := streamWorld(t, 4)
	var ops []StreamOp
	for round := 0; round < 2; round++ {
		for d := 1; d < 4; d++ {
			ops = append(ops, StreamOp{
				Dst: d, H: h, Fn: "main", Payload: []byte{0},
				Opts: OffloadOpts{Policy: place.PolicyPullData, DataAddr: regions[d], DataSize: 8, WriteBack: true},
			})
		}
	}
	s := src.StartOffloadStream(ops, 6)
	c.Run()
	if s.Err != nil || !s.Done.Fired() {
		t.Fatalf("stream err=%v done=%v", s.Err, s.Done.Fired())
	}
	// The arena high-water mark is the proof of genuine overlap:
	// MaxInFlight counts admitted ops and is constant by construction,
	// but a second slot only materializes while another pull actually
	// holds the first.
	if got := src.PullSlotsAllocated(); got < 2 {
		t.Fatalf("overlapping pulls shared a staging slot: %d slots", got)
	}
	for d := 1; d < 4; d++ {
		if got := readU64(c.Runtime(d), regions[d]); got != 2 {
			t.Fatalf("node %d counter = %d, want 2", d, got)
		}
	}
}

// TestOffloadStreamExecFailureCompletes: a ship-routed stream op whose
// destination-side execution fails (here: an entry with the wrong arity,
// a batch-level RunBatch error) must still complete the stream — the
// execution watch fires with 0 instead of stranding the op with Done
// unfired, and the error surfaces through the destination's LastExecErr.
func TestOffloadStreamExecFailureCompletes(t *testing.T) {
	c, src, _, regions := streamWorld(t, 2)
	bad := ir.NewModule("badarity")
	b := ir.NewBuilder(bad)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64}, ir.I64) // 2 params; runtime passes 3
	b.Ret(b.Const64(7))
	h, err := src.RegisterBitcode("badarity", bad, allTriples)
	if err != nil {
		t.Fatal(err)
	}
	ops := []StreamOp{{
		Dst: 1, H: h, Fn: "main", Payload: []byte{0},
		Opts: OffloadOpts{Policy: place.PolicyShipCode, DataAddr: regions[1], DataSize: 8},
	}}
	s := src.StartOffloadStream(ops, 2)
	c.Run()
	if !s.Done.Fired() {
		t.Fatal("stream stalled on a failed execution")
	}
	if s.Results[0] != 0 {
		t.Fatalf("failed execution attributed value %d, want 0", s.Results[0])
	}
	if c.Runtime(1).LastExecErr == nil {
		t.Fatal("execution failure not recorded")
	}
	if len(c.Runtime(1).execWatches) != 0 {
		t.Fatalf("%d stranded watches left to mis-attribute later executions", len(c.Runtime(1).execWatches))
	}
}

// TestOffloadStreamDroppedFrameCompletes: a ship-routed stream op whose
// frame is dropped at the destination (here: the destination deregisters
// the type mid-flight, so the truncated frame arrives for an unknown
// type — the classic sender-cache desync) must still complete the
// stream: the drop fails the execution watch instead of stranding it.
func TestOffloadStreamDroppedFrameCompletes(t *testing.T) {
	c, src, h, regions := streamWorld(t, 2)
	// Warm the (type, dst) pair so the next ship is a truncated frame.
	if _, err := src.Offload(1, h, "main", []byte{0}, OffloadOpts{
		Policy: place.PolicyShipCode, DataAddr: regions[1], DataSize: 8,
	}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	// The destination drops its registration; the driver's sent-cache
	// still believes the code is resident.
	c.Runtime(1).DeregisterLocal(h.Hash)
	ops := []StreamOp{{
		Dst: 1, H: h, Fn: "main", Payload: []byte{0},
		Opts: OffloadOpts{Policy: place.PolicyShipCode, DataAddr: regions[1], DataSize: 8},
	}}
	s := src.StartOffloadStream(ops, 2)
	c.Run()
	if !s.Done.Fired() {
		t.Fatal("stream stalled on a dropped frame")
	}
	if s.Results[0] != 0 {
		t.Fatalf("dropped frame attributed value %d, want 0", s.Results[0])
	}
	if c.Runtime(1).LastDropErr == nil {
		t.Fatal("drop not recorded")
	}
}

// TestOffloadStreamWindow: the stream never admits more than the window.
func TestOffloadStreamWindow(t *testing.T) {
	c, src, h, regions := streamWorld(t, 4)
	var ops []StreamOp
	for i := 0; i < 12; i++ {
		d := 1 + i%3
		ops = append(ops, StreamOp{
			Dst: d, H: h, Fn: "main", Payload: []byte{0},
			Opts: OffloadOpts{Policy: place.PolicyCostModelQueue, DataAddr: regions[d], DataSize: 8, WriteBack: true},
		})
	}
	s := src.StartOffloadStream(ops, 2)
	c.Run()
	if s.Err != nil || !s.Done.Fired() {
		t.Fatalf("stream err=%v done=%v", s.Err, s.Done.Fired())
	}
	if s.MaxInFlight > 2 {
		t.Fatalf("window exceeded: %d in flight", s.MaxInFlight)
	}
}

// buildReader returns a kernel that only reads the region (returns its
// first word) — the clean-region case for delta write-back.
func buildReader() *ir.Module {
	m := ir.NewModule("reader")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	b.Ret(b.Load(ir.I64, b.Param(2), 0))
	return m
}

// buildScatterAll returns a kernel that overwrites all eight words of a
// 64-byte region — the dirty-everything case where the vectored delta
// cannot undercut a whole-region put.
func buildScatterAll() *ir.Module {
	m := ir.NewModule("scatterall")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	for i := 0; i < 8; i++ {
		b.Store(ir.I64, b.Const64(int64(1000+i)), b.Param(2), int64(i*8))
	}
	b.Ret(b.Const64(0))
	return m
}

// pullRegion allocates and patterns an n-byte region on dst.
func pullRegion(dst *Runtime, n int) uint64 {
	addr := dst.Node.Alloc(n)
	mem := dst.Node.Mem()
	for i := 0; i < n; i++ {
		mem[addr+uint64(i)] = byte(i*7 + 3)
	}
	return addr
}

// TestOffloadDeltaWriteBackPutsOnlyDirtyBytes pins the tentpole's delta
// write-back: a kernel that touches one word of a 256-byte region pays a
// PUT proportional to the dirty range (segment descriptor + bytes), not
// to the region — and the untouched bytes land back untouched.
func TestOffloadDeltaWriteBackPutsOnlyDirtyBytes(t *testing.T) {
	c, src, dst, h, _ := offloadWorld(t)
	const n = 256
	region := pullRegion(dst, n)
	before := append([]byte(nil), dst.Node.Mem()[region:region+n]...)
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: region, DataSize: n, WriteBack: true}
	if v := offloadOnce(t, c, src, 1, h, opts); ucx.Status(v) != ucx.OK {
		t.Fatalf("pull completion status %v", ucx.Status(v))
	}
	if got := readU64(dst, region); got != readLE(before[:8])+1 {
		t.Fatalf("counter = %d, want %d", got, readLE(before[:8])+1)
	}
	for i := 8; i < n; i++ {
		if dst.Node.Mem()[region+uint64(i)] != before[i] {
			t.Fatalf("untouched byte %d changed", i)
		}
	}
	if src.Stats.WriteBackFullBytes != n {
		t.Fatalf("full-bytes baseline %d, want %d", src.Stats.WriteBackFullBytes, n)
	}
	put := src.Stats.WriteBackPutBytes
	if put == 0 || put >= n {
		t.Fatalf("delta put %d bytes, want in (0, %d)", put, n)
	}
	// The observation seeds the planner's write-back pricing.
	reg, ok := src.Reg.Get(h.Hash)
	if !ok {
		t.Fatal("pull did not register locally")
	}
	if m, ok := reg.MeanPutBytes(); !ok || m != float64(put) {
		t.Fatalf("MeanPutBytes = %v,%v, want %d", m, ok, put)
	}
}

// TestOffloadDeltaWriteBackCleanRegionSkipsPut pins the clean case: a
// read-only kernel under WriteBack pays no put at all.
func TestOffloadDeltaWriteBackCleanRegionSkipsPut(t *testing.T) {
	c, src, dst, _, _ := offloadWorld(t)
	h, err := src.RegisterBitcode("reader", buildReader(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	region := pullRegion(dst, n)
	before := append([]byte(nil), dst.Node.Mem()[region:region+n]...)
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: region, DataSize: n, WriteBack: true}
	if v := offloadOnce(t, c, src, 1, h, opts); ucx.Status(v) != ucx.OK {
		t.Fatalf("pull completion status %v", ucx.Status(v))
	}
	if src.Stats.WriteBackPutBytes != 0 {
		t.Fatalf("clean region put %d bytes, want 0", src.Stats.WriteBackPutBytes)
	}
	for i := 0; i < n; i++ {
		if dst.Node.Mem()[region+uint64(i)] != before[i] {
			t.Fatalf("byte %d changed by a clean kernel", i)
		}
	}
}

// TestOffloadDeltaWriteBackFallsBackWhenAllDirty pins the fallback: when
// the vectored delta (descriptors included) cannot undercut the region,
// the write-back reverts to one whole-region put.
func TestOffloadDeltaWriteBackFallsBackWhenAllDirty(t *testing.T) {
	c, src, dst, _, _ := offloadWorld(t)
	h, err := src.RegisterBitcode("scatterall", buildScatterAll(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	region := pullRegion(dst, n)
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: region, DataSize: n, WriteBack: true}
	if v := offloadOnce(t, c, src, 1, h, opts); ucx.Status(v) != ucx.OK {
		t.Fatalf("pull completion status %v", ucx.Status(v))
	}
	if src.Stats.WriteBackPutBytes != n {
		t.Fatalf("all-dirty put %d bytes, want the whole region %d", src.Stats.WriteBackPutBytes, n)
	}
	for i := 0; i < 8; i++ {
		if got := readU64(dst, region+uint64(i*8)); got != uint64(1000+i) {
			t.Fatalf("word %d = %d, want %d", i, got, 1000+i)
		}
	}
}

// readLE decodes a little-endian u64 (test-side mirror of the guest ABI).
func readLE(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// TestHandleJITKeyMatchesCacheKey: the registration-cost probe keys the
// JIT session from the handle's memoized content hashes; the keys must
// be byte-identical to hashing the shipped bytes, or the probe would
// price a cached type as a cold compile.
func TestHandleJITKeyMatchesCacheKey(t *testing.T) {
	c := twoNodes()
	src := c.Runtime(0)
	hb, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := src.RegisterBinary("tsi-bin", BuildTSI(), []*isa.MicroArch{isa.XeonE5()})
	if err != nil {
		t.Fatal(err)
	}
	if k, want := hb.archiveKey, jit.CacheKey(hb.ArchiveBytes); k != want {
		t.Fatalf("bitcode key %q, want %q", k, want)
	}
	if k, want := hx.objectKey[isa.ArchX86_64], jit.CacheKey(hx.Objects[isa.ArchX86_64]); k != want {
		t.Fatalf("binary key %q, want %q", k, want)
	}
}

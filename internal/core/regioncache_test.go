package core

// Tests for the data-region cache (region.go + the offloadPull
// negotiation): repeat pulls elide their GETs on a version hit, stale
// staged copies fetch only the changed chunks through a vectored GetV
// (falling back to the whole region when the framing costs more), guest
// outcomes are bit-identical cache-on vs cache-off on every engine, the
// ship route's priced frame bytes equal the bytes the send transmits,
// and region snapshots share the content store's budgeted LRU with code
// blobs deterministically.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"threechains/internal/ifunc"
	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/place"
	"threechains/internal/ucx"
)

// regionWorld is a two-node setup with a regionBytes-sized operand
// region on the dpu, seeded with a deterministic pattern, and the TSI
// kernel registered on the host.
func regionWorld(t *testing.T, regionBytes int) (*Cluster, *Runtime, *Runtime, *Handle, uint64) {
	t.Helper()
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	region := dst.Node.Alloc(regionBytes)
	mem := dst.Node.Mem()
	for i := 0; i < regionBytes/8; i++ {
		binary.LittleEndian.PutUint64(mem[region+uint64(i*8):], uint64(i)*0x9e3779b97f4a7c15)
	}
	binary.LittleEndian.PutUint64(mem[region:], 0)
	// Ship-code executes against the destination's TargetPtr; keep it in
	// agreement with the region (the scenario-harness convention).
	dst.TargetPtr = region
	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	return c, src, dst, h, region
}

// opValue runs one offload through a single-op stream and returns the
// kernel's return value (Offload's own signal only carries the
// transport status).
func opValue(t *testing.T, c *Cluster, src *Runtime, op StreamOp) uint64 {
	t.Helper()
	s := src.StartOffloadStream([]StreamOp{op}, 1)
	c.Run()
	if s.Err != nil {
		t.Fatal(s.Err)
	}
	if !s.Done.Fired() {
		t.Fatal("stream stalled")
	}
	return s.Results[0]
}

// TestRegionCacheElidesRepeatPull: the second and third pull of an
// unchanged-by-others region skip the GET entirely — the write-back
// stamps the entry with the post-PUT owner version, so the puller's own
// mutations never invalidate its own staged copy.
func TestRegionCacheElidesRepeatPull(t *testing.T) {
	const size = 1024
	c, src, dst, h, region := regionWorld(t, size)
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: region, DataSize: size, WriteBack: true}

	for i := 1; i <= 3; i++ {
		op := StreamOp{Dst: 1, H: h, Fn: "main", Payload: []byte{0}, Opts: opts}
		if v := opValue(t, c, src, op); v != uint64(i) {
			t.Fatalf("pull %d returned %d, want %d", i, v, i)
		}
	}
	if got := readU64(dst, region); got != 3 {
		t.Fatalf("owner counter = %d, want 3", got)
	}
	if src.Stats.RegionElides != 2 || src.Stats.RegionDeltaPulls != 0 {
		t.Fatalf("elides=%d deltas=%d, want 2 elides 0 deltas",
			src.Stats.RegionElides, src.Stats.RegionDeltaPulls)
	}
	// Only the cold pull crossed the wire: negotiated GET bytes are one
	// region against three regions' worth of demand.
	if src.Stats.PullGetBytes != size || src.Stats.PullGetFullBytes != 3*size {
		t.Fatalf("GET bytes %d/%d, want %d/%d",
			src.Stats.PullGetBytes, src.Stats.PullGetFullBytes, size, 3*size)
	}
}

// TestRegionCacheKeepsOneSnapshotPerEntry: five write-back pulls of one
// region replace its staged snapshot five times. Each replaced snapshot
// must leave the content store, unpinned, once its pull completes —
// only the current one stays resident, and no pin outlives its pull.
// (A pull used to unpin the entry's re-pointed hash rather than the one
// it pinned, so every replaced snapshot stayed pinned forever, beyond
// the reach of any StoreBudget.)
func TestRegionCacheKeepsOneSnapshotPerEntry(t *testing.T) {
	const size = 1024
	c, src, dst, h, region := regionWorld(t, size)
	opts := OffloadOpts{Policy: place.PolicyPullData, DataAddr: region, DataSize: size, WriteBack: true}
	var snaps []uint64
	for i := 1; i <= 5; i++ {
		op := StreamOp{Dst: 1, H: h, Fn: "main", Payload: []byte{0}, Opts: opts}
		if v := opValue(t, c, src, op); v != uint64(i) {
			t.Fatalf("pull %d returned %d, want %d", i, v, i)
		}
		// Once the write-back has landed, the owner's region is exactly
		// the snapshot this pull staged.
		snaps = append(snaps, ifunc.ContentHash(dst.Node.Mem()[region:region+size]))
	}
	st := src.Store
	for i, hs := range snaps {
		if st.HasPinned(hs) {
			t.Errorf("snapshot %d still pinned", i)
		}
		if resident := st.Contains(hs); resident != (i == len(snaps)-1) {
			t.Errorf("snapshot %d resident = %v, want %v", i, resident, i == len(snaps)-1)
		}
	}
	if len(src.regionRefs) != 1 {
		t.Errorf("%d snapshot buffers referenced by region entries, want 1", len(src.regionRefs))
	}
	if src.Stats.RegionElides != 4 {
		t.Errorf("elides = %d, want 4", src.Stats.RegionElides)
	}
}

// TestRegionCacheDeltaPullFetchesOnlyStaleChunks: a remote write (a
// shipped execution on the owner) bumps the region version; the next
// pull re-fetches exactly the dirtied chunk through GetV instead of the
// whole region.
func TestRegionCacheDeltaPullFetchesOnlyStaleChunks(t *testing.T) {
	const size = 1024 // 4 chunks of 256
	c, src, _, h, region := regionWorld(t, size)
	ro := OffloadOpts{Policy: place.PolicyPullData, DataAddr: region, DataSize: size}
	pull := func() uint64 {
		return opValue(t, c, src, StreamOp{Dst: 1, H: h, Fn: "main", Payload: []byte{0}, Opts: ro})
	}

	if v := pull(); v != 1 {
		t.Fatalf("cold pull returned %d, want 1 (read-only: bump discarded)", v)
	}
	// Ship an execution to the owner: it bumps word 0 in place, which
	// dirties chunk 0 and advances the region's version counter.
	ship := OffloadOpts{Policy: place.PolicyShipCode, DataAddr: region, DataSize: size, WriteBack: true}
	shipOp := StreamOp{Dst: 1, H: h, Fn: "main", Payload: []byte{0}, Opts: ship}
	if v := opValue(t, c, src, shipOp); v != 1 {
		t.Fatalf("ship returned %d, want 1", v)
	}
	if v := pull(); v != 2 {
		t.Fatalf("stale pull returned %d, want 2 (staged over the shipped bump)", v)
	}
	if src.Stats.RegionDeltaPulls != 1 || src.Stats.RegionElides != 0 {
		t.Fatalf("deltas=%d elides=%d, want 1 delta 0 elides",
			src.Stats.RegionDeltaPulls, src.Stats.RegionElides)
	}
	wantDelta := uint64(ucx.GetSegHeaderBytes + ifunc.RegionChunkBytes)
	if got := src.Stats.PullGetBytes; got != size+wantDelta {
		t.Fatalf("GET bytes %d, want %d (cold region + one framed chunk)", got, size+wantDelta)
	}
	// The delta refreshed the entry: a fourth pull elides.
	if v := pull(); v != 2 {
		t.Fatalf("repeat pull returned %d, want 2", v)
	}
	if src.Stats.RegionElides != 1 {
		t.Fatalf("elides=%d, want 1 after the delta refresh", src.Stats.RegionElides)
	}
}

// TestRegionCacheFallbackWhenFramingDoesNotPay: on a tiny region the
// per-segment descriptors cost more than the region itself, so a stale
// pull degrades to the plain whole-region GET (and still refreshes the
// cache entry).
func TestRegionCacheFallbackWhenFramingDoesNotPay(t *testing.T) {
	const size = 8
	c, src, _, h, region := regionWorld(t, size)
	ro := OffloadOpts{Policy: place.PolicyPullData, DataAddr: region, DataSize: size}
	ship := OffloadOpts{Policy: place.PolicyShipCode, DataAddr: region, DataSize: size, WriteBack: true}
	pull := func() uint64 {
		return opValue(t, c, src, StreamOp{Dst: 1, H: h, Fn: "main", Payload: []byte{0}, Opts: ro})
	}

	pull()
	opValue(t, c, src, StreamOp{Dst: 1, H: h, Fn: "main", Payload: []byte{0}, Opts: ship})
	if v := pull(); v != 2 {
		t.Fatalf("stale pull returned %d, want 2", v)
	}
	if src.Stats.RegionDeltaPulls != 0 {
		t.Fatalf("deltas=%d, want 0 (12-byte segment framing exceeds an 8-byte region)",
			src.Stats.RegionDeltaPulls)
	}
	if src.Stats.PullGetBytes != 2*size {
		t.Fatalf("GET bytes %d, want %d (two whole-region GETs)", src.Stats.PullGetBytes, 2*size)
	}
	if v := pull(); v != 2 {
		t.Fatalf("repeat pull returned %d, want 2", v)
	}
	if src.Stats.RegionElides != 1 {
		t.Fatalf("elides=%d, want 1 (fallback refreshed the entry)", src.Stats.RegionElides)
	}
}

// regionCacheScript drives a fixed mixed sequence of pulls and ships
// over two owner nodes and returns a fingerprint of everything the guest
// can see: per-op kernel values and the owners' final region bytes.
func regionCacheScript(t *testing.T, engine string, disableCache bool) uint64 {
	t.Helper()
	specs := []NodeSpec{
		{Name: "host", March: isa.XeonE5(), Engine: engine},
		{Name: "dpu0", March: isa.XeonE5(), Engine: engine},
		{Name: "dpu1", March: isa.XeonE5(), Engine: engine},
	}
	c := NewCluster(testParams(), specs)
	if disableCache {
		for _, rt := range c.Runtimes {
			rt.Cache = CacheCAS
		}
	}
	src := c.Runtime(0)
	sizes := []uint64{1024, 8}
	regions := make([]uint64, 2)
	for i := 0; i < 2; i++ {
		owner := c.Runtime(i + 1)
		regions[i] = owner.Node.Alloc(int(sizes[i]))
		mem := owner.Node.Mem()
		for j := 0; j < int(sizes[i])/8; j++ {
			binary.LittleEndian.PutUint64(mem[regions[i]+uint64(j*8):],
				uint64(i+1)*0x6a09e667f3bcc909+uint64(j))
		}
	}
	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	var ops []StreamOp
	for i := 0; i < 24; i++ {
		dst := 1 + i%2
		opts := OffloadOpts{DataAddr: regions[dst-1], DataSize: sizes[dst-1]}
		switch {
		case i%5 == 2:
			opts.Policy = place.PolicyShipCode
			opts.WriteBack = true
		case i%3 == 1:
			opts.Policy = place.PolicyPullData // read-only
		default:
			opts.Policy = place.PolicyPullData
			opts.WriteBack = true
		}
		ops = append(ops, StreamOp{Dst: dst, H: h, Fn: "main", Payload: []byte{0}, Opts: opts})
	}
	s := src.StartOffloadStream(ops, 1)
	c.Run()
	if s.Err != nil {
		t.Fatal(s.Err)
	}
	if !s.Done.Fired() {
		t.Fatal("script stream stalled")
	}
	hs := fnv.New64a()
	var b [8]byte
	for _, v := range s.Results {
		binary.LittleEndian.PutUint64(b[:], v)
		hs.Write(b[:])
	}
	for i := 0; i < 2; i++ {
		owner := c.Runtime(i + 1)
		hs.Write(owner.Node.Mem()[regions[i] : regions[i]+sizes[i]])
	}
	runtime.KeepAlive(c) // node heaps are unmapped once c is unreachable
	return hs.Sum64()
}

// TestRegionCacheOnOffBitIdentical is the PR's differential pin: the
// cache may move wire bytes and virtual time, never a guest-visible
// byte. The same scripted sequence must fingerprint identically with
// the cache on and off, on every execution engine.
func TestRegionCacheOnOffBitIdentical(t *testing.T) {
	base := regionCacheScript(t, "", false)
	if off := regionCacheScript(t, "", true); off != base {
		t.Fatalf("cache-off fingerprint %016x, cache-on %016x", off, base)
	}
	for _, name := range mcode.EngineNames() {
		if on := regionCacheScript(t, name, false); on != base {
			t.Fatalf("engine %s cache-on fingerprint %016x, want %016x", name, on, base)
		}
		if off := regionCacheScript(t, name, true); off != base {
			t.Fatalf("engine %s cache-off fingerprint %016x, want %016x", name, off, base)
		}
	}
}

// TestShipFramePricedBytesMatchWire pins that priced bytes are wire
// bytes: at every cache level and for every negotiated frame form —
// full, pairwise-truncated, CAS-truncated, 43-byte hash-ref — the
// planner's Request.FrameBytes for (sender, dst, type) equals the bytes
// the sender then puts on the wire, whether the frame leaves as a host
// Send, as an offload forced down the ship route, or as a guest
// send_self forward; and the form is the one the level allows.
func TestShipFramePricedBytesMatchWire(t *testing.T) {
	const host, sender, helper, dst = 0, 1, 2, 3
	// The propagator forwards itself to (self+stride) mod 4 while its TTL
	// is positive: a TTL-0 payload just executes; a TTL-1 payload sent to
	// the sender makes it forward a TTL-0 frame to dst.
	payload := func(ttl uint64) []byte {
		p := make([]byte, 16)
		binary.LittleEndian.PutUint64(p, ttl)
		binary.LittleEndian.PutUint64(p[8:], dst-sender)
		return p
	}
	scenarios := []struct {
		name string
		// setup establishes the state the probe negotiates against.
		setup func(c *Cluster, hs []*Handle) error
		want  func(CacheLevel) ifunc.FrameForm
	}{
		{"full", func(*Cluster, []*Handle) error { return nil },
			func(CacheLevel) ifunc.FrameForm { return ifunc.FormFull }},
		{"pairwise-truncated", func(c *Cluster, hs []*Handle) error {
			// The sender's own earlier delivery marks its pairwise cache
			// (guest forwards read the same cache).
			_, err := c.Runtime(sender).Send(dst, hs[sender], "main", payload(0))
			return err
		}, func(l CacheLevel) ifunc.FrameForm {
			if l < CachePairwise {
				return ifunc.FormFull
			}
			return ifunc.FormTruncated
		}},
		{"cas-truncated", func(c *Cluster, hs []*Handle) error {
			// A third party installed the type at dst.
			_, err := c.Runtime(helper).Send(dst, hs[helper], "main", payload(0))
			return err
		}, func(l CacheLevel) ifunc.FrameForm {
			if l < CacheCAS {
				return ifunc.FormFull
			}
			return ifunc.FormTruncated
		}},
		{"hash-ref", func(c *Cluster, _ []*Handle) error {
			// dst pins the same content under its own type name only.
			_, err := c.Runtime(dst).RegisterBitcode("prop2", BuildPropagator(), allTriples)
			return err
		}, func(l CacheLevel) ifunc.FrameForm {
			if l < CacheCAS {
				return ifunc.FormFull
			}
			return ifunc.FormHashRef
		}},
	}
	paths := []struct {
		name string
		// emit makes the sender put exactly one frame of the type to dst
		// on the wire.
		emit func(c *Cluster, hs []*Handle) error
	}{
		{"send", func(c *Cluster, hs []*Handle) error {
			_, err := c.Runtime(sender).Send(dst, hs[sender], "main", payload(0))
			return err
		}},
		{"offload-ship", func(c *Cluster, hs []*Handle) error {
			_, _, route, err := c.Runtime(sender).offloadRouted(dst, hs[sender], "main", payload(0),
				OffloadOpts{Policy: place.PolicyShipCode}, false)
			if err == nil && route != place.RouteShipCode {
				err = fmt.Errorf("routed %v, want ship", route)
			}
			return err
		}},
		{"guest-forward", func(c *Cluster, hs []*Handle) error {
			_, err := c.Runtime(host).Send(sender, hs[host], "main", payload(1))
			return err
		}},
	}
	for _, level := range []CacheLevel{CacheNone, CachePairwise, CacheCAS, CacheRegions} {
		for _, sc := range scenarios {
			for _, path := range paths {
				label := fmt.Sprintf("level %d/%s/%s", level, sc.name, path.name)
				specs := make([]NodeSpec, 4)
				for i := range specs {
					specs[i] = NodeSpec{Name: fmt.Sprintf("n%d", i), March: isa.XeonE5()}
				}
				c := NewCluster(testParams(), specs)
				hs := make([]*Handle, len(c.Runtimes))
				for i, rt := range c.Runtimes {
					rt.Cache = level
					rt.TargetPtr = rt.Node.Alloc(8)
					if i == dst {
						continue
					}
					h, err := rt.RegisterBitcode("prop", BuildPropagator(), allTriples)
					if err != nil {
						t.Fatal(err)
					}
					hs[i] = h
				}
				if err := sc.setup(c, hs); err != nil {
					t.Fatalf("%s: setup: %v", label, err)
				}
				c.Run()

				src, h := c.Runtime(sender), hs[sender]
				entry, err := h.EntryIndex("main")
				if err != nil {
					t.Fatal(err)
				}
				req, _, _ := src.buildRequest(dst, h, entry, payload(0), OffloadOpts{})
				before, execBefore := src.Node.Stats.BytesSent, c.Runtime(dst).Stats.Executions
				if err := path.emit(c, hs); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c.Run()
				wire := int(src.Node.Stats.BytesSent - before)
				want := ifunc.FrameLen(sc.want(level), len(payload(0)), h.CodeSize(isa.XeonE5().Triple.Arch))
				if wire != want {
					t.Errorf("%s: wire carried %d bytes, the level's form is %d", label, wire, want)
				}
				if req.FrameBytes != wire {
					t.Errorf("%s: planner priced %d frame bytes, wire carried %d", label, req.FrameBytes, wire)
				}
				if got := c.Runtime(dst).Stats.Executions - execBefore; got != 1 {
					t.Errorf("%s: %d executions of the probed frame at dst, want 1 (drops %d)",
						label, got, c.Runtime(dst).Stats.DroppedFrames)
				}
				c.Close()
			}
		}
	}
}

// TestStoreBudgetSharedLRUMixesKinds is the satellite-3 pin: code blobs
// and region snapshots live in one budgeted LRU. Eviction order is
// deterministic across runs and engines, the EvictLog distinguishes the
// two kinds, and pinned content — live registrations, explicitly pinned
// in-flight snapshots — never evicts.
func TestStoreBudgetSharedLRUMixesKinds(t *testing.T) {
	run := func(engine string) uint64 {
		specs := []NodeSpec{
			{Name: "puller", March: isa.XeonE5(), Engine: engine},
			{Name: "owner", March: isa.XeonE5(), Engine: engine},
			{Name: "sender", March: isa.XeonE5(), Engine: engine},
		}
		c := NewCluster(testParams(), specs)
		puller, owner, sender := c.Runtime(0), c.Runtime(1), c.Runtime(2)
		puller.TargetPtr = puller.Node.Alloc(8)

		// An unpinned code blob in the puller's store: receive a shipped
		// type, then deregister it (the archive stays resident, evictable).
		// Distinct content from the puller's own "tsi" registration below,
		// so deregistering really leaves the blob unpinned.
		hs, err := sender.RegisterBitcode("shipped", buildIncBy(7), allTriples)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sender.Send(0, hs, "main", []byte{0}); err != nil {
			t.Fatal(err)
		}
		c.Run()
		codeHash := ifunc.ContentHash(hs.ArchiveBytes)
		if !puller.Store.Contains(codeHash) {
			t.Fatal("shipped archive not interned at puller")
		}
		if !puller.DeregisterLocal(hs.Hash) {
			t.Fatal("deregister failed")
		}

		h, err := puller.RegisterBitcode("tsi", BuildTSI(), allTriples)
		if err != nil {
			t.Fatal(err)
		}
		const size = 1024
		regions := make([]uint64, 3)
		mem := owner.Node.Mem()
		for i := range regions {
			regions[i] = owner.Node.Alloc(size)
			for j := 0; j < size/8; j++ {
				binary.LittleEndian.PutUint64(mem[regions[i]+uint64(j*8):],
					uint64(i)<<32|uint64(j))
			}
		}
		// Budget: the shipped archive plus two snapshots fit, a third
		// snapshot does not — so the pulls below must evict, and the LRU
		// tail (the deregistered archive first, then the oldest snapshot)
		// goes in a deterministic order. The puller's own pinned archives
		// do not count against eviction eligibility.
		puller.Store.Budget = puller.Store.Bytes() + 2*size + 64

		ro := OffloadOpts{Policy: place.PolicyPullData, DataSize: size}
		for _, base := range regions {
			ro.DataAddr = base
			offloadOnce(t, c, puller, 1, h, ro)
		}
		st := puller.Store
		if st.Stats.Evictions == 0 {
			t.Fatal("no evictions under budget pressure; scenario broken")
		}
		kinds := map[ifunc.BlobKind]bool{}
		for _, ev := range st.EvictRecords() {
			kinds[ev.Kind] = true
			if ev.Hash == ifunc.ContentHash(h.ArchiveBytes) {
				t.Fatal("pinned registration archive was evicted")
			}
		}
		if !kinds[ifunc.BlobCode] || !kinds[ifunc.BlobData] {
			t.Fatalf("eviction log kinds %v, want both code and data", kinds)
		}
		if st.Contains(codeHash) {
			t.Fatal("deregistered archive survived while snapshots churned")
		}
		if !st.Contains(ifunc.ContentHash(h.ArchiveBytes)) {
			t.Fatal("live registration archive missing")
		}

		// A pinned snapshot survives pressure that evicts its peers —
		// the in-flight-pull guarantee, exercised directly: re-pull
		// region 2 so its snapshot is resident, pin it, then churn.
		ro.DataAddr = regions[2]
		offloadOnce(t, c, puller, 1, h, ro)
		pinnedHash := ifunc.ContentHash(mem[regions[2] : regions[2]+size])
		if !st.Pin(pinnedHash) {
			t.Fatal("hot snapshot not resident")
		}
		before := st.Stats.Evictions
		// Pressure: pull the other two regions again, forcing churn.
		for _, base := range regions[:2] {
			ro.DataAddr = base
			offloadOnce(t, c, puller, 1, h, ro)
		}
		if st.Stats.Evictions == before {
			t.Fatal("no churn after pinning; scenario broken")
		}
		if !st.Contains(pinnedHash) {
			t.Fatal("pinned snapshot evicted under pressure")
		}
		st.Unpin(pinnedHash)

		fp := fnv.New64a()
		var b [8]byte
		w64 := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			fp.Write(b[:])
		}
		for _, ev := range st.EvictRecords() {
			w64(ev.Hash)
			w64(uint64(ev.Kind))
			w64(uint64(ev.Bytes))
			w64(uint64(ev.At))
		}
		w64(st.Stats.Puts)
		w64(st.Stats.Hits)
		w64(st.Stats.Evictions)
		w64(uint64(st.Bytes()))
		return fp.Sum64()
	}

	base := run("")
	if again := run(""); again != base {
		t.Fatalf("rerun fingerprint %016x, want %016x", again, base)
	}
	for _, name := range mcode.EngineNames() {
		if got := run(name); got != base {
			t.Fatalf("engine %s fingerprint %016x, want %016x", name, got, base)
		}
	}
}

// TestRegionCacheConcurrentStreams drives windowed offload streams with
// repeat pulls over several owners — the elide, delta and fallback paths
// all fire concurrently — and checks the outcome matches the sequential
// run of the same ops. This is the CI -race smoke for the region cache.
func TestRegionCacheConcurrentStreams(t *testing.T) {
	build := func(depth int) (uint64, error) {
		specs := []NodeSpec{
			{Name: "host", March: isa.XeonE5()},
			{Name: "dpu0", March: isa.XeonE5()},
			{Name: "dpu1", March: isa.XeonE5()},
			{Name: "dpu2", March: isa.XeonE5()},
		}
		c := NewCluster(testParams(), specs)
		src := c.Runtime(0)
		sizes := []uint64{1024, 512, 8}
		regions := make([]uint64, 3)
		for i := range regions {
			owner := c.Runtime(i + 1)
			regions[i] = owner.Node.Alloc(int(sizes[i]))
			mem := owner.Node.Mem()
			for j := 0; j < int(sizes[i])/8; j++ {
				binary.LittleEndian.PutUint64(mem[regions[i]+uint64(j*8):],
					uint64(i)*0x9e3779b97f4a7c15+uint64(j))
			}
		}
		h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
		if err != nil {
			return 0, err
		}
		var ops []StreamOp
		for i := 0; i < 36; i++ {
			d := 1 + i%3
			opts := OffloadOpts{DataAddr: regions[d-1], DataSize: sizes[d-1]}
			if i%4 == 1 {
				opts.Policy = place.PolicyShipCode
				opts.WriteBack = true
			} else {
				opts.Policy = place.PolicyPullData
				opts.WriteBack = i%2 == 0
			}
			ops = append(ops, StreamOp{Dst: d, H: h, Fn: "main", Payload: []byte{0}, Opts: opts})
		}
		s := src.StartOffloadStream(ops, depth)
		c.Run()
		if s.Err != nil {
			return 0, s.Err
		}
		if !s.Done.Fired() {
			return 0, fmt.Errorf("stream stalled at depth %d", depth)
		}
		hs := fnv.New64a()
		var b [8]byte
		for _, v := range s.Results {
			binary.LittleEndian.PutUint64(b[:], v)
			hs.Write(b[:])
		}
		for i := range regions {
			owner := c.Runtime(i + 1)
			hs.Write(owner.Node.Mem()[regions[i] : regions[i]+sizes[i]])
		}
		runtime.KeepAlive(c) // node heaps are unmapped once c is unreachable
		return hs.Sum64(), nil
	}
	seq, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{2, 4, 8} {
		got, err := build(depth)
		if err != nil {
			t.Fatal(err)
		}
		if got != seq {
			t.Fatalf("depth %d fingerprint %016x, sequential %016x", depth, got, seq)
		}
	}
}

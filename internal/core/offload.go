package core

// Runtime.Offload: the cost-model-driven compute/data placement entry
// point. Where Send always moves the compute to the data (the paper's
// mechanism), Offload asks the placement planner (internal/place) which
// of three routes is cheapest for this request and executes it:
//
//   - ship-code: the existing ifunc send — cheap when the code is already
//     interned at the destination (26-byte truncated frame);
//   - pull-data: a one-sided GET of the operand region, local execution
//     against the staged copy, and a one-sided PUT of the region back
//     when the kernel writes — cheap for small regions, fast local
//     cores, and modules whose remote registration would pay a JIT;
//   - run-local: in-place execution when the region already lives here.
//
// Every leg is charged with the same virtual-time discipline as ifunc
// delivery (the GET/PUT legs are the calibrated ucx one-sided ops; local
// execution charges the same per-operation costs the drain path does),
// so simulated results and times are deterministic and engine-invariant.

import (
	"fmt"

	"threechains/internal/ifunc"
	"threechains/internal/jit"
	"threechains/internal/mcode"
	"threechains/internal/obs"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/ucx"
)

// pullArena is the staging arena for pulled operand regions; regions
// larger than this are not pull-viable (the planner ships instead).
const pullArena = 32 << 10

// ErrBadRegion reports an Offload region the chosen route cannot serve.
var ErrBadRegion = fmt.Errorf("core: offload region not serviceable")

// OffloadOpts parameterizes one Offload request.
type OffloadOpts struct {
	// Policy selects the routing policy (place.PolicyCostModel by
	// default: price the routes and take the cheapest).
	Policy place.Policy
	// DataAddr/DataSize describe the operand region in the destination
	// node's heap — the bytes the kernel's target pointer addresses.
	// Ship-code executes against the destination's TargetPtr, so callers
	// must keep the two in agreement (the scenario harness sets each
	// node's TargetPtr to its region base).
	DataAddr uint64
	DataSize uint64
	// WriteBack marks the kernel as mutating the region: the pull route
	// must PUT the staged bytes back after execution.
	WriteBack bool
}

// Offload executes (h, fn, payload) against the operand region on node
// dst, routed by the placement planner. The returned signal fires with a
// ucx.Status at route completion: for ship-code that is transport-level
// completion (frame handed to the destination's polling loop, exactly
// like Send); for pull-data and run-local it is execution completion
// (including the put-back). Drive the cluster to idle for makespans.
func (r *Runtime) Offload(dst int, h *Handle, fn string, payload []byte, opts OffloadOpts) (*sim.Signal, error) {
	sig, _, _, err := r.offloadRouted(dst, h, fn, payload, opts, false)
	return sig, err
}

// offloadRouted plans, launches and commits one offload. The planner's
// persistent state is never clobbered: the per-request policy goes
// through Plan without touching Planner.Policy, and the decision is
// committed to stats/trace/horizons only after its route has actually
// launched — a frame-build or registration failure leaves no record, so
// the route mix the benchmarks report counts launched work only.
//
// When track is true the second returned signal fires with the kernel's
// return value at execution-level completion (a watchNextExec on the
// executing node); OffloadStream uses it for ship-routed requests, whose
// transport signal fires before the remote execution.
func (r *Runtime) offloadRouted(dst int, h *Handle, fn string, payload []byte, opts OffloadOpts, track bool) (*sim.Signal, *sim.Signal, place.Route, error) {
	if dst < 0 || dst >= len(r.Cluster.Runtimes) {
		return nil, nil, 0, fmt.Errorf("core: offload to bad node %d", dst)
	}
	entry, err := h.EntryIndex(fn)
	if err != nil {
		return nil, nil, 0, err
	}
	req, model, dec := r.buildRequest(dst, h, entry, payload, opts)
	d, err := r.Planner.Plan(opts.Policy, model, req)
	if err != nil {
		return nil, nil, 0, err
	}
	var sig, execSig *sim.Signal
	switch d.Route {
	case place.RouteShipCode:
		code, ch, err := r.shipCode(dst, h, payload)
		if err != nil {
			return nil, nil, 0, err
		}
		// Encode the form the planner priced: no second negotiation.
		hdr := ifunc.Header{Kind: h.Kind, NameHash: h.Hash, Entry: entry}
		frame := r.encodeFrame(dst, hdr, payload, code, ch, dec)
		r.Stats.IfuncsSent++
		l := r.link(dst)
		sig = l.ep.SendIfuncPooled(frame, l.release)
		if track {
			// Installed after the send but before any frame can execute
			// (delivery is strictly later virtual time).
			execSig = r.Cluster.Runtimes[dst].watchNextExec(h.Hash)
		}
	case place.RouteLocal:
		sig, execSig, err = r.offloadLocal(h, entry, snapshotPayload(payload), opts, track)
		if err != nil {
			return nil, nil, 0, err
		}
	default:
		sig, execSig, err = r.offloadPull(dst, h, entry, snapshotPayload(payload), opts, track)
		if err != nil {
			return nil, nil, 0, err
		}
	}
	r.Planner.Commit(d)
	if r.Trace != nil {
		// The planner's decision trace, surfaced through the span layer:
		// one instant per committed (launched) offload, labeled with the
		// handle so Perfetto's track shows which type routed where.
		r.Trace.Instant(obs.TrackCore, "plan", req.Now).
			Arg("route", uint64(d.Route)).Arg("dst", uint64(dst)).Label(h.Name)
	}
	if hist := r.routeHists[d.Route]; hist != nil && sig != nil {
		start := req.Now
		sig.OnFire(func() {
			hist.Observe(uint64(r.eng().Now() - start))
		})
	}
	return sig, execSig, d.Route, nil
}

// snapshotPayload copies a caller payload for the pull/local routes,
// which consume it at a later virtual time. The ship route (like Send)
// encodes the payload into the frame before returning, so callers may
// reuse their buffer after any Offload returns — route choice must not
// change that contract.
func snapshotPayload(p []byte) []byte {
	if len(p) == 0 {
		return p
	}
	return append([]byte(nil), p...)
}

// buildRequest digests one offload into the planner's pure inputs plus
// the (local, dst) cost model, and returns the frame decision the ship
// route encodes if the planner takes it. Everything read here is
// virtual-time state — sent-cache and registry contents, calibrated
// costs, decayed step estimates — so the resulting decision is
// deterministic across runs and engines.
func (r *Runtime) buildRequest(dst int, h *Handle, entry uint16, payload []byte, opts OffloadOpts) (place.Request, place.CostModel, frameDecision) {
	rdst := r.Cluster.Runtimes[dst]
	req := place.Request{
		DstIsLocal: dst == r.Node.ID,
		Dst:        dst,
		Now:        r.eng().Now(),
		PayloadLen: len(payload),
		DataBytes:  int(opts.DataSize),
		WriteBack:  opts.WriteBack,
	}

	// Route viability. A binary handle can only ship where an object for
	// the destination's architecture exists, and can only execute here
	// (the pull and local routes) with an object for ours — the planner
	// must route around a missing object, not price its registration as
	// free (it used to, which sent exactly the unshippable requests down
	// the ship route).
	req.ShipViable = true
	localRunnable := true
	if h.Kind == ifunc.KindBinary {
		_, req.ShipViable = h.Objects[rdst.Node.March.Triple.Arch]
		_, localRunnable = h.Objects[r.Node.March.Triple.Arch]
	}

	// Caching-protocol amortization: the frame a ship would transmit, from
	// the one frameForm decision the ship route then encodes. A planner
	// that still priced full frames here would misroute every request the
	// CAS would have served for 26 or 43 bytes.
	arch := rdst.Node.March.Triple.Arch
	req.TypeHash = h.Hash
	dec := r.frameForm(dst, h.Hash, h.ContentHash(arch))
	req.FrameBytes = ifunc.FrameLen(dec.form, len(payload), h.CodeSize(arch))

	// Registration amortization on both sides: registered types cost a
	// lookup; unknown ones pay the JIT/load — unless the content is still
	// warm in the side's session cache (re-registration after churn).
	remoteReg, remoteKnown := rdst.Reg.Get(h.Hash)
	req.RemoteRegistered = remoteKnown
	if !remoteKnown {
		req.RemoteRegCost = regCostOn(rdst, h)
	}
	localReg, ok := r.Reg.Get(h.Hash)
	req.LocalRegistered = ok
	if !ok {
		req.LocalRegCost = regCostOn(r, h)
	}

	// Mean-steps estimate: prefer the measurement where the route would
	// execute (the decayed drain-ordering signal), then the local side,
	// then any node that has run the type (measurements propagate — in a
	// real deployment this piggybacks on completion acks; here the
	// registries are directly readable and the scan order is fixed, so
	// the estimate stays deterministic). Never-executed types fall back
	// to a static code-size prediction, flagged unmeasured so the
	// planner routes them conservatively.
	if remoteKnown {
		if m, ok := remoteReg.MeanSteps(); ok {
			req.MeanSteps, req.Measured = m, true
		}
	}
	if !req.Measured && localReg != nil {
		if m, ok := localReg.MeanSteps(); ok {
			req.MeanSteps, req.Measured = m, true
		}
	}
	if !req.Measured {
		if r.ScopeNodes != nil {
			// Sharded scale scenarios: the propagation scan may only
			// read registries inside this runtime's own partition, so
			// the read never crosses a shard boundary mid-window.
			for _, id := range r.ScopeNodes {
				if reg, ok := r.Cluster.Runtimes[id].Reg.Get(h.Hash); ok {
					if m, ok := reg.MeanSteps(); ok {
						req.MeanSteps, req.Measured = m, true
						break
					}
				}
			}
		} else {
			for _, rt := range r.Cluster.Runtimes {
				if reg, ok := rt.Reg.Get(h.Hash); ok {
					if m, ok := reg.MeanSteps(); ok {
						req.MeanSteps, req.Measured = m, true
						break
					}
				}
			}
		}
	}
	if !req.Measured && h.Module != nil {
		// Never-executed anywhere: prefer the verifier's proven static
		// step bound for the entry (exact for straight-line kernels) over
		// the blind code-size guess — a statically bounded type is priced
		// like a measured one instead of detouring through explore.
		if m, ok := h.StaticMinSteps(entry, r.Node.March); ok {
			req.MeanSteps, req.StaticBound = m, true
		} else {
			req.MeanSteps = float64(h.Module.NumInstrs())
		}
	}

	req.LocalRegFanout = len(r.Cluster.Runtimes) - 1

	// Write-back pricing: predict the PUT payload a pull would transmit.
	// Measured types use the decayed delta-write-back observation (what
	// past executions actually dirtied, descriptors included); unmeasured
	// ones conservatively price the whole region.
	if opts.WriteBack {
		req.PutBytes = int(opts.DataSize)
		if localReg != nil {
			if m, ok := localReg.MeanPutBytes(); ok && m < float64(req.PutBytes) {
				req.PutBytes = int(m + 0.5)
			}
		}
	}

	req.PullViable = localRunnable && opts.DataSize > 0 && opts.DataSize <= pullArena &&
		dst < len(r.heapKeys)

	// Region-cache pricing: what the pull route's GET will actually carry
	// once the cache negotiates. A live staged entry whose version matches
	// the owner's elides the GET entirely; a stale one re-fetches the
	// measured chunk-delta residual (the stale-pull EWMA); anything else —
	// no entry, evicted snapshot, ineligible peer — pays the whole region,
	// the pre-cache price. Both probes are recency-neutral virtual-time
	// peeks: pricing a route must not perturb the store's LRU order the
	// way actually taking it does.
	if req.PullViable {
		req.GetBytes = int(opts.DataSize)
		if peer := r.regionPeer(dst); peer != nil {
			if ver, ok := peer.regionClock.Version(opts.DataAddr, opts.DataSize); ok {
				if e := r.regionEntryFor(dst, opts.DataAddr, opts.DataSize, false); e != nil {
					if e.version == ver {
						req.GetBytes = place.GetElided
					} else if localReg != nil {
						if m, ok := localReg.MeanGetBytes(); ok && m < float64(opts.DataSize) {
							req.GetBytes = int(m + 0.5)
							if req.GetBytes < 1 {
								req.GetBytes = 1
							}
						}
					}
				}
			}
		}
	}

	model := place.CostModel{
		Net:    r.Cluster.Net.Params,
		Local:  place.NodeTraits{March: r.Node.March, ExecMult: r.ExecCostMultiplier, IfuncPoll: r.Worker.IfuncPoll},
		Remote: place.NodeTraits{March: rdst.Node.March, ExecMult: rdst.ExecCostMultiplier, IfuncPoll: rdst.Worker.IfuncPoll},
	}
	return req, model, dec
}

// regCostOn estimates what registering h on node rt would charge: a
// cache lookup when the content is already compiled in rt's JIT session
// (re-registration after churn), the full compile/load otherwise. A
// binary handle with no object for rt's architecture cannot register
// there at all — buildRequest marks the corresponding routes unviable
// (ShipViable/PullViable), so the 0 returned here is never priced.
func regCostOn(rt *Runtime, h *Handle) sim.Time {
	key := h.archiveKey
	if h.Kind == ifunc.KindBinary {
		var ok bool
		if key, ok = h.objectKey[rt.Node.March.Triple.Arch]; !ok {
			return 0
		}
	}
	if _, ok := rt.Session.Lookup(key); ok {
		return jit.LookupCost
	}
	if h.Kind == ifunc.KindBinary {
		// Load + GOT patch, far below JIT cost (jit.LoadBinary charges
		// per slot; a handful of slots is typical).
		return 500 * sim.Nanosecond
	}
	if h.Module == nil {
		return 0
	}
	return rt.Session.CompileCost(h.Module)
}

// ensureLocalReg returns this node's registration for h (registering it
// like a locally received type if needed) plus the virtual-time charge
// the lookup or registration costs.
func (r *Runtime) ensureLocalReg(h *Handle) (*ifunc.Registration, sim.Time, error) {
	if reg, ok := r.Reg.Get(h.Hash); ok {
		return reg, jit.LookupCost, nil
	}
	var code []byte
	switch h.Kind {
	case ifunc.KindBitcode:
		code = h.ArchiveBytes
	case ifunc.KindBinary:
		obj, ok := h.Objects[r.Node.March.Triple.Arch]
		if !ok {
			return nil, 0, fmt.Errorf("%w: %s on local %s", ErrNoBinary, h.Name, r.Node.March.Triple.Arch)
		}
		code = obj
	}
	f := &ifunc.Frame{Header: ifunc.Header{Kind: h.Kind, NameHash: h.Hash}, Code: code}
	reg, cost, err := r.registerFromWire(f)
	if err != nil {
		return nil, 0, err
	}
	reg.Name = h.Name
	return reg, cost, nil
}

// offloadLocal is the run-local route: registration lookup plus in-place
// execution against the region, all on this node's core. With track set
// it also returns an execution signal fired with the kernel's return
// value at completion — captured directly from this request's own run,
// so attribution survives any interleaving with other in-flight work.
func (r *Runtime) offloadLocal(h *Handle, entry uint16, payload []byte, opts OffloadOpts, track bool) (*sim.Signal, *sim.Signal, error) {
	reg, regCost, err := r.ensureLocalReg(h)
	if err != nil {
		return nil, nil, err
	}
	done := r.eng().NewSignal()
	var execSig *sim.Signal
	if track {
		execSig = r.eng().NewSignal()
	}
	r.Node.ExecCPU(regCost, func() {
		v := r.executeOne(reg, entry, payload, opts.DataAddr)
		// Queue the completion behind the execution's cost charge.
		r.Node.ExecCPU(0, func() {
			if execSig != nil {
				execSig.Fire(v)
			}
			done.Fire(uint64(ucx.OK))
		})
	})
	return done, execSig, nil
}

// executeOne runs a single tracked payload through the batch stage and
// returns its result value (0 when the execution errored or never ran —
// the error lands in LastExecErr/Stats as usual). The reused result
// buffer is cleared first: a run that fails before writing its slot
// must not leak the previous execution's value into this request's
// attribution.
func (r *Runtime) executeOne(reg *ifunc.Registration, entry uint16, payload []byte, target uint64) uint64 {
	if len(r.batchOut) > 0 {
		r.batchOut[0] = mcode.BatchResult{}
	}
	r.onePayload[0] = payload
	r.executeBatchAt(reg, entry, r.onePayload[:], target)
	r.onePayload[0] = nil
	if len(r.batchOut) > 0 && r.batchOut[0].Err == nil {
		return r.batchOut[0].Value
	}
	return 0
}

// acquirePullSlot hands out a free staging slot (allocating a fresh one
// when every slot is in flight). The slot is owned by one pull from GET
// issue until its staged bytes are dead.
func (r *Runtime) acquirePullSlot() uint64 {
	if n := len(r.pullFree); n > 0 {
		slot := r.pullFree[n-1]
		r.pullFree = r.pullFree[:n-1]
		return slot
	}
	slot := r.Node.Alloc(pullArena)
	r.pullSlots = append(r.pullSlots, slot)
	return slot
}

// releasePullSlot recycles a slot once its pull no longer needs the
// staged bytes (LIFO keeps the working set hot).
func (r *Runtime) releasePullSlot(slot uint64) {
	r.pullFree = append(r.pullFree, slot)
}

// PullSlotsAllocated reports the staging arena's high-water mark: the
// number of pullArena-sized slots ever materialized, equal to the
// maximum number of simultaneously in-flight pulls this runtime has
// served.
func (r *Runtime) PullSlotsAllocated() int { return len(r.pullSlots) }

// putMergeGap is the delta write-back coalescing distance: dirty runs
// separated by fewer than this many clean bytes merge into one segment,
// so descriptor overhead (PutSegHeaderBytes per segment) can never blow
// up on interleaved write patterns.
const putMergeGap = 32

// diffSegments returns cur's dirty byte ranges relative to old (equal
// lengths), coalesced across gaps smaller than putMergeGap. The
// returned segments alias cur — snapshot before the buffer recycles.
func diffSegments(old, cur []byte) []ucx.PutSeg {
	var segs []ucx.PutSeg
	n := len(cur)
	i := 0
	for i < n {
		if cur[i] == old[i] {
			i++
			continue
		}
		start := i
		end := i + 1
		for end < n {
			if cur[end] != old[end] {
				end++
				continue
			}
			// Clean byte: extend across it only if another dirty byte
			// follows within the merge gap.
			k := end
			for k < n && k-end < putMergeGap && cur[k] == old[k] {
				k++
			}
			if k < n && cur[k] != old[k] {
				end = k + 1
				continue
			}
			break
		}
		segs = append(segs, ucx.PutSeg{Off: start, Data: cur[start:end]})
		i = end
	}
	return segs
}

// snapshotSegs copies segment data out of the (recycled) staging slot
// into one backing buffer.
func snapshotSegs(segs []ucx.PutSeg) []ucx.PutSeg {
	total := 0
	for _, s := range segs {
		total += len(s.Data)
	}
	buf := make([]byte, 0, total)
	out := make([]ucx.PutSeg, len(segs))
	for i, s := range segs {
		start := len(buf)
		buf = append(buf, s.Data...)
		out[i] = ucx.PutSeg{Off: s.Off, Data: buf[start:len(buf):len(buf)]}
	}
	return out
}

// offloadPull is the pull-data route: stage the region, execute against
// the staged copy, PUT it back when the kernel writes. Every wire leg
// rides the calibrated one-sided ops, so the route is charged exactly
// what an RDMA read-modify-write of the region costs plus local compute.
// The staging slot is private to this pull — overlapping pulls of a
// windowed stream each hold their own slot, so one pull's GET can never
// land in a region another pull is still executing against.
//
// Staging negotiates against the region cache (see region.go): a live
// entry whose version matches the owner's elides the GET entirely, a
// stale one fetches only the changed chunks via a vectored GetV (with a
// whole-region fallback when the per-segment framing would not undercut
// the region), and everything else pays the pre-cache whole-region GET.
// Whatever the mode, the staged bytes equal what a whole-region GET
// would have returned, so guest outcomes are identical cache-on vs
// cache-off; only wire bytes and virtual time move.
func (r *Runtime) offloadPull(dst int, h *Handle, entry uint16, payload []byte, opts OffloadOpts, track bool) (*sim.Signal, *sim.Signal, error) {
	if opts.DataSize == 0 || opts.DataSize > pullArena {
		return nil, nil, fmt.Errorf("%w: %d bytes (pull arena %d)", ErrBadRegion, opts.DataSize, pullArena)
	}
	reg, regCost, err := r.ensureLocalReg(h)
	if err != nil {
		return nil, nil, err
	}
	slot := r.acquirePullSlot()
	done := r.eng().NewSignal()
	var execSig *sim.Signal
	if track {
		execSig = r.eng().NewSignal()
	}
	ep := r.link(dst).ep
	key := r.heapKeys[dst]
	size := opts.DataSize
	r.Stats.PullGetFullBytes += size

	// Negotiate the transfer form against the staged entry — zero-cost
	// virtual-time peeks, exactly like the CAS send negotiation. The
	// owner starts versioning this region on first pull; the entry (when
	// live) is pinned for the pull's flight so budget pressure from
	// concurrent interns can never evict a snapshot mid-use.
	peer := r.regionPeer(dst)
	var (
		ownerVer uint64
		cached   *regionEntry
		pinned   bool
		pinHash  uint64
		pinSnap  []byte
		elide    bool
		getSegs  []ucx.GetSeg
	)
	if peer != nil {
		peer.regionClock.Track(opts.DataAddr, size)
		ownerVer, _ = peer.regionClock.Version(opts.DataAddr, size)
		if cached = r.regionEntryFor(dst, opts.DataAddr, size, true); cached != nil {
			pinHash, pinSnap = cached.storeHash, cached.snapshot
			r.Store.Pin(pinHash)
			pinned = true
			if cached.version == ownerVer {
				elide = true
			} else {
				cur := peer.Node.Mem()[opts.DataAddr : opts.DataAddr+size]
				getSegs = staleSegments(pinSnap, cur, cached.chunks)
				switch {
				case len(getSegs) == 0:
					// Conservative version bump, nothing actually changed:
					// refresh the entry and elide after all.
					cached.version = ownerVer
					elide = true
				case ucx.GetVWireBytes(getSegs) >= int(size):
					// The chunk framing would not undercut the region.
					getSegs = nil
				}
			}
		}
	}

	fail := func(st ucx.Status) {
		if pinned {
			r.unpinSnapshot(pinHash, pinSnap)
		}
		r.releasePullSlot(slot)
		r.LastExecErr = fmt.Errorf("core: offload pull %s: %v", h.Name, st)
		r.Stats.ExecErrors++
		if execSig != nil {
			execSig.Fire(0)
		}
		done.Fire(uint64(st))
	}

	// exec runs on the local core once the staged image is known: preImg
	// is exactly what a whole-region GET would have returned, and nothing
	// mutates it after staging (the guest runs against the slot copy), so
	// it doubles as the write-back diff baseline.
	exec := func(preImg []byte) {
		mem := r.Node.Mem()
		copy(mem[slot:], preImg)
		v := r.executeOne(reg, entry, payload, slot)
		if !opts.WriteBack {
			// The owner's region is untouched: the staged image is current
			// as of the version read at launch. Intern it as the cache
			// entry, then release once the modeled execution window has
			// elapsed — the slot is "in use" for as long as the core is
			// charged as executing against it.
			if peer != nil {
				r.regionCacheStore(dst, opts.DataAddr, size, preImg, ownerVer)
			}
			if pinned {
				r.unpinSnapshot(pinHash, pinSnap)
			}
			r.Node.ExecCPU(0, func() {
				r.releasePullSlot(slot)
				if execSig != nil {
					execSig.Fire(v)
				}
				done.Fire(uint64(ucx.OK))
			})
			return
		}
		// Delta write-back: the guest has mutated the staged copy (memory
		// effects are immediate; the cost charge is queued). Diff it
		// against the pre-execution image and PUT only the dirty ranges,
		// in one vectored op. When the delta plus its descriptors would
		// not undercut the region, fall back to the whole-region put; when
		// the kernel dirtied nothing, skip the put entirely. The dirty
		// bytes are snapshotted out of the slot now (the slot recycles at
		// completion); the observation feeds the planner's write-back
		// pricing.
		staged := mem[slot : slot+size]
		segs := diffSegments(preImg, staged)
		putWire := ucx.PutVWireBytes(segs)
		r.Stats.WriteBackFullBytes += size
		var back []byte
		var vsegs []ucx.PutSeg
		putPayload := 0
		switch {
		case len(segs) == 0:
			// Clean region: nothing to write back.
		case putWire >= int(size):
			putPayload = int(size)
		default:
			vsegs = snapshotSegs(segs)
			putPayload = putWire
		}
		r.Stats.WriteBackPutBytes += uint64(putPayload)
		reg.ObservePutBytes(float64(putPayload))
		if r.Trace != nil {
			r.Trace.Instant(obs.TrackCore, "write-back", r.eng().Now()).
				Arg("put", uint64(putPayload)).Arg("full", uint64(size))
		}
		// Cache maintenance: once the write-back lands, the owner's region
		// equals the staged bytes — intern them now (the slot recycles),
		// provisionally versioned 0 while a PUT is in flight; the real
		// owner version is stamped at PUT completion, after the write has
		// bumped the owner's clock. A clean execution leaves the owner
		// untouched, so the launch-read version is already right.
		var newE *regionEntry
		if peer != nil {
			ver := uint64(0)
			if putPayload == 0 {
				ver = ownerVer
			}
			newE = r.regionCacheStore(dst, opts.DataAddr, size, staged, ver)
		}
		if putPayload == int(size) {
			// Whole-region fallback: reuse the interned snapshot as the
			// wire buffer when available (it is immutable), else copy.
			if newE != nil {
				back = newE.snapshot
			} else {
				back = append([]byte(nil), staged...)
			}
		}
		if pinned {
			r.unpinSnapshot(pinHash, pinSnap)
		}
		stamp := func(ps *sim.Signal) {
			if newE != nil && ucx.Status(ps.Value()) == ucx.OK {
				if ver, ok := peer.regionClock.Version(opts.DataAddr, size); ok {
					newE.version = ver
				}
			}
			done.Fire(ps.Value())
		}
		r.Node.ExecCPU(0, func() {
			r.releasePullSlot(slot)
			if execSig != nil {
				execSig.Fire(v)
			}
			switch {
			case back != nil:
				ps := ep.Put(back, opts.DataAddr, key)
				ps.OnFire(func() { stamp(ps) })
			case vsegs != nil:
				ps := ep.PutV(vsegs, opts.DataAddr, key)
				ps.OnFire(func() { stamp(ps) })
			default:
				done.Fire(uint64(ucx.OK))
			}
		})
	}

	switch {
	case elide:
		// Version hit: no wire legs at all — execution starts on the
		// local core immediately, against the cached snapshot.
		r.Stats.RegionElides++
		if r.Trace != nil {
			r.Trace.Instant(obs.TrackCore, "region-elide", r.eng().Now()).
				Arg("bytes", size).Arg("dst", uint64(dst))
		}
		r.Node.ExecCPU(regCost, func() { exec(pinSnap) })
	case getSegs != nil:
		// Stale entry: fetch only the changed chunks, one vectored round
		// trip, and scatter them over the cached snapshot.
		wire := ucx.GetVWireBytes(getSegs)
		r.Stats.RegionDeltaPulls++
		r.Stats.PullGetBytes += uint64(wire)
		reg.ObserveGetBytes(float64(wire))
		if r.Trace != nil {
			r.Trace.Instant(obs.TrackCore, "region-delta", r.eng().Now()).
				Arg("wire", uint64(wire)).Arg("bytes", size)
		}
		op := ep.GetV(opts.DataAddr, getSegs, key)
		op.Done.OnFire(func() {
			if st := ucx.Status(op.Done.Value()); st != ucx.OK {
				fail(st)
				return
			}
			r.Node.ExecCPU(regCost, func() {
				preImg := make([]byte, size)
				copy(preImg, pinSnap)
				for _, s := range op.Segs {
					copy(preImg[s.Off:], s.Data)
				}
				exec(preImg)
			})
		})
	default:
		// Whole-region GET: cold pull, evicted or absent entry, vectored
		// framing not worth it, or region cache ineligible/disabled.
		r.Stats.PullGetBytes += uint64(size)
		if r.Trace != nil {
			r.Trace.Instant(obs.TrackCore, "pull-get", r.eng().Now()).
				Arg("bytes", size).Arg("dst", uint64(dst))
		}
		if cached != nil {
			// A stale pull that fell back still teaches the planner what
			// stale re-pulls of this type fetch; cold pulls do not (the
			// estimate prices stale entries, absent ones pay the region).
			reg.ObserveGetBytes(float64(size))
		}
		op := ep.Get(opts.DataAddr, int(size), key)
		op.Done.OnFire(func() {
			if st := ucx.Status(op.Done.Value()); st != ucx.OK {
				fail(st)
				return
			}
			r.Node.ExecCPU(regCost, func() { exec(op.Data) })
		})
	}
	return done, execSig, nil
}

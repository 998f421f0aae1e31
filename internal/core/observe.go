package core

// Observability wiring: AttachTrace threads one obs.NodeTrace per node
// through every layer that emits spans (fabric tx, ucx drains, the
// runtime's plan/frame/pull/execute sites and the store's evictions),
// plus a scheduler lane fed by the engine's window hook. AttachMetrics
// registers every per-node stats field with a unified obs.Registry and
// installs the per-route offload latency histograms.
//
// Both attachments are strictly additive observation: they never
// schedule virtual-time work, charge costs, or perturb any simulated
// outcome (AttachMetrics' latency observation rides completion signals
// that already exist). With neither attached, every emission site
// compiles down to one nil compare — the warm paths stay
// allocation-free, pinned by TestTracingDisabledAllocFree.

import (
	"threechains/internal/ifunc"
	"threechains/internal/obs"
	"threechains/internal/sim"
)

// AttachTrace connects a trace to the cluster: node i's spans land in
// t.Node(i) (which must exist — build t with obs.NewTrace(len nodes)),
// and the engine's window barriers land in t.Sched. Call before Run;
// attaching mid-run would split spans across inconsistent ordinals.
//
// Per-node buffers are written only from the owning node's dispatch
// (receive-side events are emitted by the receiver's own events), so
// sharded runs stay race-free without locks; the scheduler lane is
// written by the coordinator while workers are parked at the window
// barrier.
func (c *Cluster) AttachTrace(t *obs.Trace) {
	for i, rt := range c.Runtimes {
		rt := rt
		nt := t.Node(i)
		nt.Eng = rt.Node.Eng()
		t.SetNodeName(i, rt.Node.Name)
		rt.Trace = nt
		rt.Node.Trace = nt
		rt.Store.OnEvict = func(rec ifunc.EvictRecord) {
			nt.Instant(obs.TrackCore, "store-evict", rt.eng().Now()).
				Arg("bytes", uint64(rec.Bytes)).Arg("hash", rec.Hash)
		}
	}
	c.Eng.SetWindowHook(func(start, horizon sim.Time, active int) {
		// Window geometry depends on the shard count, so this lane is
		// excluded from the canonical determinism digest (obs.Canonical).
		t.Sched.Span(obs.TrackSched, "window", start, horizon-start).
			Arg("active", uint64(active))
	})
}

// AttachMetrics registers every node's runtime, transport, fabric,
// store and placement counters with the registry (the existing stats
// fields are the storage — reads stay as cheap as before and the old
// accessors keep working), plus one offload-latency histogram per
// route. Registration order is fixed by node then name, so snapshots
// are deterministic.
func (c *Cluster) AttachMetrics(m *obs.Registry) {
	for i, rt := range c.Runtimes {
		rt := rt
		rs := &rt.Stats
		m.Counter(i, "runtime.ifuncs_sent", &rs.IfuncsSent)
		m.Counter(i, "runtime.full_frames", &rs.FullFrames)
		m.Counter(i, "runtime.truncated_frames", &rs.TruncatedFrames)
		m.Counter(i, "runtime.hashref_frames", &rs.HashRefFrames)
		m.Counter(i, "runtime.cas_truncated", &rs.CASTruncated)
		m.Counter(i, "runtime.cold_code_bytes", &rs.ColdCodeBytes)
		m.Counter(i, "runtime.executions", &rs.Executions)
		m.Counter(i, "runtime.exec_errors", &rs.ExecErrors)
		m.Counter(i, "runtime.dropped_frames", &rs.DroppedFrames)
		m.Counter(i, "runtime.jit_compiles", &rs.JITCompiles)
		m.Counter(i, "runtime.binary_loads", &rs.BinaryLoads)
		m.Counter(i, "runtime.guest_sends", &rs.GuestSends)
		m.Counter(i, "runtime.drains", &rs.Drains)
		m.Counter(i, "runtime.group_runs", &rs.GroupRuns)
		m.Counter(i, "runtime.verify_rejects", &rs.VerifyRejects)
		m.Counter(i, "runtime.region_elides", &rs.RegionElides)
		m.Counter(i, "runtime.region_delta_pulls", &rs.RegionDeltaPulls)
		m.Counter(i, "runtime.pull_get_bytes", &rs.PullGetBytes)
		m.Counter(i, "runtime.pull_get_full_bytes", &rs.PullGetFullBytes)
		m.Counter(i, "runtime.writeback_put_bytes", &rs.WriteBackPutBytes)
		m.Counter(i, "runtime.writeback_full_bytes", &rs.WriteBackFullBytes)

		ws := &rt.Worker.Stats
		m.Counter(i, "ucx.ifunc_polls", &ws.IfuncPolls)
		m.Counter(i, "ucx.ifunc_frames", &ws.IfuncFrames)

		ns := &rt.Node.Stats
		m.Counter(i, "fabric.msgs_sent", &ns.MsgsSent)
		m.Counter(i, "fabric.bytes_sent", &ns.BytesSent)
		m.Counter(i, "fabric.msgs_received", &ns.MsgsReceived)
		m.Counter(i, "fabric.bytes_received", &ns.BytesReceived)
		m.CounterFunc(i, "fabric.cpu_busy_ps", func() uint64 { return uint64(ns.CPUBusy) })

		ss := &rt.Store.Stats
		m.Counter(i, "store.puts", &ss.Puts)
		m.Counter(i, "store.hits", &ss.Hits)
		m.Counter(i, "store.evictions", &ss.Evictions)
		m.Counter(i, "store.evicted_bytes", &ss.EvictedBytes)
		m.CounterFunc(i, "store.evict_log_dropped", rt.Store.EvictLogDropped)
		m.CounterFunc(i, "store.bytes", func() uint64 { return uint64(rt.Store.Bytes()) })

		ps := &rt.Planner.Stats
		m.Counter(i, "place.ship", &ps.Ship)
		m.Counter(i, "place.pull", &ps.Pull)
		m.Counter(i, "place.local", &ps.Local)
		m.Counter(i, "place.fallbacks", &ps.Fallbacks)

		rt.routeHists[0] = m.Histogram(i, "offload.latency_ps.ship")
		rt.routeHists[1] = m.Histogram(i, "offload.latency_ps.pull")
		rt.routeHists[2] = m.Histogram(i, "offload.latency_ps.local")
	}
}

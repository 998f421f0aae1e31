package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"threechains/internal/core"
	"threechains/internal/obs"
	"threechains/internal/sim"
)

// workload is one named benchmark workload; BENCHMARK.json records why
// each was chosen.
type workload struct {
	// needsRef marks workloads whose outputs are checked against a
	// same-seed reference run in a child process.
	needsRef bool
	// setup builds the cluster, generates the inputs, builds and
	// registers the code and warms up; jitNS accumulates the host time
	// of the build/register calls.
	setup func(cfg config, jitNS *int64) (world, error)
}

var workloads = map[string]workload{
	"tsi-stream":    {setup: setupTSI},
	"pointer-chase": {setup: setupChase},
	"offload-mix":   {needsRef: true, setup: setupMix},
	"scale-1000":    {needsRef: true, setup: setupScale},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// world is one materialized workload.
type world interface {
	cluster() *core.Cluster
	// timed runs the workload's whole op budget.
	timed(ph *phases) error
	attempted() int
	// check counts failed ops against the workload's own reference
	// (self-checked workloads) or against the reference child's digests.
	check(ref *refResult) (failed int, problems []string)
	// digests fingerprint the outputs, compared with the reference run.
	digests() []uint64
	// steps totals the guest steps executed so far.
	steps() uint64
	// unit runs one more unit of work after the timed phase.
	unit(ph *phases) (int, error)
	// sample returns the inputs of the isolated cross-checks.
	sample() xsample
}

// phases carries what the benchmark records around its calls into the
// program: the host time of the units of work (a burst, a chase, a
// round) in steal-corrected chunks, per-op modelled latencies, and in
// traced runs the pprof labels of the issue and run phases.
type phases struct {
	trace bool
	lat   latHist
	// issueNS is the host time spent inside the issue calls
	// (Send/Offload/StartOffloadStream); unitNS the current unit's issue
	// plus run time. Harness bookkeeping between units is not timed.
	issueNS, unitNS int64
	// The chunk being filled, the finished chunks and the CPU counters
	// at the chunk's start.
	cur    chunk
	chunks []chunk
	stat   cpuStat
	shards int
	// runs and pendingSum sample the event-queue depth at each Run.
	runs, pendingSum int
	issueCtx, runCtx context.Context
}

// chunk is a run of consecutive units and the share of its host time the
// hypervisor stole.
type chunk struct {
	ops    int
	ns     int64
	stolen float64
}

// chunkNS is the host time after which a chunk closes.
const chunkNS = 500e6

func newPhases(trace bool) *phases {
	return &phases{
		trace:    trace,
		issueCtx: pprof.WithLabels(context.Background(), pprof.Labels("phase", "issue")),
		runCtx:   pprof.WithLabels(context.Background(), pprof.Labels("phase", "run")),
	}
}

// begin marks the start of the timed phase on a simulator running
// shards parallel shards.
func (p *phases) begin(shards int) { p.stat, p.shards = readCPUStat(), shards }

// issue wraps the calls that hand work to the program.
func (p *phases) issue(fn func() error) error {
	if p.trace {
		pprof.SetGoroutineLabels(p.issueCtx)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start).Nanoseconds()
	p.issueNS += d
	p.unitNS += d
	return err
}

// run drives the cluster to quiescence.
func (p *phases) run(cl *core.Cluster) {
	if p.trace {
		p.runs++
		p.pendingSum += cl.Eng.Pending()
		pprof.SetGoroutineLabels(p.runCtx)
	}
	start := time.Now()
	cl.Run()
	p.unitNS += time.Since(start).Nanoseconds()
}

// done closes one unit of work of ops ops.
func (p *phases) done(ops int) {
	p.cur.ops += ops
	p.cur.ns += p.unitNS
	p.unitNS = 0
	if p.cur.ns >= chunkNS {
		p.closeChunk()
	}
}

func (p *phases) closeChunk() {
	st := readCPUStat()
	p.cur.stolen = stolenFrac(p.stat, st, p.shards)
	p.chunks = append(p.chunks, p.cur)
	p.cur, p.stat = chunk{}, st
}

// end closes the last chunk unless it is too short to time.
func (p *phases) end() {
	if p.cur.ns >= chunkNS/2 || len(p.chunks) == 0 {
		p.closeChunk()
	}
}

// hostNS is the total timed host time, steal included.
func (p *phases) hostNS() int64 {
	ns := p.cur.ns
	for _, c := range p.chunks {
		ns += c.ns
	}
	return ns
}

// rate is the median steal-corrected throughput of the chunks.
func (p *phases) rate() float64 {
	var rates, stolen []float64
	for _, c := range p.chunks {
		rates = append(rates, float64(c.ops)/(float64(c.ns)*(1-c.stolen)/1e9))
		stolen = append(stolen, c.stolen)
	}
	fmt.Fprintf(os.Stderr, "ops/s per chunk: %.0f\nstolen share per chunk: %.2f\n", rates, stolen)
	return median(rates)
}

// latency records one op's modelled latency.
func (p *phases) latency(d sim.Time) { p.lat.add(d) }

// latHist is a log-linear histogram of latencies: ns buckets, exact below
// 2048 ns, then 1024 buckets per power of two (0.1% resolution). Each
// bucket also sums its members' exact picosecond values, and a quantile
// reads as the mean of its bucket, so quantiles are deterministic, keep
// full precision and memory stays fixed however many ops run.
type latHist struct {
	counts []uint64
	sums   []uint64
	n      uint64
}

func latBucket(ns uint64) int {
	if ns < 2048 {
		return int(ns)
	}
	k := bits.Len64(ns) - 11
	return 2048 + (k-1)*1024 + int(ns>>k) - 1024
}

func (h *latHist) add(d sim.Time) {
	i := latBucket(uint64(d / sim.Nanosecond))
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
		h.sums = append(h.sums, make([]uint64, i+1-len(h.sums))...)
	}
	h.counts[i]++
	h.sums[i] += uint64(d)
	h.n++
}

// quantile returns the nearest-rank q-quantile's bucket mean in
// microseconds.
func (h *latHist) quantile(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen >= rank {
			return float64(h.sums[i]) / float64(c) / float64(sim.Microsecond)
		}
	}
	return 0
}

// counters is a snapshot of the program's own cumulative counters,
// summed over every node.
type counters struct {
	events                                uint64
	full, trunc, hashref                  uint64
	drains, groupRuns, guestSends, jit    uint64
	execErrors, dropped, verifyRejects    uint64
	getBytes, getFull, putBytes, putFull  uint64
	polls, frames, msgs, bytes, evictions uint64
	ship, pull, local, fallbacks, steps   uint64
	mallocs                               uint64
	cpuBusy                               sim.Time
	heapReserved, heapUsed                uint64
}

func snapshot(w world) counters {
	var c counters
	cl := w.cluster()
	c.events = cl.Eng.Executed()
	for _, rt := range cl.Runtimes {
		s := &rt.Stats
		c.full += s.FullFrames
		c.trunc += s.TruncatedFrames
		c.hashref += s.HashRefFrames
		c.drains += s.Drains
		c.groupRuns += s.GroupRuns
		c.guestSends += s.GuestSends
		c.jit += s.JITCompiles
		c.execErrors += s.ExecErrors
		c.dropped += s.DroppedFrames
		c.verifyRejects += s.VerifyRejects
		c.getBytes += s.PullGetBytes
		c.getFull += s.PullGetFullBytes
		c.putBytes += s.WriteBackPutBytes
		c.putFull += s.WriteBackFullBytes
		c.polls += rt.Worker.Stats.IfuncPolls
		c.frames += rt.Worker.Stats.IfuncFrames
		c.msgs += rt.Node.Stats.MsgsSent
		c.bytes += rt.Node.Stats.BytesSent
		c.cpuBusy += rt.Node.Stats.CPUBusy
		c.evictions += rt.Store.Stats.Evictions
		c.ship += rt.Planner.Stats.Ship
		c.pull += rt.Planner.Stats.Pull
		c.local += rt.Planner.Stats.Local
		c.fallbacks += rt.Planner.Stats.Fallbacks
		c.heapReserved += uint64(len(rt.Node.Mem()))
		c.heapUsed += rt.Node.HeapUsed()
	}
	c.steps = w.steps()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c
}

// errorCount is the number of op failures the program itself reports.
func (c counters) errorCount() uint64 { return c.execErrors + c.dropped + c.verifyRejects }

// measurement is everything one process measured on its workload.
type measurement struct {
	cfg       config
	w         world
	setupS    float64
	jitNS     int64
	wall      time.Duration
	makespan  sim.Time
	attempted int
	failed    int
	problems  []string
	digests   []uint64
	rssMB     float64
	ph        *phases
	before    counters
	after     counters
	windows   int
	activeSum int
	ledger    ledger
	traceOver float64
	profile   string
	xc        map[string]float64
}

// measure sets the workload up and runs its timed phase; in traced runs
// it also profiles the timed phase, runs the trace segment and the
// isolated cross-checks. ref, when non-nil, is the reference child's
// output the results are checked against.
func measure(wl workload, cfg config, ref *refResult) (*measurement, error) {
	m := &measurement{cfg: cfg, ph: newPhases(cfg.trace)}
	if cfg.trace {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("phase", "setup")))
	}
	start := time.Now()
	w, err := wl.setup(cfg, &m.jitNS)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m.setupS = time.Since(start).Seconds()
	m.w = w
	cl := w.cluster()
	if cfg.trace {
		cl.Eng.SetWindowHook(func(_, _ sim.Time, active int) {
			m.windows++
			m.activeSum += active
		})
	}
	m.before = snapshot(w)
	var prof bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	v0 := cl.Eng.Now()
	m.ph.begin(cl.Eng.Shards())
	err = w.timed(m.ph)
	m.ph.end()
	m.wall = time.Duration(m.ph.hostNS())
	if cfg.trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	m.makespan = cl.Eng.Now() - v0
	m.rssMB = peakRSSMB()
	m.after = snapshot(w)
	m.attempted = w.attempted()
	m.digests = w.digests()
	if !cfg.reference {
		m.failed, m.problems = w.check(ref)
		if errs := m.after.errorCount() - m.before.errorCount(); errs > 0 {
			m.failed += int(errs)
			m.problems = append(m.problems, fmt.Sprintf("%d exec errors, dropped frames or verify rejects", errs))
		}
		if ref != nil && ref.MakespanPS != int64(m.makespan) {
			m.problems = append(m.problems, fmt.Sprintf("makespan %d ps differs from the reference's %d ps", m.makespan, ref.MakespanPS))
		}
		if m.failed > m.attempted {
			m.failed = m.attempted
		}
	}
	if cfg.trace {
		cl.Eng.SetWindowHook(nil)
		saveProfile(cfg, prof.Bytes())
		if m.ledger, err = buildLedger(prof.Bytes()); err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		if err := m.traceSegment(); err != nil {
			return nil, fmt.Errorf("trace segment: %w", err)
		}
		m.xc = crossCheck(w.sample(), m.meanPending(), m.groupSize())
	}
	return m, nil
}

// traceSegment runs units of extra work for at least 100 ms untraced,
// then as many with the simulator's own trace attached, and records the
// trace's host-time overhead and the modelled per-resource profile.
func (m *measurement) traceSegment() error {
	w := m.w
	ph := newPhases(false)
	units, plain, err := timeUnits(w, ph, 0)
	if err != nil {
		return err
	}
	t := obs.NewTrace(len(w.cluster().Runtimes))
	w.cluster().AttachTrace(t)
	_, traced, err := timeUnits(w, ph, units)
	if err != nil {
		return err
	}
	m.traceOver = traced/plain - 1
	m.profile = t.Profile(12)
	return nil
}

// timeUnits runs n units (or, with n = 0, units for at least 100 ms) and
// returns how many ran and their host ns per op.
func timeUnits(w world, ph *phases, n int) (int, float64, error) {
	ops, units := 0, 0
	start := time.Now()
	for ; n == 0 && time.Since(start) < 100*time.Millisecond || units < n; units++ {
		k, err := w.unit(ph)
		if err != nil {
			return 0, 0, err
		}
		ops += k
	}
	return units, float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}

// profileDir keeps the timed phase's CPU profile of each traced run for
// go tool pprof (labels: phase=issue|run).
const profileDir = ".bench_build/profiles"

func saveProfile(cfg config, b []byte) {
	path := fmt.Sprintf("%s/%s-seed%d.pprof", profileDir, cfg.workload, cfg.seed)
	err := os.MkdirAll(profileDir, 0o755)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile not saved:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "CPU profile of the timed phase:", path)
}

func (m *measurement) meanPending() int {
	if m.ph.runs == 0 {
		return 1
	}
	d := m.ph.pendingSum / m.ph.runs
	if d < 1 {
		d = 1
	}
	return d
}

// groupSize is the mean number of frames one execution group ran.
func (m *measurement) groupSize() int {
	g := m.after.groupRuns - m.before.groupRuns
	if g == 0 {
		return 1
	}
	n := int((m.after.frames - m.before.frames + g/2) / g)
	if n < 1 {
		n = 1
	}
	return n
}

func (m *measurement) endToEnd(out map[string]metric, setupS float64) {
	out["ops_per_s"] = metric{m.ph.rate(), "1/s"}
	out["setup_s"] = metric{setupS, "s"}
	out["peak_rss_mb"] = metric{m.rssMB, "MB"}
	fmt.Fprintf(os.Stderr, "peak RSS %.0f MB beside %.0f MB of node heap reserved, %.1f MB of it used\n",
		m.rssMB, float64(m.after.heapReserved)/(1<<20), float64(m.after.heapUsed)/(1<<20))
	out["virt_makespan_us"] = metric{m.makespan.Micros(), "us"}
	out["virt_op_p50_us"] = metric{m.ph.lat.quantile(0.50), "us"}
	out["virt_op_p99_us"] = metric{m.ph.lat.quantile(0.99), "us"}
}

func (m *measurement) perLayer(out map[string]metric) {
	ops := float64(m.attempted)
	b, a := m.before, m.after
	d := func(x, y uint64) float64 { return float64(y - x) }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perOp := func(x float64) float64 { return x / ops }
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	lg := m.ledger
	layerNS := func(layer string) float64 { return float64(lg.ns[layer]) }
	for _, layer := range ledgerLayers {
		put(layer+".host_ns_per_op", "ns", perOp(layerNS(layer)))
	}
	put("ledger.cpu_ns_per_op", "ns", perOp(float64(lg.total)))
	put("ledger.wall_ns_per_op", "ns", perOp(float64(m.wall.Nanoseconds())))
	put("ledger.samples", "count", float64(lg.samples))
	put("ledger.issue_frac", "ratio", frac(float64(lg.byPhase["issue"]), float64(lg.total)))
	put("ledger.run_frac", "ratio", frac(float64(lg.byPhase["run"]), float64(lg.total)))

	events := d(b.events, a.events)
	put("sim.events_per_op", "count", perOp(events))
	put("sim.host_ns_per_event", "ns", frac(layerNS("sim"), events))
	put("sim.windows_per_op", "count", perOp(float64(m.windows)))
	put("sim.active_shards_mean", "count", frac(float64(m.activeSum), float64(m.windows)))

	polls := d(b.polls, a.polls)
	put("ucx.frames_per_poll", "count", frac(d(b.frames, a.frames), polls))
	put("ucx.polls_per_op", "count", perOp(polls))

	frames := d(b.full, a.full) + d(b.trunc, a.trunc) + d(b.hashref, a.hashref)
	put("ifunc.full_frame_frac", "ratio", frac(d(b.full, a.full), frames))
	put("ifunc.truncated_frame_frac", "ratio", frac(d(b.trunc, a.trunc), frames))
	put("ifunc.hashref_frame_frac", "ratio", frac(d(b.hashref, a.hashref), frames))
	put("ifunc.store_evictions", "count", d(b.evictions, a.evictions))

	put("core.issue_ns_per_op", "ns", perOp(float64(m.ph.issueNS)))
	put("core.groups_per_drain", "count", frac(d(b.groupRuns, a.groupRuns), d(b.drains, a.drains)))
	put("core.guest_sends_per_op", "count", perOp(d(b.guestSends, a.guestSends)))
	put("core.get_bytes_frac", "ratio", frac(d(b.getBytes, a.getBytes), d(b.getFull, a.getFull)))
	put("core.put_bytes_frac", "ratio", frac(d(b.putBytes, a.putBytes), d(b.putFull, a.putFull)))

	routes := d(b.ship, a.ship) + d(b.pull, a.pull) + d(b.local, a.local)
	put("place.ship_frac", "ratio", frac(d(b.ship, a.ship), routes))
	put("place.pull_frac", "ratio", frac(d(b.pull, a.pull), routes))
	put("place.local_frac", "ratio", frac(d(b.local, a.local), routes))
	put("place.fallbacks", "count", d(b.fallbacks, a.fallbacks))

	steps := d(b.steps, a.steps)
	put("mcode.steps_per_op", "count", perOp(steps))
	put("mcode.host_ns_per_step", "ns", frac(layerNS("mcode"), steps))

	nodes := float64(len(m.w.cluster().Runtimes))
	put("fabric.msgs_per_op", "count", perOp(d(b.msgs, a.msgs)))
	put("fabric.bytes_per_op", "B", perOp(d(b.bytes, a.bytes)))
	put("fabric.cpu_busy_frac", "ratio", frac(float64(a.cpuBusy-b.cpuBusy), nodes*float64(m.makespan)))
	put("fabric.heap_reserved_mb", "MB", float64(a.heapReserved)/(1<<20))
	put("fabric.heap_used_mb", "MB", float64(a.heapUsed)/(1<<20))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("go.heap_sys_mb", "MB", float64(ms.HeapSys)/(1<<20))
	put("go.allocs_per_op", "count", perOp(d(b.mallocs, a.mallocs)))

	put("jit.compiles", "count", float64(a.jit))
	put("jit.setup_ns", "ns", float64(m.jitNS))
	put("obs.trace_overhead", "ratio", m.traceOver)

	for _, name := range sortedKeys(m.xc) {
		put(name, "ns", m.xc[name])
	}

	fmt.Fprintf(os.Stderr, "host-time ledger (%d samples, timed phase, ns/op):\n", lg.samples)
	for _, layer := range ledgerLayers {
		fmt.Fprintf(os.Stderr, "  %-14s %10.1f  %5.1f%%\n", layer, perOp(layerNS(layer)), 100*frac(layerNS(layer), float64(lg.total)))
	}
	fmt.Fprintln(os.Stderr, "isolated cross-checks (ns per call):")
	for _, name := range sortedKeys(m.xc) {
		fmt.Fprintf(os.Stderr, "  %-34s %10.1f\n", name, m.xc[name])
	}
	fmt.Fprintf(os.Stderr, "modelled per-resource profile of one traced unit:\n%s", indent(m.profile))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

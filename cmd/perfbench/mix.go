package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"threechains/internal/core"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/testbed"
)

// offload-mix: the concurrent-hetero scenario of place.Generate — ten
// nodes at 1-8x speeds, mostly heavy, mostly resident kernels — run as
// back-to-back bursts of one 16-deep offload stream each under the
// queueing-aware planner. The cluster shape and types are the scenario's
// own (seed 7); the run seed draws the op stream, so every seed runs the
// same kernels in a different order and mix (with six types, drawing the
// types from the run seed too would swing every figure by tens of
// percent between seeds). An op is one offload; its latency runs from
// its burst's arrival to its kernel's completion.
const (
	mixBurst           = 160
	mixDepth           = 16
	mixBurstsPerSecond = 80
)

var mixShape = place.WorkloadParams{
	Seed: 7, Nodes: 10, Types: 6, Ops: mixBurst,
	MinRegionWords: 512, MaxRegionWords: 1024,
	HeavyIters: 16384, HeavyFrac: 0.9, PredeployFrac: 0.99,
	SpeedMin: 1, SpeedMax: 8,
	StreamDepth: mixDepth,
}

// scale-1000: place.GenerateScale with 125 groups of 8 nodes and 100k
// offloads per round on a sharded cluster (shards = nproc, whole groups
// per shard), plus one cross-group ifunc ring that crosses shards. As in
// offload-mix, the groups' shapes and types are the scenario's own (seed
// 23) and the run seed draws each round's ops; without that, the slowest
// of 125 seeded groups sets the makespan and moves it by 15% between
// seeds. The reference run is the same workload on one shard.
const (
	scaleShapeSeed       = 23
	scaleGroups          = 125
	scaleGroupNodes      = 8
	scaleOpsPerGroup     = 800
	scaleRoundsPerSecond = 0.7
)

var scaleTemplate = place.WorkloadParams{
	Types: 4, MaxPayload: 64,
	MinRegionWords: 8, MaxRegionWords: 64,
	HeavyIters: 256, HeavyFrac: 0.25, PredeployFrac: 0.5,
	SpeedMin: 1, SpeedMax: 4,
	StreamDepth: 4,
}

// group is one independently driven partition: a driver node, its
// peers, their regions and the group's registered types.
type group struct {
	first   int // global id of the driver
	w       *place.Workload
	handles []*core.Handle
	regions []uint64
}

// streamWorld is shared by offload-mix and scale-1000: groups of nodes,
// each group's driver issuing windowed offload streams.
type streamWorld struct {
	cl     *core.Cluster
	groups []*group
	depth  int
	policy place.Policy
	// round(r) materializes round r's streams, one per group (r = -1
	// is the warm-up round); offload-mix has one group and one round per
	// burst.
	round   func(r int) [][]core.StreamOp
	rounds  int
	warm    [][]core.StreamOp
	roundAt sim.Time
	// nodeLat collects per-node modelled latencies (each node's observer
	// runs on its own shard).
	nodeLat [][]sim.Time
	record  bool
	// digs[g] is group g's output digest; per-round digests for
	// offload-mix (one group), per-group for scale-1000.
	dig       []hash.Hash64
	perRound  bool
	ops       int
	failedOps int
	problems  []string
}

func (w *streamWorld) cluster() *core.Cluster { return w.cl }

// newStreamWorld builds the cluster for the groups' workloads and
// registers every type on its group's driver.
func newStreamWorld(p testbed.Profile, ws []*place.Workload, shards int, jitNS *int64) (*streamWorld, error) {
	gn := len(ws[0].RegionWords)
	specs := make([]core.NodeSpec, gn*len(ws))
	for i := range specs {
		specs[i] = core.NodeSpec{Name: fmt.Sprintf("%s-g%d-n%d", p.Name, i/gn, i%gn), March: p.March(), Engine: p.Engine}
	}
	cl := core.NewShardedCluster(p.Net, specs, shards, func(n int) int { return (n / gn) % shards })
	w := &streamWorld{cl: cl, nodeLat: make([][]sim.Time, len(specs))}
	for i, rt := range cl.Runtimes {
		g, local := i/gn, i%gn
		gw := ws[g]
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		rt.ExecCostMultiplier = gw.SpeedMult[local]
		if len(ws) > 1 {
			// Planner registry scans stay inside the group, the sharding atom.
			scope := make([]int, gn)
			for j := range scope {
				scope[j] = g*gn + j
			}
			rt.ScopeNodes = scope
		}
		rt.TargetPtr = rt.Node.Alloc(gw.RegionWords[local] * 8)
		fillRegion(rt.Node.Mem(), rt.TargetPtr, i, gw.RegionWords[local])
		node := i
		rt.Observer = func(name, _ string, _ uint64, when sim.Time) {
			if w.record && !strings.HasPrefix(name, "cross-") {
				w.nodeLat[node] = append(w.nodeLat[node], when-w.roundAt)
			}
		}
	}
	start := time.Now()
	defer func() { *jitNS += time.Since(start).Nanoseconds() }()
	for gi, gw := range ws {
		g := &group{first: gi * gn, w: gw}
		drv := cl.Runtime(g.first)
		for _, ts := range gw.Types {
			name := fmt.Sprintf("g%d-wl-type-%d", gi, ts.ID)
			h, err := drv.RegisterBitcode(name, buildTypeKernel(name, ts), p.Triples)
			if err != nil {
				return nil, err
			}
			g.handles = append(g.handles, h)
			if ts.Predeployed {
				// Resident service: registered everywhere before the
				// stream starts, sender caches marked.
				for local := 0; local < gn; local++ {
					if err := cl.Runtime(g.first + local).RegisterLocal(h); err != nil {
						return nil, err
					}
					if local != 0 {
						drv.Sent.Mark(g.first+local, h.Hash)
					}
				}
			}
		}
		for local := 0; local < gn; local++ {
			g.regions = append(g.regions, cl.Runtime(g.first+local).TargetPtr)
		}
		w.groups = append(w.groups, g)
	}
	return w, nil
}

// streamOps materializes ops of group g as stream requests.
func (w *streamWorld) streamOps(g *group, ops []place.OpSpec) []core.StreamOp {
	out := make([]core.StreamOp, 0, len(ops))
	for _, op := range ops {
		ts := g.w.Types[op.Type]
		words := g.w.RegionWords[op.Dst]
		out = append(out, core.StreamOp{
			Dst: g.first + op.Dst, H: g.handles[op.Type], Fn: "main",
			Payload: opPayload(ts, op, words),
			Opts: core.OffloadOpts{
				DataAddr: g.regions[op.Dst], DataSize: uint64(words * 8),
				WriteBack: !ts.ReadOnly, Policy: w.policy,
			},
		})
	}
	return out
}

func setupMix(cfg config, jitNS *int64) (world, error) {
	p := testbed.ThorXeon()
	if cfg.reference {
		p.Engine = "interp"
	}
	shape := place.Generate(mixShape)
	w, err := newStreamWorld(p, []*place.Workload{shape}, 1, jitNS)
	if err != nil {
		return nil, err
	}
	w.depth, w.policy, w.perRound = mixDepth, place.PolicyCostModelQueue, true
	w.rounds = cfg.seconds * mixBurstsPerSecond
	draw := mixShape
	draw.Seed, draw.Ops = deriveSeed(cfg.seed, "mix-ops"), (w.rounds+1)*mixBurst
	ops := place.Generate(draw).Ops
	w.round = func(r int) [][]core.StreamOp {
		return [][]core.StreamOp{w.streamOps(w.groups[0], ops[(r+1)*mixBurst:(r+2)*mixBurst])}
	}
	return w, w.warmUp()
}

func setupScale(cfg config, jitNS *int64) (world, error) {
	p := testbed.ThorXeon()
	shards := runtime.NumCPU()
	if cfg.reference {
		shards = 1
	}
	params := place.ScaleParams{
		Seed: scaleShapeSeed, Groups: scaleGroups, GroupNodes: scaleGroupNodes,
		OpsPerGroup: scaleOpsPerGroup, Template: scaleTemplate,
	}
	w, err := newStreamWorld(p, place.GenerateScale(params).Groups, shards, jitNS)
	if err != nil {
		return nil, err
	}
	w.depth, w.policy = scaleTemplate.StreamDepth, place.PolicyCostModel
	w.rounds = max(1, int(math.Round(float64(cfg.seconds)*scaleRoundsPerSecond)))
	w.round = func(r int) [][]core.StreamOp {
		params.Seed = deriveSeed(cfg.seed, fmt.Sprintf("scale-round-%d", r))
		draw := place.GenerateScale(params)
		streams := make([][]core.StreamOp, len(w.groups))
		for gi, g := range w.groups {
			streams[gi] = w.streamOps(g, draw.Groups[gi].Ops)
		}
		return streams
	}

	// Cross-group ring: each driver pokes the next group's driver with a
	// quiet code-carrying ifunc, delivered across shard boundaries.
	start := time.Now()
	for gi, g := range w.groups {
		drv := w.cl.Runtime(g.first)
		h, err := drv.RegisterBitcode(fmt.Sprintf("cross-g%d", gi), buildCrossKernel(gi), p.Triples)
		if err != nil {
			return nil, err
		}
		peer := w.groups[(gi+1)%len(w.groups)].first
		if err := drv.SendQuiet(peer, h, "main", make([]byte, 8)); err != nil {
			return nil, err
		}
	}
	*jitNS += time.Since(start).Nanoseconds()
	return w, w.warmUp()
}

// warmUp runs the warm-up round: every (type, destination) pair that
// the round reaches registers and JITs before timing starts.
func (w *streamWorld) warmUp() error {
	w.warm = w.round(-1)
	return w.runRound(newPhases(false), w.warm, false)
}

// runRound issues one stream per group, drives the cluster to
// quiescence and, when count is set, folds the results into the digests
// and the latencies into ph.
func (w *streamWorld) runRound(ph *phases, streams [][]core.StreamOp, count bool) error {
	w.roundAt = w.cl.Eng.Now()
	w.record = count
	started := make([]*core.OffloadStream, len(streams))
	err := ph.issue(func() error {
		for gi, ops := range streams {
			started[gi] = w.cl.Runtime(w.groups[gi].first).StartOffloadStream(ops, w.depth)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ph.run(w.cl)
	w.record = false
	ops := 0
	for _, s := range streams {
		ops += len(s)
	}
	ph.done(ops)
	if !count {
		for gi, s := range started {
			if s.Err != nil || !s.Done.Fired() {
				return fmt.Errorf("group %d warm-up stream: %v", gi, firstErr(s.Err, errStalled))
			}
		}
		return nil
	}
	for n, lat := range w.nodeLat {
		for _, d := range lat {
			ph.lat.add(d)
		}
		w.nodeLat[n] = lat[:0]
	}
	for gi, s := range started {
		w.ops += len(streams[gi])
		if s.Err != nil || !s.Done.Fired() {
			w.failedOps += len(streams[gi])
			w.problems = append(w.problems, fmt.Sprintf("group %d stream: %v", gi, firstErr(s.Err, errStalled)))
		}
		d := gi
		if w.perRound {
			w.dig = append(w.dig, fnv.New64a())
			d = len(w.dig) - 1
		}
		for _, v := range s.Results {
			writeU64(w.dig[d], v)
		}
	}
	if w.perRound {
		w.digestRegions(w.dig[len(w.dig)-1], w.groups[0])
	}
	return nil
}

var errStalled = errors.New("stream did not complete")

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// digestRegions folds the group's region bytes and route mix into d.
func (w *streamWorld) digestRegions(d hash.Hash64, g *group) {
	for local, base := range g.regions {
		d.Write(w.cl.Runtime(g.first + local).Node.Mem()[base : base+uint64(g.w.RegionWords[local]*8)])
	}
	st := w.cl.Runtime(g.first).Planner.Stats
	for _, v := range []uint64{st.Ship, st.Pull, st.Local, st.Fallbacks} {
		writeU64(d, v)
	}
}

func (w *streamWorld) timed(ph *phases) error {
	if !w.perRound {
		w.dig = make([]hash.Hash64, len(w.groups))
		for i := range w.dig {
			w.dig[i] = fnv.New64a()
		}
	}
	for r := 0; r < w.rounds; r++ {
		if err := w.runRound(ph, w.round(r), true); err != nil {
			return err
		}
	}
	if !w.perRound {
		for gi, g := range w.groups {
			w.digestRegions(w.dig[gi], g)
		}
	}
	return nil
}

func (w *streamWorld) unit(ph *phases) (int, error) {
	n := 0
	for _, ops := range w.warm {
		n += len(ops)
	}
	return n, w.runRound(ph, w.warm, false)
}

func (w *streamWorld) attempted() int { return w.ops }

func (w *streamWorld) digests() []uint64 {
	out := make([]uint64, len(w.dig))
	for i, d := range w.dig {
		out[i] = d.Sum64()
	}
	return out
}

// check compares each digest (a burst of offload-mix, a group of
// scale-1000) with the reference run's; every op of a mismatched one
// counts as failed.
func (w *streamWorld) check(ref *refResult) (int, []string) {
	failed, problems := w.failedOps, w.problems
	if ref == nil {
		return failed, append(problems, "no reference digests")
	}
	if len(ref.Digests) != len(w.dig) {
		return w.ops, append(problems, fmt.Sprintf("%d digests, reference has %d", len(w.dig), len(ref.Digests)))
	}
	per := w.ops / len(w.dig)
	bad := 0
	for i, d := range w.dig {
		if d.Sum64() != ref.Digests[i] {
			bad++
			failed += per
		}
	}
	if bad > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d digests differ from the reference run", bad, len(w.dig)))
	}
	return failed, problems
}

func (w *streamWorld) steps() uint64 {
	var n uint64
	for _, g := range w.groups {
		for local := range g.regions {
			rt := w.cl.Runtime(g.first + local)
			for _, h := range g.handles {
				if reg, ok := rt.Reg.Get(h.Hash); ok {
					n += reg.TotalSteps
				}
			}
		}
	}
	return n
}

// sample: the most frequent type of group 0's warm-up round, with its
// own payload and destination region, and the planner shapes of that
// round.
func (w *streamWorld) sample() xsample {
	g := w.groups[0]
	ops := w.warm[0]
	count := map[*core.Handle]int{}
	best := ops[0]
	for _, op := range ops {
		count[op.H]++
		if count[op.H] > count[best.H] {
			best = op
		}
	}
	drv := w.cl.Runtime(g.first)
	march := drv.Node.March
	var reqs []xreq
	for _, op := range ops[:min(64, len(ops))] {
		reqs = append(reqs, xreq{
			payloadLen: len(op.Payload), dataBytes: int(op.Opts.DataSize), writeBack: op.Opts.WriteBack,
			steps: meanSteps(w.cl, op.H.Hash), execMult: w.cl.Runtime(op.Dst).ExecCostMultiplier,
		})
	}
	mod := best.H.Module
	return xsample{
		march: march, typeHash: best.H.Hash, payload: best.Payload,
		module: mod, entry: "main",
		kernelArgs: func(mem []byte) []uint64 {
			copy(mem[scratchPayload:], best.Payload)
			dst := w.cl.Runtime(best.Dst)
			copy(mem[scratchTarget:], dst.Node.Mem()[best.Opts.DataAddr:best.Opts.DataAddr+best.Opts.DataSize])
			return []uint64{scratchPayload, uint64(len(best.Payload)), scratchTarget}
		},
		net: w.cl.Net.Params, ifuncPoll: drv.Worker.IfuncPoll, policy: w.policy, requests: reqs,
	}
}

// meanSteps is the best measured per-message step count of a type on
// any node of the cluster (1 when it never ran).
func meanSteps(cl *core.Cluster, hash uint64) float64 {
	for _, rt := range cl.Runtimes {
		if reg, ok := rt.Reg.Get(hash); ok {
			if s, ok := reg.MeanSteps(); ok {
				return s
			}
		}
	}
	return 1
}

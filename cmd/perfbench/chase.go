package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/sim"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
)

// pointer-chase: the paper's X-RDMA distributed pointer chase in
// cached-bitcode mode on the heterogeneous Thor configuration (a Xeon
// client driving BlueField-2 servers). The chaser walks a random
// permutation cycle sharded over the servers and forwards itself
// (send_self from inside the executing ifunc) whenever the next entry
// lives elsewhere. One chase is in flight at a time; an op is one chase.
// Start entries and depths (uniform in 224-288, mean 256) come from the
// seed; the spread of depths keeps the latency percentiles from landing
// on one hop count for every seed.
const (
	chaseServers         = 32
	chaseEntries         = 4096 // per server
	chaseDepth           = 256
	chaseDepthSpread     = 32
	chasesPerSecond      = 1_750
	chaseUnit            = 64
	chaseEntryReturnName = "return_result"
)

type chaseWorld struct {
	cl      *core.Cluster
	client  *core.Runtime
	servers []*core.Runtime
	h       *core.Handle
	module  *ir.Module
	perm    []uint64
	starts  []uint64
	depths  []uint64
	payload []byte
	// values[i] is what chase i delivered to the client.
	values []uint64
	// doneAt is the virtual time the current chase's result executed.
	doneAt sim.Time
}

func setupChase(cfg config, jitNS *int64) (world, error) {
	p := testbed.ThorMixed()
	specs := []core.NodeSpec{{Name: "client", March: testbed.ThorXeon().March()}}
	for i := 0; i < chaseServers; i++ {
		specs = append(specs, core.NodeSpec{
			Name: fmt.Sprintf("server%d", i), March: p.March(), MemBytes: 16<<20 + chaseEntries*8,
		})
	}
	cl := core.NewCluster(p.Net, specs)
	w := &chaseWorld{cl: cl, client: cl.Runtime(0), payload: make([]byte, core.ChaseBytes)}
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		rt.Worker.MaxDrain = 1 // paper fidelity: one message per poll
	}
	w.servers = cl.Runtimes[1:]

	// One permutation cycle over all entries (Sattolo), sharded
	// server-number-first.
	rng := rand.New(rand.NewSource(deriveSeed(cfg.seed, "chase-table")))
	n := uint64(chaseEntries * chaseServers)
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := uint64(rng.Int63n(int64(i)))
		idx[i], idx[j] = idx[j], idx[i]
	}
	w.perm = make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		w.perm[idx[i]] = idx[(i+1)%n]
	}
	for s, rt := range w.servers {
		base := rt.Node.Alloc(chaseEntries * 8)
		mem := rt.Node.Mem()
		for i := 0; i < chaseEntries; i++ {
			binary.LittleEndian.PutUint64(mem[base+uint64(8*i):], w.perm[s*chaseEntries+i])
		}
		ctx := rt.Node.Alloc(core.SrvCtxBytes)
		binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxTableBase:], base)
		binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxShardSize:], chaseEntries)
		binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxNumServers:], chaseServers)
		binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxFirstServer:], 1)
		rt.TargetPtr = ctx
	}
	w.client.TargetPtr = w.client.Node.Alloc(8)
	w.client.Observer = func(_, entry string, _ uint64, when sim.Time) {
		if entry == chaseEntryReturnName {
			w.doneAt = when
		}
	}

	start := time.Now()
	w.module = core.BuildChaser()
	_, raw, err := toolchain.BuildArchive(w.module, toolchain.Options{Opt: 2, Debug: true, Triples: p.Triples})
	if err != nil {
		return nil, err
	}
	if w.h, err = w.client.RegisterArchive("dapc", raw); err != nil {
		return nil, err
	}
	if err := w.client.RegisterLocal(w.h); err != nil {
		return nil, err
	}
	*jitNS += time.Since(start).Nanoseconds()

	chases := cfg.seconds * chasesPerSecond
	for i := 0; i < chases; i++ {
		w.starts = append(w.starts, uint64(rng.Int63n(int64(n))))
		w.depths = append(w.depths, uint64(chaseDepth-chaseDepthSpread+rng.Intn(2*chaseDepthSpread+1)))
	}
	// Warm-up: a depth-1 chase on every server (JIT everywhere), then one
	// long walk that caches the server-to-server code paths.
	ph := newPhases(false)
	for s := range w.servers {
		if _, err := w.chase(ph, uint64(s*chaseEntries), 1); err != nil {
			return nil, err
		}
	}
	if _, err := w.chase(ph, 0, chaseServers*chaseServers*3+16); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *chaseWorld) cluster() *core.Cluster { return w.cl }

// chase runs one chase to completion and returns the value it delivered
// to the client.
func (w *chaseWorld) chase(ph *phases, start, depth uint64) (uint64, error) {
	binary.LittleEndian.PutUint64(w.payload[core.ChaseAddr:], start)
	binary.LittleEndian.PutUint64(w.payload[core.ChaseDepth:], depth)
	binary.LittleEndian.PutUint64(w.payload[core.ChaseDest:], 0)
	owner := int(start / chaseEntries)
	done := w.client.SetCompletion()
	t0 := w.cl.Eng.Now()
	err := ph.issue(func() error {
		_, err := w.client.Send(1+owner, w.h, "chase", w.payload)
		return err
	})
	if err != nil {
		return 0, err
	}
	ph.run(w.cl)
	ph.done(1)
	if !done.Fired() {
		return 0, fmt.Errorf("chase from %d did not complete", start)
	}
	ph.latency(w.doneAt - t0)
	return done.Value(), nil
}

// walk is the host-side reference: depth steps along the permutation.
func (w *chaseWorld) walk(start, depth uint64) uint64 {
	v := start
	for i := uint64(0); i < depth; i++ {
		v = w.perm[v]
	}
	return v
}

func (w *chaseWorld) timed(ph *phases) error {
	for i, s := range w.starts {
		v, err := w.chase(ph, s, w.depths[i])
		if err != nil {
			return err
		}
		w.values = append(w.values, v)
	}
	return nil
}

func (w *chaseWorld) unit(ph *phases) (int, error) {
	for i, s := range w.starts[:min(chaseUnit, len(w.starts))] {
		if _, err := w.chase(ph, s, w.depths[i]); err != nil {
			return 0, err
		}
	}
	return min(chaseUnit, len(w.starts)), nil
}

func (w *chaseWorld) attempted() int { return len(w.values) }

// check: every chase's delivered value must equal the host-side walk of
// the same permutation from the same start.
func (w *chaseWorld) check(*refResult) (int, []string) {
	wrong := 0
	for i, v := range w.values {
		if v != w.walk(w.starts[i], w.depths[i]) {
			wrong++
		}
	}
	if wrong == 0 {
		return 0, nil
	}
	return wrong, []string{fmt.Sprintf("%d chases returned a value other than the host-side walk", wrong)}
}

func (w *chaseWorld) digests() []uint64 {
	d := fnv.New64a()
	for _, v := range w.values {
		writeU64(d, v)
	}
	return []uint64{d.Sum64()}
}

func (w *chaseWorld) steps() uint64 {
	var n uint64
	for _, rt := range w.cl.Runtimes {
		if reg, ok := rt.Reg.Get(w.h.Hash); ok {
			n += reg.TotalSteps
		}
	}
	return n
}

// sample: one server-side activation of the chaser — a local hop whose
// next entry lives on another server, so it forwards.
func (w *chaseWorld) sample() xsample {
	srv := w.servers[0]
	return xsample{
		march: srv.Node.March, typeHash: w.h.Hash, payload: w.payload,
		module: w.module, entry: "chase",
		externs: map[string]uint64{core.SymNodeID: 1},
		kernelArgs: func(mem []byte) []uint64 {
			table := uint64(scratchTarget + core.SrvCtxBytes)
			for i := 0; i < chaseEntries && table+uint64(8*i) < scratchStack; i++ {
				binary.LittleEndian.PutUint64(mem[table+uint64(8*i):], chaseEntries+uint64(i))
			}
			binary.LittleEndian.PutUint64(mem[scratchTarget+core.SrvCtxTableBase:], table)
			binary.LittleEndian.PutUint64(mem[scratchTarget+core.SrvCtxShardSize:], chaseEntries)
			binary.LittleEndian.PutUint64(mem[scratchTarget+core.SrvCtxNumServers:], chaseServers)
			binary.LittleEndian.PutUint64(mem[scratchTarget+core.SrvCtxFirstServer:], 1)
			binary.LittleEndian.PutUint64(mem[scratchPayload+core.ChaseAddr:], 7)
			binary.LittleEndian.PutUint64(mem[scratchPayload+core.ChaseDepth:], chaseDepth)
			return []uint64{scratchPayload, core.ChaseBytes, scratchTarget}
		},
		net: w.cl.Net.Params, ifuncPoll: srv.Worker.IfuncPoll,
		requests: []xreq{{payloadLen: core.ChaseBytes, dataBytes: chaseEntries * 8, steps: meanSteps(w.cl, w.h.Hash), execMult: 1}},
	}
}

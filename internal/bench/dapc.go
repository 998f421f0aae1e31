package bench

import (
	"fmt"
	"math/rand"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/minilang"
	"threechains/internal/sim"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
	"threechains/internal/ucx"
)

// DAPCMode selects the pointer-chase implementation (§IV-C/D).
type DAPCMode int

// DAPC modes.
const (
	// DAPCActiveMessage predeployes the chase logic on every node.
	DAPCActiveMessage DAPCMode = iota
	// DAPCGet is the GBPC baseline: the client walks the table with
	// one-sided GETs.
	DAPCGet
	// DAPCBitcode ships the chaser as cached fat-bitcode ifuncs.
	DAPCBitcode
	// DAPCBinary ships the chaser as cached binary ifuncs (homogeneous
	// clusters only — the paper shows it on Ookami).
	DAPCBinary
	// DAPCJulia ships chaser bitcode produced by the minilang (Julia
	// path) frontend, driven by a Julia-style client.
	DAPCJulia
)

// String names the mode as the figures' legends do.
func (m DAPCMode) String() string {
	switch m {
	case DAPCActiveMessage:
		return "Active Message"
	case DAPCGet:
		return "Get"
	case DAPCBitcode:
		return "Cached Bitcode"
	case DAPCBinary:
		return "Cached Binary"
	case DAPCJulia:
		return "Cached Bitcode (Julia)"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DAPCConfig parameterizes one pointer-chase experiment.
type DAPCConfig struct {
	Profile testbed.Profile
	// ClientMarch overrides the client CPU (Thor figures use a Xeon
	// client with BF2 servers); nil uses the profile µarch.
	ClientMarch func() *isa.MicroArch
	// Servers is the number of server nodes holding table shards.
	Servers int
	// EntriesPerServer is the shard size (default 4096 entries).
	EntriesPerServer int
	// Depth is the pointer-chase depth (number of lookups).
	Depth int
	// Chases is how many chases to run (default scales with depth).
	Chases int
	// Seed makes table generation and start addresses deterministic.
	Seed int64
	// JuliaClientPrep is the per-chase client-side preparation cost of
	// the Julia driver path (default 6 ms; see EXPERIMENTS.md on the
	// paper's open question about Julia performance).
	JuliaClientPrep sim.Time
	// DisableCache defeats the sender-side code cache on every node
	// (ablation: each guest forward re-ships the full code section).
	DisableCache bool
}

func (c *DAPCConfig) defaults() {
	if c.EntriesPerServer == 0 {
		c.EntriesPerServer = 4096
	}
	if c.Chases == 0 {
		// Enough for a stable mean; capped so deep chases stay fast.
		c.Chases = 12
	}
	if c.JuliaClientPrep == 0 {
		c.JuliaClientPrep = 6 * sim.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// DAPCResult is one data point of Figures 5–12.
type DAPCResult struct {
	Platform string
	Mode     DAPCMode
	Servers  int
	Depth    int
	// RateChasesSec is the headline metric: completed chases per second.
	RateChasesSec float64
	// AvgChaseMS is the mean per-chase latency in milliseconds.
	AvgChaseMS float64
	// RemoteHops counts server-to-server ifunc forwards per chase
	// (diagnostic; Get mode counts GET round trips).
	RemoteHops float64
}

// juliaChaserSrc is the DAPC chaser written in the Julia-like language,
// "kept as close as possible to the original C implementation" (§IV-E).
const juliaChaserSrc = `
# X-RDMA Distributed Adaptive Pointer Chasing (Julia path).
function chase(payload::Ptr, len::Int, target::Ptr)::Int
    addr = load64(payload, 0)
    depth = load64(payload, 8)
    dest = load64(payload, 16)
    tbase = ptr(load64(target, 0))
    shard = load64(target, 8)
    firstsrv = load64(target, 24)
    selfidx = node_id() - firstsrv
    running = 1
    result = 0
    while running == 1
        srv = addr / shard
        if srv != selfidx
            fwd = buffer(24)
            store64(fwd, 0, addr)
            store64(fwd, 8, depth)
            store64(fwd, 16, dest)
            send_self(firstsrv + srv, 0, fwd, 24)
            running = 0
        else
            value = load64(tbase, (addr % shard) * 8)
            depth = depth - 1
            if depth == 0
                ret = buffer(8)
                store64(ret, 0, value)
                send_self(dest, 1, ret, 8)
                running = 0
                result = 1
            else
                addr = value
            end
        end
    end
    return result
end

function return_result(payload::Ptr, len::Int, target::Ptr)::Int
    v = load64(payload, 0)
    store64(target, 0, v)
    complete(v)
    return 0
end
`

// dapcWorld is a prepared DAPC experiment.
type dapcWorld struct {
	cfg     DAPCConfig
	cluster *core.Cluster
	client  *core.Runtime
	servers []*core.Runtime
	handle  *core.Handle
	mode    DAPCMode
	rng     *rand.Rand

	// Get-mode state.
	tableBases []uint64
	tableKeys  []ucx.RKey
	getEPs     []*ucx.Endpoint

	totalEntries uint64
}

const dapcAMID = 9

// newDAPCWorld builds the cluster, distributes the permutation table and
// installs the selected chase implementation.
func newDAPCWorld(cfg DAPCConfig, mode DAPCMode) (*dapcWorld, error) {
	cfg.defaults()
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("bench: need at least 1 server")
	}
	clientMarch := cfg.ClientMarch
	if clientMarch == nil {
		clientMarch = cfg.Profile.March
	}
	specs := []core.NodeSpec{{Name: "client", March: clientMarch(), Engine: cfg.Profile.Engine}}
	for i := 0; i < cfg.Servers; i++ {
		specs = append(specs, core.NodeSpec{
			Name:     fmt.Sprintf("server%d", i),
			March:    cfg.Profile.March(),
			MemBytes: 16<<20 + cfg.EntriesPerServer*8,
			Engine:   cfg.Profile.Engine,
		})
	}
	cl := core.NewCluster(cfg.Profile.Net, specs)
	w := &dapcWorld{
		cfg: cfg, cluster: cl, client: cl.Runtime(0), mode: mode,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = cfg.Profile.AMDispatch
		rt.Worker.IfuncPoll = cfg.Profile.IfuncPoll
		// Paper fidelity: one message per poll, like the §V runtime.
		rt.Worker.MaxDrain = 1
	}
	for i := 1; i <= cfg.Servers; i++ {
		w.servers = append(w.servers, cl.Runtime(i))
	}

	// Build a single permutation cycle over all entries (Sattolo's
	// algorithm) so chases of any depth never revisit dead ends, then
	// shard it server-number-first (§IV-C).
	shard := uint64(cfg.EntriesPerServer)
	n := shard * uint64(cfg.Servers)
	w.totalEntries = n
	perm := make([]uint64, n)
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := uint64(w.rng.Int63n(int64(i)))
		idx[i], idx[j] = idx[j], idx[i]
	}
	for i := uint64(0); i < n; i++ {
		perm[idx[i]] = idx[(i+1)%n]
	}

	for s, rt := range w.servers {
		base := rt.Node.Alloc(int(shard) * 8)
		mem := rt.Node.Mem()
		for i := uint64(0); i < shard; i++ {
			if err := ir.StoreMem(mem, base+i*8, ir.I64, perm[uint64(s)*shard+i]); err != nil {
				return nil, err
			}
		}
		ctx := rt.Node.Alloc(core.SrvCtxBytes)
		ir.StoreMem(mem, ctx+core.SrvCtxTableBase, ir.I64, base)
		ir.StoreMem(mem, ctx+core.SrvCtxShardSize, ir.I64, shard)
		ir.StoreMem(mem, ctx+core.SrvCtxNumServers, ir.I64, uint64(cfg.Servers))
		ir.StoreMem(mem, ctx+core.SrvCtxFirstServer, ir.I64, 1)
		rt.TargetPtr = ctx
		w.tableBases = append(w.tableBases, base)
	}
	w.client.TargetPtr = w.client.Node.Alloc(8)

	switch mode {
	case DAPCBitcode:
		_, raw, err := toolchain.BuildArchive(core.BuildChaser(), toolchain.Options{
			Opt: 2, Debug: true, Triples: cfg.Profile.Triples,
		})
		if err != nil {
			return nil, err
		}
		h, err := w.client.RegisterArchive("dapc", raw)
		if err != nil {
			return nil, err
		}
		w.handle = h
		if err := w.client.RegisterLocal(h); err != nil {
			return nil, err
		}
	case DAPCJulia:
		mod, err := minilang.Compile("dapc.jl", juliaChaserSrc)
		if err != nil {
			return nil, err
		}
		_, raw, err := toolchain.BuildArchive(mod, toolchain.Options{
			Opt: 2, Debug: true, Triples: cfg.Profile.Triples,
		})
		if err != nil {
			return nil, err
		}
		h, err := w.client.RegisterArchive("dapc.jl", raw)
		if err != nil {
			return nil, err
		}
		w.handle = h
		if err := w.client.RegisterLocal(h); err != nil {
			return nil, err
		}
	case DAPCBinary:
		// Binary ifuncs need every participating ISA compiled up front;
		// heterogeneous client/servers make this exactly as painful as
		// §III-B describes.
		marchs := []*isa.MicroArch{w.client.Node.March}
		if w.servers[0].Node.March.Triple.Arch != w.client.Node.March.Triple.Arch {
			return nil, fmt.Errorf("bench: binary DAPC requires a homogeneous cluster (client %s, servers %s): %w",
				w.client.Node.March.Triple.Arch, w.servers[0].Node.March.Triple.Arch, core.ErrNoBinary)
		}
		h, err := w.client.RegisterBinary("dapc", core.BuildChaser(), marchs)
		if err != nil {
			return nil, err
		}
		w.handle = h
		if err := w.client.RegisterLocal(h); err != nil {
			return nil, err
		}
	case DAPCActiveMessage:
		mod := core.BuildChaser()
		for _, rt := range w.cluster.Runtimes {
			if err := rt.PredeployAM(dapcAMID, "dapc", mod); err != nil {
				return nil, err
			}
		}
	case DAPCGet:
		for _, rt := range w.servers {
			key := rt.Worker.RegisterMem(w.tableBases[len(w.tableKeys)], shard*8)
			w.tableKeys = append(w.tableKeys, key)
			w.getEPs = append(w.getEPs, w.client.Worker.Connect(rt.Worker))
		}
	}
	return w, nil
}

// RunDAPC runs one (mode, config) cell and returns the measured point.
func RunDAPC(cfg DAPCConfig, mode DAPCMode) (DAPCResult, error) {
	w, err := newDAPCWorld(cfg, mode)
	if err != nil {
		return DAPCResult{}, err
	}
	cfg = w.cfg
	res := DAPCResult{
		Platform: cfg.Profile.Name, Mode: mode,
		Servers: cfg.Servers, Depth: cfg.Depth,
	}

	// Warm every (client, server) code path once so steady-state chases
	// run fully cached (the figures' "Cached ..." legends).
	if mode != DAPCGet {
		if err := w.warm(); err != nil {
			return res, err
		}
		if cfg.DisableCache {
			for _, rt := range w.cluster.Runtimes {
				rt.Cache = core.CacheNone
			}
		}
	}

	hopsBefore := w.guestSends()
	starts := make([]uint64, cfg.Chases)
	for i := range starts {
		starts[i] = uint64(w.rng.Int63n(int64(w.totalEntries)))
	}

	var start, end sim.Time
	switch mode {
	case DAPCGet:
		w.cluster.Eng.Go("gbpc-client", func(p *sim.Proc) {
			start = p.Now()
			for _, s := range starts {
				if err2 := w.oneGetChase(p, s); err2 != nil {
					err = err2
					return
				}
			}
			end = p.Now()
		})
		w.cluster.Run()
	default:
		w.cluster.Eng.Go("dapc-client", func(p *sim.Proc) {
			start = p.Now()
			for _, s := range starts {
				if mode == DAPCJulia {
					// Julia driver per-chase preparation cost.
					p.Sleep(cfg.JuliaClientPrep)
				}
				if err2 := w.oneChase(p, s); err2 != nil {
					err = err2
					return
				}
			}
			end = p.Now()
		})
		w.cluster.Run()
	}
	if err != nil {
		return res, err
	}
	for _, rt := range w.cluster.Runtimes {
		if rt.LastExecErr != nil {
			return res, rt.LastExecErr
		}
	}
	elapsed := end - start
	if elapsed <= 0 {
		return res, fmt.Errorf("bench: no virtual time elapsed")
	}
	res.RateChasesSec = float64(cfg.Chases) / elapsed.Seconds()
	res.AvgChaseMS = elapsed.Seconds() * 1e3 / float64(cfg.Chases)
	res.RemoteHops = float64(w.guestSends()-hopsBefore) / float64(cfg.Chases)
	return res, nil
}

// warm sends one depth-1 chase through every server so code is cached on
// all nodes before measurement.
func (w *dapcWorld) warm() error {
	shard := uint64(w.cfg.EntriesPerServer)
	var err error
	w.cluster.Eng.Go("warm", func(p *sim.Proc) {
		// Touch every server directly (forces JIT/load on each), then one
		// long random walk to warm the server-to-server sent-cache pairs.
		for s := range w.servers {
			addr := uint64(s) * shard
			if e := w.chaseOnce(p, addr, 1); e != nil {
				err = e
				return
			}
		}
		walk := uint64(len(w.servers)*len(w.servers)*3 + 16)
		if walk > 8192 {
			walk = 8192
		}
		if e := w.chaseOnce(p, 0, walk); e != nil {
			err = e
		}
	})
	w.cluster.Run()
	return err
}

// oneChase runs a single full-depth chase from the client process.
func (w *dapcWorld) oneChase(p *sim.Proc, startAddr uint64) error {
	return w.chaseOnce(p, startAddr, uint64(w.cfg.Depth))
}

func (w *dapcWorld) chaseOnce(p *sim.Proc, startAddr, depth uint64) error {
	shard := uint64(w.cfg.EntriesPerServer)
	owner := int(startAddr / shard)
	payload := make([]byte, core.ChaseBytes)
	putU64(payload, core.ChaseAddr, startAddr)
	putU64(payload, core.ChaseDepth, depth)
	putU64(payload, core.ChaseDest, 0)
	done := w.client.SetCompletion()
	switch w.mode {
	case DAPCActiveMessage:
		ep := w.client.Worker.Connect(w.servers[owner].Worker)
		ep.SendAM(dapcAMID, core.EntryChase, payload)
	default:
		if _, err := w.client.Send(1+owner, w.handle, "chase", payload); err != nil {
			return err
		}
	}
	p.Await(done)
	return nil
}

// oneGetChase walks the table from the client with one-sided GETs (GBPC).
func (w *dapcWorld) oneGetChase(p *sim.Proc, addr uint64) error {
	shard := uint64(w.cfg.EntriesPerServer)
	for d := 0; d < w.cfg.Depth; d++ {
		owner := addr / shard
		local := addr % shard
		op := w.getEPs[owner].Get(w.tableBases[owner]+local*8, 8, w.tableKeys[owner])
		if st := ucx.Status(p.Await(op.Done)); st != ucx.OK {
			return fmt.Errorf("bench: GET failed: %v", st)
		}
		addr = decodeU64(op.Data)
	}
	return nil
}

// guestSends totals guest-issued forwards across the cluster.
func (w *dapcWorld) guestSends() uint64 {
	var n uint64
	for _, rt := range w.cluster.Runtimes {
		n += rt.Stats.GuestSends
	}
	return n
}

func putU64(b []byte, off int, v uint64) {
	for i := 0; i < 8; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}

func decodeU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// DepthSweep produces one figure line: rate vs depth.
func DepthSweep(cfg DAPCConfig, mode DAPCMode, depths []int) ([]DAPCResult, error) {
	var out []DAPCResult
	for _, d := range depths {
		c := cfg
		c.Depth = d
		r, err := RunDAPC(c, mode)
		if err != nil {
			return nil, fmt.Errorf("bench: %s depth %d: %w", mode, d, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ServerSweep produces one scaling line: rate vs server count at fixed
// depth (Figures 9-12 use depth 4096).
func ServerSweep(cfg DAPCConfig, mode DAPCMode, servers []int) ([]DAPCResult, error) {
	var out []DAPCResult
	for _, s := range servers {
		c := cfg
		c.Servers = s
		r, err := RunDAPC(c, mode)
		if err != nil {
			return nil, fmt.Errorf("bench: %s servers %d: %w", mode, s, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// PaperDepths are the x-axis values of Figures 5-8 (powers of two 1..4096).
func PaperDepths() []int {
	var ds []int
	for d := 1; d <= 4096; d *= 2 {
		ds = append(ds, d)
	}
	return ds
}

// PaperServerCounts returns the x-axis of Figures 9-12 up to max.
func PaperServerCounts(max int) []int {
	var ss []int
	for s := 2; s <= max; s *= 2 {
		ss = append(ss, s)
	}
	return ss
}

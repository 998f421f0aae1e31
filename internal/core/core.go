// Package core is the Three-Chains runtime: it glues the fabric, the
// UCP-like communication layer, the JIT session, the remote dynamic
// linker and the ifunc framing/caching protocol into the workflow of the
// paper's Figure 1.
//
// One Runtime lives on every node (process). The source side registers
// ifunc libraries (bitcode fat archives or per-ISA binary objects) and
// sends typed messages; the target side polls, registers unseen types
// on the fly (JIT-compiling bitcode for the local micro-architecture or
// loading matching binaries), and invokes the entry function with the
// payload and a user-defined target pointer. Executing ifuncs can
// recursively forward themselves (or sibling entry points in the same
// module) to further nodes — the X-RDMA capability demonstrated by the
// DAPC pointer chase.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"threechains/internal/bitcode"
	"threechains/internal/elfx"
	"threechains/internal/fabric"
	"threechains/internal/ifunc"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/jit"
	"threechains/internal/linker"
	"threechains/internal/mcode"
	"threechains/internal/obs"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/ucx"
)

// Core errors.
var (
	ErrNoHandle    = errors.New("core: ifunc not registered on source")
	ErrNoEntry     = errors.New("core: no such entry function")
	ErrNoBinary    = errors.New("core: no binary for target architecture")
	ErrBadPayload  = errors.New("core: payload too large")
	ErrNotRunnable = errors.New("core: frame has no code and type is unknown")
)

// NodeSpec describes one cluster node.
type NodeSpec struct {
	Name  string
	March *isa.MicroArch
	// MemBytes is the node heap size (0 = 16 MiB default).
	MemBytes int
	// Engine selects the node's execution backend by mcode registry name
	// ("superblock" or "interp"; "" = mcode.DefaultEngine, the superblock
	// backend). Heterogeneous clusters may mix engines per node, e.g. a
	// DPU on the interpreter oracle next to a compiled host. Engines
	// never perturb virtual-time metrics (differentially tested), only
	// host wall-clock speed. An unknown name — including the retired
	// "closure" and "adaptive" — panics in NewCluster (a deployment
	// configuration bug).
	Engine string
	// StoreBudget bounds the node's content-addressed store (bytes;
	// 0 = unlimited). Pinned content (live registrations and handles)
	// never evicts; the budget bounds the evictable cache tail.
	StoreBudget int64
}

// Cluster is a simulated Three-Chains deployment: an engine, a fabric and
// one runtime per node.
type Cluster struct {
	Eng      *sim.Engine
	Net      *fabric.Network
	Ctx      *ucx.Context
	Runtimes []*Runtime
}

// NewCluster builds a cluster over the given network parameters.
func NewCluster(params fabric.NetParams, nodes []NodeSpec) *Cluster {
	return NewShardedCluster(params, nodes, 1, nil)
}

// NewShardedCluster builds a cluster on a sharded simulation engine:
// node n's event domain runs on shard shardOf(n) (nil = everything on
// shard 0). The fabric proposes the conservative lookahead — its LogGP
// latency floor SendOverhead+BaseLatency — so cross-shard traffic
// synchronizes at fabric boundaries and the engine's horizon protocol
// guarantees bit-identical execution at every shard count. shardOf must
// keep nodes that share non-fabric state (completion signals, offload
// streams, planner registry reads — see Runtime.ScopeNodes) on one
// shard; the grouped scale scenarios assign whole workload groups.
func NewShardedCluster(params fabric.NetParams, nodes []NodeSpec, shards int, shardOf func(node int) int) *Cluster {
	eng := sim.NewSharded(shards)
	if shardOf != nil {
		eng.SetShardOf(shardOf)
	}
	net := fabric.New(eng, params)
	ctx := ucx.NewContext(net)
	c := &Cluster{Eng: eng, Net: net, Ctx: ctx}
	for _, spec := range nodes {
		mem := spec.MemBytes
		if mem == 0 {
			mem = 16 << 20
		}
		node := net.AddNode(spec.Name, spec.March, mem)
		rt := newRuntime(c, node, mcode.MustEngine(spec.Engine))
		rt.Store.Budget = spec.StoreBudget
		c.Runtimes = append(c.Runtimes, rt)
	}
	// Out-of-band rkey exchange: every runtime learns every heap window
	// (the bootstrap step a launcher like mpirun would perform). The
	// table is the same on every node and read-only afterwards, so the
	// runtimes share one copy — N entries, not N².
	keys := make([]ucx.RKey, len(c.Runtimes))
	for j, peer := range c.Runtimes {
		keys[j] = peer.heapKey
	}
	for _, r := range c.Runtimes {
		r.heapKeys = keys
	}
	return c
}

// Runtime returns the runtime on node i.
func (c *Cluster) Runtime(i int) *Runtime { return c.Runtimes[i] }

// Run drives the simulation until no events remain.
func (c *Cluster) Run() { c.Eng.Run() }

// Close releases the node heaps (fabric.Network.Close): idempotent, and
// every runtime's Mem() is empty afterwards. The cluster must not be
// running. Clusters dropped without Close release their heaps once the
// collector finds them unreachable.
func (c *Cluster) Close() { c.Net.Close() }

// payloadArena is the per-runtime buffer messages' payloads are staged in
// before invoking guest code (reused: execution is run-to-completion).
const payloadArena = 1 << 16

// Handle is a source-side registered ifunc library (the value returned by
// the paper's registration API).
type Handle struct {
	Name string
	Hash uint64
	Kind ifunc.CodeKind
	// Module is the IR kept for local prediction and entry lookup.
	Module *ir.Module
	// ArchiveBytes is the serialized fat-bitcode archive (bitcode kind).
	ArchiveBytes []byte
	// Objects maps ISA -> serialized elfx object (binary kind).
	Objects map[isa.Arch][]byte
	// entries maps function name -> entry index.
	entries map[string]uint16
	names   []string
	// Content hashes of the shipped representations, memoized at
	// registration so the send-path negotiation never re-hashes:
	// archiveHash keys the fat archive (bitcode kind), objectHash keys
	// each per-ISA object (binary kind).
	archiveHash uint64
	objectHash  map[isa.Arch]uint64
	// archiveKey/objectKey are the matching JIT session cache keys
	// (jit.HashKey of the hashes above), memoized for the planner's
	// per-request registration-cost probe.
	archiveKey string
	objectKey  map[isa.Arch]string
	// staticSeed memoizes the verifier's per-entry static minimum-step
	// bound (mcode analysis MinSteps) for never-executed planning; -1
	// marks entries with no usable bound. Computed lazily on first use —
	// handles on hot paths that never plan pay nothing.
	staticSeed     []float64
	staticSeedDone bool
}

// StaticMinSteps returns the static minimum-step bound for entry when
// the verifier proved the entry bounded (acyclic, call-free code — the
// message-kernel common case), usable as a planning seed for a type that
// has never executed anywhere. Loopy kernels return false: their
// per-activation cost genuinely needs an execution to observe, so the
// planner keeps exploring them. Only bitcode handles are analyzed; the
// memoized seeds reflect the µarch that first asked, which is fine for
// an estimate (and deterministic — virtual-time call order is fixed).
func (h *Handle) StaticMinSteps(entry uint16, march *isa.MicroArch) (float64, bool) {
	if !h.staticSeedDone {
		h.staticSeedDone = true
		if h.Kind == ifunc.KindBitcode && h.Module != nil {
			if cm, err := mcode.Lower(h.Module, march); err == nil {
				if facts, err := mcode.Verify(cm); err == nil {
					seeds := make([]float64, len(facts.Funcs))
					for i := range seeds {
						seeds[i] = -1
						if ff := facts.Func(i); ff != nil && ff.Bounded() {
							seeds[i] = float64(ff.MinSteps)
						}
					}
					h.staticSeed = seeds
				}
			}
		}
	}
	if int(entry) >= len(h.staticSeed) || h.staticSeed[entry] < 0 {
		return 0, false
	}
	return h.staticSeed[entry], true
}

// ContentHash returns the content key of the code section this handle
// ships to a node of the given arch (0 when the representation is
// missing or the handle was built outside the registration APIs).
func (h *Handle) ContentHash(arch isa.Arch) uint64 {
	if h.Kind == ifunc.KindBitcode {
		return h.archiveHash
	}
	return h.objectHash[arch]
}

// EntryIndex resolves a function name to the frame entry index.
func (h *Handle) EntryIndex(fn string) (uint16, error) {
	idx, ok := h.entries[fn]
	if !ok {
		return 0, fmt.Errorf("%w: %q in %s", ErrNoEntry, fn, h.Name)
	}
	return idx, nil
}

// CodeSize returns the code-section size shipped for arch (archives are
// arch-independent).
func (h *Handle) CodeSize(arch isa.Arch) int {
	if h.Kind == ifunc.KindBitcode {
		return len(h.ArchiveBytes)
	}
	return len(h.Objects[arch])
}

// ExecObserver is notified after every local ifunc execution (benchmarks
// use it to timestamp completions without perturbing the protocol).
type ExecObserver func(name, entry string, result uint64, when sim.Time)

// pendingSend is an outbound message buffered during guest execution and
// flushed when the execution's CPU time has elapsed. The frame holds
// exactly the transmitted bytes, in a pooled per-destination buffer.
type pendingSend struct {
	dst   int
	frame []byte
}

// pendingPut is a guest-issued one-sided write, likewise buffered.
type pendingPut struct {
	dst  int
	addr uint64
	data []byte
}

// pendingAM is a guest-issued forward under Active Message transport.
type pendingAM struct {
	dst     int
	entry   uint16
	payload []byte
}

// Runtime is the per-node Three-Chains runtime.
type Runtime struct {
	Cluster *Cluster
	Node    *fabric.Node
	Worker  *ucx.Worker
	Loader  *linker.Loader
	Session *jit.Session
	Reg     *ifunc.Registry
	Sent    *ifunc.SentCache

	// Store is the node's content-addressed store: every code section
	// (and staged pull snapshot) resides here exactly once, keyed by
	// ifunc.ContentHash and pinned by the registrations/handles that
	// reference it. It is what the cluster-wide send negotiation reads
	// ("does the destination already hold these bytes?") and what bounds
	// cache memory via NodeSpec.StoreBudget.
	Store *ifunc.Store

	// Engine is this node's execution backend (NodeSpec.Engine).
	Engine mcode.Engine

	// TargetPtr is the user-defined pointer passed as the third argument
	// to every ifunc entry invoked on this node (§III-A).
	TargetPtr uint64

	// DisableSendCache forces full frames on every send — the "uncached"
	// benchmark mode of §V (code section transmitted every time while the
	// receiver's JIT cache stays warm, exactly the paper's methodology).
	DisableSendCache bool

	// DisableCAS turns off the cluster-wide content-addressed
	// negotiation, restoring the paper's strictly pairwise sent-cache
	// protocol — the baseline the dedup sweep compares against, and the
	// mode the DAPC paper-fidelity harness pins so its tables keep
	// modeling the published protocol.
	DisableCAS bool

	// DisableRegionCache turns off the data-region cache on the pull
	// route — no GET elision, no chunk-delta pulls, every pull a
	// whole-region GET (the pre-cache behavior, and the baseline the
	// regioncache sweep compares against). DisableCAS implies it: the
	// region negotiation reads the owner through the same casPeer gate,
	// so the pairwise-baseline mode stays free of every cluster-wide
	// virtual-time peek.
	DisableRegionCache bool

	// regionClock tracks owner-side version counters for regions served
	// to pullers (lazily, from the first pull); regionCache holds this
	// node's puller-side staged entries (see region.go).
	regionClock ifunc.RegionClock
	regionCache map[regionKey]*regionEntry
	// regionRefs counts the regionCache entries whose snapshot is each
	// canonical store buffer (keyed by its first byte), so a replaced
	// snapshot is released exactly when its last entry moves on.
	regionRefs map[*byte]int

	// ExecCostMultiplier scales guest execution cost on this node
	// (default 1). The Julia DAPC mode uses it to model the unoptimized
	// runtime paths the paper observed but did not diagnose (§V-D).
	ExecCostMultiplier float64

	// Observer, when set, is called after each execution.
	Observer ExecObserver

	// MaxSteps bounds a single guest execution (safety).
	MaxSteps int64

	handles map[string]*Handle
	eps     []*ucx.Endpoint // lazily created endpoints per destination

	// Zero-alloc send fast path: per-destination pools of frame buffers
	// (recycled once the receiver is done with the bytes, via the
	// per-destination release hook handed to ucx). Received code
	// sections are deduplicated through Store (the content-addressed
	// generalization of the old per-runtime interning table).
	framePool   [][][]byte
	frameRel    []ucx.FrameRelease
	framePoolMu sync.Mutex

	heapKey  ucx.RKey   // this node's whole-heap window
	heapKeys []ucx.RKey // everyone's windows (rkey exchange)

	payloadBuf uint64 // arena for inbound payloads

	// Slotted staging arena for pulled operand regions: every in-flight
	// pull holds its own pullArena-sized slot from GET issue until the
	// staged bytes are dead, so overlapping pulls of a windowed offload
	// stream can never corrupt each other's staging (a single shared
	// buffer was fine when offloads ran one at a time). Slots are
	// allocated lazily and recycled LIFO; the arena high-water mark is
	// the stream's maximum pull concurrency.
	pullSlots []uint64 // every slot ever allocated (for introspection)
	pullFree  []uint64 // free slot base addresses

	// execWatches are one-shot execution-completion hooks: the next
	// completed execution of a matching type on this node fires the
	// watch's signal with the kernel's return value (FIFO per type).
	// OffloadStream uses them for execution-level completion of
	// ship-routed requests, whose transport signal fires too early.
	execWatches []execWatch

	// Planner routes Offload requests (the policy comes per call from
	// OffloadOpts); its Stats accumulate this node's route mix.
	Planner place.Planner

	// Trace, when non-nil, receives this node's spans and instant events
	// (plan/frame/pull/execute phases; the fabric and ucx layers emit
	// through the node's own handle). Installed by Cluster.AttachTrace;
	// nil — the default — costs one pointer compare per site, keeping the
	// warm paths allocation-free.
	Trace *obs.NodeTrace

	// routeHists are the per-route offload-latency histograms (indexed by
	// place.Route), nil until Cluster.AttachMetrics installs them. A
	// non-nil entry makes offloadRouted observe plan-to-completion
	// virtual-time latency into it at signal fire.
	routeHists [3]*obs.Histogram

	seq uint32

	// execution context while a guest runs (run-to-completion).
	current      *ifunc.Registration
	currentAMID  int32 // >= 0 while executing under AM transport
	pendingSends []pendingSend
	pendingAMs   []pendingAM
	pendingPuts  []pendingPut
	pendingDone  []uint64

	// Batch-pipeline scratch, reused across drains so the warm delivery
	// path stays allocation-free: recycled (type, entry) groups, the
	// per-drain group list, flat argument-vector storage and per-element
	// results for RunBatch.
	groups     []*frameGroup
	groupPool  []*frameGroup
	argvFlat   []uint64
	argvBuf    [][]uint64
	batchOut   []mcode.BatchResult
	onePayload [1][]byte

	// ScopeNodes, when non-nil, restricts the planner's cross-node
	// registry scan (measurement propagation in buildRequest) to the
	// listed node IDs. Sharded scale scenarios set it to the runtime's
	// own partition so the scan — an omniscient virtual-time read —
	// never touches state owned by another shard. The scan order stays
	// fixed, so scoping keeps the estimate deterministic.
	ScopeNodes []int

	// flushPool recycles batch-flush carriers (several can be in flight
	// when one drain dispatches multiple groups).
	flushPool []*batchFlush

	// completion hook for tc.complete.
	completeSig *sim.Signal

	// GuestLog collects tc.log values (debugging aid).
	GuestLog []uint64

	// LastExecErr records the most recent guest execution error.
	LastExecErr error

	// LastDropErr records why the most recent undeliverable frame was
	// dropped.
	LastDropErr error

	// Stats.
	Stats RuntimeStats
}

// RuntimeStats aggregates runtime activity.
type RuntimeStats struct {
	IfuncsSent      uint64
	FullFrames      uint64
	TruncatedFrames uint64
	Executions      uint64
	ExecErrors      uint64
	DroppedFrames   uint64
	JITCompiles     uint64
	BinaryLoads     uint64
	GuestSends      uint64
	// Drains counts poll pickups handed to the runtime (each carries one
	// or more frames; see ucx.WorkerStats for frame totals).
	Drains uint64
	// GroupRuns counts (type, entry) execution groups dispatched from
	// drains — the unit that pays one registry lookup and one RunBatch.
	GroupRuns uint64
	// HashRefFrames counts sends shipped in hash-ref form: the code
	// section replaced by its content hash because the destination's
	// store already held the bytes pinned (delivered there by any peer,
	// possibly under a different type name).
	HashRefFrames uint64
	// CASTruncated counts truncated sends granted by the cluster-wide
	// negotiation (the type already registered at the destination by a
	// third party) rather than by this sender's own pairwise cache; they
	// are also counted in TruncatedFrames.
	CASTruncated uint64
	// ColdCodeBytes accumulates code-section bytes shipped in full
	// frames — the cluster-wide cold-send cost the content-addressed
	// negotiation exists to amortize.
	ColdCodeBytes uint64
	// WriteBackPutBytes is the PUT payload the pull route actually
	// transmitted (dirty segments + descriptors, or the whole region
	// when that is smaller); WriteBackFullBytes is what whole-region
	// write-back would have sent. Their ratio is the measured delta
	// write-back win.
	WriteBackPutBytes  uint64
	WriteBackFullBytes uint64
	// PullGetBytes is the GET response payload the pull route actually
	// fetched once the region cache negotiated (0 for an elided pull, the
	// chunk delta plus descriptors for a stale one, the whole region
	// otherwise); PullGetFullBytes is what whole-region GETs would have
	// fetched. Their ratio is the measured region-cache win, the pull
	// mirror of the write-back pair above.
	PullGetBytes     uint64
	PullGetFullBytes uint64
	// RegionElides counts pulls whose staged copy was current (the GET
	// elided entirely); RegionDeltaPulls counts stale pulls served by a
	// chunk-granular vectored GetV.
	RegionElides     uint64
	RegionDeltaPulls uint64
	// VerifyRejects counts wire-received modules the static verifier
	// rejected at admission (mcode.Verify): the frame is dropped (also
	// counted in DroppedFrames) before any runtime, session or store
	// state mutates, and the scan that rejected it is charged in virtual
	// time like any other compute.
	VerifyRejects uint64
}

func newRuntime(c *Cluster, node *fabric.Node, eng mcode.Engine) *Runtime {
	r := &Runtime{
		Cluster:     c,
		Node:        node,
		Engine:      eng,
		Loader:      linker.NewLoader(),
		Reg:         ifunc.NewRegistry(),
		Sent:        ifunc.NewSentCache(),
		MaxSteps:    1 << 24,
		handles:     make(map[string]*Handle),
		currentAMID: -1,
	}
	r.Worker = c.Ctx.NewWorker(node)
	r.Store = ifunc.NewStore(func() sim.Time { return r.eng().Now() })
	// Region version bumps for every NIC-side write (one-sided PUT/PutV
	// application, including guest write-backs): the observer runs inside
	// the write event, so bumps are deterministic, and the clock's empty
	// fast path keeps nodes that never serve pulls free of it.
	node.OnWrite = r.regionClock.TouchRange
	r.Session = jit.NewSession(node.March, r.Loader, r.allocGlobal)
	r.Session.Engine = eng
	r.payloadBuf = node.Alloc(payloadArena)
	r.heapKey = r.Worker.RegisterMem(0, uint64(len(node.Mem())))
	r.Worker.SetIfuncDrain(r.drainSink)
	r.installRuntimeLibs()
	return r
}

// eng returns this node's engine view. All runtime scheduling must go
// through it (not the cluster's root engine) so events carry the right
// domain key and shard routing under sharded execution.
func (r *Runtime) eng() *sim.Engine { return r.Node.Eng() }

// allocGlobal places a module global in node heap (JIT loader callback).
func (r *Runtime) allocGlobal(g ir.Global) uint64 {
	addr := r.Node.Alloc(g.Size)
	copy(r.Node.Mem()[addr:], g.Init)
	return addr
}

// ep returns (creating lazily) the endpoint to node dst.
func (r *Runtime) ep(dst int) *ucx.Endpoint {
	if r.eps == nil {
		r.eps = make([]*ucx.Endpoint, len(r.Cluster.Runtimes))
	}
	if r.eps[dst] == nil {
		r.eps[dst] = r.Worker.Connect(r.Cluster.Runtimes[dst].Worker)
	}
	return r.eps[dst]
}

// getFrameBuf pops a recycled frame buffer for destination dst (zero
// length, capacity from its previous use), or nil when the pool is
// empty — AppendBuild then allocates, and the buffer enters the pool
// when the receiver releases it.
func (r *Runtime) getFrameBuf(dst int) []byte {
	if r.framePool == nil {
		r.framePool = make([][][]byte, len(r.Cluster.Runtimes))
	}
	r.framePoolMu.Lock()
	p := r.framePool[dst]
	if n := len(p); n > 0 {
		b := p[n-1][:0]
		r.framePool[dst] = p[:n-1]
		r.framePoolMu.Unlock()
		return b
	}
	r.framePoolMu.Unlock()
	return nil
}

// frameRelease returns the (memoized, so sends stay allocation-free)
// release hook that returns a frame buffer to dst's pool. It is invoked
// by the receiving runtime once the frame bytes are dead — under sharded
// execution that can be a different shard's worker (a cross-shard quiet
// send), so the pool is mutex-guarded. Pool order only decides which
// buffer is reused, never any simulated outcome, so the cross-shard
// timing of releases cannot perturb results.
func (r *Runtime) frameRelease(dst int) ucx.FrameRelease {
	if r.frameRel == nil {
		r.frameRel = make([]ucx.FrameRelease, len(r.Cluster.Runtimes))
	}
	if r.frameRel[dst] == nil {
		r.frameRel[dst] = func(b []byte) {
			r.framePoolMu.Lock()
			r.framePool[dst] = append(r.framePool[dst], b)
			r.framePoolMu.Unlock()
		}
	}
	return r.frameRel[dst]
}

// Mem implements ir.Env.
func (r *Runtime) Mem() []byte { return r.Node.Mem() }

// GlobalAddr implements ir.Env (unused: machines resolve globals through
// patched GOTs, but the interface requires it).
func (r *Runtime) GlobalAddr(name string) (uint64, bool) {
	if a, ok := r.Loader.BindData(name); ok {
		return a, true
	}
	return 0, false
}

// CallExtern implements ir.Env (unused for lowered code; kept for
// interpreter-based debugging against a runtime node).
func (r *Runtime) CallExtern(sym string, args []uint64) (uint64, error) {
	if fn, ok := r.Loader.BindFunc(sym); ok {
		return fn(args)
	}
	return 0, fmt.Errorf("%w: %s", ir.ErrUnresolved, sym)
}

// SetCompletion installs a fresh completion signal and returns it; guest
// code fires it via the tc.complete intrinsic (how DAPC's ReturnResult
// notifies the waiting client).
func (r *Runtime) SetCompletion() *sim.Signal {
	r.completeSig = r.eng().NewSignal()
	return r.completeSig
}

// RegisterBitcode registers an ifunc library in bitcode form: the module
// is packed into a fat archive for the given target triples (the
// toolchain step of Figure 1).
func (r *Runtime) RegisterBitcode(name string, m *ir.Module, triples []isa.Triple) (*Handle, error) {
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	arch, err := bitcode.Pack(m, triples)
	if err != nil {
		return nil, err
	}
	raw, err := bitcode.EncodeArchive(arch)
	if err != nil {
		return nil, err
	}
	h := &Handle{
		Name: name, Hash: ifunc.NameHash(name), Kind: ifunc.KindBitcode,
		Module: m.Clone(), ArchiveBytes: raw,
	}
	h.index()
	r.installHandle(h)
	return h, nil
}

// RegisterArchive registers an ifunc library from serialized fat-bitcode
// archive bytes (toolchain output loaded from disk, Figure 1). The entry
// table comes from the archive entry matching the local triple.
func (r *Runtime) RegisterArchive(name string, raw []byte) (*Handle, error) {
	arch, err := bitcode.DecodeArchive(raw)
	if err != nil {
		return nil, err
	}
	mod, err := arch.Select(r.Node.March.Triple)
	if err != nil {
		// A source that cannot run the code itself can still ship it:
		// fall back to the first entry for the entry table.
		mod, err = bitcode.Decode(arch.Entries[0].Bitcode)
		if err != nil {
			return nil, err
		}
	}
	h := &Handle{
		Name: name, Hash: ifunc.NameHash(name), Kind: ifunc.KindBitcode,
		Module: mod, ArchiveBytes: raw,
	}
	h.index()
	r.installHandle(h)
	return h, nil
}

// RegisterBinary registers an ifunc library in binary form,
// cross-compiled for each provided micro-architecture (the §III-B
// workflow, including its pain: targets whose ISA is missing from marchs
// cannot be reached).
func (r *Runtime) RegisterBinary(name string, m *ir.Module, marchs []*isa.MicroArch) (*Handle, error) {
	if err := ir.Verify(m); err != nil {
		return nil, err
	}
	h := &Handle{
		Name: name, Hash: ifunc.NameHash(name), Kind: ifunc.KindBinary,
		Module: m.Clone(), Objects: make(map[isa.Arch][]byte),
	}
	for _, march := range marchs {
		cm, err := mcode.Lower(m, march)
		if err != nil {
			return nil, err
		}
		obj, err := elfx.Build(cm)
		if err != nil {
			return nil, err
		}
		h.Objects[march.Triple.Arch] = obj.Encode()
	}
	h.index()
	r.installHandle(h)
	return h, nil
}

// installHandle memoizes the handle's content hashes, pins its code
// into the local content-addressed store (so third parties can
// hash-ref-send this content here while the handle lives), and replaces
// any previous handle of the same name, releasing its pins.
func (r *Runtime) installHandle(h *Handle) {
	if old, ok := r.handles[h.Name]; ok {
		r.unpublishHandle(old)
	}
	if h.Kind == ifunc.KindBitcode {
		h.archiveHash = ifunc.ContentHash(h.ArchiveBytes)
		h.archiveKey = jit.HashKey(h.archiveHash)
		h.ArchiveBytes = r.Store.Intern(h.archiveHash, ifunc.BlobCode, h.ArchiveBytes, 1)
	} else {
		// Arch order is sorted: interning can evict, and the eviction log
		// must never depend on map iteration order.
		archs := make([]isa.Arch, 0, len(h.Objects))
		for arch := range h.Objects {
			archs = append(archs, arch)
		}
		sort.Slice(archs, func(i, j int) bool { return archs[i] < archs[j] })
		h.objectHash = make(map[isa.Arch]uint64, len(h.Objects))
		h.objectKey = make(map[isa.Arch]string, len(h.Objects))
		for _, arch := range archs {
			obj := h.Objects[arch]
			ch := ifunc.ContentHash(obj)
			h.objectHash[arch] = ch
			h.objectKey[arch] = jit.HashKey(ch)
			h.Objects[arch] = r.Store.Intern(ch, ifunc.BlobCode, obj, 1)
		}
	}
	r.handles[h.Name] = h
}

// unpublishHandle releases the store pins installHandle took. The
// content stays resident (budget permitting) for future dedup, but it
// stops counting as a "have" in peer negotiations — the refcount-routed
// invalidation that makes deregistration safe cluster-wide.
func (r *Runtime) unpublishHandle(h *Handle) {
	if h.Kind == ifunc.KindBitcode {
		r.Store.Unpin(h.archiveHash)
		return
	}
	// Unpin in sorted arch order: unpin sequence feeds the store's
	// eviction bookkeeping, and map order would leak host randomness
	// into it.
	archs := make([]int, 0, len(h.objectHash))
	for a := range h.objectHash { //repolint:allow maprange — key collection, sorted below
		archs = append(archs, int(a))
	}
	sort.Ints(archs)
	for _, a := range archs {
		r.Store.Unpin(h.objectHash[isa.Arch(a)])
	}
}

// index builds the entry table from the module's function order.
func (h *Handle) index() {
	h.entries = make(map[string]uint16, len(h.Module.Funcs))
	for i, f := range h.Module.Funcs {
		h.entries[f.Name] = uint16(i)
		h.names = append(h.names, f.Name)
	}
}

// Handle returns a previously registered handle.
func (r *Runtime) Handle(name string) (*Handle, error) {
	h, ok := r.handles[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoHandle, name)
	}
	return h, nil
}

// Deregister removes a source-side handle and invalidates the sent-cache
// for its type, so a re-registration ships fresh code to every peer.
// The paper ties compiled-code lifetime to registration: "the generated
// machine code ... stays alive until the ifunc is de-registered".
//
// Invalidation is routed through the store's refcounts, not just the
// pairwise cache: unpinning the handle's content is what stops *third
// parties* — whose pairwise caches this node cannot see — from
// truncated- or hash-ref-sending on the strength of a stale "have" for
// content this node no longer serves.
func (r *Runtime) Deregister(name string) error {
	h, ok := r.handles[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoHandle, name)
	}
	delete(r.handles, name)
	r.Sent.Forget(h.Hash)
	r.unpublishHandle(h)
	return nil
}

// DeregisterLocal drops a receiver-side registration: later truncated
// frames of the type are dropped (protocol violation) until a full frame
// re-registers it. The registration's store pin is released with it, so
// peers' content-addressed negotiation immediately stops seeing this
// node as a "have" for the module's bytes.
func (r *Runtime) DeregisterLocal(hash uint64) bool {
	reg, ok := r.Reg.Get(hash)
	if !ok {
		return false
	}
	r.Store.Unpin(reg.CodeHash)
	return r.Reg.Delete(hash)
}

// Send ships an ifunc message of type h to node dst, invoking entry fn
// with the payload. The returned signal fires with a ucx.Status once the
// frame has been handed to the target's polling loop (transport-level
// completion; use Observer or completion intrinsics for execution-level
// completion).
func (r *Runtime) Send(dst int, h *Handle, fn string, payload []byte) (*sim.Signal, error) {
	entry, err := h.EntryIndex(fn)
	if err != nil {
		return nil, err
	}
	frame, err := r.buildFrame(dst, h, entry, payload)
	if err != nil {
		return nil, err
	}
	r.Stats.IfuncsSent++
	return r.ep(dst).SendIfuncPooled(frame, r.frameRelease(dst)), nil
}

// SendQuiet is Send without a transport-completion signal: the warm
// streaming path for callers that drive the cluster to idle anyway
// (benchmarks, scenario drivers). Skipping the two per-message completion
// signals keeps the send path allocation-free; timing is identical.
func (r *Runtime) SendQuiet(dst int, h *Handle, fn string, payload []byte) error {
	entry, err := h.EntryIndex(fn)
	if err != nil {
		return err
	}
	frame, err := r.buildFrame(dst, h, entry, payload)
	if err != nil {
		return err
	}
	r.Stats.IfuncsSent++
	r.ep(dst).SendIfuncQuiet(frame, r.frameRelease(dst))
	return nil
}

// buildFrame encodes exactly the bytes the caching protocol transmits —
// the truncated form for cache hits (the code section is never even
// copied), the full frame otherwise — into a pooled per-destination
// buffer. The warm cached path allocates nothing: the buffer cycles back
// through the release hook once the receiver has consumed it.
//
// On a pairwise cold pair the cluster-wide negotiation consults the
// destination's state directly (see casPeer): if the type is already
// registered there (shipped by any peer, content matching), the frame
// truncates exactly as a pairwise hit would; if only the *content* is
// pinned there (same bytes under another type name), a hash-ref frame
// ships the content hash instead of the code section. Either way the
// pairwise cache is marked, so the cross-node read happens at most once
// per (destination, type) and the warm path stays untouched.
func (r *Runtime) buildFrame(dst int, h *Handle, entry uint16, payload []byte) ([]byte, error) {
	if len(payload) > payloadArena {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadPayload, len(payload))
	}
	var code []byte
	var ch uint64
	switch h.Kind {
	case ifunc.KindBitcode:
		code, ch = h.ArchiveBytes, h.archiveHash
	case ifunc.KindBinary:
		arch := r.Cluster.Runtimes[dst].Node.March.Triple.Arch
		obj, ok := h.Objects[arch]
		if !ok {
			return nil, fmt.Errorf("%w: %s for %s", ErrNoBinary, h.Name, arch)
		}
		code, ch = obj, h.objectHash[arch]
	}
	r.seq++
	hdr := ifunc.Header{
		Kind: h.Kind, NameHash: h.Hash, Entry: entry,
		SrcNode: uint16(r.Node.ID), Seq: r.seq,
	}
	buf := r.getFrameBuf(dst)
	if r.Sent.Seen(dst, h.Hash) && !r.DisableSendCache {
		r.Stats.TruncatedFrames++
		if r.Trace != nil {
			r.Trace.Instant(obs.TrackCore, "frame-trunc", r.eng().Now()).
				Arg("payload", uint64(len(payload))).Arg("dst", uint64(dst))
		}
		return ifunc.AppendTruncated(buf, hdr, payload), nil
	}
	if !r.DisableSendCache && ch != 0 {
		switch r.negotiate(dst, h.Hash, ch) {
		case casTruncate:
			r.Sent.Mark(dst, h.Hash)
			r.Stats.TruncatedFrames++
			r.Stats.CASTruncated++
			if r.Trace != nil {
				r.Trace.Instant(obs.TrackCore, "frame-trunc", r.eng().Now()).
					Arg("payload", uint64(len(payload))).Arg("dst", uint64(dst))
			}
			return ifunc.AppendTruncated(buf, hdr, payload), nil
		case casHashRef:
			r.Sent.Mark(dst, h.Hash)
			r.Stats.HashRefFrames++
			if r.Trace != nil {
				r.Trace.Instant(obs.TrackCore, "frame-hashref", r.eng().Now()).
					Arg("payload", uint64(len(payload))).Arg("dst", uint64(dst))
			}
			return ifunc.AppendHashRef(buf, hdr, payload, ch, len(code)), nil
		}
	}
	r.Sent.Mark(dst, h.Hash)
	r.Stats.FullFrames++
	r.Stats.ColdCodeBytes += uint64(len(code))
	if r.Trace != nil {
		r.Trace.Instant(obs.TrackCore, "frame-full", r.eng().Now()).
			Arg("code", uint64(len(code))).Arg("dst", uint64(dst))
	}
	return ifunc.AppendBuild(buf, hdr, payload, code), nil
}

// casVerdict is the outcome of the cluster-wide have/want negotiation.
type casVerdict uint8

const (
	casFull casVerdict = iota
	casTruncate
	casHashRef
)

// negotiate is the content-addressed have/want exchange for a pairwise
// cold (dst, type) pair. In a real deployment this is a hash announce
// piggybacked on the calibrated ops (the hash rides the frame the
// destination answers with its store state); in the simulation it is an
// omniscient virtual-time read of the destination's registry and store,
// the same gated pattern the placement planner's buildRequest uses. The
// verdict:
//
//   - casTruncate: dst has the type registered with matching content —
//     a plain truncated frame is decodable there.
//   - casHashRef: dst's store holds the content *pinned* (a live
//     registration or handle references it) under some other type — a
//     hash-ref frame resolves locally at dst. Unpinned (evictable)
//     residency deliberately does not count: eviction between the
//     negotiation and the delivery would otherwise drop the message.
//   - casFull: dst has neither; ship the code.
func (r *Runtime) negotiate(dst int, typeHash, contentHash uint64) casVerdict {
	peer := r.casPeer(dst)
	if peer == nil {
		return casFull
	}
	if reg, ok := peer.Reg.Get(typeHash); ok && reg.CodeHash == contentHash {
		return casTruncate
	}
	if peer.Store.HasPinned(contentHash) {
		return casHashRef
	}
	return casFull
}

// casPeer returns the destination runtime when the negotiation may read
// it: always under single-heap execution, and only for same-partition
// destinations under sharding (ScopeNodes, the same gate the planner's
// registry scan uses — cross-shard state must never be read mid-run).
// Out-of-scope destinations degrade to the pairwise protocol, keeping
// sharded runs bit-identical at every shard count. DisableCAS pins the
// pairwise baseline unconditionally.
func (r *Runtime) casPeer(dst int) *Runtime {
	if r.DisableCAS {
		return nil
	}
	if r.ScopeNodes != nil {
		in := false
		for _, n := range r.ScopeNodes {
			if n == dst {
				in = true
				break
			}
		}
		if !in {
			return nil
		}
	}
	return r.Cluster.Runtimes[dst]
}

// PredeployAM installs the module as an Active Message handler under
// amID — the paper's baseline mode where code is compiled and present on
// the target before any message flows. The AM header immediate selects
// the entry index.
func (r *Runtime) PredeployAM(amID uint32, name string, m *ir.Module) error {
	key := "am-" + name
	bc, err := bitcode.Encode(m)
	if err != nil {
		return err
	}
	c, _, _, err := r.Session.Compile(jit.CacheKey(bc), m)
	if err != nil {
		return err
	}
	reg := &ifunc.Registration{
		Name: name, Hash: ifunc.NameHash(key), Kind: ifunc.KindBitcode, Compiled: c,
	}
	for _, f := range m.Funcs {
		reg.EntryNames = append(reg.EntryNames, f.Name)
	}
	r.Worker.SetAMHandler(amID, func(src *ucx.Endpoint, header uint64, data []byte) {
		r.currentAMID = int32(amID)
		r.execute(reg, uint16(header), data)
		r.currentAMID = -1
	})
	return nil
}

// frameGroup is one (registration, entry) run of a drained batch: the
// frames of a drain that share a type and entry point, executed as one
// RunBatch after a single pre-run charge. Groups are pooled on the
// Runtime and released once their run has been dispatched.
type frameGroup struct {
	// r/runFn tie the group to its runtime with a memoized dispatch
	// body, so scheduling a group run allocates no per-drain closure.
	r     *Runtime
	runFn func()
	reg   *ifunc.Registration
	entry uint16
	// cost is the group's pre-run CPU charge: the one-time registration
	// (JIT or binary load) when the group's type was first seen in this
	// drain, one registry lookup otherwise.
	cost     sim.Time
	payloads [][]byte
	// frames retains the group's deliveries so their (sender-pooled)
	// buffers can be released once the run has consumed the payloads.
	frames []ucx.IfuncDelivery
}

// drainSink is the ifunc polling function: it receives every frame the
// poll picked up (already charged for NIC + pickup by the UCX layer) and
// drives the decode → register → run pipeline. Decode parses and drops
// malformed frames; register resolves each type once — registering
// unseen types from full frames — and groups frames by (type, entry);
// run dispatches each group as one RunBatch on the registration's
// machine. Grouping is what amortizes header decode, registry lookup and
// execution setup over message bursts, the per-message software overhead
// the paper's Tables IV-VI message rates are dominated by.
//
// Ordering contract: frames of one (type, entry) always execute in
// arrival order, but interleaved frames of *different* types within one
// drain are reordered by the grouping (A1 B1 A2 runs as A1 A2 B1), and
// groups themselves run cheapest first — ordered by the registration's
// measured mean steps per message (shortest-job-first, which minimizes
// mean message latency within the drain), with ties and unmeasured types
// in first-arrival order and never-executed types last (they also carry
// the registration charge). Cooperating ifunc types that need cross-type
// FIFO within a burst should pin Worker.MaxDrain = 1, which restores
// strict per-message delivery (a one-frame drain has one group, so the
// cost-aware order is vacuous on the paper-fidelity path).
func (r *Runtime) drainSink(batch []ucx.IfuncDelivery) {
	r.Stats.Drains++
	groups := r.groupFrames(batch)
	orderGroupsByCost(groups)
	for _, g := range groups {
		r.Stats.GroupRuns++
		r.Node.ExecCPU(g.cost, g.runFn)
	}
}

// estSteps is the group's per-message cost estimate: the decayed mean
// dynamic step count of its registration (Registration.MeanSteps — the
// same signal the placement planner's cost model prices). Types with no
// execution history (including ones registered in this very drain)
// estimate as +inf and run last.
func (g *frameGroup) estSteps() float64 {
	mean, ok := g.reg.MeanSteps()
	if !ok {
		return math.MaxFloat64
	}
	return mean
}

// orderGroupsByCost sorts a drain's groups cheapest-estimate first.
// Insertion sort: drains hold a handful of groups, the sort is stable
// (ties keep first-arrival order) and allocation-free.
func orderGroupsByCost(groups []*frameGroup) {
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		e := g.estSteps()
		j := i
		for j > 0 && groups[j-1].estSteps() > e {
			groups[j] = groups[j-1]
			j--
		}
		groups[j] = g
	}
}

// groupFrames is the decode + register stage: it parses every frame of
// the drain, resolves (registering if needed) each frame's type, and
// partitions the runnable frames into (type, entry) groups, preserving
// arrival order within a group. The returned slice is reused across
// drains; the group objects stay live until their run dispatches.
func (r *Runtime) groupFrames(batch []ucx.IfuncDelivery) []*frameGroup {
	r.groups = r.groups[:0]
	// One stack frame struct decodes every delivery in place (ParseInto):
	// the warm decode stage allocates nothing.
	var f ifunc.Frame
	// A dropped frame never reaches execution: fail the oldest watch of
	// its type (if any) so a stream waiting on it completes instead of
	// hanging with the destination marked busy. Malformed frames carry
	// no trustworthy hash and pass 0 (an internally-built stream frame
	// cannot be malformed, so no watch can be waiting on one).
	drop := func(i int, hash uint64, err error) {
		r.Stats.DroppedFrames++
		r.LastDropErr = err
		if batch[i].Release != nil {
			batch[i].Release(batch[i].Frame)
		}
		if hash != 0 {
			r.failExecWatches(hash, 1)
		}
	}
	for i := range batch {
		if err := f.ParseInto(batch[i].Frame); err != nil {
			// Malformed frames are dropped and counted; a production
			// runtime would log them.
			drop(i, 0, err)
			continue
		}
		// Batches are a handful of frames of very few types, so a linear
		// scan beats a map (and allocates nothing).
		joined := false
		for _, g := range r.groups {
			if g.reg.Hash == f.NameHash && g.entry == f.Entry {
				g.payloads = append(g.payloads, f.Payload)
				g.frames = append(g.frames, batch[i])
				joined = true
				break
			}
		}
		if joined {
			continue
		}
		reg, known := r.Reg.Get(f.NameHash)
		cost := jit.LookupCost
		if !known {
			if f.HashRef {
				// Hash-ref frame: resolve the code section from the local
				// content-addressed store (the sender verified residency at
				// negotiation time; a miss here means the content was
				// unpinned and evicted in flight — protocol violation,
				// dropped like a stale truncated frame).
				blob, ok := r.Store.Get(f.CodeHash)
				if !ok || len(blob) != int(f.CodeLen) {
					drop(i, f.NameHash, fmt.Errorf("%w: hash-ref %016x not in store", ErrNotRunnable, f.CodeHash))
					continue
				}
				f.Code = blob
			}
			if f.Code == nil {
				// Truncated frame for an unknown type: protocol violation
				// (sender cache out of sync, e.g. after local
				// deregistration).
				drop(i, f.NameHash, fmt.Errorf("%w: type %016x", ErrNotRunnable, f.NameHash))
				continue
			}
			var err error
			reg, cost, err = r.registerFromWire(&f)
			if err != nil {
				drop(i, f.NameHash, err)
				continue
			}
		}
		g := r.acquireGroup()
		g.reg, g.entry, g.cost = reg, f.Entry, cost
		g.payloads = append(g.payloads, f.Payload)
		g.frames = append(g.frames, batch[i])
		r.groups = append(r.groups, g)
	}
	return r.groups
}

// acquireGroup pops a recycled group (or allocates the pool's next one).
func (r *Runtime) acquireGroup() *frameGroup {
	if n := len(r.groupPool); n > 0 {
		g := r.groupPool[n-1]
		r.groupPool = r.groupPool[:n-1]
		return g
	}
	g := &frameGroup{r: r}
	g.runFn = g.run
	return g
}

// run executes the group and recycles it (the memoized ExecCPU body).
func (g *frameGroup) run() {
	g.r.executeBatch(g.reg, g.entry, g.payloads)
	g.r.releaseGroup(g)
}

// releaseGroup returns a dispatched group to the pool, releasing the
// consumed frame buffers back to their sender pools and dropping all
// frame references so a burst's buffers do not stay pinned by pool
// capacity.
func (r *Runtime) releaseGroup(g *frameGroup) {
	g.reg = nil
	for i := range g.payloads {
		g.payloads[i] = nil
	}
	g.payloads = g.payloads[:0]
	for i := range g.frames {
		if g.frames[i].Release != nil {
			g.frames[i].Release(g.frames[i].Frame)
		}
		g.frames[i] = ucx.IfuncDelivery{}
	}
	g.frames = g.frames[:0]
	r.groupPool = append(r.groupPool, g)
}

// verifyScanPerInstr is the modeled virtual-time cost per instruction
// of the static verifier's linear scan over a binary module — the
// charge a rejected binary admission pays (accepted modules fold the
// scan into the calibrated load/JIT cost they already pay).
const verifyScanPerInstr = 2 * sim.Nanosecond

// registerFromWire registers an unseen ifunc type from a full (or
// store-resolved hash-ref) frame, returning the registration and the
// virtual time the registration step costs (JIT compile for bitcode,
// load+GOT-patch for binary). The code section is interned through the
// content-addressed store — the copy out of the (recycled) frame buffer
// is paid once per distinct module on this node, re-registrations and
// identical modules under different type names share one pinned buffer,
// and hash collisions degrade to a fresh copy (never to wrong code).
func (r *Runtime) registerFromWire(f *ifunc.Frame) (*ifunc.Registration, sim.Time, error) {
	ch := ifunc.ContentHash(f.Code)
	code := r.Store.Intern(ch, ifunc.BlobCode, f.Code, 1)
	reg := &ifunc.Registration{
		Name:      fmt.Sprintf("wire-%016x", f.NameHash),
		Hash:      f.NameHash,
		Kind:      f.Kind,
		CodeBytes: code,
		CodeHash:  ch,
	}
	// A failed registration must release the pin Intern just took, or the
	// broken content would count as a "have" forever.
	fail := func(err error) (*ifunc.Registration, sim.Time, error) {
		r.Store.Unpin(ch)
		return nil, 0, err
	}
	// A verifier rejection is a first-class admission outcome, not just a
	// failure: it is counted, traced and charged in virtual time (the
	// static scan ran on this core before it said no), and then takes the
	// ordinary fail path — pin released, nothing registered or cached.
	// Accepted modules pay nothing extra here: their verification is
	// folded into the calibrated JIT/load charge they already pay.
	reject := func(vcost sim.Time, err error) (*ifunc.Registration, sim.Time, error) {
		r.Stats.VerifyRejects++
		if r.Trace != nil {
			r.Trace.Instant(obs.TrackCore, "verify-reject", r.eng().Now()).
				Arg("hash", f.NameHash).Arg("cost_ps", uint64(vcost))
		}
		r.Node.ExecCPU(vcost, func() {})
		return fail(err)
	}
	var cost sim.Time
	switch f.Kind {
	case ifunc.KindBitcode:
		arch, err := bitcode.DecodeArchive(code)
		if err != nil {
			return fail(err)
		}
		mod, err := arch.Select(r.Node.March.Triple)
		if err != nil {
			return fail(err)
		}
		c, jc, _, err := r.Session.Compile(jit.CacheKey(code), mod)
		if errors.Is(err, mcode.ErrVerify) {
			// The JIT ran its front half (parse, optimize, lower) before
			// the verifier said no: charge the full compile estimate.
			return reject(r.Session.CompileCost(mod), err)
		}
		if err != nil {
			return fail(err)
		}
		cost = jc
		reg.Compiled = c
		for _, fn := range mod.Funcs {
			reg.EntryNames = append(reg.EntryNames, fn.Name)
		}
		r.Stats.JITCompiles++
	case ifunc.KindBinary:
		obj, err := elfx.Decode(code)
		if err != nil {
			return fail(err)
		}
		cm, err := obj.ToCompiled(r.Node.March.Triple.Arch)
		if err != nil {
			return fail(err)
		}
		c, lc, _, err := r.Session.LoadBinary(jit.CacheKey(code), cm)
		if errors.Is(err, mcode.ErrVerify) {
			// Binary admission pays a linear scan of the instructions.
			return reject(sim.Time(cm.NumInstrs()+1)*verifyScanPerInstr, err)
		}
		if err != nil {
			return fail(err)
		}
		cost = lc
		reg.Compiled = c
		for _, fn := range cm.Funcs {
			reg.EntryNames = append(reg.EntryNames, fn.Name)
		}
		r.Stats.BinaryLoads++
	default:
		return fail(fmt.Errorf("%w: kind %d", ifunc.ErrBadFrame, f.Kind))
	}
	if old, ok := r.Reg.Get(reg.Hash); ok {
		// Replacing a registration of the same type releases its pin.
		r.Store.Unpin(old.CodeHash)
	}
	r.Reg.Put(reg)
	return reg, cost, nil
}

// execute runs a single entry invocation (the AM transport path and any
// other one-message caller) through the batch run stage.
func (r *Runtime) execute(reg *ifunc.Registration, entry uint16, payload []byte) {
	r.onePayload[0] = payload
	r.executeBatch(reg, entry, r.onePayload[:])
	r.onePayload[0] = nil
}

// executeBatch runs a group against the node's own target pointer (the
// delivery path; the placement planner's pull/local routes substitute a
// request-specific region via executeBatchAt).
func (r *Runtime) executeBatch(reg *ifunc.Registration, entry uint16, payloads [][]byte) {
	r.executeBatchAt(reg, entry, payloads, r.TargetPtr)
}

// executeBatchAt is the run stage: it executes one (registration, entry)
// group of payloads as a single Machine.RunBatch with target as the
// entries' third argument, charging the batch's total dynamic cost as
// one virtual-time block and flushing guest-issued communication at the
// batch completion time. Entry resolution, machine setup and
// payload-arena staging happen once per group instead of once per
// message; per-element observables (fresh MaxSteps budget, errors,
// observer callbacks) keep the exact semantics of one-at-a-time
// delivery, which the engine differential tests pin bit for bit.
func (r *Runtime) executeBatchAt(reg *ifunc.Registration, entry uint16, payloads [][]byte, target uint64) {
	entryName, err := reg.EntryName(entry)
	if err != nil {
		r.LastExecErr = fmt.Errorf("core: %s: %w", reg.Name, err)
		r.Stats.ExecErrors += uint64(len(payloads))
		r.failExecWatches(reg.Hash, len(payloads))
		return
	}

	// One machine per registration, created on first execution and
	// reused for every later message of the type: the register files and
	// frames it pools keep the per-message hot path allocation-free.
	ma := reg.Machine
	if ma == nil {
		stackBase, stackSize := r.Node.StackRegion()
		ma, err = mcode.NewMachineArt(reg.Compiled.Art, r, reg.Compiled.Link, ir.ExecLimits{
			MaxSteps: r.MaxSteps, StackBase: stackBase, StackSize: stackSize,
		})
		if err != nil {
			r.LastExecErr = fmt.Errorf("core: %s: %w", reg.Name, err)
			r.Stats.ExecErrors += uint64(len(payloads))
			r.failExecWatches(reg.Hash, len(payloads))
			return
		}
		reg.Machine = ma
	}
	if r.MaxSteps > 0 {
		ma.Limits.MaxSteps = r.MaxSteps // track runtime-level changes
	}
	ma.Reset()
	r.current = reg
	r.pendingSends = r.pendingSends[:0]
	r.pendingAMs = r.pendingAMs[:0]
	r.pendingPuts = r.pendingPuts[:0]
	r.pendingDone = r.pendingDone[:0]

	n := len(payloads)
	if cap(r.batchOut) < n {
		r.batchOut = make([]mcode.BatchResult, n)
		r.argvFlat = make([]uint64, 3*n)
		r.argvBuf = make([][]uint64, n)
	}
	out := r.batchOut[:n]
	argvs := r.argvBuf[:n]

	// Stage payloads into the arena at distinct 8-byte-aligned offsets
	// and run every chunk that fits (chunking only triggers when a batch's
	// payloads outgrow the arena; each individual payload fits by the
	// Send-side size check).
	mem := r.Node.Mem()
	ran := 0
	var batchErr error
	for ran < n {
		off := uint64(0)
		j := ran
		for j < n {
			sz := (uint64(len(payloads[j])) + 7) &^ 7
			if off+sz > payloadArena && j > ran {
				break
			}
			copy(mem[r.payloadBuf+off:], payloads[j])
			argv := r.argvFlat[3*j : 3*j+3]
			argv[0] = r.payloadBuf + off
			argv[1] = uint64(len(payloads[j]))
			argv[2] = target
			argvs[j] = argv
			off += sz
			j++
		}
		if batchErr = ma.RunBatch(entryName, argvs[ran:j], out[ran:j]); batchErr != nil {
			break
		}
		ran = j
	}
	r.current = nil

	// Guest stores land during RunBatch (memory effects are immediate),
	// so tracked regions containing the batch's target are versioned now,
	// before any later virtual-time validity peek. Point containment is
	// conservative — a read-only batch bumps too — which is safe: the
	// puller's chunk diff revalidates, and an unchanged region diffs to
	// zero stale chunks (version refresh at no wire cost).
	if !r.regionClock.Empty() {
		r.regionClock.TouchPoint(target)
	}

	reg.ObserveExec(uint64(n), uint64(ma.Steps()))
	r.Stats.Executions += uint64(n)
	for k := 0; k < ran; k++ {
		if out[k].Err != nil {
			r.LastExecErr = fmt.Errorf("core: %s.%s: %w", reg.Name, entryName, out[k].Err)
			r.Stats.ExecErrors++
		}
	}
	if batchErr != nil {
		// Batch-level failures (arity mismatch) apply to every element
		// that did not run.
		r.LastExecErr = fmt.Errorf("core: %s.%s: %w", reg.Name, entryName, batchErr)
		r.Stats.ExecErrors += uint64(n - ran)
	}

	// Snapshot everything the completion-time flush needs into a pooled
	// carrier (several flushes can be in flight when one drain dispatches
	// multiple groups, so the carriers are pooled, not a single slot).
	// The carrier's slices and its memoized event body are recycled with
	// it: a warm-path batch flush allocates nothing.
	fl := r.acquireFlush()
	fl.reg, fl.entryName, fl.amID = reg, entryName, r.currentAMID
	fl.sends = append(fl.sends[:0], r.pendingSends...)
	fl.ams = append(fl.ams[:0], r.pendingAMs...)
	fl.puts = append(fl.puts[:0], r.pendingPuts...)
	fl.dones = append(fl.dones[:0], r.pendingDone...)

	// Values for the observer, snapshotted before the reusable result
	// buffer is handed to the next group (only charged when an observer
	// is installed).
	if r.Observer != nil {
		for k := 0; k < ran; k++ {
			if out[k].Err == nil {
				fl.obsVals = append(fl.obsVals, out[k].Value)
			}
		}
	}

	// Execution watches: matched synchronously (in execution order, so
	// FIFO per type holds across groups) but fired at the completion
	// time below, when the batch's memory effects are modeled settled.
	// Elements that errored or never ran (a batch-level failure) fire
	// their watch with 0, so a stream waiting on the execution always
	// completes and reads the error from LastExecErr. The hot delivery
	// path never pays for this — the slice is empty unless an offload
	// stream is in flight.
	if len(r.execWatches) > 0 {
		for k := 0; k < n; k++ {
			sig := r.takeExecWatch(reg.Hash)
			if sig == nil {
				break
			}
			var v uint64
			if k < ran && out[k].Err == nil {
				v = out[k].Value
			}
			fl.watchSigs = append(fl.watchSigs, sig)
			fl.watchVals = append(fl.watchVals, v)
		}
	}

	// Charge the dynamic cost of the executed instructions, then flush
	// buffered guest communication at the completion time.
	mult := r.ExecCostMultiplier
	if mult <= 0 {
		mult = 1
	}
	cost := sim.FromSeconds(mcode.Seconds(&ma.Counts, r.Node.March) * mult)
	if r.Trace != nil {
		// The span covers the core occupancy this charge models: ExecCPU
		// queues behind whatever the core is already doing, so the span
		// starts at the core-free time, not now.
		r.Trace.Span(obs.TrackCore, "execute", r.Node.CPUFreeAt(), cost).
			Arg("msgs", uint64(n)).Label(reg.Name)
	}
	r.Node.ExecCPU(cost, fl.fn)
}

// batchFlush carries one batch's buffered guest communication and
// completion observables from execution time to completion time. It is
// pooled per runtime; fn memoizes the run method so the completion event
// is closure-free.
type batchFlush struct {
	r         *Runtime
	fn        func()
	reg       *ifunc.Registration
	entryName string
	amID      int32
	sends     []pendingSend
	ams       []pendingAM
	puts      []pendingPut
	dones     []uint64
	obsVals   []uint64
	watchSigs []*sim.Signal
	watchVals []uint64
}

// acquireFlush pops a recycled flush carrier (or allocates one).
func (r *Runtime) acquireFlush() *batchFlush {
	if n := len(r.flushPool); n > 0 {
		fl := r.flushPool[n-1]
		r.flushPool = r.flushPool[:n-1]
		return fl
	}
	fl := &batchFlush{r: r}
	fl.fn = fl.run
	return fl
}

// run is the completion-time flush (the memoized ExecCPU body).
func (fl *batchFlush) run() {
	r := fl.r
	for _, ps := range fl.sends {
		r.Stats.IfuncsSent++
		r.Stats.GuestSends++
		// Guest sends never observe transport completion; the quiet
		// path skips the per-message completion signals entirely.
		r.ep(ps.dst).SendIfuncQuiet(ps.frame, r.frameRelease(ps.dst))
	}
	for _, pa := range fl.ams {
		r.Stats.IfuncsSent++
		r.Stats.GuestSends++
		r.ep(pa.dst).SendAM(uint32(fl.amID), uint64(pa.entry), pa.payload)
	}
	for _, pp := range fl.puts {
		r.ep(pp.dst).Put(pp.data, pp.addr, r.heapKeys[pp.dst])
	}
	for _, v := range fl.dones {
		if r.completeSig != nil && !r.completeSig.Fired() {
			r.completeSig.Fire(v)
		}
	}
	if r.Observer != nil {
		for _, v := range fl.obsVals {
			r.Observer(fl.reg.Name, fl.entryName, v, r.eng().Now())
		}
	}
	for i, sig := range fl.watchSigs {
		sig.Fire(fl.watchVals[i])
	}
	// Recycle: drop every reference so pooled carriers pin nothing.
	fl.reg = nil
	fl.entryName = ""
	for i := range fl.sends {
		fl.sends[i] = pendingSend{}
	}
	fl.sends = fl.sends[:0]
	for i := range fl.ams {
		fl.ams[i] = pendingAM{}
	}
	fl.ams = fl.ams[:0]
	for i := range fl.puts {
		fl.puts[i] = pendingPut{}
	}
	fl.puts = fl.puts[:0]
	fl.dones = fl.dones[:0]
	fl.obsVals = fl.obsVals[:0]
	for i := range fl.watchSigs {
		fl.watchSigs[i] = nil
	}
	fl.watchSigs = fl.watchSigs[:0]
	fl.watchVals = fl.watchVals[:0]
	r.flushPool = append(r.flushPool, fl)
}

// watchNextExec registers a one-shot execution watch: the returned
// signal fires with the kernel's return value once this node's next
// execution of type hash has completed (memory effects settled, dynamic
// cost charged). Watches of one type are consumed FIFO, so a caller that
// serializes its own requests per type can attribute each fire to one
// request; concurrent foreign traffic of the same type on the same node
// would race the attribution and is the caller's responsibility to
// exclude.
func (r *Runtime) watchNextExec(hash uint64) *sim.Signal {
	sig := r.eng().NewSignal()
	r.execWatches = append(r.execWatches, execWatch{hash: hash, sig: sig})
	return sig
}

// takeExecWatch removes and returns the oldest watch for hash (nil if
// none), preserving the order of the remaining watches.
func (r *Runtime) takeExecWatch(hash uint64) *sim.Signal {
	for i, w := range r.execWatches {
		if w.hash == hash {
			sig := w.sig
			r.execWatches = append(r.execWatches[:i], r.execWatches[i+1:]...)
			return sig
		}
	}
	return nil
}

// failExecWatches fires up to n pending watches for hash with value 0 —
// the execution they were waiting for failed before producing results.
// Without this, a failed execution would strand its watch (stalling the
// stream that owns it) and leave it to mis-attribute a later execution
// of the same type.
func (r *Runtime) failExecWatches(hash uint64, n int) {
	for ; n > 0; n-- {
		sig := r.takeExecWatch(hash)
		if sig == nil {
			return
		}
		sig.Fire(0)
	}
}

// execWatch is one pending watchNextExec registration.
type execWatch struct {
	hash uint64
	sig  *sim.Signal
}

// Package threechains is a pure-Go reproduction of "Bring the BitCODE —
// Moving Compute and Data in Distributed Heterogeneous Systems" (IEEE
// CLUSTER 2022): the Three-Chains framework for moving code and data
// between processing elements of a distributed heterogeneous system.
//
// The package is a facade over the implementation packages in internal/:
//
//   - internal/ir, internal/passes, internal/bitcode — the portable IR,
//     its optimizer and the (fat-)bitcode wire format (the LLVM analogue);
//   - internal/mcode, internal/jit, internal/linker, internal/elfx — the
//     per-µarch backend with two execution engines (the default
//     superblock-compiled backend and the reference switch interpreter,
//     selectable per node — see EngineSuperblock/EngineInterp),
//     ORC-style JIT sessions, remote dynamic linking and the ELF-like
//     binary ifunc container;
//   - internal/sim, internal/fabric, internal/ucx — the deterministic
//     discrete-event RDMA fabric and a UCP-flavoured communication API;
//   - internal/core — the Three-Chains runtime (ifunc registration, the
//     caching protocol, recursive injection, X-RDMA operations);
//   - internal/minilang — a Julia-like frontend (the GPUCompiler.jl
//     integration analogue);
//   - internal/testbed, internal/bench — calibrated models of the paper's
//     Ookami and Thor testbeds plus the full §V evaluation harness.
//
// # Quick start
//
//	cl := threechains.NewCluster(threechains.ThorXeon())          // 2 nodes
//	src, dst := cl.Runtime(0), cl.Runtime(1)
//	counter := dst.Node.Alloc(8)
//	dst.TargetPtr = counter
//
//	h, _ := src.RegisterBitcode("tsi", threechains.BuildTSI(), threechains.PaperTriples())
//	src.Send(1, h, "main", []byte{0})                             // moves code + data
//	cl.Run()                                                      // drive virtual time
//
// The first Send ships a fat-bitcode archive that the destination
// JIT-compiles for its own micro-architecture; later sends of the same
// type are truncated to 26 bytes by the transparent code cache.
package threechains

import (
	"runtime"

	"threechains/internal/bench"
	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/minilang"
	"threechains/internal/obs"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
)

// Execution engines (pluggable per node). Every node runs delivered
// ifuncs through an execution engine chosen by name via NodeSpec.Engine
// or Profile.Engine:
//
//   - EngineSuperblock (default): the compiled backend. At JIT time each
//     instruction becomes a Go closure with operands and branch targets
//     resolved once, and basic blocks merge into extended basic blocks
//     (superblocks) — unconditional chains flattened into one dispatch
//     unit, loops run as native Go loops, and wide superinstruction
//     fusion (load+op+store, read-modify-write kernels, counted-loop
//     back edges) — so a whole loop iteration or a whole tiny message
//     kernel costs a handful of indirect calls. The fast path for heavy
//     per-message traffic.
//   - EngineInterp: the reference switch interpreter — the semantic
//     oracle the compiled engine is differentially tested against.
//
// Both engines produce bit-identical results, operation counts and
// virtual-time charges, so simulated metrics never depend on the engine;
// only host wall-clock speed does.
//
// Delivery is batch-aware regardless of engine: each ifunc poll drains
// every frame queued for the node (one poll charge plus a per-frame
// pickup), and the runtime groups the drained frames by (type, entry) so
// registry lookup, payload staging and execution setup are paid once per
// group (executed as one Machine.RunBatch). Pin ucx.Worker.MaxDrain to 1
// to reproduce the paper's one-message-per-poll runtime.
const (
	EngineSuperblock = mcode.EngineNameSuperblock
	EngineInterp     = mcode.EngineNameInterp
)

// Core runtime types.
type (
	// Cluster is a simulated Three-Chains deployment.
	Cluster = core.Cluster
	// Runtime is the per-node Three-Chains runtime.
	Runtime = core.Runtime
	// Handle is a registered ifunc library on the source side.
	Handle = core.Handle
	// NodeSpec describes one node of a custom cluster.
	NodeSpec = core.NodeSpec
	// Profile is a calibrated testbed configuration.
	Profile = testbed.Profile
	// Module is a portable IR module (an ifunc library before packing).
	Module = ir.Module
	// Builder constructs IR modules through the low-level "C path".
	Builder = ir.Builder
	// MicroArch describes a CPU micro-architecture.
	MicroArch = isa.MicroArch
	// Triple is an LLVM-style target triple.
	Triple = isa.Triple
	// Time is virtual simulation time (picoseconds).
	Time = sim.Time
	// IRType is an IR value type for the builder path.
	IRType = ir.Type
	// CompiledModule is a lowered (machine-code-level) module — what the
	// wire actually carries for binary ifuncs and what the verifier
	// checks.
	CompiledModule = mcode.CompiledModule
	// ModuleFacts carries the static verifier's proven per-function
	// dataflow facts (reachability, bounds proofs, step bounds).
	ModuleFacts = mcode.ModuleFacts
)

// ErrVerify is the static verifier's rejection class: every module the
// admission path refuses wraps it (errors.Is-matchable), and a cluster
// counts such refusals in RuntimeStats.VerifyRejects.
var ErrVerify = mcode.ErrVerify

// VerifyModule runs the static verifier over a lowered module and
// returns its proven dataflow facts. The same pass gates every
// wire-received module before registration (a rejected module mutates no
// runtime, session or store state); calling it directly is useful for
// validating hand-built binary modules before shipping them.
func VerifyModule(cm *CompiledModule) (*ModuleFacts, error) { return mcode.Verify(cm) }

// LowerModule compiles an IR module to machine code for one
// micro-architecture — the form VerifyModule checks and binary ifuncs
// ship (profiles expose their endpoint µarch via Profile.March).
func LowerModule(m *Module, march *MicroArch) (*CompiledModule, error) {
	return mcode.Lower(m, march)
}

// IR value types for the builder path.
const (
	I8  = ir.I8
	I16 = ir.I16
	I32 = ir.I32
	I64 = ir.I64
	F32 = ir.F32
	F64 = ir.F64
	Ptr = ir.Ptr
)

// Testbed profiles (§IV-F).
var (
	// Ookami is the Fujitsu A64FX InfiniBand cluster.
	Ookami = testbed.Ookami
	// ThorXeon is the Thor cluster with Xeon endpoints.
	ThorXeon = testbed.ThorXeon
	// ThorBF2 is the Thor cluster with BlueField-2 DPU endpoints.
	ThorBF2 = testbed.ThorBF2
	// ThorMixed is a Xeon client with BlueField-2 servers.
	ThorMixed = testbed.ThorMixed
)

// NewCluster builds a two-node cluster on a testbed profile — the common
// case for microbenchmarks and examples. Use NewClusterN for more nodes
// or core.NewCluster for full control.
func NewCluster(p Profile) *Cluster { return NewClusterN(p, 2) }

// NewClusterN builds an n-node homogeneous cluster on a testbed profile,
// with UCX worker costs configured from the profile's calibration.
func NewClusterN(p Profile, n int) *Cluster {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Name: p.Name, March: p.March(), Engine: p.Engine}
	}
	cl := core.NewCluster(p.Net, specs)
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
	}
	return cl
}

// NewShardedClusterN builds an n-node homogeneous cluster on a sharded
// simulation engine: node i's events run on shard shardOf(i) (nil maps
// contiguous blocks of n/shards nodes per shard), shards execute on
// parallel Go workers, and cross-shard fabric sends synchronize through
// the engine's conservative LogGP horizon. Results are bit-identical to
// NewClusterN at every shard count (the differential suites pin this);
// only host wall-clock changes. Nodes that share non-fabric state —
// completion signals, offload streams, planner registry scans (see
// Runtime.ScopeNodes) — must map to one shard.
func NewShardedClusterN(p Profile, n, shards int, shardOf func(node int) int) *Cluster {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Name: p.Name, March: p.March(), Engine: p.Engine}
	}
	if shardOf == nil && shards > 1 {
		per := (n + shards - 1) / shards
		shardOf = func(node int) int { return node / per }
	}
	cl := core.NewShardedCluster(p.Net, specs, shards, shardOf)
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
	}
	return cl
}

// Compute/data placement (internal/place). Runtime.Offload routes each
// request — ship the BitCODE to the data (the paper's mechanism), pull
// the operand region to the compute (one-sided GET + local execution +
// optional put-back), or run in place — under one of these policies.
// PolicyCostModel prices the routes per request from the calibrated
// fabric/µarch/registration state and the decayed per-type step
// estimates; PolicyCostModelQueue additionally tracks per-resource
// busy-until horizons from its own issued decisions, so pipelined
// offload streams (Runtime.StartOffloadStream) load-balance across
// ship/pull/local instead of herd-routing to the zero-load optimum.
// Decisions are deterministic and engine-invariant, and all policies
// produce bit-identical execution results (differentially tested).
const (
	PolicyCostModel      = place.PolicyCostModel
	PolicyShipCode       = place.PolicyShipCode
	PolicyPullData       = place.PolicyPullData
	PolicyLocal          = place.PolicyLocal
	PolicyCostModelQueue = place.PolicyCostModelQueue
)

// CacheLevel orders how much of the caching protocol a runtime uses
// (Runtime.Cache): full frames only, the paper's pairwise sent-cache,
// plus the cluster-wide content-addressed negotiation, plus the
// data-region cache. The zero value, CacheRegions, is every layer on.
type CacheLevel = core.CacheLevel

// Cache levels, in increasing order.
const (
	CacheNone     = core.CacheNone
	CachePairwise = core.CachePairwise
	CacheCAS      = core.CacheCAS
	CacheRegions  = core.CacheRegions
)

// Placement types: offload options, the planner's policy/decision
// vocabulary, and the seeded workload scenario generator.
type (
	// OffloadOpts parameterizes Runtime.Offload (policy + operand region).
	OffloadOpts = core.OffloadOpts
	// PlacementPolicy selects an offload routing policy.
	PlacementPolicy = place.Policy
	// WorkloadParams seeds a generated placement scenario.
	WorkloadParams = place.WorkloadParams
	// Workload is a generated placement scenario description.
	Workload = place.Workload
	// PlacementResult is one scenario row of the placement policy sweep.
	PlacementResult = bench.PlacementResult
	// StreamOp is one request of a windowed offload stream.
	StreamOp = core.StreamOp
	// OffloadStream is an in-flight windowed offload stream
	// (Runtime.StartOffloadStream): up to W requests in flight, requests
	// to one destination serialized in issue order.
	OffloadStream = core.OffloadStream
	// ScaleParams seeds a grouped scale scenario (independent node
	// groups — the sharding atom — each with its own driver and stream).
	ScaleParams = place.ScaleParams
	// ScaleWorkload is a generated grouped scale scenario.
	ScaleWorkload = place.ScaleWorkload
	// ScaleScenario names one grouped scale workload of the scale sweep.
	ScaleScenario = bench.ScaleScenario
	// ScaleResult is one scenario row of the shard-count scaling sweep.
	ScaleResult = bench.ScaleResult
	// RegionCacheResult is one (region size, dirty span) row of the
	// data-region cache sweep.
	RegionCacheResult = bench.RegionCacheResult
	// RegionCachePoint is one cache mode's outcome on a repeat-pull
	// scenario of the region-cache sweep.
	RegionCachePoint = bench.RegionCachePoint
)

// GenerateWorkload builds the deterministic scenario for the params
// (same seed, same workload, on every host).
func GenerateWorkload(p WorkloadParams) *Workload { return place.Generate(p) }

// PlacementSweep runs the default placement scenario grid under every
// routing policy on a testbed profile (see cmd/paperbench -placement).
func PlacementSweep(p Profile) ([]PlacementResult, error) {
	return bench.PlacementSweep(p, nil)
}

// ConcurrentPlacementSweep runs the concurrent placement grid — windowed
// offload streams under both statics, the zero-load cost model and the
// queueing-aware planner — on a testbed profile.
func ConcurrentPlacementSweep(p Profile) ([]PlacementResult, error) {
	return bench.ConcurrentPlacementSweep(p, nil)
}

// GenerateScaleWorkload builds the deterministic grouped scale scenario
// for the params (1000-node / 1M-request shapes are plain parameter
// choices).
func GenerateScaleWorkload(p ScaleParams) *ScaleWorkload { return place.GenerateScale(p) }

// ScaleSweep runs the default grouped scale scenarios (256 and 1000
// nodes) at shard counts 1/2/4/NumCPU on a testbed profile, asserting
// bit-identical outcomes across shard counts and reporting wall-clock
// speedup per count (see cmd/paperbench -scale).
func ScaleSweep(p Profile) ([]ScaleResult, error) {
	return bench.ScaleSweep(p, nil, nil)
}

// RegionCacheSweep runs the data-region cache repeat-pull grid (region
// sizes × dirty spans) under cache-on vs cache-off on a testbed profile,
// asserting guest outcomes mode-invariant and reporting the GET-byte
// saving per row (see cmd/paperbench -regioncache).
func RegionCacheSweep(p Profile) ([]RegionCacheResult, error) {
	return bench.RegionCacheSweep(p)
}

// Observability: deterministic virtual-time tracing and the unified
// metrics registry. Attach sinks to a cluster before running —
// Cluster.AttachTrace records every pipeline stage (plan, frame, wire,
// drain, execute, write-back, cache events) as spans and instants on
// virtual time, and Cluster.AttachMetrics registers typed counters and
// latency histograms per node. With no sink attached every emission
// site is a nil check: the warm paths stay allocation-free and all
// results are bit-identical with tracing off or on.
type (
	// Trace is a per-node recording sink for virtual-time spans and
	// instant events (Cluster.AttachTrace). Export with WriteChrome
	// (Perfetto-loadable), Canonical (deterministic text encoding) or
	// Profile (top-N virtual-time table).
	Trace = obs.Trace
	// MetricsRegistry is the unified metrics registry: typed counters
	// and log-bucket latency histograms, snapshotted deterministically
	// (Cluster.AttachMetrics).
	MetricsRegistry = obs.Registry
	// MetricPoint is one metric of a registry snapshot.
	MetricPoint = obs.MetricPoint
	// TracedOutcome is one traced concurrent placement run: the
	// untraced observables plus the recorded trace and metrics.
	TracedOutcome = bench.TracedOutcome
)

// NewTrace builds an empty trace sink for an n-node cluster.
func NewTrace(n int) *Trace { return obs.NewTrace(n) }

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RunTracedConcurrentScenario drives one concurrent placement scenario
// with tracing and metrics attached. Attachment is pure observation:
// makespan, route stats and result hash are bit-identical to the
// untraced run.
func RunTracedConcurrentScenario(p Profile, params WorkloadParams, policy PlacementPolicy) (*TracedOutcome, error) {
	return bench.RunTracedConcurrentScenario(p, params, policy)
}

// PaperTriples returns the fat-bitcode target list the paper ships
// (x86_64 + aarch64).
func PaperTriples() []Triple {
	return append([]Triple(nil), testbed.PaperTriples...)
}

// AllTriples returns every triple of the paper's platforms.
func AllTriples() []Triple {
	return []Triple{isa.TripleXeon, isa.TripleA64FX, isa.TripleBF2}
}

// NewModule starts an empty IR module for the low-level builder path.
func NewModule(name string) *Module { return ir.NewModule(name) }

// NewBuilder returns an IR builder appending to m.
func NewBuilder(m *Module) *Builder { return ir.NewBuilder(m) }

// CompileJulia compiles Julia-like minilang source to an IR module
// (the paper's §III-E high-level-language integration).
func CompileJulia(modName, src string) (*Module, error) {
	return minilang.Compile(modName, src)
}

// BuildArchive runs the toolchain on a module: optimize, attach debug
// info, pack a fat-bitcode archive for the given triples, returning the
// serialized archive for Runtime.RegisterArchive.
func BuildArchive(m *Module, triples []Triple) ([]byte, error) {
	_, raw, err := toolchain.BuildArchive(m, toolchain.Options{
		Opt: 2, Debug: true, Triples: triples,
	})
	return raw, err
}

// Reference kernels from the paper's evaluation.
var (
	// BuildTSI builds the Target-Side Increment kernel (§IV-B).
	BuildTSI = core.BuildTSI
	// BuildChaser builds the X-RDMA DAPC pointer chaser (§IV-C).
	BuildChaser = core.BuildChaser
	// BuildPropagator builds a self-propagating ifunc.
	BuildPropagator = core.BuildPropagator
)

// Guest intrinsic symbols and library names usable from ifunc modules.
const (
	SymNodeID   = core.SymNodeID
	SymNumNodes = core.SymNumNodes
	SymSendSelf = core.SymSendSelf
	SymComplete = core.SymComplete
	SymPutU64   = core.SymPutU64
	LibTC       = core.LibTC
	LibUCX      = core.LibUCX
)

// DAPC layout constants (server context and chase payload offsets).
const (
	SrvCtxTableBase   = core.SrvCtxTableBase
	SrvCtxShardSize   = core.SrvCtxShardSize
	SrvCtxNumServers  = core.SrvCtxNumServers
	SrvCtxFirstServer = core.SrvCtxFirstServer
	SrvCtxBytes       = core.SrvCtxBytes
	ChaseAddr         = core.ChaseAddr
	ChaseDepth        = core.ChaseDepth
	ChaseDest         = core.ChaseDest
	ChaseBytes        = core.ChaseBytes
	EntryChase        = core.EntryChase
	EntryReturnResult = core.EntryReturnResult
)

// Benchmark harness re-exports (see cmd/paperbench for the full report).
type (
	// TSIResult is one row of the paper's Tables I-VI.
	TSIResult = bench.TSIResult
	// DAPCResult is one point of the paper's Figures 5-12.
	DAPCResult = bench.DAPCResult
	// DAPCConfig parameterizes a pointer-chase experiment.
	DAPCConfig = bench.DAPCConfig
)

// StoreU64 writes an 8-byte little-endian value into a runtime's node
// memory (setup helper for examples and applications).
func StoreU64(rt *Runtime, addr, v uint64) error {
	err := ir.StoreMem(rt.Node.Mem(), addr, ir.I64, v)
	runtime.KeepAlive(rt) // node heaps are unmapped once rt's cluster is unreachable
	return err
}

// LoadU64 reads an 8-byte little-endian value from a runtime's node
// memory.
func LoadU64(rt *Runtime, addr uint64) (uint64, error) {
	v, err := ir.LoadMem(rt.Node.Mem(), addr, ir.I64)
	runtime.KeepAlive(rt) // as in StoreU64
	return v, err
}

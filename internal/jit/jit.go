// Package jit is the receiving-side just-in-time compiler session — the
// analogue of LLVM's ORC-JIT in the paper (§III-C).
//
// A Session lives on one node. Given a bitcode module it:
//
//  1. checks its symbol cache ("LLVM's ORC-JIT caches observed code
//     symbols", §V-A) — a re-received module costs only a lookup;
//  2. otherwise runs the optimizer pipeline, lowers for the local
//     micro-architecture (vector lanes, LSE atomics, fusion — package
//     mcode), allocates the module's globals in node heap, loads the
//     module's library dependencies, and patches the GOT (package
//     linker).
//
// Compilation cost is charged in virtual time from the µarch's calibrated
// JIT cost parameters; the TSI kernel costs ≈6.6 ms on A64FX, ≈4.5 ms on
// BlueField-2 and ≈0.8 ms on Xeon, matching the paper's Tables I–III.
package jit

import (
	"fmt"
	"hash/fnv"

	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/linker"
	"threechains/internal/mcode"
	"threechains/internal/passes"
	"threechains/internal/sim"
)

// GlobalAllocator places a module global in node memory and returns its
// address (the loader's .data/.bss mapping step).
type GlobalAllocator func(g ir.Global) uint64

// Compiled is a ready-to-run artifact: lowered code plus patched linkage
// plus the engine-compiled form the runtime executes.
type Compiled struct {
	CM   *mcode.CompiledModule
	Link *mcode.Linkage
	// Art is the execution-engine artifact (superblock code or interpreter
	// binding), compiled once here and reused by every machine that runs
	// the module — the paper's "generated machine code stays alive until
	// the ifunc is de-registered".
	Art mcode.Artifact
	// Globals maps the module's own globals to their loaded addresses.
	Globals map[string]uint64
	// Facts carries the static verifier's proven dataflow facts
	// (mcode.Verify), computed once here — verify-once caching: every
	// re-registration that hits the session cache reuses them, and the
	// engines read them through the module without re-analyzing.
	Facts *mcode.ModuleFacts
	// CompileTime is the virtual time the initial compilation cost.
	CompileTime sim.Time
	// Key is the cache key the artifact is stored under.
	Key string
}

// Stats counts session activity.
type Stats struct {
	Compiles       int
	CacheHits      int
	InstrsCompiled int
}

// Session is a per-node ORC-like JIT.
type Session struct {
	March *isa.MicroArch
	Load  *linker.Loader
	Alloc GlobalAllocator
	// OptLevel is the optimization pipeline applied before lowering.
	OptLevel passes.Level
	// Engine is the execution backend artifacts are compiled for
	// (mcode.DefaultEngine — the superblock backend — unless the node
	// selects otherwise). Set it before the first Compile/LoadBinary;
	// cached artifacts are not recompiled on change. The engine artifact
	// (Compiled.Art) is cached alongside the lowered module, so the
	// superblock form of a module is built once per node and shared by
	// every registration that resolves to the same content hash.
	Engine mcode.Engine

	cache map[string]*Compiled
	Stats Stats
}

// NewSession creates a session for the node's µarch.
func NewSession(march *isa.MicroArch, load *linker.Loader, alloc GlobalAllocator) *Session {
	return &Session{
		March:    march,
		Load:     load,
		Alloc:    alloc,
		OptLevel: passes.O2,
		Engine:   mcode.DefaultEngine,
		cache:    make(map[string]*Compiled),
	}
}

// CacheKey derives the session cache key for raw bitcode bytes. Keying by
// content hash means identical bitcode received twice (even under
// different ifunc registrations) compiles once.
func CacheKey(bitcode []byte) string {
	h := fnv.New64a()
	h.Write(bitcode)
	return fmt.Sprintf("bc-%016x", h.Sum64())
}

// Lookup returns the cached artifact for a key, if present.
func (s *Session) Lookup(key string) (*Compiled, bool) {
	c, ok := s.cache[key]
	return c, ok
}

// CompileCost returns the virtual time JIT compilation of the module
// would take on this µarch (without compiling). The paper's benchmark
// methodology measures this the same way: a separate run with caching
// defeated.
func (s *Session) CompileCost(m *ir.Module) sim.Time {
	cycles := s.March.JITBaseCycles + s.March.JITCyclesPerIRInst*float64(m.NumInstrs())
	return sim.FromSeconds(s.March.CyclesToSeconds(cycles))
}

// LookupCost is the virtual time of a cache hit (hash + table probe).
const LookupCost = 40 * sim.Nanosecond

// Compile returns a runnable artifact for the module, using the cache
// when possible. The second return value is the virtual time the call
// costs (full compilation or cache lookup); the third reports whether it
// was a cache hit.
func (s *Session) Compile(key string, m *ir.Module) (*Compiled, sim.Time, bool, error) {
	if c, ok := s.cache[key]; ok {
		s.Stats.CacheHits++
		return c, LookupCost, true, nil
	}
	c, err := s.compile(key, m)
	if err != nil {
		return nil, 0, false, err
	}
	s.cache[key] = c
	return c, c.CompileTime, false, nil
}

func (s *Session) compile(key string, m *ir.Module) (*Compiled, error) {
	// Cost is charged for the module as received (pre-optimization
	// instruction count dominates parse+lower time).
	cost := s.CompileCost(m)

	work := m.Clone()
	if err := passes.Optimize(work, s.OptLevel); err != nil {
		return nil, fmt.Errorf("jit: optimize: %w", err)
	}
	cm, err := mcode.Lower(work, s.March)
	if err != nil {
		return nil, fmt.Errorf("jit: lower: %w", err)
	}
	// Static verification gates everything that mutates session, loader
	// or node state: a rejected module loads no dependencies, allocates
	// no globals and leaves no cache entry.
	facts, err := mcode.Verify(cm)
	if err != nil {
		return nil, fmt.Errorf("jit: %s: %w", m.Name, err)
	}
	// Load dependencies before resolution (the shipped deps list).
	if err := s.Load.LoadDeps(work.Deps); err != nil {
		return nil, fmt.Errorf("jit: %s: %w", m.Name, err)
	}
	globals := make(map[string]uint64, len(cm.Globals))
	for _, g := range cm.Globals { //repolint:allow maprange — cm.Globals is mcode's []Global, not Compiled's map
		globals[g.Name] = s.Alloc(g)
	}
	link, err := linker.PatchGOT(cm, globals, s.Load)
	if err != nil {
		return nil, fmt.Errorf("jit: %w", err)
	}
	art, err := s.Engine.Prepare(cm)
	if err != nil {
		return nil, fmt.Errorf("jit: engine %s: %w", s.Engine.Name(), err)
	}
	s.Stats.Compiles++
	s.Stats.InstrsCompiled += m.NumInstrs()
	return &Compiled{
		CM: cm, Link: link, Art: art, Globals: globals, Facts: facts,
		CompileTime: cost, Key: key,
	}, nil
}

// LoadBinary prepares a binary (pre-lowered) module for execution:
// allocate globals, load deps, patch the GOT. No compilation happens —
// the code arrives ready — which is the binary ifunc's advantage and the
// reason it cannot re-specialize for the local µarch (its Features field
// records the producer's choices).
func (s *Session) LoadBinary(key string, cm *mcode.CompiledModule) (*Compiled, sim.Time, bool, error) {
	if c, ok := s.cache[key]; ok {
		s.Stats.CacheHits++
		return c, LookupCost, true, nil
	}
	// A binary module is the untrusted case the verifier exists for: the
	// code was lowered elsewhere and arrives as raw instructions. Verify
	// before any state moves — no deps loaded, no globals allocated, no
	// cache entry for a rejected module.
	facts, err := mcode.Verify(cm)
	if err != nil {
		return nil, 0, false, fmt.Errorf("jit: %s: %w", cm.Name, err)
	}
	if err := s.Load.LoadDeps(cm.Deps); err != nil {
		return nil, 0, false, fmt.Errorf("jit: %s: %w", cm.Name, err)
	}
	globals := make(map[string]uint64, len(cm.Globals))
	for _, g := range cm.Globals { //repolint:allow maprange — cm.Globals is mcode's []Global, not Compiled's map
		globals[g.Name] = s.Alloc(g)
	}
	link, err := linker.PatchGOT(cm, globals, s.Load)
	if err != nil {
		return nil, 0, false, err
	}
	art, err := s.Engine.Prepare(cm)
	if err != nil {
		return nil, 0, false, fmt.Errorf("jit: engine %s: %w", s.Engine.Name(), err)
	}
	// GOT patching cost: proportional to slot count, far below JIT cost.
	cost := sim.Time(len(cm.GOT)+1) * 120 * sim.Nanosecond
	if cm.IsPureBinary() {
		// The paper's "pure" fast path: no GOT, straight to execution.
		cost = 50 * sim.Nanosecond
	}
	c := &Compiled{CM: cm, Link: link, Art: art, Globals: globals, Facts: facts, CompileTime: cost, Key: key}
	s.cache[key] = c
	return c, cost, false, nil
}

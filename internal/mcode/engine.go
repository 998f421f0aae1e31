package mcode

import (
	"fmt"
	"strings"
)

// Engine is a pluggable execution backend for lowered modules. An engine
// turns a CompiledModule into a runnable Artifact once (the JIT-time
// step); Machines then execute entries of that artifact per message. The
// split mirrors the paper's claim structure (§III-C): moving code pays
// off only when the one-time compile cost buys near-native per-call
// execution, so the per-µarch backend must be swappable — a wimpy DPU
// core and a wide host core may want different execution strategies.
//
// Two engines ship today:
//
//   - SuperblockEngine ("superblock"): the compiled backend and the
//     default (superblock.go). Prepare compiles every lowered instruction
//     into a Go closure with registers, immediates and branch targets
//     resolved once (closure.go), and merges blocks into extended basic
//     blocks — unconditional chains flattened, self-loops run as native
//     Go loops, and a superinstruction fusion set (load+op+store,
//     read-modify-write, store-to-load forwarding, compare+branch and
//     counted-loop back-edge tails). Step and op-count accounting is
//     batched per region.
//   - InterpEngine ("interp"): the reference giant-switch interpreter.
//     Zero prepare cost, highest per-step cost. The semantic oracle.
//
// Both engines produce bit-identical results, dynamic operation counts,
// step totals, memory effects and errors — including on ir.ErrMaxSteps
// aborts: the superblock engine pre-charges steps per region, but when a
// region's charge would blow the budget it refunds the charge and replays
// that region's in-budget prefix through the reference interpreter loop,
// so abort-time counters and the final partial region's side effects
// match the oracle exactly. The differential tests in engine_test.go and
// superblock_test.go hold the compiled engine (and the RunBatch path) to
// this contract; it is what lets the runtime pick engines per node
// without perturbing the simulation's virtual time.
type Engine interface {
	// Name returns the engine's registry name ("superblock", "interp").
	Name() string
	// Prepare compiles the module into a runnable artifact. The artifact
	// is immutable and may be shared by any number of Machines (it holds
	// no per-execution state).
	Prepare(cm *CompiledModule) (Artifact, error)
}

// Artifact is an engine-compiled module: the runnable form a Machine
// executes against. Implementations live in this package; per-execution
// state (registers, stack pointer, counters) stays on the Machine so one
// artifact serves every registration of the module on a node.
type Artifact interface {
	// Module returns the lowered module the artifact was compiled from.
	Module() *CompiledModule

	// run executes function fi with args on ma, returning the result
	// value. Implementations must maintain ma.Counts, ma.steps and ma.sp
	// with the semantics of the reference interpreter.
	run(ma *Machine, fi int, args []uint64) (uint64, error)

	// runBatch executes function fi once per argument vector, rebasing
	// the MaxSteps ceiling on each element's start so every element gets
	// a fresh budget while counts and steps accumulate across the batch.
	// Batch-level validation (entry, arity, out sizing) is done by
	// Machine.RunBatch before dispatching here.
	runBatch(ma *Machine, fi int, argvs [][]uint64, out []BatchResult)
}

// Engine registry names.
const (
	EngineNameInterp     = "interp"
	EngineNameSuperblock = "superblock"
)

// DefaultEngine executes modules when no engine is selected explicitly:
// the superblock engine, the one compiled backend (see
// BenchmarkEngineInterpVsSuperblock and BENCH_engines.json). The
// interpreter stays selectable as the oracle.
var DefaultEngine Engine = SuperblockEngine{}

// EngineNames lists the registered engine names.
func EngineNames() []string {
	return []string{EngineNameSuperblock, EngineNameInterp}
}

// EngineByName resolves an engine registry name. The empty string picks
// DefaultEngine, so config structs can leave the knob zero-valued.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "":
		return DefaultEngine, nil
	case EngineNameSuperblock:
		return SuperblockEngine{}, nil
	case EngineNameInterp:
		return InterpEngine{}, nil
	}
	return nil, fmt.Errorf("mcode: unknown engine %q (have %s)",
		name, strings.Join(EngineNames(), ", "))
}

// MustEngine is EngineByName for statically known names; it panics on an
// unknown name (a deployment configuration bug, not a runtime condition).
func MustEngine(name string) Engine {
	e, err := EngineByName(name)
	if err != nil {
		panic(err)
	}
	return e
}

// InterpEngine is the reference execution engine: the giant-switch
// interpreter over lowered instructions (vm.go). It decodes every
// instruction on every step, which makes it the slowest backend but also
// the simplest — it is the oracle the differential tests hold the
// compiled engine against.
type InterpEngine struct{}

// Name implements Engine.
func (InterpEngine) Name() string { return EngineNameInterp }

// Prepare implements Engine. Interpretation needs no pre-processing, so
// the artifact is just the module.
func (InterpEngine) Prepare(cm *CompiledModule) (Artifact, error) {
	return interpArtifact{cm: cm}, nil
}

// interpArtifact runs programs through Machine.exec's switch loop.
type interpArtifact struct{ cm *CompiledModule }

func (a interpArtifact) Module() *CompiledModule { return a.cm }

func (a interpArtifact) run(ma *Machine, fi int, args []uint64) (uint64, error) {
	return ma.exec(a.cm.Funcs[fi], args)
}

// runBatch is the oracle loop fallback: one interpreter activation per
// element inside a per-element budget window.
func (a interpArtifact) runBatch(ma *Machine, fi int, argvs [][]uint64, out []BatchResult) {
	p := a.cm.Funcs[fi]
	budget := ma.Limits.MaxSteps
	for i, argv := range argvs {
		start := ma.steps
		ma.Limits.MaxSteps = start + budget
		v, err := ma.exec(p, argv)
		out[i] = BatchResult{Value: v, Steps: ma.steps - start, Err: err}
	}
	ma.Limits.MaxSteps = budget
}

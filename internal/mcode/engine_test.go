package mcode_test

// Differential engine tests: every execution engine must produce
// bit-identical results, dynamic operation counts, step totals and
// errors against the reference interpreter, across the paper's kernel
// corpus (core), minilang frontend output, and deliberately faulting
// programs. This is the contract that lets the runtime pick engines per
// node without perturbing the simulation's virtual time.

import (
	"errors"
	"fmt"
	"testing"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/minilang"
)

// stubCalls records extern invocations so the test can also assert that
// both engines drive the runtime identically.
type stubCalls struct {
	log []string
}

// diffEnv builds a SimpleEnv-backed linkage binding every GOT slot to a
// deterministic recording stub.
func diffLink(cm *mcode.CompiledModule, env *ir.SimpleEnv, calls *stubCalls) *mcode.Linkage {
	link := mcode.NewLinkage(cm)
	for i, g := range cm.GOT {
		switch g.Kind {
		case mcode.GOTFunc:
			sym := g.Sym
			link.Funcs[i] = func(args []uint64) (uint64, error) {
				calls.log = append(calls.log, fmt.Sprintf("%s%v", sym, args))
				switch sym {
				case core.SymNodeID:
					return 3, nil
				case core.SymNumNodes:
					return 8, nil
				default:
					return 0, nil
				}
			}
		case mcode.GOTData:
			link.DataAddrs[i] = 1 << 12
		}
	}
	return link
}

// diffCase is one (module, entry, args, memory setup) execution compared
// across engines.
type diffCase struct {
	name  string
	mod   *ir.Module
	entry string
	args  []uint64
	limit int64 // MaxSteps override (0 = default)
	setup func(env *ir.SimpleEnv)
}

// chaseSetup stages the DAPC server context and pointer table so "chase"
// resolves locally on stub node 3 (firstServer=3, one server).
func chaseSetup(env *ir.SimpleEnv) {
	const ctx, table = 512, 4096
	env.StoreU64(ctx+core.SrvCtxTableBase, table)
	env.StoreU64(ctx+core.SrvCtxShardSize, 64)
	env.StoreU64(ctx+core.SrvCtxNumServers, 1)
	env.StoreU64(ctx+core.SrvCtxFirstServer, 3)
	for i := uint64(0); i < 64; i++ {
		env.StoreU64(table+i*8, (i*7+3)%64)
	}
	env.StoreU64(256+core.ChaseAddr, 5)
	env.StoreU64(256+core.ChaseDepth, 10)
	env.StoreU64(256+core.ChaseDest, 0)
}

func divModule() *ir.Module {
	m := ir.NewModule("divmod")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64, ir.I64}, ir.I64)
	b.Ret(b.SDiv(b.Param(0), b.Param(1)))
	return m
}

func oobModule() *ir.Module {
	m := ir.NewModule("oob")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	b.Ret(b.Load(ir.I64, b.Param(0), 0))
	return m
}

func spinModule() *ir.Module {
	m := ir.NewModule("spin")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	head := b.NewBlock("head")
	b.Br(head)
	b.SetBlock(head)
	b.Br(head)
	return m
}

func overflowModule() *ir.Module {
	m := ir.NewModule("overflow")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{}, ir.I64)
	b.Ret(b.Alloca(1 << 20))
	return m
}

// partialStoresModule is one long straight-line block of stores: a
// MaxSteps limit landing in its middle used to be the documented
// block-granularity divergence (the compiled engine refused the whole
// block). The exact-abort fix must leave the in-budget prefix's stores
// in memory and its per-instruction counters charged, like the oracle.
func partialStoresModule() *ir.Module {
	m := ir.NewModule("partialstores")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{}, ir.I64)
	for i := int64(0); i < 8; i++ {
		b.Store(ir.I64, b.Const64(100+i), b.Const64(1024+8*i), 0)
	}
	b.Ret(b.Const64(0))
	return m
}

const diffMinilangSrc = `
function sum_to(n::Int)::Int
    acc = 0
    i = 0
    while i < n
        acc = acc + i * i
        i = i + 1
    end
    return acc
end
function fib(n::Int)::Int
    if n < 2
        return n
    end
    return fib(n - 1) + fib(n - 2)
end
function mix(x::Int)::Float
    f = float(x) * 2.5
    return f / 4.0 + 0.5
end`

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	ml, err := minilang.Compile("mldiff", diffMinilangSrc)
	if err != nil {
		t.Fatal(err)
	}
	return []diffCase{
		{name: "tsi/main", mod: core.BuildTSI(), entry: "main", args: []uint64{256, 1, 600},
			setup: func(env *ir.SimpleEnv) { env.StoreU64(600, 41) }},
		{name: "chaser/chase", mod: core.BuildChaser(), entry: "chase",
			args: []uint64{256, core.ChaseBytes, 512}, setup: chaseSetup},
		{name: "chaser/return_result", mod: core.BuildChaser(), entry: "return_result",
			args:  []uint64{256, 8, 640},
			setup: func(env *ir.SimpleEnv) { env.StoreU64(256, 777) }},
		{name: "accumulator", mod: core.BuildAccumulator(), entry: "accumulate",
			args: []uint64{256, 32, 640},
			setup: func(env *ir.SimpleEnv) {
				env.StoreU64(256, 5)    // delta
				env.StoreU64(256+8, 16) // offset from target
				env.StoreU64(256+16, 2) // requester node
				env.StoreU64(256+24, 900)
				env.StoreU64(640+16, 100)
			}},
		{name: "propagator", mod: core.BuildPropagator(), entry: "main",
			args: []uint64{256, 16, 640},
			setup: func(env *ir.SimpleEnv) {
				env.StoreU64(256, 4)   // ttl
				env.StoreU64(256+8, 1) // stride
			}},
		{name: "minilang/sum_to", mod: ml, entry: "sum_to", args: []uint64{500}},
		{name: "minilang/fib", mod: ml, entry: "fib", args: []uint64{12}},
		{name: "minilang/mix", mod: ml, entry: "mix", args: []uint64{7}},
		{name: "fault/div0", mod: divModule(), entry: "main", args: []uint64{10, 0}},
		{name: "fault/oob", mod: oobModule(), entry: "main", args: []uint64{1 << 40}},
		{name: "fault/stack-overflow", mod: overflowModule(), entry: "main", args: nil},
		{name: "fault/max-steps", mod: spinModule(), entry: "main", args: []uint64{0}, limit: 1000},
		// MaxSteps aborts landing mid-block: the prefix of the final block
		// must execute with exact interpreter accounting (the former
		// sanctioned divergence, now pinned).
		{name: "fault/max-steps-mid-block", mod: partialStoresModule(), entry: "main", args: nil, limit: 10},
		{name: "fault/max-steps-in-callee", mod: ml, entry: "fib", args: []uint64{20}, limit: 500},
		{name: "fault/max-steps-loop-mid", mod: ml, entry: "sum_to", args: []uint64{1 << 30}, limit: 777},
	}
}

// lifecycle is the machine state a differential execution starts from.
// The runtime prepares one artifact per module and node, shares it across
// every registration's machine and keeps each machine across message
// batches — including batches that ended in a fault or an ErrMaxSteps
// abort — so every lifecycle must reproduce a fresh oracle machine.
type lifecycle int

const (
	// freshMachine is a new machine on a freshly prepared artifact.
	freshMachine lifecycle = iota
	// sharedArtifact is a new machine on an artifact that another machine,
	// with its own memory and extern stubs, has already run the case on.
	sharedArtifact
	// reusedAfterAbort is a machine that first ran the case under half the
	// oracle's step count — so it aborted mid-execution, in a callee or
	// loop where the case has one, or hit the case's own early fault —
	// then was Reset.
	reusedAfterAbort
	// reusedAfterRun is a machine that first ran the case to its end, then
	// was Reset: its frame and register pools are hot.
	reusedAfterRun
)

// engineConfig is one engine and the lifecycle its machine starts from.
type engineConfig struct {
	label string
	eng   mcode.Engine
	life  lifecycle
}

// oracleConfig is the reference every differential row is held to.
var oracleConfig = engineConfig{"interp", mcode.InterpEngine{}, freshMachine}

// enginesUnderTest is every non-oracle configuration the differential
// suites hold against the interpreter: the superblock backend in each
// machine lifecycle. The labels of the non-fresh rows keep the row names
// these suites have always reported — they once named the closure engine
// and the cold and hot tiers of the adaptive engine, both retired — so a
// row's results stay comparable across the suite's history. "closure" is
// the shared closure artifact, "adaptive-cold" a machine reused after a
// cut-off run and "adaptive-hot" a machine hot from a completed run.
func enginesUnderTest() []engineConfig {
	sb := mcode.SuperblockEngine{}
	return []engineConfig{
		{"closure", sb, sharedArtifact},
		{"superblock", sb, freshMachine},
		{"adaptive-cold", sb, reusedAfterAbort},
		{"adaptive-hot", sb, reusedAfterRun},
	}
}

// diffLimits are the execution limits of every differential run of tc.
func diffLimits(tc diffCase) ir.ExecLimits {
	return ir.ExecLimits{MaxSteps: tc.limit, StackBase: 32 << 10, StackSize: 16 << 10}
}

// newDiffMachine builds the machine ec runs tc on, over env (already set
// up) with extern calls logged to calls. Whatever ran before the measured
// execution leaves env's memory and the call log as it found them.
func newDiffMachine(t *testing.T, ec engineConfig, tc diffCase, cm *mcode.CompiledModule, env *ir.SimpleEnv, calls *stubCalls) *mcode.Machine {
	t.Helper()
	art, err := ec.eng.Prepare(cm)
	if err != nil {
		t.Fatalf("%s: prepare: %v", tc.name, err)
	}
	if ec.life == sharedArtifact {
		other := ir.NewSimpleEnv(1 << 16)
		if tc.setup != nil {
			tc.setup(other)
		}
		om, err := mcode.NewMachineArt(art, other, diffLink(cm, other, &stubCalls{}), diffLimits(tc))
		if err != nil {
			t.Fatalf("%s: machine: %v", tc.name, err)
		}
		om.Run(tc.entry, tc.args...) // faulting cases fault here too
	}
	ma, err := mcode.NewMachineArt(art, env, diffLink(cm, env, calls), diffLimits(tc))
	if err != nil {
		t.Fatalf("%s: machine: %v", tc.name, err)
	}
	if ec.life == reusedAfterAbort || ec.life == reusedAfterRun {
		mem := append([]byte(nil), env.Memory...)
		lim := ma.Limits
		if ec.life == reusedAfterAbort {
			ma.Limits.MaxSteps = max(oracleSteps(t, tc, cm)/2, 1)
		}
		_, err := ma.Run(tc.entry, tc.args...)
		if ec.life == reusedAfterAbort && err == nil {
			t.Fatalf("%s: run cut off at half the oracle's steps did not abort", tc.name)
		}
		ma.Limits = lim
		ma.Reset()
		copy(env.Memory, mem)
		calls.log = nil
	}
	return ma
}

// oracleSteps is the interpreter's step count for tc, fault or not.
func oracleSteps(t *testing.T, tc diffCase, cm *mcode.CompiledModule) int64 {
	t.Helper()
	env := ir.NewSimpleEnv(1 << 16)
	if tc.setup != nil {
		tc.setup(env)
	}
	ma, err := mcode.NewMachineFor(mcode.InterpEngine{}, cm, env, diffLink(cm, env, &stubCalls{}), diffLimits(tc))
	if err != nil {
		t.Fatalf("%s: machine: %v", tc.name, err)
	}
	res, _ := ma.Run(tc.entry, tc.args...)
	return res.Steps
}

// runOn executes one case in one configuration, returning everything
// observable.
func runOn(t *testing.T, ec engineConfig, tc diffCase, march *isa.MicroArch) (ir.ExecResult, [isa.NumOps]uint64, *stubCalls, []byte, error) {
	t.Helper()
	cm, err := mcode.Lower(tc.mod, march)
	if err != nil {
		t.Fatalf("%s: lower: %v", tc.name, err)
	}
	env := ir.NewSimpleEnv(1 << 16)
	if tc.setup != nil {
		tc.setup(env)
	}
	calls := &stubCalls{}
	ma := newDiffMachine(t, ec, tc, cm, env, calls)
	res, runErr := ma.Run(tc.entry, tc.args...)
	return res, ma.Counts, calls, env.Memory, runErr
}

// TestEngineDifferential holds every engine to the interpreter's
// observable behavior across the kernel corpus on all three paper
// µarchs — including ErrMaxSteps aborts, where the compiled engine's
// exact-abort fallback must reproduce the oracle's partial-block side
// effects and counters bit for bit.
func TestEngineDifferential(t *testing.T) {
	marchs := []*isa.MicroArch{isa.XeonE5(), isa.A64FX(), isa.CortexA72()}
	for _, march := range marchs {
		for _, ec := range enginesUnderTest() {
			for _, tc := range diffCases(t) {
				t.Run(march.Name+"/"+ec.label+"/"+tc.name, func(t *testing.T) {
					ref, refCounts, refCalls, refMem, refErr := runOn(t, oracleConfig, tc, march)
					got, gotCounts, gotCalls, gotMem, gotErr := runOn(t, ec, tc, march)

					if (refErr == nil) != (gotErr == nil) {
						t.Fatalf("error mismatch: interp=%v %s=%v", refErr, ec.label, gotErr)
					}
					if refErr != nil && refErr.Error() != gotErr.Error() {
						t.Fatalf("error text mismatch:\n interp: %v\n %s: %v", refErr, ec.label, gotErr)
					}
					if got.Value != ref.Value {
						t.Errorf("value: %s %#x, interp %#x", ec.label, got.Value, ref.Value)
					}
					if got.Steps != ref.Steps {
						t.Errorf("steps: %s %d, interp %d", ec.label, got.Steps, ref.Steps)
					}
					if gotCounts != refCounts {
						t.Errorf("op counts diverge:\n %s: %v\n interp: %v", ec.label, gotCounts, refCounts)
					}
					if mcode.Cycles(&gotCounts, march) != mcode.Cycles(&refCounts, march) {
						t.Errorf("virtual-time charge diverges")
					}
					if fmt.Sprint(gotCalls.log) != fmt.Sprint(refCalls.log) {
						t.Errorf("extern call traces diverge:\n %s: %v\n interp: %v", ec.label, gotCalls.log, refCalls.log)
					}
					if string(gotMem) != string(refMem) {
						t.Errorf("final memory images diverge")
					}
				})
			}
		}
	}
}

// batchOn executes one case as a RunBatch of size n in one
// configuration, returning per-element results plus the batch-cumulative
// observables.
func batchOn(t *testing.T, ec engineConfig, tc diffCase, march *isa.MicroArch, n int) ([]mcode.BatchResult, [isa.NumOps]uint64, *stubCalls, []byte) {
	t.Helper()
	cm, err := mcode.Lower(tc.mod, march)
	if err != nil {
		t.Fatalf("%s: lower: %v", tc.name, err)
	}
	env := ir.NewSimpleEnv(1 << 16)
	if tc.setup != nil {
		tc.setup(env)
	}
	calls := &stubCalls{}
	ma := newDiffMachine(t, ec, tc, cm, env, calls)
	argvs := make([][]uint64, n)
	for i := range argvs {
		argvs[i] = tc.args
	}
	out := make([]mcode.BatchResult, n)
	if err := ma.RunBatch(tc.entry, argvs, out); err != nil {
		t.Fatalf("%s: RunBatch: %v", tc.name, err)
	}
	return out, ma.Counts, calls, env.Memory
}

// TestEngineBatchDifferential pins batch ≡ sequential for every engine
// (the interpreter oracle included): RunBatch over n identical messages
// must reproduce, element for element, the results, steps and errors of
// n Reset+Run executions, and its cumulative op counts, extern call
// trace, memory image and virtual-time charge must equal the sequential
// sums. This is the contract that lets the runtime drain a message batch
// through one machine with a single virtual-time charge.
func TestEngineBatchDifferential(t *testing.T) {
	const batchN = 4
	marchs := []*isa.MicroArch{isa.XeonE5(), isa.A64FX(), isa.CortexA72()}
	allEngines := append([]engineConfig{oracleConfig}, enginesUnderTest()...)
	for _, march := range marchs {
		for _, ec := range allEngines {
			for _, tc := range diffCases(t) {
				t.Run(march.Name+"/"+ec.label+"/"+tc.name, func(t *testing.T) {
					// Sequential oracle: n independent Reset+Run executions on
					// one interpreter machine and environment.
					cm, err := mcode.Lower(tc.mod, march)
					if err != nil {
						t.Fatal(err)
					}
					env := ir.NewSimpleEnv(1 << 16)
					if tc.setup != nil {
						tc.setup(env)
					}
					seqCalls := &stubCalls{}
					ma, err := mcode.NewMachineFor(mcode.InterpEngine{}, cm, env, diffLink(cm, env, seqCalls), diffLimits(tc))
					if err != nil {
						t.Fatal(err)
					}
					var seq []mcode.BatchResult
					var seqCounts [isa.NumOps]uint64
					for i := 0; i < batchN; i++ {
						ma.Reset()
						res, runErr := ma.Run(tc.entry, tc.args...)
						seq = append(seq, mcode.BatchResult{Value: res.Value, Steps: res.Steps, Err: runErr})
						for op := range seqCounts {
							seqCounts[op] += ma.Counts[op]
						}
					}

					got, gotCounts, gotCalls, gotMem := batchOn(t, ec, tc, march, batchN)
					for i := range seq {
						if (seq[i].Err == nil) != (got[i].Err == nil) ||
							(seq[i].Err != nil && seq[i].Err.Error() != got[i].Err.Error()) {
							t.Fatalf("element %d error: batch=%v sequential=%v", i, got[i].Err, seq[i].Err)
						}
						if got[i].Value != seq[i].Value {
							t.Errorf("element %d value: batch %#x, sequential %#x", i, got[i].Value, seq[i].Value)
						}
						if got[i].Steps != seq[i].Steps {
							t.Errorf("element %d steps: batch %d, sequential %d", i, got[i].Steps, seq[i].Steps)
						}
					}
					if gotCounts != seqCounts {
						t.Errorf("cumulative op counts diverge:\n batch:      %v\n sequential: %v", gotCounts, seqCounts)
					}
					if mcode.Cycles(&gotCounts, march) != mcode.Cycles(&seqCounts, march) {
						t.Errorf("virtual-time charge diverges")
					}
					if fmt.Sprint(gotCalls.log) != fmt.Sprint(seqCalls.log) {
						t.Errorf("extern call traces diverge")
					}
					if string(gotMem) != string(env.Memory) {
						t.Errorf("final memory images diverge")
					}
				})
			}
		}
	}
}

// TestEngineByName covers the registry.
func TestEngineByName(t *testing.T) {
	for _, name := range mcode.EngineNames() {
		e, err := mcode.EngineByName(name)
		if err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("EngineByName(%q).Name() = %q", name, e.Name())
		}
	}
	if e, err := mcode.EngineByName(""); err != nil || e.Name() != mcode.DefaultEngine.Name() {
		t.Fatalf("empty name should resolve to the default engine, got %v/%v", e, err)
	}
	// "closure" and "adaptive" are retired engines: a config still
	// naming them must fail loudly, not fall back to a default.
	for _, name := range []string{"nope", "closure", "adaptive"} {
		if _, err := mcode.EngineByName(name); err == nil {
			t.Fatalf("unknown engine name %q should error", name)
		}
	}
}

// TestEngineMachineReuseAllocFree asserts the acceptance criterion that a
// warm, reused machine executes without per-message heap allocation —
// the property Runtime.execute relies on after switching to
// per-registration machines. Besides a machine per engine, it covers the
// superblock machine lifecycles of the differential suites: "closure" is
// a second machine on a closure artifact another machine already runs,
// "adaptive" a machine whose previous run was cut off by its step budget.
func TestEngineMachineReuseAllocFree(t *testing.T) {
	for _, ec := range []engineConfig{
		{"closure", mcode.SuperblockEngine{}, sharedArtifact},
		{"superblock", mcode.SuperblockEngine{}, freshMachine},
		{"interp", mcode.InterpEngine{}, freshMachine},
		{"adaptive", mcode.SuperblockEngine{}, reusedAfterAbort},
	} {
		t.Run(ec.label, func(t *testing.T) {
			cm, err := mcode.Lower(core.BuildTSI(), isa.XeonE5())
			if err != nil {
				t.Fatal(err)
			}
			art, err := ec.eng.Prepare(cm)
			if err != nil {
				t.Fatal(err)
			}
			lim := ir.ExecLimits{StackBase: 8 << 10, StackSize: 4 << 10}
			newMachine := func() *mcode.Machine {
				env := ir.NewSimpleEnv(1 << 14)
				ma, err := mcode.NewMachineArt(art, env, mcode.NewLinkage(cm), lim)
				if err != nil {
					t.Fatal(err)
				}
				return ma
			}
			ma := newMachine()
			if ec.life == sharedArtifact {
				if _, err := ma.Run("main", 0, 1, 64); err != nil {
					t.Fatal(err)
				}
				ma = newMachine()
			}
			if ec.life == reusedAfterAbort {
				ma.Limits.MaxSteps = 1
				if _, err := ma.Run("main", 0, 1, 64); !errors.Is(err, ir.ErrMaxSteps) {
					t.Fatalf("run cut off after one step: err = %v, want ErrMaxSteps", err)
				}
				ma.Limits.MaxSteps = ir.DefaultMaxSteps
			}
			run := func() {
				ma.Reset()
				if _, err := ma.Run("main", 0, 1, 64); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the register-file and frame pools
			if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
				t.Errorf("warm %s machine allocates %.1f objects per execution, want 0", ec.label, allocs)
			}
		})
	}
}

// TestEnginePastEndBranch pins the wire-robustness fix: a module whose
// branch targets len(code) (legal on the wire; the interpreter faults
// only if it executes) must compile under every engine and produce the
// interpreter's runtime "pc past end" error — not a Prepare panic.
func TestEnginePastEndBranch(t *testing.T) {
	cm := &mcode.CompiledModule{
		Name: "bad",
		Funcs: []*mcode.Program{{
			Name: "main", Params: 0, NumRegs: 1,
			Code: []mcode.MInstr{{Op: mcode.MJmp, Target: 1}},
		}},
	}
	var errs []string
	for _, eng := range []mcode.Engine{mcode.InterpEngine{}, mcode.SuperblockEngine{}} {
		env := ir.NewSimpleEnv(1 << 12)
		ma, err := mcode.NewMachineFor(eng, cm, env, nil, ir.ExecLimits{})
		if err != nil {
			t.Fatalf("%s: prepare: %v", eng.Name(), err)
		}
		res, err := ma.Run("main")
		if err == nil {
			t.Fatalf("%s: expected past-end error, got value %d", eng.Name(), res.Value)
		}
		if res.Steps != 1 {
			t.Errorf("%s: steps = %d, want 1 (the jump executed)", eng.Name(), res.Steps)
		}
		errs = append(errs, err.Error())
	}
	for i := 1; i < len(errs); i++ {
		if errs[0] != errs[i] {
			t.Errorf("error text diverges:\n interp: %s\n other:  %s", errs[0], errs[i])
		}
	}
}

package mcode

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"threechains/internal/ir"
	"threechains/internal/isa"
)

// linkFor resolves a compiled module's GOT against a SimpleEnv the way
// the remote linker does in production code.
func linkFor(t *testing.T, cm *CompiledModule, env *ir.SimpleEnv) *Linkage {
	t.Helper()
	link := NewLinkage(cm)
	for i, e := range cm.GOT {
		switch e.Kind {
		case GOTData:
			addr, ok := env.Globals[e.Sym]
			if !ok {
				t.Fatalf("unresolved global %q", e.Sym)
			}
			link.DataAddrs[i] = addr
		case GOTFunc:
			fn, ok := env.Externs[e.Sym]
			if !ok {
				t.Fatalf("unresolved extern %q", e.Sym)
			}
			link.Funcs[i] = fn
		}
	}
	return link
}

func lowerAndRun(t *testing.T, m *ir.Module, march *isa.MicroArch, env *ir.SimpleEnv, fn string, args ...uint64) (uint64, *Machine) {
	t.Helper()
	cm, err := Lower(m, march)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	ma, err := NewMachine(cm, env, linkFor(t, cm, env), ir.ExecLimits{
		MaxSteps: 1 << 22, StackBase: 4096, StackSize: 4096,
	})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	res, err := ma.Run(fn, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Value, ma
}

func TestLoweredCounterRuns(t *testing.T) {
	m := ir.NewModule("tsi")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	old := b.Load(ir.I64, b.Param(2), 0)
	inc := b.Add(old, b.Const64(1))
	b.Store(ir.I64, inc, b.Param(2), 0)
	b.Ret(inc)
	env := ir.NewSimpleEnv(1 << 14)
	env.StoreU64(256, 41)
	v, _ := lowerAndRun(t, m, isa.XeonE5(), env, "main", 0, 0, 256)
	if v != 42 || env.LoadU64(256) != 42 {
		t.Fatalf("counter = %d / mem %d, want 42", v, env.LoadU64(256))
	}
}

// TestVMMatchesInterp is the backbone property: for random programs, the
// lowered machine code on every µarch computes exactly what the reference
// interpreter computes (value, error class, and memory effects).
func TestVMMatchesInterp(t *testing.T) {
	cfg := ir.DefaultGenConfig()
	marchs := []*isa.MicroArch{isa.XeonE5(), isa.A64FX(), isa.CortexA72()}
	check := func(seed int64, x, y uint16) bool {
		m := ir.GenModule(rand.New(rand.NewSource(seed)), cfg)

		refEnv := ir.NewSimpleEnv(1 << 14)
		refEnv.Globals["scratch"] = 0
		ip := ir.NewInterp(m, refEnv, ir.ExecLimits{MaxSteps: 1 << 21, StackBase: 4096, StackSize: 4096})
		refRes, refErr := ip.Run("main", uint64(x), uint64(y))

		for _, march := range marchs {
			env := ir.NewSimpleEnv(1 << 14)
			env.Globals["scratch"] = 0
			cm, err := Lower(m, march)
			if err != nil {
				t.Logf("seed %d %s: lower: %v", seed, march.Name, err)
				return false
			}
			link := NewLinkage(cm)
			for i, e := range cm.GOT {
				if e.Kind == GOTData {
					link.DataAddrs[i] = env.Globals[e.Sym]
				}
			}
			ma, err := NewMachine(cm, env, link, ir.ExecLimits{MaxSteps: 1 << 21, StackBase: 4096, StackSize: 4096})
			if err != nil {
				t.Logf("seed %d %s: machine: %v", seed, march.Name, err)
				return false
			}
			res, vmErr := ma.Run("main", uint64(x), uint64(y))
			if (refErr == nil) != (vmErr == nil) {
				t.Logf("seed %d %s: err divergence interp=%v vm=%v", seed, march.Name, refErr, vmErr)
				return false
			}
			if refErr == nil && res.Value != refRes.Value {
				t.Logf("seed %d %s: value %d vs %d", seed, march.Name, res.Value, refRes.Value)
				return false
			}
			// Memory effects must match too.
			for a := 0; a < 256; a += 8 {
				if refEnv.LoadU64(uint64(a)) != env.LoadU64(uint64(a)) {
					t.Logf("seed %d %s: mem[%d] %d vs %d", seed, march.Name, a,
						env.LoadU64(uint64(a)), refEnv.LoadU64(uint64(a)))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicLoweringPerMicroArch(t *testing.T) {
	m := ir.NewModule("atomic")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr}, ir.I64)
	b.Ret(b.AtomicAdd(b.Param(0), b.Const64(1)))

	lse, err := Lower(m, isa.A64FX())
	if err != nil {
		t.Fatal(err)
	}
	nolse, err := Lower(m, isa.CortexA72())
	if err != nil {
		t.Fatal(err)
	}
	find := func(cm *CompiledModule, op MOp) bool {
		for _, in := range cm.Funcs[0].Code {
			if in.Op == op {
				return true
			}
		}
		return false
	}
	if !find(lse, MAtomicAddLSE) || find(lse, MAtomicAddCAS) {
		t.Fatal("A64FX did not lower atomicadd to LSE")
	}
	if !find(nolse, MAtomicAddCAS) || find(nolse, MAtomicAddLSE) {
		t.Fatal("Cortex-A72 did not lower atomicadd to CAS loop")
	}
	// CAS-loop lowering must cost more cycles than LSE.
	run := func(cm *CompiledModule, march *isa.MicroArch) float64 {
		env := ir.NewSimpleEnv(1 << 12)
		ma, _ := NewMachine(cm, env, NewLinkage(cm), ir.ExecLimits{})
		if _, err := ma.Run("main", 64); err != nil {
			t.Fatal(err)
		}
		return Cycles(&ma.Counts, march)
	}
	if c1, c2 := run(lse, isa.A64FX()), run(nolse, isa.CortexA72()); c2 <= c1 {
		t.Fatalf("CAS-loop (%f cycles) not more expensive than LSE (%f)", c2, c1)
	}
}

func TestVectorLanesBakedPerMicroArch(t *testing.T) {
	m := ir.NewModule("vec")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64}, ir.I64)
	b.VSet(b.Param(0), b.Const64(7), b.Param(1))
	b.Ret(b.VReduce(ir.VPredAdd, b.Param(0), b.Param(1)))

	vecOps := func(march *isa.MicroArch) uint64 {
		env := ir.NewSimpleEnv(1 << 14)
		cm, err := Lower(m, march)
		if err != nil {
			t.Fatal(err)
		}
		ma, _ := NewMachine(cm, env, NewLinkage(cm), ir.ExecLimits{})
		res, err := ma.Run("main", 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 7*64 {
			t.Fatalf("%s: sum = %d, want %d", march.Name, res.Value, 7*64)
		}
		return ma.Counts[isa.OpVector]
	}
	a64fx := vecOps(isa.A64FX())   // 512-bit: 8 lanes -> 8 groups x2 ops
	xeon := vecOps(isa.XeonE5())   // 256-bit: 4 lanes -> 16 groups x2
	a72 := vecOps(isa.CortexA72()) // 128-bit: 2 lanes -> 32 groups x2
	if !(a64fx < xeon && xeon < a72) {
		t.Fatalf("vector op counts not ordered by lane width: a64fx=%d xeon=%d a72=%d", a64fx, xeon, a72)
	}
}

func TestCmpBranchFusion(t *testing.T) {
	m := ir.NewModule("fuse")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	c := b.ICmp(ir.PredSLT, b.Param(0), b.Const64(10))
	thenB := b.NewBlock("then")
	elseB := b.NewBlock("else")
	b.CondBr(c, thenB, elseB)
	b.SetBlock(thenB)
	b.Ret(b.Const64(1))
	b.SetBlock(elseB)
	b.Ret(b.Const64(0))

	cm, err := Lower(m, isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	var sawFused bool
	for _, in := range cm.Funcs[0].Code {
		if in.Op == MCmpBr {
			sawFused = true
		}
		if in.Op == MICmp {
			t.Fatal("compare not fused away")
		}
	}
	if !sawFused {
		t.Fatal("no fused compare-and-branch emitted")
	}
	env := ir.NewSimpleEnv(1 << 12)
	ma, _ := NewMachine(cm, env, NewLinkage(cm), ir.ExecLimits{})
	for _, tc := range []struct{ in, want uint64 }{{5, 1}, {15, 0}} {
		res, err := ma.Run("main", tc.in)
		if err != nil || res.Value != tc.want {
			t.Fatalf("main(%d) = %d, %v; want %d", tc.in, res.Value, err, tc.want)
		}
	}
}

func TestFusionSkippedWhenCmpHasOtherUses(t *testing.T) {
	m := ir.NewModule("nofuse")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	c := b.ICmp(ir.PredSLT, b.Param(0), b.Const64(10))
	thenB := b.NewBlock("then")
	elseB := b.NewBlock("else")
	b.CondBr(c, thenB, elseB)
	b.SetBlock(thenB)
	b.Ret(c) // second use of the compare result
	b.SetBlock(elseB)
	b.Ret(b.Const64(9))
	cm, err := Lower(m, isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range cm.Funcs[0].Code {
		if in.Op == MCmpBr {
			t.Fatal("fused a compare that has other uses")
		}
	}
	env := ir.NewSimpleEnv(1 << 12)
	ma, _ := NewMachine(cm, env, NewLinkage(cm), ir.ExecLimits{})
	res, err := ma.Run("main", 3)
	if err != nil || res.Value != 1 {
		t.Fatalf("got %d, %v; want 1", res.Value, err)
	}
}

func TestExternCallThroughGOT(t *testing.T) {
	m := ir.NewModule("got")
	b := ir.NewBuilder(m)
	b.DeclareExtern("ucx.put")
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	b.Ret(b.Call("ucx.put", true, b.Param(0), b.Const64(2)))
	env := ir.NewSimpleEnv(1 << 12)
	env.Externs["ucx.put"] = func(a []uint64) (uint64, error) { return a[0] * a[1], nil }
	v, ma := lowerAndRun(t, m, isa.XeonE5(), env, "main", 21)
	if v != 42 {
		t.Fatalf("got %d, want 42", v)
	}
	if ma.Counts[isa.OpCallInd] == 0 {
		t.Fatal("external call not charged as GOT-indirect")
	}
}

// TestExternCallAllocFree: a warm machine calling an extern (with an
// alloca in the frame) allocates nothing per execution on either engine
// — extern arguments go through the machine's reusable buffer, the one
// allocation the pointer-chase hop used to pay.
func TestExternCallAllocFree(t *testing.T) {
	m := ir.NewModule("ext")
	b := ir.NewBuilder(m)
	b.DeclareExtern("mul")
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	slot := b.Alloca(16)
	b.Store(ir.I64, b.Param(0), slot, 8)
	b.Ret(b.Call("mul", true, b.Load(ir.I64, slot, 8), b.Const64(2)))
	cm, err := Lower(m, isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	env := ir.NewSimpleEnv(1 << 13)
	env.Externs["mul"] = func(a []uint64) (uint64, error) { return a[0] * a[1], nil }
	for _, name := range EngineNames() {
		ma, err := NewMachineFor(MustEngine(name), cm, env, linkFor(t, cm, env),
			ir.ExecLimits{StackBase: 4096, StackSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			ma.Reset()
			if res, err := ma.Run("main", 21); err != nil || res.Value != 42 {
				t.Fatalf("%s: got %d, %v; want 42", name, res.Value, err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
			t.Errorf("%s: warm extern call allocates %.1f objects per execution, want 0", name, allocs)
		}
	}
}

func TestUnlinkedModuleRefusesToRun(t *testing.T) {
	m := ir.NewModule("unlinked")
	b := ir.NewBuilder(m)
	b.DeclareExtern("missing")
	b.NewFunc("main", []ir.Type{}, ir.I64)
	b.Ret(b.Call("missing", true))
	cm, err := Lower(m, isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	env := ir.NewSimpleEnv(1 << 12)
	if _, err := NewMachine(cm, env, nil, ir.ExecLimits{}); !errors.Is(err, ErrNotLinked) {
		t.Fatalf("err = %v, want not-linked", err)
	}
	// A linkage with a nil binding fails at call time with unresolved.
	ma, err := NewMachine(cm, env, NewLinkage(cm), ir.ExecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Run("main"); !errors.Is(err, ir.ErrUnresolved) {
		t.Fatalf("err = %v, want unresolved", err)
	}
}

func TestPureModuleNeedsNoLinkage(t *testing.T) {
	m := ir.NewModule("pure")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	b.Ret(b.Add(b.Param(0), b.Const64(1)))
	cm, err := Lower(m, isa.CortexA72())
	if err != nil {
		t.Fatal(err)
	}
	env := ir.NewSimpleEnv(1 << 12)
	ma, err := NewMachine(cm, env, nil, ir.ExecLimits{})
	if err != nil {
		t.Fatalf("pure module rejected without linkage: %v", err)
	}
	if res, err := ma.Run("main", 41); err != nil || res.Value != 42 {
		t.Fatalf("got %d, %v", res.Value, err)
	}
}

func TestTextCodecRoundTripAllISAs(t *testing.T) {
	cfg := ir.DefaultGenConfig()
	for seed := int64(0); seed < 40; seed++ {
		m := ir.GenModule(rand.New(rand.NewSource(seed)), cfg)
		for _, march := range []*isa.MicroArch{isa.XeonE5(), isa.A64FX(), isa.Generic(isa.TripleRV)} {
			cm, err := Lower(m, march)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range cm.Funcs {
				data, err := EncodeText(p, march.Triple.Arch)
				if err != nil {
					t.Fatal(err)
				}
				back, err := DecodeText(data, march.Triple.Arch)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, march.Name, err)
				}
				if len(back) != len(p.Code) {
					t.Fatalf("length %d != %d", len(back), len(p.Code))
				}
				for i := range back {
					if back[i] != p.Code[i] {
						t.Fatalf("seed %d %s pc %d: %+v != %+v", seed, march.Name, i, back[i], p.Code[i])
					}
				}
			}
		}
	}
}

func TestWrongArchRejected(t *testing.T) {
	// The §III-B failure: x86 text shipped to an Arm CPU must be refused.
	m := ir.NewModule("portability")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{}, ir.I64)
	b.Ret(b.Const64(1))
	cm, err := Lower(m, isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeText(cm.Funcs[0], isa.ArchX86_64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeText(data, isa.ArchAArch64); !errors.Is(err, ErrWrongArch) {
		t.Fatalf("err = %v, want wrong-arch", err)
	}
}

func TestVariableEncodingSmallerThanFixed(t *testing.T) {
	// The CISC-style stream should be denser for typical code.
	m := ir.GenModule(rand.New(rand.NewSource(99)), ir.DefaultGenConfig())
	cmX, err := Lower(m, isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	cmA, err := Lower(m, isa.A64FX())
	if err != nil {
		t.Fatal(err)
	}
	var xBytes, aBytes int
	for _, p := range cmX.Funcs {
		d, _ := EncodeText(p, isa.ArchX86_64)
		xBytes += len(d)
	}
	for _, p := range cmA.Funcs {
		d, _ := EncodeText(p, isa.ArchAArch64)
		aBytes += len(d)
	}
	if xBytes >= aBytes {
		t.Fatalf("x86 stream (%d B) not denser than aarch64 (%d B)", xBytes, aBytes)
	}
}

func TestDecodeTextRejectsCorruption(t *testing.T) {
	m := ir.NewModule("c")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{}, ir.I64)
	b.Ret(b.Const64(5))
	cm, _ := Lower(m, isa.XeonE5())
	data, _ := EncodeText(cm.Funcs[0], isa.ArchX86_64)
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeText(data[:cut], isa.ArchX86_64); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	if _, err := DecodeText(nil, isa.ArchX86_64); err == nil {
		t.Fatal("accepted nil")
	}
}

func TestCyclesIssueWidthDiscount(t *testing.T) {
	var counts [isa.NumOps]uint64
	counts[isa.OpALU] = 100
	wide := isa.XeonE5()  // issue 4
	narrow := isa.A64FX() // issue 2
	if Cycles(&counts, wide) >= Cycles(&counts, narrow) {
		t.Fatal("issue width discount not applied")
	}
	counts = [isa.NumOps]uint64{}
	counts[isa.OpLoad] = 10
	if Cycles(&counts, wide) != 10*wide.Cost[isa.OpLoad] {
		t.Fatal("non-ALU ops must not be discounted")
	}
}

func TestDisasmMentionsOps(t *testing.T) {
	m := ir.NewModule("d")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	b.Ret(b.Add(b.Param(0), b.Const64(1)))
	cm, _ := Lower(m, isa.XeonE5())
	s := Disasm(cm.Funcs[0])
	if len(s) == 0 {
		t.Fatal("empty disassembly")
	}
}

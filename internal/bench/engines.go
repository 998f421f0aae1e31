package bench

import (
	"fmt"
	"time"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/mcode"
)

// EngineResult is one row of the execution-engine comparison: the host
// wall-clock cost of executing a kernel under each engine. Virtual-time
// metrics are engine-invariant by contract (the differential tests
// enforce identical operation counts), so the comparison is about how
// fast the simulator host can push messages through a node — the knob
// that bounds achievable simulated traffic.
type EngineResult struct {
	Kernel string
	// Steps is the dynamic instruction count of one execution.
	Steps int64
	// InterpNs and SuperNs are the mean wall-clock nanoseconds per
	// execution under the interpreter and the superblock engine.
	InterpNs float64
	SuperNs  float64
	// Speedup is InterpNs / SuperNs: the compiled engine's win over the
	// oracle.
	Speedup float64
}

// EngineKernel is one workload of the engine comparison corpus (shared
// with the root BenchmarkEngineInterpVsSuperblock so the benchmark and the
// paperbench report measure the same thing).
type EngineKernel struct {
	Name  string
	Mod   *ir.Module
	Entry string
	Args  []uint64
}

// LoopKernel builds the interpreter-throughput loop used by the VM
// microbenchmarks: a memory-carried sum over args[0] iterations.
func LoopKernel() *ir.Module {
	m := ir.NewModule("sumloop")
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64}, ir.I64)
	acc := b.Alloca(8)
	i := b.Alloca(8)
	zero := b.Const64(0)
	b.Store(ir.I64, zero, acc, 0)
	b.Store(ir.I64, zero, i, 0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	iv := b.Load(ir.I64, i, 0)
	b.CondBr(b.ICmp(ir.PredSLT, iv, b.Param(0)), body, exit)
	b.SetBlock(body)
	a := b.Load(ir.I64, acc, 0)
	b.Store(ir.I64, b.Add(a, iv), acc, 0)
	b.Store(ir.I64, b.Add(iv, b.Const64(1)), i, 0)
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(b.Load(ir.I64, acc, 0))
	return m
}

// EngineCorpus returns the kernels the comparison sweeps: the paper's
// TSI hot path and a dispatch-bound loop.
func EngineCorpus() []EngineKernel {
	return []EngineKernel{
		{Name: "tsi", Mod: core.BuildTSI(), Entry: "main", Args: []uint64{256, 1, 640}},
		{Name: "sumloop-1k", Mod: LoopKernel(), Entry: "main", Args: []uint64{1000}},
	}
}

// VerifierResult is one row of the static-verifier cost report: the
// one-time host cost of verifying a corpus kernel plus the modeled
// virtual-time charge a rejected binary admission of the same size
// would pay, and the dataflow facts the pass proved (the inputs the
// engines and the planner consume).
type VerifierResult struct {
	Kernel string
	// Instrs is the lowered instruction count the linear scan walks.
	Instrs int
	// VerifyNs is the mean host wall-clock cost of one full
	// verification (structural rules + dataflow analysis) of a freshly
	// lowered module — the cost paid once per module admission, never
	// per execution (Verify memoizes per module).
	VerifyNs float64
	// VirtualScanNs is the modeled admission charge for a binary module
	// of this size (the rejection path's 2 ns/instruction scan).
	VirtualScanNs float64
	// Bounded and MinSteps report the entry function's static step
	// bound, when proven (the planner's explore-free seed).
	Bounded  bool
	MinSteps int64
	// ElidableLoads and ElidableStores count the memory operations the
	// bounds analysis proved statically in-bounds — the checks the
	// engines compile out.
	ElidableLoads, ElidableStores int
}

// MeasureVerifier times full verification of the engine corpus on one
// µarch. Verify memoizes per CompiledModule, so each timed call gets a
// freshly lowered module; lowering happens outside the timer.
func MeasureVerifier(march *isa.MicroArch) ([]VerifierResult, error) {
	const copies = 256
	var out []VerifierResult
	for _, k := range EngineCorpus() {
		cms := make([]*mcode.CompiledModule, copies)
		for i := range cms {
			cm, err := mcode.Lower(k.Mod, march)
			if err != nil {
				return nil, fmt.Errorf("bench: verifier %s: %w", k.Name, err)
			}
			cms[i] = cm
		}
		start := time.Now()
		for _, cm := range cms {
			if _, err := mcode.Verify(cm); err != nil {
				return nil, fmt.Errorf("bench: verifier %s: %w", k.Name, err)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / copies
		facts, err := mcode.Verify(cms[0])
		if err != nil {
			return nil, err
		}
		r := VerifierResult{
			Kernel: k.Name, Instrs: cms[0].NumInstrs(), VerifyNs: ns,
			VirtualScanNs: 2 * float64(cms[0].NumInstrs()+1),
		}
		if ff := facts.Func(0); ff != nil {
			if ff.Bounded() {
				r.Bounded, r.MinSteps = true, ff.MinSteps
			}
			for fi := range cms[0].Funcs {
				f := facts.Func(fi)
				for pc, in := range cms[0].Funcs[fi].Code {
					if !f.BoundsProven(int32(pc)) {
						continue
					}
					switch in.Op {
					case mcode.MLoad:
						r.ElidableLoads++
					case mcode.MStore:
						r.ElidableStores++
					}
				}
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// engineTimer is a warm machine ready for repeated timed batches.
type engineTimer struct {
	ma    *mcode.Machine
	k     EngineKernel
	steps int64
}

func newEngineTimer(eng mcode.Engine, k EngineKernel, march *isa.MicroArch) (*engineTimer, error) {
	cm, err := mcode.Lower(k.Mod, march)
	if err != nil {
		return nil, err
	}
	env := ir.NewSimpleEnv(1 << 16)
	ma, err := mcode.NewMachineFor(eng, cm, env, mcode.NewLinkage(cm), ir.ExecLimits{
		StackBase: 32 << 10, StackSize: 16 << 10,
	})
	if err != nil {
		return nil, err
	}
	// Warm the pools, caches and branch predictors.
	for i := 0; i < 3; i++ {
		ma.Reset()
		if _, err := ma.Run(k.Entry, k.Args...); err != nil {
			return nil, err
		}
	}
	return &engineTimer{ma: ma, k: k, steps: ma.Steps()}, nil
}

// batch times one run of iters executions, returning ns per execution.
func (et *engineTimer) batch(iters int) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		et.ma.Reset()
		if _, err := et.ma.Run(et.k.Entry, et.k.Args...); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

// CompareEngines measures the interp-vs-superblock wall-clock cost of
// the comparison corpus on one µarch. Rounds interleave the two engines
// and the fastest round per engine is kept, so transient host noise
// (frequency ramp-up, cache warmth, scheduling) cannot bias one side.
func CompareEngines(march *isa.MicroArch) ([]EngineResult, error) {
	const rounds = 5
	var out []EngineResult
	for _, k := range EngineCorpus() {
		iters := 20000
		if k.Name != "tsi" {
			iters = 1000
		}
		engines := []mcode.Engine{mcode.InterpEngine{}, mcode.SuperblockEngine{}}
		timers := make([]*engineTimer, len(engines))
		for i, eng := range engines {
			et, err := newEngineTimer(eng, k, march)
			if err != nil {
				return nil, fmt.Errorf("bench: engine %s/%s: %w", eng.Name(), k.Name, err)
			}
			timers[i] = et
		}
		best := [2]float64{}
		for r := 0; r < rounds; r++ {
			for i, et := range timers {
				ns, err := et.batch(iters)
				if err != nil {
					return nil, fmt.Errorf("bench: engine %s/%s: %w", engines[i].Name(), k.Name, err)
				}
				if r == 0 || ns < best[i] {
					best[i] = ns
				}
			}
		}
		out = append(out, EngineResult{
			Kernel: k.Name, Steps: timers[0].steps,
			InterpNs: best[0], SuperNs: best[1], Speedup: best[0] / best[1],
		})
	}
	return out, nil
}

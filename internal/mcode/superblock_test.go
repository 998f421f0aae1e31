package mcode_test

// Differential tests specific to the superblock engine: randomized
// program fuzzing against the interpreter oracle across the three paper
// µarchs, MaxSteps limits swept so aborts land at every offset —
// including mid-superblock and mid-native-loop — and pinned assertions
// that superblock formation actually happens on the shapes it targets
// (loop merging, native self-loops, the RMW direct runner).

import (
	"fmt"
	"math/rand"
	"testing"

	"threechains/internal/bench"
	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/mcode"
)

// fuzzMarchs is the µarch grid of the fuzz suite.
func fuzzMarchs() []*isa.MicroArch {
	return []*isa.MicroArch{isa.XeonE5(), isa.A64FX(), isa.CortexA72()}
}

// randModule generates a random — but always verifying and terminating —
// guest program: stack slots seeded from parameters, a bounded
// memory-carried counting loop whose body mixes straight-line arithmetic,
// slot loads/stores and an optional branch diamond, and a return value
// folded from the live pool. Faulting programs (division by a parameter
// that may be zero, occasional wild addresses) are generated on purpose:
// the differential runner compares errors too.
func randModule(r *rand.Rand, id int) *ir.Module {
	m := ir.NewModule(fmt.Sprintf("fuzz%03d", id))
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.I64, ir.I64}, ir.I64)

	// Entry: slots and a seed pool (params, constants, entry arithmetic).
	nslots := 1 + r.Intn(3)
	slots := make([]ir.Reg, nslots)
	for i := range slots {
		slots[i] = b.Alloca(8)
	}
	pool := []ir.Reg{b.Param(0), b.Param(1), b.Const64(int64(r.Intn(64))), b.Const64(1)}
	pick := func() ir.Reg { return pool[r.Intn(len(pool))] }
	binOps := []func(x, y ir.Reg) ir.Reg{b.Add, b.Sub, b.Mul, b.And, b.Or, b.Xor}
	emitOp := func() {
		switch r.Intn(8) {
		case 6:
			// Division: may fault on a zero operand, by design.
			pool = append(pool, b.UDiv(pick(), pick()))
		case 7:
			preds := []ir.Pred{ir.PredEQ, ir.PredNE, ir.PredSLT, ir.PredULT, ir.PredSGE}
			pool = append(pool, b.ICmp(preds[r.Intn(len(preds))], pick(), pick()))
		default:
			pool = append(pool, binOps[r.Intn(len(binOps))](pick(), pick()))
		}
	}
	for i := 0; i < 2+r.Intn(4); i++ {
		emitOp()
	}
	for i, s := range slots {
		if i == 0 {
			b.Store(ir.I64, b.Const64(0), s, 0) // loop counter
		} else {
			b.Store(ir.I64, pick(), s, 0)
		}
	}
	if r.Intn(4) == 0 {
		// Rarely store through a huge address: both engines must fault
		// identically.
		b.Store(ir.I64, pick(), b.Const64(1<<40), 0)
	}

	bound := b.Const64(int64(3 + r.Intn(24)))
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)

	// head: while *counter < bound
	b.SetBlock(head)
	iv := b.Load(ir.I64, slots[0], 0)
	b.CondBr(b.ICmp(ir.PredSLT, iv, bound), body, exit)

	// body: straight-line work over slots, optionally a branch diamond,
	// then the counted back edge.
	b.SetBlock(body)
	bodyPool := append([]ir.Reg(nil), pool...)
	bpick := func() ir.Reg { return bodyPool[r.Intn(len(bodyPool))] }
	for i := 0; i < 1+r.Intn(3); i++ {
		s := slots[r.Intn(nslots)]
		v := b.Load(ir.I64, s, 0)
		bodyPool = append(bodyPool, v)
		nv := binOps[r.Intn(len(binOps))](v, bpick())
		bodyPool = append(bodyPool, nv)
		if s != slots[0] {
			b.Store(ir.I64, nv, s, 0)
		}
	}
	if r.Intn(2) == 0 {
		then := b.NewBlock("then")
		join := b.NewBlock("join")
		b.CondBr(b.ICmp(ir.PredULT, bpick(), bpick()), then, join)
		b.SetBlock(then)
		if nslots > 1 {
			b.Store(ir.I64, bpick(), slots[1], 0)
		}
		b.Br(join)
		b.SetBlock(join)
	}
	b.Store(ir.I64, b.Add(b.Load(ir.I64, slots[0], 0), b.Const64(1)), slots[0], 0)
	b.Br(head)

	// exit: fold a return value from memory and the entry pool.
	b.SetBlock(exit)
	acc := b.Load(ir.I64, slots[nslots-1], 0)
	b.Ret(b.Xor(acc, pick()))
	return m
}

// fuzzObserve runs one (engine, module, limit) cell and returns every
// observable the differential compares.
func fuzzObserve(t *testing.T, eng mcode.Engine, cm *mcode.CompiledModule, args []uint64, limit int64) (ir.ExecResult, [isa.NumOps]uint64, []byte, error) {
	t.Helper()
	env := ir.NewSimpleEnv(1 << 14)
	ma, err := mcode.NewMachineFor(eng, cm, env, mcode.NewLinkage(cm), ir.ExecLimits{
		MaxSteps: limit, StackBase: 8 << 10, StackSize: 4 << 10,
	})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	res, runErr := ma.Run("main", args...)
	return res, ma.Counts, env.Memory, runErr
}

// TestSuperblockFuzzDifferential holds the superblock engine to the
// interpreter oracle on a corpus of random programs, across the three
// paper µarchs, each at the unlimited budget plus tight budgets chosen
// from the program's own step count so aborts land inside merged regions.
func TestSuperblockFuzzDifferential(t *testing.T) {
	const programs = 40
	r := rand.New(rand.NewSource(0x5eedb10c))
	argSets := [][]uint64{{7, 3}, {0, 0}, {1 << 33, 5}}
	for id := 0; id < programs; id++ {
		mod := randModule(r, id)
		args := argSets[id%len(argSets)]
		for _, march := range fuzzMarchs() {
			cm, err := mcode.Lower(mod, march)
			if err != nil {
				t.Fatalf("%s: lower: %v", mod.Name, err)
			}
			ref, refCounts, refMem, refErr := fuzzObserve(t, mcode.InterpEngine{}, cm, args, 0)
			limits := []int64{0, ref.Steps - 1, ref.Steps / 2, ref.Steps/3 + 1, 7}
			for _, limit := range limits {
				if limit < 0 || limit > ref.Steps {
					continue
				}
				want, wantCounts, wantMem, wantErr := ref, refCounts, refMem, refErr
				if limit != 0 {
					want, wantCounts, wantMem, wantErr = fuzzObserve(t, mcode.InterpEngine{}, cm, args, limit)
				}
				got, gotCounts, gotMem, gotErr := fuzzObserve(t, mcode.SuperblockEngine{}, cm, args, limit)
				name := fmt.Sprintf("%s/%s/superblock/limit=%d", mod.Name, march.Name, limit)
				if (wantErr == nil) != (gotErr == nil) ||
					(wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("%s: error mismatch: interp=%v got=%v", name, wantErr, gotErr)
				}
				if got.Value != want.Value {
					t.Fatalf("%s: value %#x, interp %#x", name, got.Value, want.Value)
				}
				if got.Steps != want.Steps {
					t.Fatalf("%s: steps %d, interp %d", name, got.Steps, want.Steps)
				}
				if gotCounts != wantCounts {
					t.Fatalf("%s: op counts diverge:\n got:    %v\n interp: %v", name, gotCounts, wantCounts)
				}
				if string(gotMem) != string(wantMem) {
					t.Fatalf("%s: final memory images diverge", name)
				}
			}
		}
	}
}

// TestSuperblockFuzzBatch pins batch ≡ sequential for the superblock
// engine on a slice of the fuzz corpus: RunBatch over n identical
// elements must reproduce n independent Reset+Run executions element for
// element, with batch-cumulative counts.
func TestSuperblockFuzzBatch(t *testing.T) {
	const batchN = 3
	r := rand.New(rand.NewSource(0xba7c4))
	for id := 0; id < 10; id++ {
		mod := randModule(r, 100+id)
		cm, err := mcode.Lower(mod, isa.XeonE5())
		if err != nil {
			t.Fatal(err)
		}
		args := []uint64{9, 2}

		seqEnv := ir.NewSimpleEnv(1 << 14)
		seqMa, err := mcode.NewMachineFor(mcode.SuperblockEngine{}, cm, seqEnv, mcode.NewLinkage(cm), ir.ExecLimits{
			StackBase: 8 << 10, StackSize: 4 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		var seq []mcode.BatchResult
		var seqCounts [isa.NumOps]uint64
		for i := 0; i < batchN; i++ {
			seqMa.Reset()
			res, runErr := seqMa.Run("main", args...)
			seq = append(seq, mcode.BatchResult{Value: res.Value, Steps: res.Steps, Err: runErr})
			for op := range seqCounts {
				seqCounts[op] += seqMa.Counts[op]
			}
		}

		env := ir.NewSimpleEnv(1 << 14)
		ma, err := mcode.NewMachineFor(mcode.SuperblockEngine{}, cm, env, mcode.NewLinkage(cm), ir.ExecLimits{
			StackBase: 8 << 10, StackSize: 4 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		argvs := make([][]uint64, batchN)
		for i := range argvs {
			argvs[i] = args
		}
		out := make([]mcode.BatchResult, batchN)
		if err := ma.RunBatch("main", argvs, out); err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if (seq[i].Err == nil) != (out[i].Err == nil) ||
				(seq[i].Err != nil && seq[i].Err.Error() != out[i].Err.Error()) {
				t.Fatalf("%s elem %d: err batch=%v seq=%v", mod.Name, i, out[i].Err, seq[i].Err)
			}
			if out[i].Value != seq[i].Value || out[i].Steps != seq[i].Steps {
				t.Fatalf("%s elem %d: batch (%#x,%d) vs seq (%#x,%d)",
					mod.Name, i, out[i].Value, out[i].Steps, seq[i].Value, seq[i].Steps)
			}
		}
		if ma.Counts != seqCounts {
			t.Fatalf("%s: cumulative counts diverge", mod.Name)
		}
		if string(env.Memory) != string(seqEnv.Memory) {
			t.Fatalf("%s: memory diverges", mod.Name)
		}
	}
}

// TestSuperblockMidLoopAbortSweep pins the exact-abort contract on the
// memory-carried counting loop (the engine-benchmark kernel): every
// MaxSteps limit from 1 to well past several loop traversals must
// reproduce the interpreter's value/steps/counts/error/memory bit for
// bit — these limits land at every offset inside the merged body+head
// superblock and inside the native self-loop.
func TestSuperblockMidLoopAbortSweep(t *testing.T) {
	mod := bench.LoopKernel()
	for _, march := range fuzzMarchs() {
		cm, err := mcode.Lower(mod, march)
		if err != nil {
			t.Fatal(err)
		}
		args := []uint64{25}
		full, _, _, err := fuzzObserve(t, mcode.InterpEngine{}, cm, args, 0)
		if err != nil {
			t.Fatal(err)
		}
		for limit := int64(1); limit <= full.Steps; limit++ {
			want, wantCounts, wantMem, wantErr := fuzzObserve(t, mcode.InterpEngine{}, cm, args, limit)
			got, gotCounts, gotMem, gotErr := fuzzObserve(t, mcode.SuperblockEngine{}, cm, args, limit)
			if (wantErr == nil) != (gotErr == nil) ||
				(wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s limit %d: error mismatch interp=%v superblock=%v", march.Name, limit, wantErr, gotErr)
			}
			if got.Value != want.Value || got.Steps != want.Steps {
				t.Fatalf("%s limit %d: (%#x,%d) vs interp (%#x,%d)",
					march.Name, limit, got.Value, got.Steps, want.Value, want.Steps)
			}
			if gotCounts != wantCounts {
				t.Fatalf("%s limit %d: op counts diverge\n sb:     %v\n interp: %v",
					march.Name, limit, gotCounts, wantCounts)
			}
			if string(gotMem) != string(wantMem) {
				t.Fatalf("%s limit %d: memory diverges", march.Name, limit)
			}
		}
	}
}

// TestSuperblockFormation asserts the former actually merges on the
// shapes the engine targets: the loop kernel must produce at least one
// multi-segment region and one native self-loop, and the TSI kernel must
// compile to the single-block fast path while still running correctly.
func TestSuperblockFormation(t *testing.T) {
	loopCM, err := mcode.Lower(bench.LoopKernel(), isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	art, err := mcode.SuperblockEngine{}.Prepare(loopCM)
	if err != nil {
		t.Fatal(err)
	}
	merged, loops, ok := mcode.SuperblockStats(art)
	if !ok {
		t.Fatal("SuperblockStats not ok for a superblock artifact")
	}
	if merged == 0 || loops == 0 {
		t.Fatalf("loop kernel formed merged=%d loops=%d, want both > 0", merged, loops)
	}
	if _, _, ok := mcode.SuperblockStats(mustPrepare(t, mcode.InterpEngine{}, loopCM)); ok {
		t.Fatal("SuperblockStats should reject interpreter artifacts")
	}

	// TSI: the direct-runner shape must still satisfy the interpreter
	// differential (covered above), and its stats must be reachable.
	tsiCM, err := mcode.Lower(core.BuildTSI(), isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := mcode.SuperblockStats(mustPrepare(t, mcode.SuperblockEngine{}, tsiCM)); !ok {
		t.Fatal("SuperblockStats not ok for TSI superblock artifact")
	}
}

func mustPrepare(t *testing.T, eng mcode.Engine, cm *mcode.CompiledModule) mcode.Artifact {
	t.Helper()
	art, err := eng.Prepare(cm)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

package mcode

import (
	"fmt"

	"threechains/internal/ir"
	"threechains/internal/isa"
)

// Closure compilation is the execution machinery of the superblock
// engine (superblock.go): Prepare compiles every lowered instruction into
// a Go closure with register indices, immediates, type specializations
// and branch targets resolved once, so the per-step cost at run time
// drops to one indirect call. Within a compiled region the closures are
// chained directly (each calls the next), and step/op-count accounting is
// batched per region from statically known totals, eliminating the
// interpreter's per-instruction decode, bounds, counter and limit
// traffic. This is the one-time JIT investment the paper's model assumes
// buys near-native execution (§III-C).

// prepareClosureArtifact compiles the module into superblock-formed
// closure chains.
func prepareClosureArtifact(cm *CompiledModule) (Artifact, error) {
	// Static dataflow facts (analysis.go) let the compiled closures drop
	// checks the verifier already discharged: bounds tests on accesses
	// proven inside an alloca region, and per-traversal budget checks in
	// proven fault-free native loops. Analyze is tolerant — a function
	// that fails verification gets no facts and compiles fully checked —
	// so artifacts prepared outside the admission path keep working.
	facts := Analyze(cm)
	a := &closureArtifact{cm: cm, progs: make([]*cprog, len(cm.Funcs))}
	for i, p := range cm.Funcs {
		cp, err := a.compileProg(p, facts.Func(i))
		if err != nil {
			return nil, fmt.Errorf("mcode: %s-compile %s.%s: %w", EngineNameSuperblock, cm.Name, p.Name, err)
		}
		a.progs[i] = cp
	}
	return a, nil
}

// bclosure executes from one point to the end of its basic block and
// returns the successor block (nil after MRet), resolved to a direct
// pointer at compile time.
type bclosure func(f *cframe) (*cblock, error)

// cframe is one function activation of closure-compiled code. Frames are
// pooled on the Machine, so steady-state execution does not allocate.
type cframe struct {
	ma     *Machine
	art    *closureArtifact
	regs   []uint64
	mem    []byte
	counts *[isa.NumOps]uint64
	ret    uint64
}

// cdelta is one operation-class contribution to the dynamic counts.
type cdelta struct {
	op isa.Op
	n  uint64
}

// cblock is one compiled region (a superblock rooted at a basic-block
// leader): the head of its closure chain plus the statically known step
// and count totals charged when it retires.
type cblock struct {
	run bclosure
	// steps is the instruction count charged (and checked against
	// MaxSteps) on region entry.
	steps int64
	// start is the block's first pc in the lowered code — the entry point
	// for the exact-abort fallback, which replays the block's in-budget
	// prefix through the reference interpreter loop when the pre-charge
	// would blow the MaxSteps budget.
	start int32
	// deltas is the block's static operation-class contribution, applied
	// after the block retires. Runtime-dependent classes (vector groups)
	// are counted by their own closures instead.
	deltas []cdelta
}

// cprog is one closure-compiled function.
type cprog struct {
	name    string
	params  int
	numRegs int
	blocks  []cblock
	// prog is the lowered source the blocks were compiled from, kept for
	// the exact-abort interpreter fallback.
	prog *Program
	// fast marks a single-block, ret-terminated function: the activation
	// runs through callFast, which skips the trampoline loop entirely —
	// the dominant shape of tiny message kernels like TSI.
	fast bool
	// direct, when non-nil, is the whole-function superinstruction
	// (compileDirectRMW): it executes the entire activation without a
	// frame or register file. It handles only the happy path — before any
	// state is mutated it bails out (ok=false) on budget or bounds
	// deviations, and the activation re-runs through the ordinary chain,
	// which reproduces aborts and faults with exact accounting.
	direct func(ma *Machine, args []uint64) (v uint64, err error, ok bool)
}

// closureArtifact is a module compiled by SuperblockEngine: closure
// chains per superblock region (superblock.go forms and fuses them).
type closureArtifact struct {
	cm    *CompiledModule
	progs []*cprog
	// merged and loops count multi-segment superblocks and native
	// self-loops formed at compile time (SuperblockStats).
	merged, loops int
}

// Module implements Artifact.
func (a *closureArtifact) Module() *CompiledModule { return a.cm }

func (a *closureArtifact) run(ma *Machine, fi int, args []uint64) (uint64, error) {
	return a.invoke(ma, a.progs[fi], args)
}

// invoke dispatches one activation through the trampoline or, for
// single-block ret-terminated functions, the fast paths.
func (a *closureArtifact) invoke(ma *Machine, cp *cprog, args []uint64) (uint64, error) {
	if cp.direct != nil {
		if v, err, ok := cp.direct(ma, args); ok {
			return v, err
		}
	}
	if cp.fast {
		return a.callFast(ma, cp, args)
	}
	return a.call(ma, cp, args)
}

// runBatch is the native batched entry: the block graph, frame pool and
// register layout are already resolved, so each element is a bare
// reset-and-reenter of the trampoline — no per-element entry lookup,
// argument re-validation or artifact dispatch. Counts accumulate across
// the batch (one virtual-time charge); the budget ceiling is rebased per
// element so each message keeps the standalone MaxSteps budget.
func (a *closureArtifact) runBatch(ma *Machine, fi int, argvs [][]uint64, out []BatchResult) {
	cp := a.progs[fi]
	budget := ma.Limits.MaxSteps
	for i, argv := range argvs {
		start := ma.steps
		ma.Limits.MaxSteps = start + budget
		v, err := a.invoke(ma, cp, argv)
		out[i] = BatchResult{Value: v, Steps: ma.steps - start, Err: err}
	}
	ma.Limits.MaxSteps = budget
}

// getFrame returns the frame for the next call depth. Frames stay bound
// to their depth slot, so the register file a slot carries converges to
// the right size and is reused without pool traffic.
func (ma *Machine) getFrame() *cframe {
	if ma.depth < len(ma.framePool) {
		f := ma.framePool[ma.depth]
		ma.depth++
		return f
	}
	f := &cframe{}
	ma.framePool = append(ma.framePool, f)
	ma.depth++
	return f
}

// putFrame releases the deepest frame.
func (ma *Machine) putFrame(f *cframe) { ma.depth-- }

// frameRegs returns f's register file of length n with args in the
// leading registers and the rest zeroed, reusing the slot's buffer when
// it is large enough.
func (f *cframe) frameRegs(n int, args []uint64) []uint64 {
	var r []uint64
	if cap(f.regs) >= n {
		r = f.regs[:n]
	} else {
		r = make([]uint64, n)
		f.regs = r
	}
	i := 0
	for ; i < len(args) && i < n; i++ {
		r[i] = args[i]
	}
	for ; i < n; i++ {
		r[i] = 0
	}
	return r
}

// call runs one activation of cp: the block trampoline. Steps and static
// counts are charged per block. When a block's pre-charge would blow the
// MaxSteps budget, the charge is refunded and the activation falls back
// to the reference interpreter loop from the block's first instruction:
// the in-budget prefix executes with per-instruction accounting (and its
// side effects land), so abort-time counters and memory match the
// interpreter exactly instead of stopping at block granularity.
func (a *closureArtifact) call(ma *Machine, cp *cprog, args []uint64) (uint64, error) {
	f := ma.getFrame()
	f.ma, f.art = ma, a
	f.regs = f.frameRegs(cp.numRegs, args)
	f.mem = ma.Env.Mem()
	f.counts = &ma.Counts
	frameSP := ma.sp

	maxSteps := ma.Limits.MaxSteps
	blk := &cp.blocks[0]
	var v uint64
	var err error
	for {
		ma.steps += blk.steps
		if ma.steps > maxSteps {
			// Exact abort: refund the block pre-charge and replay the
			// block (and, in the impossible case the budget is not
			// exhausted there, the rest of the activation) on the
			// interpreter. f.regs is the engine-shared register layout, so
			// the hand-off needs no translation.
			ma.steps -= blk.steps
			v, err = ma.execFrom(cp.prog, f.regs, blk.start)
			break
		}
		var nblk *cblock
		nblk, err = blk.run(f)
		if err != nil {
			break
		}
		for _, d := range blk.deltas {
			f.counts[d.op] += d.n
		}
		if nblk == nil {
			v = f.ret
			break
		}
		blk = nblk
	}
	ma.sp = frameSP
	ma.putFrame(f)
	return v, err
}

// callFast runs one activation of a single-block, ret-terminated
// function: the block chain can only end the activation (there is no
// other block a transfer could reach), so the trampoline loop collapses
// to one pre-charge, one chain call and one delta retirement. The
// exact-abort contract is identical to call's.
func (a *closureArtifact) callFast(ma *Machine, cp *cprog, args []uint64) (uint64, error) {
	f := ma.getFrame()
	f.ma, f.art = ma, a
	f.regs = f.frameRegs(cp.numRegs, args)
	f.mem = ma.Env.Mem()
	f.counts = &ma.Counts
	frameSP := ma.sp

	blk := &cp.blocks[0]
	var v uint64
	var err error
	ma.steps += blk.steps
	if ma.steps > ma.Limits.MaxSteps {
		ma.steps -= blk.steps
		v, err = ma.execFrom(cp.prog, f.regs, blk.start)
	} else if _, err = blk.run(f); err == nil {
		for _, d := range blk.deltas {
			f.counts[d.op] += d.n
		}
		v = f.ret
	}
	ma.sp = frameSP
	ma.putFrame(f)
	return v, err
}

// faultFix restores exact interpreter accounting when an instruction
// faults mid-block: the pre-charged steps of the not-executed suffix are
// refunded and the static counts of the executed prefix (which the
// trampoline would only apply on block retirement) are applied.
type faultFix struct {
	suffixSteps int64
	prefix      []cdelta
}

func (fx *faultFix) fail(f *cframe, err error) (*cblock, error) {
	f.ma.steps -= fx.suffixSteps
	for _, d := range fx.prefix {
		f.counts[d.op] += d.n
	}
	return nil, err
}

// staticDeltas returns the fixed operation-class cost of one lowered
// instruction, mirroring the interpreter's counting. Vector ops return
// nil: their group count depends on a runtime element count, so their
// closures count inline on success.
func staticDeltas(in *MInstr) []cdelta {
	switch in.Op {
	case MMul:
		return []cdelta{{isa.OpMul, 1}}
	case MSDiv, MUDiv, MSRem, MURem:
		return []cdelta{{isa.OpDiv, 1}}
	case MFAdd, MFSub, MFMul:
		return []cdelta{{isa.OpFPU, 1}}
	case MFDiv:
		return []cdelta{{isa.OpFDiv, 1}}
	case MFCmp, MSIToFP, MUIToFP, MFPToSI, MFPToUI:
		return []cdelta{{isa.OpFPU, 1}}
	case MLoad, MGlobal:
		return []cdelta{{isa.OpLoad, 1}}
	case MStore:
		return []cdelta{{isa.OpStore, 1}}
	case MJmp, MJnz, MCmpBr:
		return []cdelta{{isa.OpBranch, 1}}
	case MRet, MCallLocal:
		return []cdelta{{isa.OpCall, 1}}
	case MCallExt:
		return []cdelta{{isa.OpCallInd, 1}}
	case MAtomicAddLSE, MAtomicCASOp:
		return []cdelta{{isa.OpAtomic, 1}}
	case MAtomicAddCAS:
		return []cdelta{{isa.OpAtomic, 1}, {isa.OpALU, 2}, {isa.OpBranch, 1}}
	case MVSet, MVCopy, MVBinOp, MVReduce:
		return nil
	default:
		// MNop, MConst, ALU/shift/logic, compares, casts, select, alloca,
		// ptradd, trap: one ALU-class op.
		return []cdelta{{isa.OpALU, 1}}
	}
}

// addDelta merges one class contribution into a delta set.
func addDelta(ds []cdelta, op isa.Op, n uint64) []cdelta {
	for i := range ds {
		if ds[i].op == op {
			ds[i].n += n
			return ds
		}
	}
	return append(ds, cdelta{op, n})
}

// isTerminator reports whether the op transfers control (ends a block).
func isTerminator(op MOp) bool {
	return op == MJmp || op == MJnz || op == MCmpBr || op == MRet
}

// compileProg partitions the linear code into basic blocks and compiles
// the superblock region rooted at each into a closure chain.
func (a *closureArtifact) compileProg(p *Program, ff *FuncFacts) (*cprog, error) {
	cp := &cprog{name: p.Name, params: p.Params, numRegs: p.NumRegs, prog: p}
	code := p.Code

	if len(code) == 0 {
		// Entering an empty function is the interpreter's "pc past end".
		name := p.Name
		cp.blocks = []cblock{{run: func(f *cframe) (*cblock, error) {
			return nil, fmt.Errorf("mcode: %s: pc 0 past end", name)
		}}}
		return cp, nil
	}

	// Leaders: entry, branch targets, fall-throughs after terminators —
	// and after local calls. Ending the accounting block at a call keeps
	// the step pre-charge exact across activation boundaries: when a
	// callee runs, every pre-charged instruction of every caller on the
	// stack has actually executed, so a MaxSteps abort deep in recursion
	// triggers at precisely the oracle's step count (no phantom charge
	// for caller suffixes that never ran).
	leader := make([]bool, len(code))
	leader[0] = true
	mark := func(pc int32) error {
		if pc < 0 || int(pc) > len(code) {
			return fmt.Errorf("branch target %d out of range", pc)
		}
		if int(pc) < len(code) {
			leader[pc] = true
		}
		return nil
	}
	for i := range code {
		in := &code[i]
		switch in.Op {
		case MJmp:
			if err := mark(in.Target); err != nil {
				return nil, err
			}
		case MJnz, MCmpBr:
			if err := mark(in.Target); err != nil {
				return nil, err
			}
			if err := mark(int32(in.Imm)); err != nil {
				return nil, err
			}
		}
		if (isTerminator(in.Op) || in.Op == MCallLocal) && i+1 < len(code) {
			leader[i+1] = true
		}
	}
	blockOf := make([]int32, len(code))
	nblocks := int32(0)
	for i := range code {
		if leader[i] {
			nblocks++
		}
		blockOf[i] = nblocks - 1
	}
	starts := make([]int, 0, nblocks)
	for i := range code {
		if leader[i] {
			starts = append(starts, i)
		}
	}

	// Preallocate so branch closures can capture stable block addresses
	// before their targets are compiled. Branches may legally target
	// len(code) (the interpreter faults with "pc past end" only if such
	// a branch executes), so those resolve to a synthetic error block
	// instead of crashing Prepare on wire-delivered modules.
	cp.blocks = make([]cblock, nblocks)
	name := p.Name
	pastEnd := &cblock{run: func(f *cframe) (*cblock, error) {
		return nil, fmt.Errorf("mcode: %s: pc %d past end", name, len(code))
	}}
	tgt := func(pc int32) *cblock {
		if int(pc) >= len(code) {
			return pastEnd
		}
		return &cp.blocks[blockOf[pc]]
	}
	if nblocks == 1 && code[len(code)-1].Op == MRet {
		cp.fast = true
		cp.direct = compileDirectRMW(p)
	}
	for b := range starts {
		blk, err := a.compileSuper(p, b, starts, blockOf, tgt, &cp.blocks[b], ff)
		if err != nil {
			return nil, err
		}
		cp.blocks[b] = blk
	}
	return cp, nil
}

// fusableALUStore8 reports whether an add/sub result is immediately
// stored as a raw 8-byte value, allowing a compute-and-store
// superinstruction.
func fusableALUStore8(ain, sin *MInstr) bool {
	if ain.Op != MAdd && ain.Op != MSub {
		return false
	}
	return sin.Op == MStore && sin.Ty.Size() == 8 && sin.Ty != ir.F32 && sin.A == ain.Dst
}

// aluOperands captures the compile-time-resolved operand plan of an
// add/sub whose inputs may be a fused constant.
type aluOperands struct {
	x, y     int
	aC, bC   bool
	v        uint64
	sub      bool
	dst      int
	constDst int // -1 when no const is fused
}

func (p *aluOperands) eval(regs []uint64) uint64 {
	lhs, rhs := regs[p.x], regs[p.y]
	if p.aC {
		lhs = p.v
	}
	if p.bC {
		rhs = p.v
	}
	if p.sub {
		return lhs - rhs
	}
	return lhs + rhs
}

func aluPlan(cin, ain *MInstr) aluOperands {
	p := aluOperands{
		x: int(ain.A), y: int(ain.B), sub: ain.Op == MSub,
		dst: int(ain.Dst), constDst: -1,
	}
	if cin != nil {
		p.v = uint64(cin.Imm)
		p.aC = ain.A == cin.Dst
		p.bC = ain.B == cin.Dst
		p.constDst = int(cin.Dst)
	}
	return p
}

// storeVal8 writes an already-computed raw 8-byte value, falling back to
// the generic checked store (for its identical error) on fault.
func storeVal8(f *cframe, addr uint64, ty ir.Type, val uint64, fx *faultFix) (*cblock, bool, error) {
	mem := f.mem
	if addr >= uint64(len(mem)) || addr+8 > uint64(len(mem)) {
		nb, err := fx.fail(f, ir.StoreMem(mem, addr, ty, val))
		return nb, false, err
	}
	mem[addr] = byte(val)
	mem[addr+1] = byte(val >> 8)
	mem[addr+2] = byte(val >> 16)
	mem[addr+3] = byte(val >> 24)
	mem[addr+4] = byte(val >> 32)
	mem[addr+5] = byte(val >> 40)
	mem[addr+6] = byte(val >> 48)
	mem[addr+7] = byte(val >> 56)
	return nil, true, nil
}

// fuseConstALUStore8 compiles (const; add/sub using it; 8-byte store of
// the result) into one superinstruction closure. selide drops the store's
// bounds test when the verifier proved the access in bounds.
func fuseConstALUStore8(cin, ain, sin *MInstr, next bclosure, fx *faultFix, selide bool) bclosure {
	p := aluPlan(cin, ain)
	sy, soff, ty := int(sin.B), uint64(sin.Imm), sin.Ty
	if selide {
		return func(f *cframe) (*cblock, error) {
			val := p.eval(f.regs)
			f.regs[p.constDst] = p.v
			f.regs[p.dst] = val
			le64put(f.mem, f.regs[sy]+soff, val)
			return next(f)
		}
	}
	return func(f *cframe) (*cblock, error) {
		val := p.eval(f.regs)
		f.regs[p.constDst] = p.v
		f.regs[p.dst] = val
		if nb, ok, err := storeVal8(f, f.regs[sy]+soff, ty, val, fx); !ok {
			return nb, err
		}
		return next(f)
	}
}

// fuseALUStore8 compiles (add/sub; 8-byte store of the result) into one
// superinstruction closure. selide drops the store's bounds test when the
// verifier proved the access in bounds.
func fuseALUStore8(ain, sin *MInstr, next bclosure, fx *faultFix, selide bool) bclosure {
	p := aluPlan(nil, ain)
	sy, soff, ty := int(sin.B), uint64(sin.Imm), sin.Ty
	if selide {
		return func(f *cframe) (*cblock, error) {
			val := p.eval(f.regs)
			f.regs[p.dst] = val
			le64put(f.mem, f.regs[sy]+soff, val)
			return next(f)
		}
	}
	return func(f *cframe) (*cblock, error) {
		val := p.eval(f.regs)
		f.regs[p.dst] = val
		if nb, ok, err := storeVal8(f, f.regs[sy]+soff, ty, val, fx); !ok {
			return nb, err
		}
		return next(f)
	}
}

// fusableConstALU reports whether a const feeding the immediately
// following add/sub can be folded into one superinstruction closure.
// Neither instruction can fault, and the const's destination register is
// still written, so the fusion is invisible to the machine state.
func fusableConstALU(cin, ain *MInstr) bool {
	if cin.Op != MConst {
		return false
	}
	if ain.Op != MAdd && ain.Op != MSub {
		return false
	}
	return ain.A == cin.Dst || ain.B == cin.Dst
}

// fuseConstALU compiles the (const, add/sub) pair into one closure with
// the immediate substituted at compile time.
func fuseConstALU(cin, ain *MInstr, next bclosure) bclosure {
	v := uint64(cin.Imm)
	cd, d := int(cin.Dst), int(ain.Dst)
	x, y := int(ain.A), int(ain.B)
	aIsC, bIsC := ain.A == cin.Dst, ain.B == cin.Dst
	sub := ain.Op == MSub
	switch {
	case aIsC && bIsC:
		r := v + v
		if sub {
			r = 0
		}
		return func(f *cframe) (*cblock, error) {
			f.regs[cd] = v
			f.regs[d] = r
			return next(f)
		}
	case bIsC && !sub:
		return func(f *cframe) (*cblock, error) {
			f.regs[cd] = v
			f.regs[d] = f.regs[x] + v
			return next(f)
		}
	case bIsC:
		return func(f *cframe) (*cblock, error) {
			f.regs[cd] = v
			f.regs[d] = f.regs[x] - v
			return next(f)
		}
	case !sub:
		return func(f *cframe) (*cblock, error) {
			f.regs[cd] = v
			f.regs[d] = v + f.regs[y]
			return next(f)
		}
	default:
		return func(f *cframe) (*cblock, error) {
			f.regs[cd] = v
			f.regs[d] = v - f.regs[y]
			return next(f)
		}
	}
}

// compileTerm compiles a control-transfer instruction into the chain
// tail. Branch targets become block indices resolved once.
func (a *closureArtifact) compileTerm(in *MInstr, tgt func(int32) *cblock) (bclosure, error) {
	switch in.Op {
	case MJmp:
		t := tgt(in.Target)
		return func(f *cframe) (*cblock, error) { return t, nil }, nil
	case MJnz:
		r := int(in.A)
		t, e := tgt(in.Target), tgt(int32(in.Imm))
		return func(f *cframe) (*cblock, error) {
			if f.regs[r] != 0 {
				return t, nil
			}
			return e, nil
		}, nil
	case MCmpBr:
		x, y := int(in.A), int(in.B)
		t, e := tgt(in.Target), tgt(int32(in.Imm))
		if in.Ty == ir.F64 {
			pred := in.Pred
			return func(f *cframe) (*cblock, error) {
				if fcmpPred(pred, ir.F64FromBits(f.regs[x]), ir.F64FromBits(f.regs[y])) {
					return t, nil
				}
				return e, nil
			}, nil
		}
		// Specialize the loop-dominant integer predicates; the rest go
		// through the shared predicate switch.
		switch in.Pred {
		case ir.PredEQ:
			return func(f *cframe) (*cblock, error) {
				if f.regs[x] == f.regs[y] {
					return t, nil
				}
				return e, nil
			}, nil
		case ir.PredNE:
			return func(f *cframe) (*cblock, error) {
				if f.regs[x] != f.regs[y] {
					return t, nil
				}
				return e, nil
			}, nil
		case ir.PredSLT:
			return func(f *cframe) (*cblock, error) {
				if int64(f.regs[x]) < int64(f.regs[y]) {
					return t, nil
				}
				return e, nil
			}, nil
		case ir.PredULT:
			return func(f *cframe) (*cblock, error) {
				if f.regs[x] < f.regs[y] {
					return t, nil
				}
				return e, nil
			}, nil
		default:
			pred := in.Pred
			return func(f *cframe) (*cblock, error) {
				if icmpPred(pred, f.regs[x], f.regs[y]) {
					return t, nil
				}
				return e, nil
			}, nil
		}
	case MRet:
		if in.A == int32(ir.NoReg) {
			return func(f *cframe) (*cblock, error) {
				f.ret = 0
				return nil, nil
			}, nil
		}
		r := int(in.A)
		return func(f *cframe) (*cblock, error) {
			f.ret = f.regs[r]
			return nil, nil
		}, nil
	}
	return nil, fmt.Errorf("not a terminator: %s", in.Op)
}

// compileInstr compiles one straight-line instruction, chaining to next.
// Faulting paths restore exact accounting through fx. elide licenses
// dropping the bounds test of an 8-byte access the verifier proved inside
// the frame's alloca region on every path (FuncFacts.BoundsProven).
// Purely a host-speed decision — the elided closure computes exactly the
// state the checked one would, so no simulated outcome can depend on it.
func (a *closureArtifact) compileInstr(in *MInstr, next bclosure, fx *faultFix, elide bool) (bclosure, error) {
	d, x, y, z := int(in.Dst), int(in.A), int(in.B), int(in.C)
	imm := in.Imm
	switch in.Op {
	case MNop:
		return func(f *cframe) (*cblock, error) { return next(f) }, nil
	case MConst:
		v := uint64(imm)
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = v
			return next(f)
		}, nil
	case MAdd:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] + f.regs[y]
			return next(f)
		}, nil
	case MSub:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] - f.regs[y]
			return next(f)
		}, nil
	case MMul:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] * f.regs[y]
			return next(f)
		}, nil
	case MSDiv:
		return func(f *cframe) (*cblock, error) {
			b := f.regs[y]
			if b == 0 {
				return fx.fail(f, ir.ErrDivideByZero)
			}
			a := f.regs[x]
			if int64(a) == -1<<63 && int64(b) == -1 {
				f.regs[d] = a
			} else {
				f.regs[d] = uint64(int64(a) / int64(b))
			}
			return next(f)
		}, nil
	case MUDiv:
		return func(f *cframe) (*cblock, error) {
			if f.regs[y] == 0 {
				return fx.fail(f, ir.ErrDivideByZero)
			}
			f.regs[d] = f.regs[x] / f.regs[y]
			return next(f)
		}, nil
	case MSRem:
		return func(f *cframe) (*cblock, error) {
			b := f.regs[y]
			if b == 0 {
				return fx.fail(f, ir.ErrDivideByZero)
			}
			a := f.regs[x]
			if int64(a) == -1<<63 && int64(b) == -1 {
				f.regs[d] = 0
			} else {
				f.regs[d] = uint64(int64(a) % int64(b))
			}
			return next(f)
		}, nil
	case MURem:
		return func(f *cframe) (*cblock, error) {
			if f.regs[y] == 0 {
				return fx.fail(f, ir.ErrDivideByZero)
			}
			f.regs[d] = f.regs[x] % f.regs[y]
			return next(f)
		}, nil
	case MAnd:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] & f.regs[y]
			return next(f)
		}, nil
	case MOr:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] | f.regs[y]
			return next(f)
		}, nil
	case MXor:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] ^ f.regs[y]
			return next(f)
		}, nil
	case MShl:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] << (f.regs[y] & 63)
			return next(f)
		}, nil
	case MLShr:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] >> (f.regs[y] & 63)
			return next(f)
		}, nil
	case MAShr:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = uint64(int64(f.regs[x]) >> (f.regs[y] & 63))
			return next(f)
		}, nil
	case MFAdd:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = ir.F64Bits(ir.F64FromBits(f.regs[x]) + ir.F64FromBits(f.regs[y]))
			return next(f)
		}, nil
	case MFSub:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = ir.F64Bits(ir.F64FromBits(f.regs[x]) - ir.F64FromBits(f.regs[y]))
			return next(f)
		}, nil
	case MFMul:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = ir.F64Bits(ir.F64FromBits(f.regs[x]) * ir.F64FromBits(f.regs[y]))
			return next(f)
		}, nil
	case MFDiv:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = ir.F64Bits(ir.F64FromBits(f.regs[x]) / ir.F64FromBits(f.regs[y]))
			return next(f)
		}, nil
	case MICmp:
		pred := in.Pred
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = b2u(icmpPred(pred, f.regs[x], f.regs[y]))
			return next(f)
		}, nil
	case MFCmp:
		pred := in.Pred
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = b2u(fcmpPred(pred, ir.F64FromBits(f.regs[x]), ir.F64FromBits(f.regs[y])))
			return next(f)
		}, nil
	case MTrunc:
		switch in.Ty {
		case ir.I8, ir.I16, ir.I32:
			var mask uint64
			switch in.Ty {
			case ir.I8:
				mask = 0xff
			case ir.I16:
				mask = 0xffff
			default:
				mask = 0xffffffff
			}
			return func(f *cframe) (*cblock, error) {
				f.regs[d] = f.regs[x] & mask
				return next(f)
			}, nil
		default:
			return func(f *cframe) (*cblock, error) {
				f.regs[d] = f.regs[x]
				return next(f)
			}, nil
		}
	case MSExt:
		switch in.Ty {
		case ir.I8:
			return func(f *cframe) (*cblock, error) {
				f.regs[d] = uint64(int64(int8(f.regs[x])))
				return next(f)
			}, nil
		case ir.I16:
			return func(f *cframe) (*cblock, error) {
				f.regs[d] = uint64(int64(int16(f.regs[x])))
				return next(f)
			}, nil
		case ir.I32:
			return func(f *cframe) (*cblock, error) {
				f.regs[d] = uint64(int64(int32(f.regs[x])))
				return next(f)
			}, nil
		default:
			return func(f *cframe) (*cblock, error) {
				f.regs[d] = f.regs[x]
				return next(f)
			}, nil
		}
	case MSIToFP:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = ir.F64Bits(float64(int64(f.regs[x])))
			return next(f)
		}, nil
	case MUIToFP:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = ir.F64Bits(float64(f.regs[x]))
			return next(f)
		}, nil
	case MFPToSI:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = uint64(fpToI64(ir.F64FromBits(f.regs[x])))
			return next(f)
		}, nil
	case MFPToUI:
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = fpToU64(ir.F64FromBits(f.regs[x]))
			return next(f)
		}, nil
	case MSelect:
		return func(f *cframe) (*cblock, error) {
			if f.regs[x] != 0 {
				f.regs[d] = f.regs[y]
			} else {
				f.regs[d] = f.regs[z]
			}
			return next(f)
		}, nil
	case MAlloca:
		size := (uint64(imm) + 7) &^ 7
		return func(f *cframe) (*cblock, error) {
			ma := f.ma
			if ma.sp+size > ma.Limits.StackBase+ma.Limits.StackSize {
				return fx.fail(f, ir.ErrStackOverflow)
			}
			f.regs[d] = ma.sp
			mem := f.mem
			for i := ma.sp; i < ma.sp+size; i++ {
				mem[i] = 0
			}
			ma.sp += size
			return next(f)
		}, nil
	case MLoad:
		ty, off := in.Ty, uint64(imm)
		if ty.Size() == 8 && ty != ir.F32 {
			if elide {
				// The verifier proved [regs[x]+off, +8) inside the frame's
				// alloca region on every path to this pc: no bounds test.
				return func(f *cframe) (*cblock, error) {
					f.regs[d] = le64get(f.mem, f.regs[x]+off)
					return next(f)
				}, nil
			}
			// Type specialization resolved at closure-compile time: the
			// dominant 8-byte access inlines to a bounds check plus one
			// little-endian load; the generic path (with its identical
			// error) is only taken on fault.
			return func(f *cframe) (*cblock, error) {
				mem := f.mem
				addr := f.regs[x] + off
				if addr >= uint64(len(mem)) || addr+8 > uint64(len(mem)) {
					_, err := ir.LoadMem(mem, addr, ty)
					return fx.fail(f, err)
				}
				f.regs[d] = uint64(mem[addr]) | uint64(mem[addr+1])<<8 |
					uint64(mem[addr+2])<<16 | uint64(mem[addr+3])<<24 |
					uint64(mem[addr+4])<<32 | uint64(mem[addr+5])<<40 |
					uint64(mem[addr+6])<<48 | uint64(mem[addr+7])<<56
				return next(f)
			}, nil
		}
		return func(f *cframe) (*cblock, error) {
			v, err := ir.LoadMem(f.mem, f.regs[x]+off, ty)
			if err != nil {
				return fx.fail(f, err)
			}
			f.regs[d] = v
			return next(f)
		}, nil
	case MStore:
		ty, off := in.Ty, uint64(imm)
		if ty.Size() == 8 && ty != ir.F32 {
			if elide {
				return func(f *cframe) (*cblock, error) {
					le64put(f.mem, f.regs[y]+off, f.regs[x])
					return next(f)
				}, nil
			}
			return func(f *cframe) (*cblock, error) {
				mem := f.mem
				addr := f.regs[y] + off
				if addr >= uint64(len(mem)) || addr+8 > uint64(len(mem)) {
					return fx.fail(f, ir.StoreMem(mem, addr, ty, f.regs[x]))
				}
				v := f.regs[x]
				mem[addr] = byte(v)
				mem[addr+1] = byte(v >> 8)
				mem[addr+2] = byte(v >> 16)
				mem[addr+3] = byte(v >> 24)
				mem[addr+4] = byte(v >> 32)
				mem[addr+5] = byte(v >> 40)
				mem[addr+6] = byte(v >> 48)
				mem[addr+7] = byte(v >> 56)
				return next(f)
			}, nil
		}
		return func(f *cframe) (*cblock, error) {
			if err := ir.StoreMem(f.mem, f.regs[y]+off, ty, f.regs[x]); err != nil {
				return fx.fail(f, err)
			}
			return next(f)
		}, nil
	case MPtrAdd:
		scale := uint64(in.Imm2)
		off := uint64(imm)
		return func(f *cframe) (*cblock, error) {
			f.regs[d] = f.regs[x] + f.regs[y]*scale + off
			return next(f)
		}, nil
	case MGlobal:
		slot := int(in.Target)
		return func(f *cframe) (*cblock, error) {
			link := f.ma.Link
			if slot >= len(link.DataAddrs) {
				return fx.fail(f, fmt.Errorf("%w: %d", ErrBadGOTSlot, slot))
			}
			f.regs[d] = link.DataAddrs[slot]
			return next(f)
		}, nil
	case MCallLocal:
		callee := int(in.Target)
		base, cnt := int(in.ArgBase), int(in.ArgCount)
		hasDst := in.Dst != int32(ir.NoReg)
		if callee >= len(a.progs) {
			return nil, fmt.Errorf("local callee %d out of range", callee)
		}
		return func(f *cframe) (*cblock, error) {
			v, err := f.art.invoke(f.ma, f.art.progs[callee], f.regs[base:base+cnt])
			if err != nil {
				return fx.fail(f, err)
			}
			if hasDst {
				f.regs[d] = v
			}
			f.mem = f.ma.Env.Mem()
			return next(f)
		}, nil
	case MCallExt:
		slot := int(in.Target)
		base, cnt := int(in.ArgBase), int(in.ArgCount)
		hasDst := in.Dst != int32(ir.NoReg)
		got := a.cm.GOT
		return func(f *cframe) (*cblock, error) {
			link := f.ma.Link
			if slot >= len(link.Funcs) {
				return fx.fail(f, fmt.Errorf("%w: %d", ErrBadGOTSlot, slot))
			}
			fn := link.Funcs[slot]
			if fn == nil {
				return fx.fail(f, fmt.Errorf("%w: GOT slot %d (%s) not bound",
					ir.ErrUnresolved, slot, got[slot].Sym))
			}
			argv := make([]uint64, cnt)
			copy(argv, f.regs[base:base+cnt])
			v, err := fn(argv)
			if err != nil {
				return fx.fail(f, err)
			}
			if hasDst {
				f.regs[d] = v
			}
			f.mem = f.ma.Env.Mem() // extern may have grown node memory
			return next(f)
		}, nil
	case MAtomicAddLSE, MAtomicAddCAS:
		return func(f *cframe) (*cblock, error) {
			addr := f.regs[x]
			old, err := ir.LoadMem(f.mem, addr, ir.I64)
			if err != nil {
				return fx.fail(f, err)
			}
			if err := ir.StoreMem(f.mem, addr, ir.I64, old+f.regs[y]); err != nil {
				return fx.fail(f, err)
			}
			f.regs[d] = old
			return next(f)
		}, nil
	case MAtomicCASOp:
		return func(f *cframe) (*cblock, error) {
			addr := f.regs[x]
			old, err := ir.LoadMem(f.mem, addr, ir.I64)
			if err != nil {
				return fx.fail(f, err)
			}
			if old == f.regs[y] {
				if err := ir.StoreMem(f.mem, addr, ir.I64, f.regs[z]); err != nil {
					return fx.fail(f, err)
				}
			}
			f.regs[d] = old
			return next(f)
		}, nil
	case MVSet:
		lanes := in.Lanes
		return func(f *cframe) (*cblock, error) {
			n := f.regs[z]
			if err := vsetMem(f.mem, f.regs[x], f.regs[y], n); err != nil {
				return fx.fail(f, err)
			}
			f.counts[isa.OpVector] += vecGroups(n, lanes)
			return next(f)
		}, nil
	case MVCopy:
		lanes := in.Lanes
		return func(f *cframe) (*cblock, error) {
			n := f.regs[z]
			if err := vcopyMem(f.mem, f.regs[x], f.regs[y], n); err != nil {
				return fx.fail(f, err)
			}
			f.counts[isa.OpVector] += vecGroups(n, lanes)
			return next(f)
		}, nil
	case MVBinOp:
		lanes, pred := in.Lanes, in.Pred
		nreg := int(in.ArgBase)
		return func(f *cframe) (*cblock, error) {
			n := f.regs[nreg]
			if err := vbinopMem(f.mem, pred, f.regs[x], f.regs[y], f.regs[z], n); err != nil {
				return fx.fail(f, err)
			}
			f.counts[isa.OpVector] += vecGroups(n, lanes)
			return next(f)
		}, nil
	case MVReduce:
		lanes, pred := in.Lanes, in.Pred
		return func(f *cframe) (*cblock, error) {
			n := f.regs[y]
			v, err := vreduceMem(f.mem, pred, f.regs[x], n)
			if err != nil {
				return fx.fail(f, err)
			}
			f.regs[d] = v
			f.counts[isa.OpVector] += vecGroups(n, lanes)
			return next(f)
		}, nil
	case MTrap:
		return func(f *cframe) (*cblock, error) {
			return fx.fail(f, &ir.TrapError{Code: imm})
		}, nil
	}
	return nil, fmt.Errorf("unknown op %s", in.Op)
}

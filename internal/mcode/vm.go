package mcode

import (
	"fmt"

	"threechains/internal/ir"
	"threechains/internal/isa"
)

// ExternFunc is a resolved external function binding.
type ExternFunc func(args []uint64) (uint64, error)

// Linkage is a fully patched GOT: one resolved value per GOT entry.
// The remote dynamic linker (package linker) produces it on the receiving
// node; running an unlinked module fails, the way a binary ifunc with an
// unpatched GOT would crash (§III-B).
type Linkage struct {
	// DataAddrs[i] is the loaded address for GOT slot i when the slot is
	// GOTData; unused otherwise.
	DataAddrs []uint64
	// Funcs[i] is the bound function for GOT slot i when the slot is
	// GOTFunc; nil otherwise.
	Funcs []ExternFunc
}

// NewLinkage allocates an empty linkage sized for the module's GOT.
func NewLinkage(cm *CompiledModule) *Linkage {
	return &Linkage{
		DataAddrs: make([]uint64, len(cm.GOT)),
		Funcs:     make([]ExternFunc, len(cm.GOT)),
	}
}

// Machine executes a compiled module against node memory, accumulating
// dynamic operation counts for the virtual-time cost model. The actual
// execution strategy is the engine Artifact the machine was built on;
// the Machine itself only holds per-execution state (registers, stack
// pointer, counters), which makes one machine reusable across any number
// of Run calls — the runtime keeps one per registration instead of
// allocating per message.
type Machine struct {
	Mod    *CompiledModule
	Env    ir.Env // provides Mem(); symbol access goes through Link
	Link   *Linkage
	Limits ir.ExecLimits

	// Counts accumulates executed operations per cost class across Run
	// calls; Reset clears it.
	Counts [isa.NumOps]uint64

	art Artifact
	// closureArt devirtualizes art on the hot path when the artifact is
	// superblock-compiled (nil for the interpreter).
	closureArt *closureArtifact
	steps      int64
	sp         uint64

	// Reusable per-activation resources: register files and compiled-
	// code frames are recycled across Run calls and call depths, so a
	// warm machine executes without per-message heap allocation.
	regPool   [][]uint64
	framePool []*cframe
	depth     int
	argbuf    []uint64

	// Entry-lookup memo: Run calls overwhelmingly repeat one entry name.
	lastFn string
	lastFi int
}

// NewMachine prepares an execution context on the default engine. link
// may be nil only if the module has an empty GOT ("pure" ifuncs).
func NewMachine(cm *CompiledModule, env ir.Env, link *Linkage, lim ir.ExecLimits) (*Machine, error) {
	return NewMachineFor(DefaultEngine, cm, env, link, lim)
}

// NewMachineFor prepares an execution context on the given engine,
// compiling the module through it. Callers that execute a module many
// times (the runtime) should instead Prepare once and share the artifact
// via NewMachineArt.
func NewMachineFor(eng Engine, cm *CompiledModule, env ir.Env, link *Linkage, lim ir.ExecLimits) (*Machine, error) {
	art, err := eng.Prepare(cm)
	if err != nil {
		return nil, err
	}
	return NewMachineArt(art, env, link, lim)
}

// NewMachineArt prepares an execution context over an already-compiled
// engine artifact (the JIT caches artifacts alongside lowered modules).
func NewMachineArt(art Artifact, env ir.Env, link *Linkage, lim ir.ExecLimits) (*Machine, error) {
	cm := art.Module()
	if link == nil {
		if len(cm.GOT) != 0 {
			return nil, fmt.Errorf("%w: %q has %d unresolved GOT entries", ErrNotLinked, cm.Name, len(cm.GOT))
		}
		link = &Linkage{}
	}
	if len(link.DataAddrs) < len(cm.GOT) || len(link.Funcs) < len(cm.GOT) {
		return nil, fmt.Errorf("%w: linkage covers %d of %d GOT slots", ErrNotLinked, len(link.Funcs), len(cm.GOT))
	}
	if lim.MaxSteps == 0 {
		lim.MaxSteps = ir.DefaultMaxSteps
	}
	ma := &Machine{Mod: cm, art: art, Env: env, Link: link, Limits: lim, sp: lim.StackBase}
	ma.closureArt, _ = art.(*closureArtifact)
	return ma, nil
}

// Reset clears accumulated operation counts and the step counter.
func (ma *Machine) Reset() {
	ma.Counts = [isa.NumOps]uint64{}
	ma.steps = 0
}

// Steps returns the dynamic machine instruction count so far.
func (ma *Machine) Steps() int64 { return ma.steps }

// EngineName reports which engine's artifact the machine executes.
func (ma *Machine) EngineName() string {
	if ma.closureArt != nil {
		return EngineNameSuperblock
	}
	return EngineNameInterp
}

// getRegs pops a zeroed register file of length n from the pool,
// allocating only when the pool is empty or its top is too small.
func (ma *Machine) getRegs(n int) []uint64 {
	if k := len(ma.regPool) - 1; k >= 0 {
		r := ma.regPool[k]
		ma.regPool = ma.regPool[:k]
		if cap(r) >= n {
			r = r[:n]
			for i := range r {
				r[i] = 0
			}
			return r
		}
	}
	return make([]uint64, n)
}

// putRegs returns a register file to the pool.
func (ma *Machine) putRegs(r []uint64) { ma.regPool = append(ma.regPool, r) }

// lookupEntry resolves a function name to its index, memoizing the last
// hit (Run/RunBatch calls overwhelmingly repeat one entry name).
func (ma *Machine) lookupEntry(fn string) (int, error) {
	if fn == ma.lastFn && ma.lastFn != "" {
		return ma.lastFi, nil
	}
	fi := ma.Mod.FuncIndex(fn)
	if fi < 0 {
		return 0, fmt.Errorf("%w: %q", ErrNoFunction, fn)
	}
	ma.lastFn, ma.lastFi = fn, fi
	return fi, nil
}

// Run executes the named function.
func (ma *Machine) Run(fn string, args ...uint64) (ir.ExecResult, error) {
	fi, err := ma.lookupEntry(fn)
	if err != nil {
		return ir.ExecResult{}, err
	}
	p := ma.Mod.Funcs[fi]
	if len(args) != p.Params {
		return ir.ExecResult{}, fmt.Errorf("mcode: %s: got %d args, want %d", fn, len(args), p.Params)
	}
	savedSP := ma.sp
	// Copy args into a machine-owned buffer so the variadic slice does
	// not escape into the artifact call (keeps steady-state Run calls
	// allocation-free). Element-wise: arg counts are tiny and a memmove
	// call would cost more than the copy.
	if cap(ma.argbuf) < len(args) {
		ma.argbuf = make([]uint64, len(args))
	}
	ab := ma.argbuf[:len(args)]
	for i := range args {
		ab[i] = args[i]
	}
	var v uint64
	if ca := ma.closureArt; ca != nil {
		v, err = ca.run(ma, fi, ab)
	} else {
		v, err = ma.art.run(ma, fi, ab)
	}
	ma.sp = savedSP
	return ir.ExecResult{Value: v, Steps: ma.steps}, err
}

// BatchResult is the outcome of one element of a RunBatch call: the same
// observables a standalone Run would produce for that element.
type BatchResult struct {
	// Value is the element's return value (zero on error).
	Value uint64
	// Steps is the dynamic instruction count this element executed.
	Steps int64
	// Err is the element's execution error, if any. An errored element
	// does not stop the batch: elements are independent messages.
	Err error
}

// RunBatch executes the named function once per argument vector, in
// order, accumulating operation counts across the whole batch (one
// virtual-time charge instead of one per message). Entry lookup and
// argument validation happen once; each element gets a fresh MaxSteps
// budget, exactly as if the caller had issued Reset+Run per element, so
// per-element results, steps and errors are bit-identical to sequential
// execution while ma.Counts holds the batch total (counts are additive,
// so the sum equals the sequence of per-message charges). Engines
// implement the inner loop natively: the superblock engine re-enters its
// already-resolved block graph per element without re-walking setup; the
// interpreter provides the oracle loop fallback.
//
// out must have at least len(argvs) elements; RunBatch fills out[:len(argvs)].
// The returned error reports batch-level failures (unknown entry, arity
// mismatch) that apply to every element; per-element failures land in
// out[i].Err.
func (ma *Machine) RunBatch(fn string, argvs [][]uint64, out []BatchResult) error {
	fi, err := ma.lookupEntry(fn)
	if err != nil {
		return err
	}
	if len(out) < len(argvs) {
		return fmt.Errorf("mcode: %s: RunBatch out holds %d of %d results", fn, len(out), len(argvs))
	}
	p := ma.Mod.Funcs[fi]
	for _, argv := range argvs {
		if len(argv) != p.Params {
			return fmt.Errorf("mcode: %s: got %d args, want %d", fn, len(argv), p.Params)
		}
	}
	savedSP := ma.sp
	if ca := ma.closureArt; ca != nil {
		ca.runBatch(ma, fi, argvs, out)
	} else {
		ma.art.runBatch(ma, fi, argvs, out)
	}
	ma.sp = savedSP
	return nil
}

// exec runs one activation of p on the reference interpreter.
func (ma *Machine) exec(p *Program, args []uint64) (uint64, error) {
	regs := ma.getRegs(p.NumRegs)
	copy(regs, args)
	frameSP := ma.sp
	defer func() {
		ma.sp = frameSP
		ma.putRegs(regs)
	}()
	return ma.execFrom(p, regs, 0)
}

// execFrom is the reference interpreter loop: it executes p from pc over
// the provided register file until return, fault or step exhaustion. The
// register layout is the one shared by both engines, which lets the
// superblock backend hand a partially executed activation to this loop
// (its exact-abort path for MaxSteps) without any state translation.
// Stack pointer save/restore is the caller's responsibility.
func (ma *Machine) execFrom(p *Program, regs []uint64, pc int32) (uint64, error) {
	mem := ma.Env.Mem()
	counts := &ma.Counts
	for {
		if int(pc) >= len(p.Code) {
			return 0, fmt.Errorf("mcode: %s: pc %d past end", p.Name, pc)
		}
		in := &p.Code[pc]
		ma.steps++
		if ma.steps > ma.Limits.MaxSteps {
			return 0, ir.ErrMaxSteps
		}
		switch in.Op {
		case MNop:
			counts[isa.OpALU]++
		case MConst:
			counts[isa.OpALU]++
			regs[in.Dst] = uint64(in.Imm)
		case MAdd:
			counts[isa.OpALU]++
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case MSub:
			counts[isa.OpALU]++
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case MMul:
			counts[isa.OpMul]++
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case MSDiv:
			counts[isa.OpDiv]++
			if regs[in.B] == 0 {
				return 0, ir.ErrDivideByZero
			}
			if int64(regs[in.A]) == -1<<63 && int64(regs[in.B]) == -1 {
				regs[in.Dst] = regs[in.A]
			} else {
				regs[in.Dst] = uint64(int64(regs[in.A]) / int64(regs[in.B]))
			}
		case MUDiv:
			counts[isa.OpDiv]++
			if regs[in.B] == 0 {
				return 0, ir.ErrDivideByZero
			}
			regs[in.Dst] = regs[in.A] / regs[in.B]
		case MSRem:
			counts[isa.OpDiv]++
			if regs[in.B] == 0 {
				return 0, ir.ErrDivideByZero
			}
			if int64(regs[in.A]) == -1<<63 && int64(regs[in.B]) == -1 {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = uint64(int64(regs[in.A]) % int64(regs[in.B]))
			}
		case MURem:
			counts[isa.OpDiv]++
			if regs[in.B] == 0 {
				return 0, ir.ErrDivideByZero
			}
			regs[in.Dst] = regs[in.A] % regs[in.B]
		case MAnd:
			counts[isa.OpALU]++
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case MOr:
			counts[isa.OpALU]++
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case MXor:
			counts[isa.OpALU]++
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case MShl:
			counts[isa.OpALU]++
			regs[in.Dst] = regs[in.A] << (regs[in.B] & 63)
		case MLShr:
			counts[isa.OpALU]++
			regs[in.Dst] = regs[in.A] >> (regs[in.B] & 63)
		case MAShr:
			counts[isa.OpALU]++
			regs[in.Dst] = uint64(int64(regs[in.A]) >> (regs[in.B] & 63))
		case MFAdd:
			counts[isa.OpFPU]++
			regs[in.Dst] = ir.F64Bits(ir.F64FromBits(regs[in.A]) + ir.F64FromBits(regs[in.B]))
		case MFSub:
			counts[isa.OpFPU]++
			regs[in.Dst] = ir.F64Bits(ir.F64FromBits(regs[in.A]) - ir.F64FromBits(regs[in.B]))
		case MFMul:
			counts[isa.OpFPU]++
			regs[in.Dst] = ir.F64Bits(ir.F64FromBits(regs[in.A]) * ir.F64FromBits(regs[in.B]))
		case MFDiv:
			counts[isa.OpFDiv]++
			regs[in.Dst] = ir.F64Bits(ir.F64FromBits(regs[in.A]) / ir.F64FromBits(regs[in.B]))
		case MICmp:
			counts[isa.OpALU]++
			regs[in.Dst] = b2u(icmpPred(in.Pred, regs[in.A], regs[in.B]))
		case MFCmp:
			counts[isa.OpFPU]++
			regs[in.Dst] = b2u(fcmpPred(in.Pred, ir.F64FromBits(regs[in.A]), ir.F64FromBits(regs[in.B])))
		case MTrunc:
			counts[isa.OpALU]++
			regs[in.Dst] = truncTo(in.Ty, regs[in.A])
		case MSExt:
			counts[isa.OpALU]++
			regs[in.Dst] = sextFrom(in.Ty, regs[in.A])
		case MSIToFP:
			counts[isa.OpFPU]++
			regs[in.Dst] = ir.F64Bits(float64(int64(regs[in.A])))
		case MUIToFP:
			counts[isa.OpFPU]++
			regs[in.Dst] = ir.F64Bits(float64(regs[in.A]))
		case MFPToSI:
			counts[isa.OpFPU]++
			regs[in.Dst] = uint64(fpToI64(ir.F64FromBits(regs[in.A])))
		case MFPToUI:
			counts[isa.OpFPU]++
			regs[in.Dst] = fpToU64(ir.F64FromBits(regs[in.A]))
		case MSelect:
			counts[isa.OpALU]++
			if regs[in.A] != 0 {
				regs[in.Dst] = regs[in.B]
			} else {
				regs[in.Dst] = regs[in.C]
			}
		case MAlloca:
			counts[isa.OpALU]++
			size := (uint64(in.Imm) + 7) &^ 7
			if ma.sp+size > ma.Limits.StackBase+ma.Limits.StackSize {
				return 0, ir.ErrStackOverflow
			}
			regs[in.Dst] = ma.sp
			for i := ma.sp; i < ma.sp+size; i++ {
				mem[i] = 0
			}
			ma.sp += size
		case MLoad:
			counts[isa.OpLoad]++
			v, err := ir.LoadMem(mem, regs[in.A]+uint64(in.Imm), in.Ty)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case MStore:
			counts[isa.OpStore]++
			if err := ir.StoreMem(mem, regs[in.B]+uint64(in.Imm), in.Ty, regs[in.A]); err != nil {
				return 0, err
			}
		case MPtrAdd:
			counts[isa.OpALU]++
			regs[in.Dst] = regs[in.A] + regs[in.B]*uint64(in.Imm2) + uint64(in.Imm)
		case MGlobal:
			// GOT access is a load from the offset table.
			counts[isa.OpLoad]++
			if int(in.Target) >= len(ma.Link.DataAddrs) {
				return 0, fmt.Errorf("%w: %d", ErrBadGOTSlot, in.Target)
			}
			regs[in.Dst] = ma.Link.DataAddrs[in.Target]
		case MJmp:
			counts[isa.OpBranch]++
			pc = in.Target
			continue
		case MJnz:
			counts[isa.OpBranch]++
			if regs[in.A] != 0 {
				pc = in.Target
			} else {
				pc = int32(in.Imm)
			}
			continue
		case MCmpBr:
			// Fused compare-and-branch: one branch-class op.
			counts[isa.OpBranch]++
			var taken bool
			if in.Ty == ir.F64 {
				taken = fcmpPred(in.Pred, ir.F64FromBits(regs[in.A]), ir.F64FromBits(regs[in.B]))
			} else {
				taken = icmpPred(in.Pred, regs[in.A], regs[in.B])
			}
			if taken {
				pc = in.Target
			} else {
				pc = int32(in.Imm)
			}
			continue
		case MRet:
			counts[isa.OpCall]++
			if in.A == int32(ir.NoReg) {
				return 0, nil
			}
			return regs[in.A], nil
		case MCallLocal:
			counts[isa.OpCall]++
			callee := ma.Mod.Funcs[in.Target]
			v, err := ma.exec(callee, regs[in.ArgBase:in.ArgBase+in.ArgCount])
			if err != nil {
				return 0, err
			}
			if in.Dst != int32(ir.NoReg) {
				regs[in.Dst] = v
			}
			mem = ma.Env.Mem()
		case MCallExt:
			// Indirect call through the GOT.
			counts[isa.OpCallInd]++
			if int(in.Target) >= len(ma.Link.Funcs) {
				return 0, fmt.Errorf("%w: %d", ErrBadGOTSlot, in.Target)
			}
			fn := ma.Link.Funcs[in.Target]
			if fn == nil {
				return 0, fmt.Errorf("%w: GOT slot %d (%s) not bound",
					ir.ErrUnresolved, in.Target, ma.Mod.GOT[in.Target].Sym)
			}
			argv := make([]uint64, in.ArgCount)
			copy(argv, regs[in.ArgBase:in.ArgBase+in.ArgCount])
			v, err := fn(argv)
			if err != nil {
				return 0, err
			}
			if in.Dst != int32(ir.NoReg) {
				regs[in.Dst] = v
			}
			mem = ma.Env.Mem() // extern may have grown node memory
		case MAtomicAddLSE:
			counts[isa.OpAtomic]++
			old, err := ir.LoadMem(mem, regs[in.A], ir.I64)
			if err != nil {
				return 0, err
			}
			if err := ir.StoreMem(mem, regs[in.A], ir.I64, old+regs[in.B]); err != nil {
				return 0, err
			}
			regs[in.Dst] = old
		case MAtomicAddCAS:
			// CAS-loop lowering: same result, more expensive (the paper's
			// pre-LSE ARMv8.0 cost on BlueField-2's Cortex-A72).
			counts[isa.OpAtomic]++
			counts[isa.OpALU] += 2
			counts[isa.OpBranch]++
			old, err := ir.LoadMem(mem, regs[in.A], ir.I64)
			if err != nil {
				return 0, err
			}
			if err := ir.StoreMem(mem, regs[in.A], ir.I64, old+regs[in.B]); err != nil {
				return 0, err
			}
			regs[in.Dst] = old
		case MAtomicCASOp:
			counts[isa.OpAtomic]++
			old, err := ir.LoadMem(mem, regs[in.A], ir.I64)
			if err != nil {
				return 0, err
			}
			if old == regs[in.B] {
				if err := ir.StoreMem(mem, regs[in.A], ir.I64, regs[in.C]); err != nil {
					return 0, err
				}
			}
			regs[in.Dst] = old
		case MVSet, MVCopy, MVBinOp, MVReduce:
			n, err := ma.execVector(in, regs, mem)
			if err != nil {
				return 0, err
			}
			counts[isa.OpVector] += vecGroups(n, in.Lanes)
		case MTrap:
			counts[isa.OpALU]++
			return 0, &ir.TrapError{Code: in.Imm}
		default:
			return 0, fmt.Errorf("mcode: vm: unknown op %s", in.Op)
		}
		pc++
	}
}

// execVector runs one vector kernel instruction, returning the element
// count for cost accounting.
func (ma *Machine) execVector(in *MInstr, regs []uint64, mem []byte) (uint64, error) {
	switch in.Op {
	case MVSet:
		n := regs[in.C]
		return n, vsetMem(mem, regs[in.A], regs[in.B], n)
	case MVCopy:
		n := regs[in.C]
		return n, vcopyMem(mem, regs[in.A], regs[in.B], n)
	case MVBinOp:
		n := regs[in.ArgBase]
		return n, vbinopMem(mem, in.Pred, regs[in.A], regs[in.B], regs[in.C], n)
	case MVReduce:
		n := regs[in.B]
		v, err := vreduceMem(mem, in.Pred, regs[in.A], n)
		if err != nil {
			return 0, err
		}
		regs[in.Dst] = v
		return n, nil
	}
	return 0, fmt.Errorf("mcode: not a vector op: %s", in.Op)
}

// vecGroups converts an element count to vector operation groups for the
// baked lane width.
func vecGroups(n uint64, lanes int32) uint64 {
	if lanes <= 0 {
		lanes = 1
	}
	return (n + uint64(lanes) - 1) / uint64(lanes)
}

// Cycles converts accumulated operation counts to virtual cycles on the
// given micro-architecture. Scalar ALU work is discounted by the issue
// width (superscalar overlap); everything else is charged serially.
func Cycles(counts *[isa.NumOps]uint64, m *isa.MicroArch) float64 {
	total := 0.0
	for op := 0; op < isa.NumOps; op++ {
		n := counts[op]
		if n == 0 {
			continue
		}
		c := m.Cost[isa.Op(op)]
		if isa.Op(op) == isa.OpALU && m.IssueWidth > 1 {
			c /= float64(m.IssueWidth)
		}
		total += float64(n) * c
	}
	return total
}

// Seconds converts accumulated counts straight to seconds on m.
func Seconds(counts *[isa.NumOps]uint64, m *isa.MicroArch) float64 {
	return m.CyclesToSeconds(Cycles(counts, m))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func icmpPred(p ir.Pred, a, b uint64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredSLT:
		return int64(a) < int64(b)
	case ir.PredSLE:
		return int64(a) <= int64(b)
	case ir.PredSGT:
		return int64(a) > int64(b)
	case ir.PredSGE:
		return int64(a) >= int64(b)
	case ir.PredULT:
		return a < b
	case ir.PredULE:
		return a <= b
	case ir.PredUGT:
		return a > b
	case ir.PredUGE:
		return a >= b
	}
	return false
}

func fcmpPred(p ir.Pred, a, b float64) bool {
	switch p {
	case ir.PredOEQ:
		return a == b
	case ir.PredONE:
		return a != b && a == a && b == b
	case ir.PredOLT:
		return a < b
	case ir.PredOLE:
		return a <= b
	case ir.PredOGT:
		return a > b
	case ir.PredOGE:
		return a >= b
	}
	return false
}

func truncTo(ty ir.Type, v uint64) uint64 {
	switch ty {
	case ir.I8:
		return v & 0xff
	case ir.I16:
		return v & 0xffff
	case ir.I32:
		return v & 0xffffffff
	}
	return v
}

func sextFrom(ty ir.Type, v uint64) uint64 {
	switch ty {
	case ir.I8:
		return uint64(int64(int8(v)))
	case ir.I16:
		return uint64(int64(int16(v)))
	case ir.I32:
		return uint64(int64(int32(v)))
	}
	return v
}

func fpToI64(f float64) int64 {
	if f != f { // NaN
		return 0
	}
	if f >= 9.223372036854776e18 {
		return 1<<63 - 1
	}
	if f <= -9.223372036854776e18 {
		return -1 << 63
	}
	return int64(f)
}

func fpToU64(f float64) uint64 {
	if f != f || f <= 0 {
		return 0
	}
	if f >= 1.8446744073709552e19 {
		return ^uint64(0)
	}
	return uint64(f)
}

// Vector helpers mirror the interpreter's semantics over node memory.

func vecCheck(mem []byte, addr, n uint64) error {
	if n > uint64(len(mem))/8+1 {
		return fmt.Errorf("%w: vector count %d", ir.ErrOutOfBounds, n)
	}
	if addr > uint64(len(mem)) || addr+n*8 > uint64(len(mem)) {
		return fmt.Errorf("%w: vector at %#x x %d", ir.ErrOutOfBounds, addr, n)
	}
	return nil
}

func vsetMem(mem []byte, dst, val, n uint64) error {
	if err := vecCheck(mem, dst, n); err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		if err := ir.StoreMem(mem, dst+i*8, ir.I64, val); err != nil {
			return err
		}
	}
	return nil
}

func vcopyMem(mem []byte, dst, src, n uint64) error {
	if err := vecCheck(mem, dst, n); err != nil {
		return err
	}
	if err := vecCheck(mem, src, n); err != nil {
		return err
	}
	copy(mem[dst:dst+n*8], mem[src:src+n*8])
	return nil
}

func vbinopMem(mem []byte, p ir.Pred, dst, a, b, n uint64) error {
	for _, base := range []uint64{dst, a, b} {
		if err := vecCheck(mem, base, n); err != nil {
			return err
		}
	}
	for i := uint64(0); i < n; i++ {
		x, _ := ir.LoadMem(mem, a+i*8, ir.I64)
		y, _ := ir.LoadMem(mem, b+i*8, ir.I64)
		if err := ir.StoreMem(mem, dst+i*8, ir.I64, velem(p, x, y)); err != nil {
			return err
		}
	}
	return nil
}

func vreduceMem(mem []byte, p ir.Pred, src, n uint64) (uint64, error) {
	if err := vecCheck(mem, src, n); err != nil {
		return 0, err
	}
	var acc uint64
	switch p {
	case ir.VPredMul:
		acc = 1
	case ir.VPredAnd:
		acc = ^uint64(0)
	case ir.VPredMax:
		acc = uint64(1) << 63
	case ir.VPredMin:
		acc = 1<<63 - 1
	}
	for i := uint64(0); i < n; i++ {
		v, _ := ir.LoadMem(mem, src+i*8, ir.I64)
		acc = velem(p, acc, v)
	}
	return acc, nil
}

func velem(p ir.Pred, x, y uint64) uint64 {
	switch p {
	case ir.VPredAdd:
		return x + y
	case ir.VPredSub:
		return x - y
	case ir.VPredMul:
		return x * y
	case ir.VPredAnd:
		return x & y
	case ir.VPredXor:
		return x ^ y
	case ir.VPredMax:
		if int64(x) >= int64(y) {
			return x
		}
		return y
	case ir.VPredMin:
		if int64(x) <= int64(y) {
			return x
		}
		return y
	}
	return 0
}

package mcode

// Static verification of lowered modules — the admission-time analogue
// of the JVM/eBPF bytecode verifiers. A CompiledModule arriving over the
// wire is untrusted input: the interpreter's hot loop indexes register
// files, the function table and the GOT with operands taken straight
// from the instruction stream, and several of those indexes are either
// unchecked (local callee index, every register field) or only
// upper-bound checked (GOT slots — a negative slot panics the host).
// Verify closes every such hole once, at registration time, so the
// engines can keep their unchecked fast paths; the accompanying dataflow
// pass (analysis.go) additionally proves per-instruction facts the
// engines use to elide checks that *are* still performed at runtime.
//
// The structural rules are exactly the properties Lower guarantees for
// code produced from ir.Verify-passing modules, so every module the
// toolchain can emit verifies; only hand-crafted or corrupted wire
// modules are rejected. Rejection is total: Verify mutates nothing and
// the caller (jit.Session, core admission) registers no partial state.

import (
	"errors"
	"fmt"

	"threechains/internal/ir"
)

// ErrVerify is the parent sentinel every verifier rejection wraps:
// errors.Is(err, ErrVerify) identifies "module failed static
// verification" regardless of which rule fired.
var ErrVerify = errors.New("mcode: verify")

// Per-rule sentinels. Each wraps ErrVerify, so a rejection matches both
// the specific rule and the parent.
var (
	// ErrVerifyModule: module- or function-level structure (nil module,
	// nil function, empty code, frame size out of range).
	ErrVerifyModule = fmt.Errorf("%w: module structure", ErrVerify)
	// ErrVerifyOpcode: opcode outside the defined instruction set.
	ErrVerifyOpcode = fmt.Errorf("%w: opcode", ErrVerify)
	// ErrVerifyRegister: register operand outside [0, NumRegs).
	ErrVerifyRegister = fmt.Errorf("%w: register", ErrVerify)
	// ErrVerifyOperand: malformed non-register operand (negative call
	// argument window, argument window past the frame).
	ErrVerifyOperand = fmt.Errorf("%w: operand", ErrVerify)
	// ErrVerifyBranch: branch target off the instruction array, or code
	// that can fall past the end of the function.
	ErrVerifyBranch = fmt.Errorf("%w: branch", ErrVerify)
	// ErrVerifyCall: local call to a nonexistent function or with an
	// argument count that does not match the callee's parameters.
	ErrVerifyCall = fmt.Errorf("%w: call", ErrVerify)
	// ErrVerifyGOT: GOT reference outside the module's table, or an
	// external call through a data slot.
	ErrVerifyGOT = fmt.Errorf("%w: got", ErrVerify)
	// ErrVerifyType: memory access with a sizeless value type.
	ErrVerifyType = fmt.Errorf("%w: type", ErrVerify)
	// ErrVerifyAlloca: negative or oversized static stack allocation.
	ErrVerifyAlloca = fmt.Errorf("%w: alloca", ErrVerify)
	// ErrVerifyVector: malformed vector kernel shape.
	ErrVerifyVector = fmt.Errorf("%w: vector", ErrVerify)
)

// maxVerifyRegs caps the per-function register file: the frame is
// allocated NumRegs words per activation, so an absurd count is a memory
// DoS, not a program.
const maxVerifyRegs = 1 << 16

// maxVerifyAlloca caps one static stack allocation (far above the
// configured guest stacks; anything larger is garbage, and the rounded
// size must not overflow).
const maxVerifyAlloca = 1 << 32

// Verify statically checks every function of cm against the structural
// rules and, on success, returns the dataflow facts (one FuncFacts per
// function). The result is memoized on cm: registration, JIT caching
// and engine preparation all share one pass. Verify never mutates the
// module's code and is safe to call on untrusted input — every reject
// is a deterministic error wrapping ErrVerify plus the rule sentinel.
func Verify(cm *CompiledModule) (*ModuleFacts, error) {
	if cm == nil {
		return nil, fmt.Errorf("%w: nil module", ErrVerifyModule)
	}
	if cm.vdone {
		return cm.vfacts, cm.verr
	}
	var err error
	for i := range cm.Funcs {
		if err = verifyFunc(cm, i); err != nil {
			break
		}
	}
	cm.vdone = true
	if err != nil {
		cm.verr = err
		return nil, err
	}
	cm.vfacts = analyzeModule(cm, nil)
	return cm.vfacts, nil
}

// Analyze is the tolerant variant used by the execution engines: it
// returns facts for the functions that pass structural verification and
// a nil entry for those that do not, without failing the module. The
// engines treat a nil FuncFacts as "no facts proven" and keep every
// runtime check, which preserves the historical behavior for modules
// prepared outside the admission path (unit tests build such modules
// deliberately). Shares Verify's memo.
func Analyze(cm *CompiledModule) *ModuleFacts {
	if cm == nil {
		return nil
	}
	if cm.vdone && cm.verr == nil {
		return cm.vfacts
	}
	if cm.afacts != nil {
		return cm.afacts
	}
	bad := make(map[int]bool)
	for i := range cm.Funcs {
		if verifyFunc(cm, i) != nil {
			bad[i] = true
		}
	}
	cm.afacts = analyzeModule(cm, bad)
	return cm.afacts
}

// vErr formats one rejection: rule sentinel, function, pc, detail.
func vErr(rule error, fn string, pc int, format string, args ...any) error {
	return fmt.Errorf("%w: fn %q pc %d: %s", rule, fn, pc, fmt.Sprintf(format, args...))
}

// regOK reports r in [0, nregs).
func regOK(r int32, nregs int) bool { return r >= 0 && int(r) < nregs }

// verifyFunc structurally checks function fi of cm: opcode validity,
// register ranges, branch targets, call and GOT resolution, operand
// shape. It is a pure read of the module.
func verifyFunc(cm *CompiledModule, fi int) error {
	p := cm.Funcs[fi]
	if p == nil {
		return fmt.Errorf("%w: nil function %d", ErrVerifyModule, fi)
	}
	name := p.Name
	if len(p.Code) == 0 {
		return fmt.Errorf("%w: fn %q: empty code", ErrVerifyModule, name)
	}
	if p.NumRegs < 0 || p.NumRegs > maxVerifyRegs {
		return fmt.Errorf("%w: fn %q: %d registers", ErrVerifyModule, name, p.NumRegs)
	}
	if p.Params < 0 || p.Params > p.NumRegs {
		return fmt.Errorf("%w: fn %q: %d params in %d registers", ErrVerifyModule, name, p.Params, p.NumRegs)
	}
	n := len(p.Code)
	noReg := int32(ir.NoReg)
	branch := func(pc int, t int32) error {
		if t < 0 || int(t) >= n {
			return vErr(ErrVerifyBranch, name, pc, "target %d outside [0,%d)", t, n)
		}
		return nil
	}
	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op >= mopCount {
			return vErr(ErrVerifyOpcode, name, pc, "unknown opcode %d", uint8(in.Op))
		}
		// Register-operand shape per opcode, mirroring exactly what the
		// reference interpreter (vm.go) reads and writes.
		var reads, writes []int32
		switch in.Op {
		case MNop, MTrap:
		case MConst:
			writes = []int32{in.Dst}
		case MAdd, MSub, MMul, MSDiv, MUDiv, MSRem, MURem,
			MAnd, MOr, MXor, MShl, MLShr, MAShr,
			MFAdd, MFSub, MFMul, MFDiv, MICmp, MFCmp, MPtrAdd:
			reads = []int32{in.A, in.B}
			writes = []int32{in.Dst}
		case MTrunc, MSExt, MSIToFP, MUIToFP, MFPToSI, MFPToUI:
			reads = []int32{in.A}
			writes = []int32{in.Dst}
		case MSelect:
			reads = []int32{in.A, in.B, in.C}
			writes = []int32{in.Dst}
		case MAlloca:
			if in.Imm < 0 || in.Imm > maxVerifyAlloca {
				return vErr(ErrVerifyAlloca, name, pc, "size %d", in.Imm)
			}
			writes = []int32{in.Dst}
		case MLoad:
			if in.Ty.Size() == 0 {
				return vErr(ErrVerifyType, name, pc, "load of sizeless type %v", in.Ty)
			}
			reads = []int32{in.A}
			writes = []int32{in.Dst}
		case MStore:
			if in.Ty.Size() == 0 {
				return vErr(ErrVerifyType, name, pc, "store of sizeless type %v", in.Ty)
			}
			reads = []int32{in.A, in.B}
		case MGlobal:
			if in.Target < 0 || int(in.Target) >= len(cm.GOT) {
				return vErr(ErrVerifyGOT, name, pc, "data slot %d outside GOT[%d]", in.Target, len(cm.GOT))
			}
			writes = []int32{in.Dst}
		case MJmp:
			if err := branch(pc, in.Target); err != nil {
				return err
			}
		case MJnz:
			if err := branch(pc, in.Target); err != nil {
				return err
			}
			if in.Imm < 0 || in.Imm >= int64(n) {
				return vErr(ErrVerifyBranch, name, pc, "else target %d outside [0,%d)", in.Imm, n)
			}
			reads = []int32{in.A}
		case MCmpBr:
			if err := branch(pc, in.Target); err != nil {
				return err
			}
			if in.Imm < 0 || in.Imm >= int64(n) {
				return vErr(ErrVerifyBranch, name, pc, "else target %d outside [0,%d)", in.Imm, n)
			}
			reads = []int32{in.A, in.B}
		case MRet:
			if in.A != noReg {
				reads = []int32{in.A}
			}
		case MCallLocal:
			if in.Target < 0 || int(in.Target) >= len(cm.Funcs) {
				return vErr(ErrVerifyCall, name, pc, "callee %d outside %d functions", in.Target, len(cm.Funcs))
			}
			callee := cm.Funcs[in.Target]
			if callee == nil {
				return fmt.Errorf("%w: nil function %d", ErrVerifyModule, in.Target)
			}
			if err := argWindow(p, name, pc, in); err != nil {
				return err
			}
			if int(in.ArgCount) != callee.Params {
				return vErr(ErrVerifyCall, name, pc, "%d args to %q expecting %d params",
					in.ArgCount, callee.Name, callee.Params)
			}
			if in.Dst != noReg {
				writes = []int32{in.Dst}
			}
		case MCallExt:
			if in.Target < 0 || int(in.Target) >= len(cm.GOT) {
				return vErr(ErrVerifyGOT, name, pc, "call slot %d outside GOT[%d]", in.Target, len(cm.GOT))
			}
			if cm.GOT[in.Target].Kind != GOTFunc {
				return vErr(ErrVerifyGOT, name, pc, "call through data slot %d (%s)",
					in.Target, cm.GOT[in.Target].Sym)
			}
			if err := argWindow(p, name, pc, in); err != nil {
				return err
			}
			if in.Dst != noReg {
				writes = []int32{in.Dst}
			}
		case MAtomicAddLSE, MAtomicAddCAS:
			reads = []int32{in.A, in.B}
			writes = []int32{in.Dst}
		case MAtomicCASOp:
			reads = []int32{in.A, in.B, in.C}
			writes = []int32{in.Dst}
		case MVSet, MVCopy:
			reads = []int32{in.A, in.B, in.C}
		case MVBinOp:
			// ArgBase is the element-count register here (see lowerFunc);
			// the fixed shape carries ArgCount == 1.
			if in.ArgCount != 1 {
				return vErr(ErrVerifyVector, name, pc, "vbinop arg count %d", in.ArgCount)
			}
			if !regOK(in.ArgBase, p.NumRegs) {
				return vErr(ErrVerifyVector, name, pc, "vbinop count register %d outside frame", in.ArgBase)
			}
			reads = []int32{in.A, in.B, in.C}
		case MVReduce:
			reads = []int32{in.A, in.B}
			writes = []int32{in.Dst}
		}
		for _, r := range reads {
			if !regOK(r, p.NumRegs) {
				return vErr(ErrVerifyRegister, name, pc, "%s reads r%d outside frame of %d", in.Op, r, p.NumRegs)
			}
		}
		for _, r := range writes {
			if !regOK(r, p.NumRegs) {
				return vErr(ErrVerifyRegister, name, pc, "%s writes r%d outside frame of %d", in.Op, r, p.NumRegs)
			}
		}
	}
	// The last instruction must not fall through past the end of the
	// code (everything lowered from IR ends blocks with terminators;
	// only hand-built or corrupted modules trip this).
	switch p.Code[n-1].Op {
	case MJmp, MJnz, MCmpBr, MRet, MTrap:
	default:
		return vErr(ErrVerifyBranch, name, n-1, "%s falls past end", p.Code[n-1].Op)
	}
	return nil
}

// argWindow validates a call's contiguous argument register window.
func argWindow(p *Program, name string, pc int, in *MInstr) error {
	if in.ArgBase < 0 || in.ArgCount < 0 || int(in.ArgBase)+int(in.ArgCount) > p.NumRegs {
		return vErr(ErrVerifyOperand, name, pc, "arg window [%d,%d+%d) outside frame of %d",
			in.ArgBase, in.ArgBase, in.ArgCount, p.NumRegs)
	}
	return nil
}

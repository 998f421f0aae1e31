package ir

import (
	"errors"
	"fmt"
	"math"
)

// Env is the execution environment an IR program runs against: the owning
// node's byte-addressable memory, resolved global addresses, and external
// symbol bindings. Both the reference interpreter here and the machine-code
// VM (package mcode) execute against the same interface, which lets tests
// assert that lowering preserves semantics.
type Env interface {
	// Mem returns the node memory. Pointers in IR programs are offsets
	// into this slice.
	Mem() []byte
	// GlobalAddr resolves a global (module-level or dependency-exported)
	// to its loaded address.
	GlobalAddr(name string) (uint64, bool)
	// CallExtern invokes an external symbol (runtime intrinsic or
	// shared-library function). Registers pass and return as raw 64-bit
	// values.
	CallExtern(sym string, args []uint64) (uint64, error)
}

// ExecLimits bounds an execution, protecting property tests and malformed
// guest code from hanging the simulation.
type ExecLimits struct {
	// MaxSteps caps the number of executed instructions (0 = default).
	MaxSteps int64
	// StackBase and StackSize delimit the alloca arena inside Env.Mem().
	StackBase uint64
	StackSize uint64
}

// DefaultMaxSteps bounds executions whose limits leave MaxSteps zero.
const DefaultMaxSteps = 50_000_000

// Execution errors. Trap conditions wrap these so callers can classify.
var (
	ErrMaxSteps      = errors.New("ir: step limit exceeded")
	ErrDivideByZero  = errors.New("ir: integer divide by zero")
	ErrOutOfBounds   = errors.New("ir: memory access out of bounds")
	ErrStackOverflow = errors.New("ir: alloca arena exhausted")
	ErrBadFunction   = errors.New("ir: no such function")
	ErrTrap          = errors.New("ir: trap")
	ErrUnresolved    = errors.New("ir: unresolved symbol")
)

// TrapError is returned when guest code executes OpTrap.
type TrapError struct{ Code int64 }

// Error implements error.
func (t *TrapError) Error() string { return fmt.Sprintf("ir: trap with code %d", t.Code) }

// Unwrap lets errors.Is(err, ErrTrap) match.
func (t *TrapError) Unwrap() error { return ErrTrap }

// ExecResult reports a completed interpretation.
type ExecResult struct {
	// Value is the returned register (0 for void functions).
	Value uint64
	// Steps is the number of IR instructions executed, including those of
	// callees.
	Steps int64
}

// Interp is the reference interpreter. It walks IR directly with no
// lowering; it is the semantic oracle for the JIT/VM path and the baseline
// "unoptimized" execution tier.
type Interp struct {
	Mod    *Module
	Env    Env
	Limits ExecLimits

	steps int64
	sp    uint64 // bump pointer within the alloca arena
}

// NewInterp returns an interpreter for mod against env.
func NewInterp(mod *Module, env Env, lim ExecLimits) *Interp {
	if lim.MaxSteps == 0 {
		lim.MaxSteps = DefaultMaxSteps
	}
	return &Interp{Mod: mod, Env: env, Limits: lim, sp: lim.StackBase}
}

// Run executes the named function with the given arguments.
func (ip *Interp) Run(fn string, args ...uint64) (ExecResult, error) {
	f := ip.Mod.Func(fn)
	if f == nil {
		return ExecResult{}, fmt.Errorf("%w: %q", ErrBadFunction, fn)
	}
	if len(args) != len(f.Params) {
		return ExecResult{}, fmt.Errorf("ir: %s: got %d args, want %d", fn, len(args), len(f.Params))
	}
	savedSP := ip.sp
	v, err := ip.call(f, args)
	ip.sp = savedSP
	if err != nil {
		return ExecResult{Steps: ip.steps}, err
	}
	return ExecResult{Value: v, Steps: ip.steps}, nil
}

// call interprets one function activation.
func (ip *Interp) call(f *Func, args []uint64) (uint64, error) {
	regs := make([]uint64, f.NumRegs)
	copy(regs, args)
	frameSP := ip.sp
	defer func() { ip.sp = frameSP }()

	mem := ip.Env.Mem()
	bi := 0
	for {
		blk := f.Blocks[bi]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			ip.steps++
			if ip.steps > ip.Limits.MaxSteps {
				return 0, ErrMaxSteps
			}
			switch in.Op {
			case OpNop:
			case OpConst:
				regs[in.Dst] = uint64(in.Imm)
			case OpFConst:
				regs[in.Dst] = uint64(in.Imm)
			case OpAdd:
				regs[in.Dst] = regs[in.A] + regs[in.B]
			case OpSub:
				regs[in.Dst] = regs[in.A] - regs[in.B]
			case OpMul:
				regs[in.Dst] = regs[in.A] * regs[in.B]
			case OpSDiv:
				if regs[in.B] == 0 {
					return 0, ErrDivideByZero
				}
				if int64(regs[in.A]) == math.MinInt64 && int64(regs[in.B]) == -1 {
					regs[in.Dst] = regs[in.A] // wraps, like hardware
				} else {
					regs[in.Dst] = uint64(int64(regs[in.A]) / int64(regs[in.B]))
				}
			case OpUDiv:
				if regs[in.B] == 0 {
					return 0, ErrDivideByZero
				}
				regs[in.Dst] = regs[in.A] / regs[in.B]
			case OpSRem:
				if regs[in.B] == 0 {
					return 0, ErrDivideByZero
				}
				if int64(regs[in.A]) == math.MinInt64 && int64(regs[in.B]) == -1 {
					regs[in.Dst] = 0
				} else {
					regs[in.Dst] = uint64(int64(regs[in.A]) % int64(regs[in.B]))
				}
			case OpURem:
				if regs[in.B] == 0 {
					return 0, ErrDivideByZero
				}
				regs[in.Dst] = regs[in.A] % regs[in.B]
			case OpAnd:
				regs[in.Dst] = regs[in.A] & regs[in.B]
			case OpOr:
				regs[in.Dst] = regs[in.A] | regs[in.B]
			case OpXor:
				regs[in.Dst] = regs[in.A] ^ regs[in.B]
			case OpShl:
				regs[in.Dst] = regs[in.A] << (regs[in.B] & 63)
			case OpLShr:
				regs[in.Dst] = regs[in.A] >> (regs[in.B] & 63)
			case OpAShr:
				regs[in.Dst] = uint64(int64(regs[in.A]) >> (regs[in.B] & 63))
			case OpFAdd:
				regs[in.Dst] = f64bits(f64frombits(regs[in.A]) + f64frombits(regs[in.B]))
			case OpFSub:
				regs[in.Dst] = f64bits(f64frombits(regs[in.A]) - f64frombits(regs[in.B]))
			case OpFMul:
				regs[in.Dst] = f64bits(f64frombits(regs[in.A]) * f64frombits(regs[in.B]))
			case OpFDiv:
				regs[in.Dst] = f64bits(f64frombits(regs[in.A]) / f64frombits(regs[in.B]))
			case OpICmp:
				regs[in.Dst] = boolToU64(evalICmp(in.Pred, regs[in.A], regs[in.B]))
			case OpFCmp:
				regs[in.Dst] = boolToU64(evalFCmp(in.Pred, f64frombits(regs[in.A]), f64frombits(regs[in.B])))
			case OpTrunc:
				regs[in.Dst] = truncVal(in.Ty, regs[in.A])
			case OpSExt:
				regs[in.Dst] = sextVal(in.Ty, regs[in.A])
			case OpSIToFP:
				regs[in.Dst] = f64bits(float64(int64(regs[in.A])))
			case OpUIToFP:
				regs[in.Dst] = f64bits(float64(regs[in.A]))
			case OpFPToSI:
				regs[in.Dst] = uint64(fpToI64(f64frombits(regs[in.A])))
			case OpFPToUI:
				regs[in.Dst] = fpToU64(f64frombits(regs[in.A]))
			case OpSelect:
				if regs[in.A] != 0 {
					regs[in.Dst] = regs[in.B]
				} else {
					regs[in.Dst] = regs[in.C]
				}
			case OpAlloca:
				size := (uint64(in.Imm) + 7) &^ 7
				if ip.sp+size > ip.Limits.StackBase+ip.Limits.StackSize {
					return 0, ErrStackOverflow
				}
				regs[in.Dst] = ip.sp
				clear(mem[ip.sp : ip.sp+size])
				ip.sp += size
			case OpLoad:
				v, err := loadMem(mem, regs[in.A]+uint64(in.Imm), in.Ty)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case OpStore:
				if err := storeMem(mem, regs[in.B]+uint64(in.Imm), in.Ty, regs[in.A]); err != nil {
					return 0, err
				}
			case OpPtrAdd:
				regs[in.Dst] = regs[in.A] + regs[in.B]*uint64(in.Imm2) + uint64(in.Imm)
			case OpGlobal:
				addr, ok := ip.Env.GlobalAddr(in.Sym)
				if !ok {
					return 0, fmt.Errorf("%w: global %q", ErrUnresolved, in.Sym)
				}
				regs[in.Dst] = addr
			case OpBr:
				bi = in.T0
				goto nextBlock
			case OpCondBr:
				if regs[in.A] != 0 {
					bi = in.T0
				} else {
					bi = in.T1
				}
				goto nextBlock
			case OpRet:
				if in.A == NoReg {
					return 0, nil
				}
				return regs[in.A], nil
			case OpCall:
				argv := make([]uint64, len(in.Args))
				for i, a := range in.Args {
					argv[i] = regs[a]
				}
				var v uint64
				var err error
				if callee := ip.Mod.Func(in.Sym); callee != nil {
					v, err = ip.call(callee, argv)
				} else {
					v, err = ip.Env.CallExtern(in.Sym, argv)
				}
				if err != nil {
					return 0, err
				}
				if in.Dst != NoReg {
					regs[in.Dst] = v
				}
				mem = ip.Env.Mem() // extern may have grown node memory
			case OpAtomicAdd:
				old, err := loadMem(mem, regs[in.A], I64)
				if err != nil {
					return 0, err
				}
				if err := storeMem(mem, regs[in.A], I64, old+regs[in.B]); err != nil {
					return 0, err
				}
				regs[in.Dst] = old
			case OpAtomicCAS:
				old, err := loadMem(mem, regs[in.A], I64)
				if err != nil {
					return 0, err
				}
				if old == regs[in.B] {
					if err := storeMem(mem, regs[in.A], I64, regs[in.C]); err != nil {
						return 0, err
					}
				}
				regs[in.Dst] = old
			case OpVSet:
				if err := vset(mem, regs[in.A], regs[in.B], regs[in.C]); err != nil {
					return 0, err
				}
			case OpVCopy:
				if err := vcopy(mem, regs[in.A], regs[in.B], regs[in.C]); err != nil {
					return 0, err
				}
			case OpVBinOp:
				if err := vbinop(mem, in.Pred, regs[in.A], regs[in.B], regs[in.C], regs[in.Args[0]]); err != nil {
					return 0, err
				}
			case OpVReduce:
				v, err := vreduce(mem, in.Pred, regs[in.A], regs[in.B])
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case OpTrap:
				return 0, &TrapError{Code: in.Imm}
			default:
				return 0, fmt.Errorf("ir: interp: unknown opcode %s", in.Op)
			}
		}
		// A verified block always ends in a terminator, so reaching here
		// means the module was not verified.
		return 0, fmt.Errorf("ir: block %q fell through", blk.Name)
	nextBlock:
	}
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func evalICmp(p Pred, a, b uint64) bool {
	switch p {
	case PredEQ:
		return a == b
	case PredNE:
		return a != b
	case PredSLT:
		return int64(a) < int64(b)
	case PredSLE:
		return int64(a) <= int64(b)
	case PredSGT:
		return int64(a) > int64(b)
	case PredSGE:
		return int64(a) >= int64(b)
	case PredULT:
		return a < b
	case PredULE:
		return a <= b
	case PredUGT:
		return a > b
	case PredUGE:
		return a >= b
	}
	return false
}

func evalFCmp(p Pred, a, b float64) bool {
	switch p {
	case PredOEQ:
		return a == b
	case PredONE:
		return a != b && !math.IsNaN(a) && !math.IsNaN(b)
	case PredOLT:
		return a < b
	case PredOLE:
		return a <= b
	case PredOGT:
		return a > b
	case PredOGE:
		return a >= b
	}
	return false
}

func truncVal(ty Type, v uint64) uint64 {
	switch ty {
	case I8:
		return v & 0xff
	case I16:
		return v & 0xffff
	case I32:
		return v & 0xffffffff
	}
	return v
}

func sextVal(ty Type, v uint64) uint64 {
	switch ty {
	case I8:
		return uint64(int64(int8(v)))
	case I16:
		return uint64(int64(int16(v)))
	case I32:
		return uint64(int64(int32(v)))
	}
	return v
}

// fpToI64 converts with saturation-free hardware-like truncation; NaN
// converts to 0 to keep semantics deterministic across backends.
func fpToI64(f float64) int64 {
	if math.IsNaN(f) {
		return 0
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}

func fpToU64(f float64) uint64 {
	if math.IsNaN(f) || f <= 0 {
		return 0
	}
	if f >= math.MaxUint64 {
		return math.MaxUint64
	}
	return uint64(f)
}

// loadMem reads a ty-sized little-endian value at addr.
func loadMem(mem []byte, addr uint64, ty Type) (uint64, error) {
	size := uint64(ty.Size())
	if addr >= uint64(len(mem)) || addr+size > uint64(len(mem)) {
		return 0, fmt.Errorf("%w: load %s at %#x (mem %d)", ErrOutOfBounds, ty, addr, len(mem))
	}
	var v uint64
	for i := uint64(0); i < size; i++ {
		v |= uint64(mem[addr+i]) << (8 * i)
	}
	switch ty {
	case F32:
		return f64bits(float64(math.Float32frombits(uint32(v)))), nil
	default:
		return v, nil
	}
}

// storeMem writes a ty-sized little-endian value at addr.
func storeMem(mem []byte, addr uint64, ty Type, v uint64) error {
	size := uint64(ty.Size())
	if addr >= uint64(len(mem)) || addr+size > uint64(len(mem)) {
		return fmt.Errorf("%w: store %s at %#x (mem %d)", ErrOutOfBounds, ty, addr, len(mem))
	}
	if ty == F32 {
		v = uint64(math.Float32bits(float32(f64frombits(v))))
	}
	for i := uint64(0); i < size; i++ {
		mem[addr+i] = byte(v >> (8 * i))
	}
	return nil
}

func vecBounds(mem []byte, addr, n uint64) error {
	if n > uint64(len(mem))/8+1 {
		return fmt.Errorf("%w: vector count %d", ErrOutOfBounds, n)
	}
	end := addr + n*8
	if addr > uint64(len(mem)) || end > uint64(len(mem)) {
		return fmt.Errorf("%w: vector op at %#x x %d (mem %d)", ErrOutOfBounds, addr, n, len(mem))
	}
	return nil
}

func vset(mem []byte, dst, val, n uint64) error {
	if err := vecBounds(mem, dst, n); err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		storeU64(mem, dst+i*8, val)
	}
	return nil
}

func vcopy(mem []byte, dst, src, n uint64) error {
	if err := vecBounds(mem, dst, n); err != nil {
		return err
	}
	if err := vecBounds(mem, src, n); err != nil {
		return err
	}
	copy(mem[dst:dst+n*8], mem[src:src+n*8])
	return nil
}

func vbinop(mem []byte, p Pred, dst, a, b, n uint64) error {
	for _, base := range []uint64{dst, a, b} {
		if err := vecBounds(mem, base, n); err != nil {
			return err
		}
	}
	for i := uint64(0); i < n; i++ {
		x := loadU64(mem, a+i*8)
		y := loadU64(mem, b+i*8)
		storeU64(mem, dst+i*8, velem(p, x, y))
	}
	return nil
}

func vreduce(mem []byte, p Pred, src, n uint64) (uint64, error) {
	if err := vecBounds(mem, src, n); err != nil {
		return 0, err
	}
	var acc uint64
	switch p {
	case VPredMul, VPredAnd:
		acc = 1
		if p == VPredAnd {
			acc = ^uint64(0)
		}
	case VPredMax:
		acc = uint64(uint64(1) << 63) // math.MinInt64 as bits
	case VPredMin:
		acc = uint64(math.MaxInt64)
	}
	for i := uint64(0); i < n; i++ {
		acc = velem(p, acc, loadU64(mem, src+i*8))
	}
	return acc, nil
}

func velem(p Pred, x, y uint64) uint64 {
	switch p {
	case VPredAdd:
		return x + y
	case VPredSub:
		return x - y
	case VPredMul:
		return x * y
	case VPredAnd:
		return x & y
	case VPredXor:
		return x ^ y
	case VPredMax:
		if int64(x) >= int64(y) {
			return x
		}
		return y
	case VPredMin:
		if int64(x) <= int64(y) {
			return x
		}
		return y
	}
	return 0
}

// loadU64 and storeU64 are unchecked 8-byte little-endian accessors used
// after bounds have been validated.
func loadU64(mem []byte, addr uint64) uint64 {
	_ = mem[addr+7]
	return uint64(mem[addr]) | uint64(mem[addr+1])<<8 | uint64(mem[addr+2])<<16 |
		uint64(mem[addr+3])<<24 | uint64(mem[addr+4])<<32 | uint64(mem[addr+5])<<40 |
		uint64(mem[addr+6])<<48 | uint64(mem[addr+7])<<56
}

func storeU64(mem []byte, addr, v uint64) {
	_ = mem[addr+7]
	mem[addr] = byte(v)
	mem[addr+1] = byte(v >> 8)
	mem[addr+2] = byte(v >> 16)
	mem[addr+3] = byte(v >> 24)
	mem[addr+4] = byte(v >> 32)
	mem[addr+5] = byte(v >> 40)
	mem[addr+6] = byte(v >> 48)
	mem[addr+7] = byte(v >> 56)
}

// SimpleEnv is a self-contained Env for tests and standalone execution:
// flat memory, a static global map, and Go-function externs.
type SimpleEnv struct {
	Memory  []byte
	Globals map[string]uint64
	Externs map[string]func(args []uint64) (uint64, error)
}

// NewSimpleEnv allocates a SimpleEnv with memSize bytes of memory.
func NewSimpleEnv(memSize int) *SimpleEnv {
	return &SimpleEnv{
		Memory:  make([]byte, memSize),
		Globals: make(map[string]uint64),
		Externs: make(map[string]func(args []uint64) (uint64, error)),
	}
}

// Mem implements Env.
func (e *SimpleEnv) Mem() []byte { return e.Memory }

// GlobalAddr implements Env.
func (e *SimpleEnv) GlobalAddr(name string) (uint64, bool) {
	a, ok := e.Globals[name]
	return a, ok
}

// CallExtern implements Env.
func (e *SimpleEnv) CallExtern(sym string, args []uint64) (uint64, error) {
	fn, ok := e.Externs[sym]
	if !ok {
		return 0, fmt.Errorf("%w: extern %q", ErrUnresolved, sym)
	}
	return fn(args)
}

// LoadU64 reads an 8-byte value from env memory (test helper).
func (e *SimpleEnv) LoadU64(addr uint64) uint64 { return loadU64(e.Memory, addr) }

// StoreU64 writes an 8-byte value into env memory (test helper).
func (e *SimpleEnv) StoreU64(addr, v uint64) { storeU64(e.Memory, addr, v) }

// LoadMem and StoreMem expose checked typed access for other packages.
func LoadMem(mem []byte, addr uint64, ty Type) (uint64, error) { return loadMem(mem, addr, ty) }

// StoreMem is the checked typed store counterpart of LoadMem.
func StoreMem(mem []byte, addr uint64, ty Type, v uint64) error { return storeMem(mem, addr, ty, v) }

// F64Bits exposes the float bit conversion for other packages.
func F64Bits(f float64) uint64 { return f64bits(f) }

// F64FromBits is the inverse of F64Bits.
func F64FromBits(b uint64) float64 { return f64frombits(b) }

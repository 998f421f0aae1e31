package mcode

import (
	"encoding/binary"
	"fmt"

	"threechains/internal/ir"
	"threechains/internal/isa"
)

// SuperblockEngine is the compiled execution backend and the default
// engine. Its artifact, frame-pool and trampoline machinery live in
// closure.go; this file forms the regions and fuses them. Each basic
// block is compiled as the head of an *extended basic block* — the
// maximal chain of blocks reachable through unconditional jumps and
// fallthroughs — flattened into one closure chain with one step
// pre-charge and one static count delta per traversal:
//
//   - Merging: a chain A -jmp-> B -jmp-> C costs one trampoline round
//     trip instead of three; the linking jumps are charged (step + branch
//     count) but compile to no closure at all. Side entrances stay legal
//     because every leader roots its own region (tail duplication).
//   - Native loops: a region whose terminator re-enters its own head
//     (a self-loop after merging, e.g. sumloop's body+head) iterates in a
//     Go loop inside one closure call, with per-traversal step/budget
//     accounting inlined — no trampoline until the loop exits.
//   - Superinstruction fusion: const+add/sub[+store], load+op[+store]
//     (including the same-address read-modify-write shape of the TSI
//     kernel), store-to-load forwarding across the merge seam,
//     compare+branch tails and the counted-loop back-edge
//     increment+store+reload+test — so a loop iteration costs a handful
//     of closure calls instead of one per instruction. Block-hot values
//     flow through Go locals inside each fused closure; every
//     architectural register is still written, so machine state at region
//     boundaries (and at the interpreter hand-off) stays oracle-exact.
//
// Accounting is exact: steps are pre-charged per region (per traversal
// for native loops), and when a pre-charge would blow the MaxSteps budget
// the charge is refunded and the activation replays from the region's
// first pc on the reference interpreter — the merged region is contiguous
// in control flow, so the replay follows the exact same path with
// per-instruction accounting. Faults inside fused closures restore exact
// counters through the faultFix mechanism, positioned at the faulting
// instruction's region offset. The differential tests (engine_test.go,
// superblock_test.go) hold all of this to bit-identical results, op
// counts, steps, errors and memory against the interpreter, including
// ErrMaxSteps aborts landing mid-superblock and mid-native-loop.
type SuperblockEngine struct{}

// Name implements Engine.
func (SuperblockEngine) Name() string { return EngineNameSuperblock }

// Prepare implements Engine.
func (SuperblockEngine) Prepare(cm *CompiledModule) (Artifact, error) {
	return prepareClosureArtifact(cm)
}

// Superblock formation limits. Every leader roots its own maximal region
// (tail duplication), so caps keep compiled size linear in practice.
const (
	maxSuperInstrs = 96
	maxSuperSegs   = 12
)

// loopBack is the sentinel successor a self-looping superblock's chain
// returns when its back edge is taken; the wrapper installed by
// compileSuper turns it into a native Go loop instead of a trampoline
// round trip. It never escapes to the trampoline.
var loopBack = &cblock{}

// SuperblockStats reports how many multi-segment regions and native
// self-loops a superblock-compiled artifact formed; ok is false for
// artifacts of other engines. Tests use it to assert that merging
// actually happened on the corpus they pin.
func SuperblockStats(art Artifact) (merged, loops int, ok bool) {
	a, isClosure := art.(*closureArtifact)
	if !isClosure {
		return 0, 0, false
	}
	return a.merged, a.loops, true
}

// compileDirectRMW recognizes the whole-function read-modify-write
// message-kernel shape —
//
//	load8 d <- [param+off]; const c; add/sub a; store8 a -> [param+off]; ret
//
// (the TSI kernel: `return ++*counter`) — and compiles it into a direct
// runner that executes the entire activation from the argument vector,
// with no frame, register file or chain dispatch. The runner only covers
// the happy path: it bails out before mutating any machine state when the
// step budget or the bounds check would deviate, and the activation
// re-runs through the ordinary closure chain, which reproduces the abort
// or fault with exact oracle accounting. Returns nil when p does not
// match.
func compileDirectRMW(p *Program) func(ma *Machine, args []uint64) (uint64, error, bool) {
	code := p.Code
	if len(code) != 5 {
		return nil
	}
	lin, cin, ain, sin, ret := &code[0], &code[1], &code[2], &code[3], &code[4]
	if !isLd8(lin) || cin.Op != MConst || !isAddSub(ain) || !isSt8(sin) || ret.Op != MRet {
		return nil
	}
	x, off := lin.A, lin.Imm
	d, c, a := lin.Dst, cin.Dst, ain.Dst
	// The load must read an argument register, the store must hit the
	// load's (unclobbered) address, and the ALU must combine exactly the
	// loaded value with the constant.
	if int(x) >= p.Params || d == x || c == x || a == x || c == d {
		return nil
	}
	if sin.A != a || sin.B != x || sin.Imm != off {
		return nil
	}
	aC, bC := ain.A == c, ain.B == c
	if aC == bC || (aC && ain.B != d) || (bC && ain.A != d) {
		return nil
	}
	// Return-value plan: last writer of the ret register wins.
	const (
		retZero = iota
		retVal
		retConst
		retLoaded
	)
	kind := retZero
	if ret.A != int32(ir.NoReg) {
		switch ret.A {
		case a:
			kind = retVal
		case c:
			kind = retConst
		case d:
			kind = retLoaded
		default:
			return nil
		}
	}
	imm, sub, immLeft := uint64(cin.Imm), ain.Op == MSub, aC
	xi, offu := int(x), uint64(off)
	steps := int64(len(code))
	return func(ma *Machine, args []uint64) (uint64, error, bool) {
		if ma.steps+steps > ma.Limits.MaxSteps {
			return 0, nil, false
		}
		mem := ma.Env.Mem()
		addr := args[xi] + offu
		if addr >= uint64(len(mem)) || addr+8 > uint64(len(mem)) {
			return 0, nil, false
		}
		v := le64get(mem, addr)
		var nv uint64
		switch {
		case !sub:
			nv = v + imm
		case immLeft:
			nv = imm - v
		default:
			nv = v - imm
		}
		le64put(mem, addr, nv)
		ma.steps += steps
		counts := &ma.Counts
		counts[isa.OpLoad]++
		counts[isa.OpALU] += 2
		counts[isa.OpStore]++
		counts[isa.OpCall]++
		switch kind {
		case retVal:
			return nv, nil, true
		case retConst:
			return imm, nil, true
		case retLoaded:
			return v, nil, true
		default:
			return 0, nil, true
		}
	}
}

// rref is one instruction of a flattened superblock region. Absorbed
// entries are the unconditional jumps linking merged segments: charged
// (step + branch count) like every other instruction, but compiled to no
// closure — the successor segment's code simply follows.
type rref struct {
	pc       int32
	absorbed bool
}

// formRegion grows the superblock rooted at block b: segments are
// appended while the tail block ends in an unconditional jump to (or
// falls through into) a block not yet in the region. It returns the pc
// ranges of the region's segments and whether the final segment falls
// through into the region head (a back edge with no branch instruction).
// Conditional terminators, returns, past-end tails and local calls end
// the region: a call must end the pre-charge unit so a MaxSteps abort
// inside the callee never sees phantom charges for the caller's suffix.
func formRegion(code []MInstr, starts []int, blockOf []int32, b int) (segs [][2]int32, fallsToHead bool) {
	blockEnd := func(bi int) int {
		if bi+1 < len(starts) {
			return starts[bi+1]
		}
		return len(code)
	}
	head := starts[b]
	included := []int{b}
	contains := func(bi int) bool {
		for _, x := range included {
			if x == bi {
				return true
			}
		}
		return false
	}
	cur := b
	total := 0
	for {
		s, e := starts[cur], blockEnd(cur)
		segs = append(segs, [2]int32{int32(s), int32(e)})
		total += e - s
		last := &code[e-1]
		var t int // next pc to merge
		if isTerminator(last.Op) {
			if last.Op != MJmp {
				return segs, false // conditional or ret: region ends here
			}
			if int(last.Target) >= len(code) || int(last.Target) == head {
				// Past-end jump, or the back edge itself: the terminator
				// closure compiles the transfer.
				return segs, false
			}
			t = int(last.Target)
		} else {
			if e >= len(code) || last.Op == MCallLocal {
				return segs, false
			}
			if e == head {
				return segs, true
			}
			t = e
		}
		tb := int(blockOf[t])
		if contains(tb) || len(segs) >= maxSuperSegs || total+blockEnd(tb)-starts[tb] > maxSuperInstrs {
			return segs, false
		}
		included = append(included, tb)
		cur = tb
	}
}

// compileSuper compiles the superblock region rooted at block b into one
// cblock. self is the address of the block's slot in cp.blocks, captured
// by the native-loop wrapper so a budget-exhausted back edge can hand the
// block back to the trampoline (whose pre-charge check then fails and
// replays the abort exactly on the interpreter).
func (a *closureArtifact) compileSuper(p *Program, b int, starts []int, blockOf []int32, tgt func(int32) *cblock, self *cblock, ff *FuncFacts) (cblock, error) {
	code := p.Code
	segs, fallsToHead := formRegion(code, starts, blockOf, b)
	head := segs[0][0]
	if len(segs) > 1 {
		a.merged++
	}

	var flat []rref
	for si, seg := range segs {
		for pc := seg[0]; pc < seg[1]; pc++ {
			ab := si+1 < len(segs) && pc == seg[1]-1 && code[pc].Op == MJmp
			flat = append(flat, rref{pc, ab})
		}
	}
	S := len(flat)
	blk := cblock{steps: int64(S), start: head}

	// Self-loop detection: any terminator edge (or the fallthrough) that
	// re-enters the region head runs as a native loop.
	lastIn := &code[flat[S-1].pc]
	selfLoop := fallsToHead
	switch lastIn.Op {
	case MJmp:
		selfLoop = selfLoop || lastIn.Target == head
	case MJnz, MCmpBr:
		selfLoop = selfLoop || lastIn.Target == head || int32(lastIn.Imm) == head
	}
	if selfLoop {
		a.loops++
	}
	// rtgt maps branch targets; an edge back to the region head becomes
	// the loopBack sentinel the wrapper follows natively.
	rtgt := func(pc int32) *cblock {
		if pc == head {
			return loopBack
		}
		return tgt(pc)
	}

	// Static deltas and their prefix sums for exact fault accounting,
	// positioned in region coordinates.
	prefixes := make([][]cdelta, S)
	var running []cdelta
	for k := range flat {
		for _, d := range staticDeltas(&code[flat[k].pc]) {
			running = addDelta(running, d.op, d.n)
		}
		prefixes[k] = append([]cdelta(nil), running...)
	}
	blk.deltas = running
	fxAt := func(k int) *faultFix {
		return &faultFix{suffixSteps: int64(S - 1 - k), prefix: prefixes[k]}
	}

	// Seed the chain with the terminator — fused with its feeding tail
	// when possible — or the synthetic fallthrough.
	chainEnd := S
	var next bclosure
	if isTerminator(lastIn.Op) {
		if c, startPos := a.fuseTail(code, flat, rtgt, fxAt, ff); c != nil {
			next, chainEnd = c, startPos
			if startPos == 0 && lastIn.Op == MRet {
				// The ret-anchored fusion covers the entire region and
				// retires its operation counts inline (fuseRMWRet's
				// selfCount mode) — drop the region deltas so the
				// trampoline does not charge them twice.
				blk.deltas = nil
			}
		} else {
			c, err := a.compileTerm(lastIn, rtgt)
			if err != nil {
				return blk, err
			}
			next, chainEnd = c, S-1
		}
	} else if fallsToHead {
		next = func(f *cframe) (*cblock, error) { return loopBack, nil }
	} else if endPc := int(segs[len(segs)-1][1]); endPc < len(code) {
		t := tgt(int32(endPc))
		next = func(f *cframe) (*cblock, error) { return t, nil }
	} else {
		name, pc := p.Name, len(code)
		next = func(f *cframe) (*cblock, error) {
			return nil, fmt.Errorf("mcode: %s: pc %d past end", name, pc)
		}
	}

	chain := make([]bclosure, chainEnd+1)
	chain[chainEnd] = next
	for k := chainEnd - 1; k >= 0; k-- {
		if flat[k].absorbed {
			chain[k] = chain[k+1]
			continue
		}
		if c := a.fuseSuper(code, flat, k, chainEnd, chain, fxAt, ff); c != nil {
			chain[k] = c
			continue
		}
		c, err := a.compileInstr(&code[flat[k].pc], chain[k+1], fxAt(k), ff.BoundsProven(flat[k].pc))
		if err != nil {
			return blk, err
		}
		chain[k] = c
	}

	if !selfLoop {
		blk.run = chain[0]
		return blk, nil
	}
	// Native-loop wrapper. Protocol with the trampoline (call): the
	// trampoline pre-charged this traversal's steps before entering; on a
	// taken back edge the wrapper retires the traversal (deltas) and
	// pre-charges the next inline. The final traversal's deltas are
	// applied by the trampoline after the wrapper returns, exactly as for
	// a plain block. When the next traversal's pre-charge would blow the
	// budget the wrapper returns the block itself un-charged: the
	// trampoline's own pre-charge then fails and runs the refund+replay
	// abort path, so counters, partial effects and the error match the
	// oracle bit for bit.
	inner := chain[0]
	steps, deltas := blk.steps, blk.deltas
	if regionNoFault(ff, segs) {
		// Proven fault-free loop: the verifier showed no instruction in
		// the region can fault, so the only per-traversal question is the
		// budget. rem/steps traversals statically fit the remaining
		// budget, so the check (and the delta retirement) hoists out of
		// the loop: k traversals run back to back, deltas retire k-at-
		// once, and the first traversal that would not fit returns the
		// block to the trampoline's refund+replay abort path un-charged —
		// the exact point the per-traversal check would have stopped at,
		// since rem mod steps < steps. Mid-batch faults (impossible when
		// the facts are sound, but the accounting does not rely on that)
		// retire only the n completed traversals; the faulted one is
		// already exact through its faultFix.
		blk.run = func(f *cframe) (*cblock, error) {
			nb, err := inner(f)
			ma := f.ma
			var n uint64
			if err == nil && nb == loopBack {
				if rem := ma.Limits.MaxSteps - ma.steps; rem >= steps {
					k := uint64(rem) / uint64(steps)
					for n < k {
						ma.steps += steps
						n++
						nb, err = inner(f)
						if err != nil || nb != loopBack {
							break
						}
					}
				}
			}
			if n != 0 {
				for _, d := range deltas {
					f.counts[d.op] += d.n * n
				}
			}
			if err == nil && nb == loopBack {
				return self, nil
			}
			return nb, err
		}
		return blk, nil
	}
	blk.run = func(f *cframe) (*cblock, error) {
		nb, err := inner(f)
		for err == nil && nb == loopBack {
			ma := f.ma
			if ma.steps+steps > ma.Limits.MaxSteps {
				return self, nil
			}
			for _, d := range deltas {
				f.counts[d.op] += d.n
			}
			ma.steps += steps
			nb, err = inner(f)
		}
		return nb, err
	}
	return blk, nil
}

// regionNoFault reports whether the verifier proved every instruction of
// the region fault-free (FuncFacts.NoFault over all segments), licensing
// the batched budget check of the native-loop wrapper.
func regionNoFault(ff *FuncFacts, segs [][2]int32) bool {
	if ff == nil {
		return false
	}
	for _, s := range segs {
		if !ff.NoFaultRange(s[0], s[1]) {
			return false
		}
	}
	return true
}

// Widened-fusion helpers. All fused closures execute strictly
// sequentially against f.regs — every destination register is written
// before any later operand is read — so arbitrary register aliasing
// between the fused instructions behaves exactly like the unfused chain.

func isLd8(in *MInstr) bool {
	return in.Op == MLoad && in.Ty.Size() == 8 && in.Ty != ir.F32
}

func isSt8(in *MInstr) bool {
	return in.Op == MStore && in.Ty.Size() == 8 && in.Ty != ir.F32
}

// le64get/le64put are the raw 8-byte accesses of fused closures; callers
// have already bounds-checked [addr, addr+8). binary.LittleEndian
// compiles to a single unaligned machine access.
func le64get(mem []byte, addr uint64) uint64 {
	return binary.LittleEndian.Uint64(mem[addr:])
}

func le64put(mem []byte, addr uint64, v uint64) {
	binary.LittleEndian.PutUint64(mem[addr:], v)
}

// fuseSuper attempts a body fusion at region position k (which must not
// be absorbed), looking ahead across absorbed jumps — the merge seams are
// transparent to value flow. It returns nil when no pattern matches.
func (a *closureArtifact) fuseSuper(code []MInstr, flat []rref, k, chainEnd int, chain []bclosure, fxAt func(int) *faultFix, ff *FuncFacts) bclosure {
	nextExec := func(i int) int {
		for i++; i < chainEnd && flat[i].absorbed; i++ {
		}
		return i
	}
	el := func(i int) bool { return ff.BoundsProven(flat[i].pc) }
	in0 := &code[flat[k].pc]
	p1 := nextExec(k)
	if p1 >= chainEnd {
		return nil
	}
	in1 := &code[flat[p1].pc]

	// load8 + add/sub consuming it (+ store8 of the result).
	if isLd8(in0) && isAddSub(in1) && (in1.A == in0.Dst || in1.B == in0.Dst) {
		if p2 := nextExec(p1); p2 < chainEnd && fusableALUStore8(in1, &code[flat[p2].pc]) {
			return fuseLoadALUStore8(in0, in1, &code[flat[p2].pc], chain[nextExec(p2)], fxAt(k), fxAt(p2), el(k), el(p2))
		}
		return fuseLoadALU(in0, in1, chain[nextExec(p1)], fxAt(k), el(k))
	}
	// const + add/sub (+ store8).
	if fusableConstALU(in0, in1) {
		if p2 := nextExec(p1); p2 < chainEnd && fusableALUStore8(in1, &code[flat[p2].pc]) {
			return fuseConstALUStore8(in0, in1, &code[flat[p2].pc], chain[nextExec(p2)], fxAt(p2), el(p2))
		}
		return fuseConstALU(in0, in1, chain[nextExec(p1)])
	}
	if fusableALUStore8(in0, in1) {
		return fuseALUStore8(in0, in1, chain[nextExec(p1)], fxAt(p1), el(p1))
	}
	// store8 + load8 from the same address: forward the stored value
	// (nothing between them writes the shared base register).
	if isSt8(in0) && isLd8(in1) && in1.A == in0.B && in1.Imm == in0.Imm {
		return fuseStoreFwd8(in0, in1, chain[nextExec(p1)], fxAt(k), el(k))
	}
	return nil
}

func isAddSub(in *MInstr) bool { return in.Op == MAdd || in.Op == MSub }

// fuseLoadALU compiles (8-byte load; add/sub consuming it) into one
// closure: the loaded value flows through a Go local into the ALU.
// lelide drops the load's bounds test when proven in bounds.
func fuseLoadALU(lin, ain *MInstr, next bclosure, lfx *faultFix, lelide bool) bclosure {
	lx, loff, lty, ld := int(lin.A), uint64(lin.Imm), lin.Ty, int(lin.Dst)
	ax, ay, ad := int(ain.A), int(ain.B), int(ain.Dst)
	sub := ain.Op == MSub
	if lelide {
		return func(f *cframe) (*cblock, error) {
			f.regs[ld] = le64get(f.mem, f.regs[lx]+loff)
			lhs, rhs := f.regs[ax], f.regs[ay]
			if sub {
				f.regs[ad] = lhs - rhs
			} else {
				f.regs[ad] = lhs + rhs
			}
			return next(f)
		}
	}
	return func(f *cframe) (*cblock, error) {
		mem := f.mem
		addr := f.regs[lx] + loff
		if addr >= uint64(len(mem)) || addr+8 > uint64(len(mem)) {
			_, err := ir.LoadMem(mem, addr, lty)
			return lfx.fail(f, err)
		}
		f.regs[ld] = le64get(mem, addr)
		lhs, rhs := f.regs[ax], f.regs[ay]
		if sub {
			f.regs[ad] = lhs - rhs
		} else {
			f.regs[ad] = lhs + rhs
		}
		return next(f)
	}
}

// fuseLoadALUStore8 compiles (8-byte load; add/sub consuming it; 8-byte
// store of the result). When the store provably targets the load address
// (same unclobbered base register and offset), the pair becomes a
// read-modify-write with a single bounds check.
func fuseLoadALUStore8(lin, ain, sin *MInstr, next bclosure, lfx, sfx *faultFix, lelide, selide bool) bclosure {
	lx, loff, lty, ld := int(lin.A), uint64(lin.Imm), lin.Ty, int(lin.Dst)
	ax, ay, ad := int(ain.A), int(ain.B), int(ain.Dst)
	sub := ain.Op == MSub
	sy, soff, sty := int(sin.B), uint64(sin.Imm), sin.Ty
	rmw := sin.B == lin.A && sin.Imm == lin.Imm && ad != lx && ld != lx
	if lelide && (rmw || selide) {
		// Fully proven read-modify-write (or independently proven store):
		// no bounds test at all — the loop-body shape of memory-carried
		// accumulators runs as three raw memory ops plus the ALU.
		return func(f *cframe) (*cblock, error) {
			mem := f.mem
			addr := f.regs[lx] + loff
			v := le64get(mem, addr)
			f.regs[ld] = v
			lhs, rhs := f.regs[ax], f.regs[ay]
			r := lhs + rhs
			if sub {
				r = lhs - rhs
			}
			f.regs[ad] = r
			if rmw {
				le64put(mem, addr, r)
			} else {
				le64put(mem, f.regs[sy]+soff, r)
			}
			return next(f)
		}
	}
	return func(f *cframe) (*cblock, error) {
		mem := f.mem
		addr := f.regs[lx] + loff
		if addr >= uint64(len(mem)) || addr+8 > uint64(len(mem)) {
			_, err := ir.LoadMem(mem, addr, lty)
			return lfx.fail(f, err)
		}
		f.regs[ld] = le64get(mem, addr)
		lhs, rhs := f.regs[ax], f.regs[ay]
		r := lhs + rhs
		if sub {
			r = lhs - rhs
		}
		f.regs[ad] = r
		if rmw {
			le64put(mem, addr, r)
			return next(f)
		}
		if selide {
			le64put(mem, f.regs[sy]+soff, r)
			return next(f)
		}
		if nb, ok, err := storeVal8(f, f.regs[sy]+soff, sty, r, sfx); !ok {
			return nb, err
		}
		return next(f)
	}
}

// fuseStoreFwd8 compiles (8-byte store; 8-byte load from the same
// address) into one closure: the stored value is forwarded to the load's
// destination register without a memory round trip. The store's bounds
// check covers the load (identical 8-byte range).
func fuseStoreFwd8(sin, lin *MInstr, next bclosure, sfx *faultFix, selide bool) bclosure {
	sv, sb, soff, sty := int(sin.A), int(sin.B), uint64(sin.Imm), sin.Ty
	ld := int(lin.Dst)
	if selide {
		return func(f *cframe) (*cblock, error) {
			val := f.regs[sv]
			le64put(f.mem, f.regs[sb]+soff, val)
			f.regs[ld] = val
			return next(f)
		}
	}
	return func(f *cframe) (*cblock, error) {
		val := f.regs[sv]
		if nb, ok, err := storeVal8(f, f.regs[sb]+soff, sty, val, sfx); !ok {
			return nb, err
		}
		f.regs[ld] = val
		return next(f)
	}
}

// fuseTail attempts a terminator-anchored fusion over the region's tail,
// returning the fused closure and the region position of its first
// covered instruction (the new chain end). Patterns, longest first:
//
//	(const;) add/sub; store8; [jmp] load8 same-addr; cmpbr  — counted-loop back edge
//	load8; cmpbr on the loaded value                        — test tail
//	icmp; jnz on the compare result                         — compare+branch
//	load8?; const?; add/sub; store8; ret                    — RMW kernel tail (TSI)
func (a *closureArtifact) fuseTail(code []MInstr, flat []rref, rtgt func(int32) *cblock, fxAt func(int) *faultFix, ff *FuncFacts) (bclosure, int) {
	S := len(flat)
	term := &code[flat[S-1].pc]
	prevExec := func(i int) int {
		for i--; i >= 0 && flat[i].absorbed; i-- {
		}
		return i
	}
	el := func(i int) bool { return ff.BoundsProven(flat[i].pc) }
	p1 := prevExec(S - 1)
	if p1 < 0 {
		return nil, 0
	}
	in1 := &code[flat[p1].pc]

	switch term.Op {
	case MCmpBr:
		if isLd8(in1) && (term.A == in1.Dst || term.B == in1.Dst) {
			// Counted-loop back edge: increment, store, reload from the
			// stored address (across the absorbed back jump), test.
			if p2 := prevExec(p1); p2 >= 0 {
				in2 := &code[flat[p2].pc]
				if isSt8(in2) && in2.B == in1.A && in2.Imm == in1.Imm {
					if p3 := prevExec(p2); p3 >= 0 && fusableALUStore8(&code[flat[p3].pc], in2) {
						ain := &code[flat[p3].pc]
						start := p3
						var cin *MInstr
						if p4 := prevExec(p3); p4 >= 0 && fusableConstALU(&code[flat[p4].pc], ain) {
							cin = &code[flat[p4].pc]
							start = p4
						}
						return fuseBackEdge(cin, ain, in2, in1, term, rtgt, fxAt(p2), el(p2)), start
					}
				}
			}
			return fuseLoadCmpBr(in1, term, rtgt, fxAt(p1), el(p1)), p1
		}
	case MJnz:
		if in1.Op == MICmp && term.A == in1.Dst {
			return fuseICmpJnz(in1, term, rtgt), p1
		}
	case MRet:
		if isSt8(in1) {
			if p2 := prevExec(p1); p2 >= 0 && fusableALUStore8(&code[flat[p2].pc], in1) {
				ain := &code[flat[p2].pc]
				start := p2
				var cin, lin *MInstr
				lpos := p2
				q := prevExec(p2)
				if q >= 0 && fusableConstALU(&code[flat[q].pc], ain) {
					cin = &code[flat[q].pc]
					start = q
					q = prevExec(q)
				}
				if q >= 0 && isLd8(&code[flat[q].pc]) {
					l := &code[flat[q].pc]
					// The load must feed the ALU directly (not through the
					// operand the const already substitutes).
					feedsA := ain.A == l.Dst && (cin == nil || ain.A != cin.Dst)
					feedsB := ain.B == l.Dst && (cin == nil || ain.B != cin.Dst)
					if feedsA || feedsB {
						lin, lpos, start = l, q, q
					}
				}
				if cin != nil || lin != nil {
					return fuseRMWRet(lin, cin, ain, in1, term, fxAt(lpos), fxAt(p1), start == 0), start
				}
			}
		}
	}
	return nil, 0
}

// fuseBackEdge compiles the counted-loop back edge — (const;) add/sub;
// 8-byte store; reload of the just-stored slot; compare-and-branch on the
// reloaded value — into one closure. The reload is forwarded from the
// stored value: the store's bounds check covers it and nothing between
// them writes the shared base register (only the absorbed back jump sits
// in between).
func fuseBackEdge(cin, ain, sin, lin, br *MInstr, rtgt func(int32) *cblock, sfx *faultFix, selide bool) bclosure {
	p := aluPlan(cin, ain)
	sy, soff, sty := int(sin.B), uint64(sin.Imm), sin.Ty
	ad, cd := int(ain.Dst), -1
	ld := int(lin.Dst)
	bx, by := int(br.A), int(br.B)
	pred, isF := br.Pred, br.Ty == ir.F64
	t, e := rtgt(br.Target), rtgt(int32(br.Imm))

	// Specialized counted-loop increment: exactly one ALU operand is the
	// fused constant, the other a plain register (i = i ± imm).
	incReg := -1
	var imm uint64
	var sub, immLeft bool
	if cin != nil && p.aC != p.bC {
		cd = p.constDst
		imm, sub, immLeft = p.v, p.sub, p.aC
		if p.aC {
			incReg = int(ain.B)
		} else {
			incReg = int(ain.A)
		}
	}

	return func(f *cframe) (*cblock, error) {
		var val uint64
		if incReg >= 0 {
			o := f.regs[incReg]
			switch {
			case !sub:
				val = o + imm
			case immLeft:
				val = imm - o
			default:
				val = o - imm
			}
			f.regs[cd] = imm
		} else {
			val = p.eval(f.regs)
			if p.constDst >= 0 {
				f.regs[p.constDst] = p.v
			}
		}
		f.regs[ad] = val
		mem := f.mem
		saddr := f.regs[sy] + soff
		if !selide && (saddr >= uint64(len(mem)) || saddr+8 > uint64(len(mem))) {
			// Cold fault path: the generic checked store produces the
			// oracle's error text and sfx restores exact accounting.
			nb, _, err := storeVal8(f, saddr, sty, val, sfx)
			return nb, err
		}
		le64put(mem, saddr, val)
		f.regs[ld] = val
		x, y := f.regs[bx], f.regs[by]
		var taken bool
		if isF {
			taken = fcmpPred(pred, ir.F64FromBits(x), ir.F64FromBits(y))
		} else {
			taken = icmpPred(pred, x, y)
		}
		if taken {
			return t, nil
		}
		return e, nil
	}
}

// fuseLoadCmpBr compiles (8-byte load; compare-and-branch on the loaded
// value) into one closure — the loop-head test of memory-carried loops.
func fuseLoadCmpBr(lin, br *MInstr, rtgt func(int32) *cblock, lfx *faultFix, lelide bool) bclosure {
	lx, loff, lty, ld := int(lin.A), uint64(lin.Imm), lin.Ty, int(lin.Dst)
	bx, by := int(br.A), int(br.B)
	pred, isF := br.Pred, br.Ty == ir.F64
	t, e := rtgt(br.Target), rtgt(int32(br.Imm))
	return func(f *cframe) (*cblock, error) {
		mem := f.mem
		addr := f.regs[lx] + loff
		if !lelide && (addr >= uint64(len(mem)) || addr+8 > uint64(len(mem))) {
			_, err := ir.LoadMem(mem, addr, lty)
			return lfx.fail(f, err)
		}
		v := le64get(mem, addr)
		f.regs[ld] = v
		x, y := f.regs[bx], f.regs[by]
		var taken bool
		if isF {
			taken = fcmpPred(pred, ir.F64FromBits(x), ir.F64FromBits(y))
		} else {
			taken = icmpPred(pred, x, y)
		}
		if taken {
			return t, nil
		}
		return e, nil
	}
}

// fuseICmpJnz compiles (icmp whose result has further uses; jnz on it)
// into one closure. The compare result register is still written.
func fuseICmpJnz(ci, br *MInstr, rtgt func(int32) *cblock) bclosure {
	x, y, d := int(ci.A), int(ci.B), int(ci.Dst)
	pred := ci.Pred
	t, e := rtgt(br.Target), rtgt(int32(br.Imm))
	return func(f *cframe) (*cblock, error) {
		if icmpPred(pred, f.regs[x], f.regs[y]) {
			f.regs[d] = 1
			return t, nil
		}
		f.regs[d] = 0
		return e, nil
	}
}

// fuseRMWRet compiles the whole read-modify-write kernel tail —
// (load8;) (const;) add/sub; store8; ret — into a single closure. With
// both load and store targeting the same unclobbered address (the TSI
// shape: ++*counter), one bounds check serves both accesses.
//
// Because the ret ends the activation, the group's register writes are
// provably dead: no later closure reads them, the interpreter hand-off
// only happens at region entry (before anything here ran), and a fault
// unwinds the whole activation. The fused values therefore live in Go
// locals only, with the return value resolved from the right local at
// compile time. When selfCount is set (the fusion covers its entire
// region, so the region's static deltas were dropped), the closure also
// retires its operation counts inline as straight-line adds.
func fuseRMWRet(lin, cin, ain, sin, ret *MInstr, lfx, sfx *faultFix, selfCount bool) bclosure {
	p := aluPlan(cin, ain)
	sy, soff, sty := int(sin.B), uint64(sin.Imm), sin.Ty
	hasLoad := lin != nil
	var lx, ld int
	var loff uint64
	var lty ir.Type
	rmw := false
	if hasLoad {
		lx, loff, lty, ld = int(lin.A), uint64(lin.Imm), lin.Ty, int(lin.Dst)
		rmw = sin.B == lin.A && sin.Imm == lin.Imm &&
			int(ain.Dst) != lx && ld != lx && (cin == nil || int(cin.Dst) != lx)
	}

	// Return-value plan: last writer of the ret register wins.
	const (
		retZero = iota
		retVal
		retConst
		retLoaded
		retRegFile
	)
	kind, retReg := retZero, -1
	if ret.A != int32(ir.NoReg) {
		retReg = int(ret.A)
		switch {
		case retReg == int(ain.Dst):
			kind = retVal
		case cin != nil && retReg == int(cin.Dst):
			kind = retConst
		case hasLoad && retReg == ld:
			kind = retLoaded
		default:
			kind = retRegFile
		}
	}

	// Inline operation counts (selfCount mode): load?, ALU (alu + const?),
	// store, ret's call class.
	var nLoad, nALU uint64
	if selfCount {
		nALU = 1
		if cin != nil {
			nALU = 2
		}
		if hasLoad {
			nLoad = 1
		}
	}

	// Fully specialized shape — `*counter = *counter ± imm; return it` —
	// where the ALU reads exactly the loaded value and the fused constant:
	// the value never needs the register file at all (the loaded local
	// feeds the ALU directly, and all register writes are dead as above).
	if rmw && cin != nil && p.aC != p.bC {
		other := int(ain.B)
		if p.bC {
			other = int(ain.A)
		}
		if other == ld && kind != retRegFile {
			imm, sub, immLeft := p.v, p.sub, p.aC
			return func(f *cframe) (*cblock, error) {
				mem := f.mem
				addr := f.regs[lx] + loff
				if addr >= uint64(len(mem)) || addr+8 > uint64(len(mem)) {
					_, err := ir.LoadMem(mem, addr, lty)
					return lfx.fail(f, err)
				}
				v := le64get(mem, addr)
				var nv uint64
				switch {
				case !sub:
					nv = v + imm
				case immLeft:
					nv = imm - v
				default:
					nv = v - imm
				}
				le64put(mem, addr, nv)
				switch kind {
				case retVal:
					f.ret = nv
				case retConst:
					f.ret = imm
				case retLoaded:
					f.ret = v
				default:
					f.ret = 0
				}
				if selfCount {
					counts := f.counts
					counts[isa.OpLoad]++
					counts[isa.OpALU] += 2
					counts[isa.OpStore]++
					counts[isa.OpCall]++
				}
				return nil, nil
			}
		}
	}

	return func(f *cframe) (*cblock, error) {
		var addr, loaded uint64
		if hasLoad {
			mem := f.mem
			addr = f.regs[lx] + loff
			if addr >= uint64(len(mem)) || addr+8 > uint64(len(mem)) {
				_, err := ir.LoadMem(mem, addr, lty)
				return lfx.fail(f, err)
			}
			loaded = le64get(mem, addr)
			f.regs[ld] = loaded
		}
		val := p.eval(f.regs)
		if rmw {
			le64put(f.mem, addr, val)
		} else {
			if p.constDst >= 0 {
				f.regs[p.constDst] = p.v
			}
			f.regs[p.dst] = val
			if nb, ok, err := storeVal8(f, f.regs[sy]+soff, sty, val, sfx); !ok {
				return nb, err
			}
		}
		switch kind {
		case retVal:
			f.ret = val
		case retConst:
			f.ret = p.v
		case retLoaded:
			f.ret = loaded
		case retRegFile:
			f.ret = f.regs[retReg]
		default:
			f.ret = 0
		}
		if selfCount {
			counts := f.counts
			counts[isa.OpLoad] += nLoad
			counts[isa.OpALU] += nALU
			counts[isa.OpStore]++
			counts[isa.OpCall]++
		}
		return nil, nil
	}
}

package main

import (
	"encoding/binary"
	"fmt"

	"threechains/internal/ir"
	"threechains/internal/place"
)

// buildTypeKernel builds the module of one generated workload type, the
// same shapes the placement and scale scenarios use: read-only types sum
// the region's first N words (N arrives in the payload), mutating types
// optionally spin a counted loop, bump the target word and overwrite the
// next DirtyWords-1 words.
func buildTypeKernel(name string, t place.TypeSpec) *ir.Module {
	m := ir.NewModule(name)
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	payload, target := b.Param(0), b.Param(2)

	loop := func(name string, counter, limit ir.Reg, body func(iv ir.Reg)) {
		head, blk, exit := b.NewBlock(name+"head"), b.NewBlock(name+"body"), b.NewBlock(name+"exit")
		b.Br(head)
		b.SetBlock(head)
		iv := b.Load(ir.I64, counter, 0)
		b.CondBr(b.ICmp(ir.PredSLT, iv, limit), blk, exit)
		b.SetBlock(blk)
		body(iv)
		b.Store(ir.I64, b.Add(iv, b.Const64(1)), counter, 0)
		b.Br(head)
		b.SetBlock(exit)
	}

	if t.ReadOnly {
		words := b.Load(ir.I64, payload, 0)
		acc, i := b.Alloca(8), b.Alloca(8)
		b.Store(ir.I64, b.Const64(0), acc, 0)
		b.Store(ir.I64, b.Const64(0), i, 0)
		loop("", i, words, func(iv ir.Reg) {
			v := b.Load(ir.I64, b.PtrAdd(target, iv, 8, 0), 0)
			b.Store(ir.I64, b.Add(b.Load(ir.I64, acc, 0), v), acc, 0)
		})
		b.Ret(b.Load(ir.I64, acc, 0))
		return m
	}

	if t.Heavy {
		i := b.Alloca(8)
		b.Store(ir.I64, b.Const64(0), i, 0)
		loop("", i, b.Const64(int64(t.Iters)), func(ir.Reg) {})
	}
	old := b.Load(ir.I64, target, 0)
	inc := b.Add(old, b.Const64(1))
	b.Store(ir.I64, inc, target, 0)
	if t.DirtyWords > 1 {
		j := b.Alloca(8)
		b.Store(ir.I64, b.Const64(1), j, 0)
		loop("d", j, b.Load(ir.I64, payload, 0), func(jv ir.Reg) {
			b.Store(ir.I64, b.Add(old, jv), b.PtrAdd(target, jv, 8, 0), 0)
		})
	}
	if t.Heavy {
		b.Ret(old)
	} else {
		b.Ret(inc)
	}
	return m
}

// buildCrossKernel builds group g's cross-traffic kernel: it adds g+1 to
// the target word, so every group's module content is distinct.
func buildCrossKernel(g int) *ir.Module {
	m := ir.NewModule(fmt.Sprintf("cross-g%d", g))
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	target := b.Param(2)
	inc := b.Add(b.Load(ir.I64, target, 0), b.Const64(int64(g+1)))
	b.Store(ir.I64, inc, target, 0)
	b.Ret(inc)
	return m
}

// opPayload builds the payload of one generated op: read-only types get
// their scan length and dirty-write types their span, both clamped to the
// destination region so every route touches the same bytes.
func opPayload(t place.TypeSpec, op place.OpSpec, regionWords int) []byte {
	payload := make([]byte, op.PayloadLen)
	words := 0
	switch {
	case t.ReadOnly:
		words = t.Iters
	case t.DirtyWords > 1:
		words = t.DirtyWords
	default:
		return payload
	}
	if words > regionWords {
		words = regionWords
	}
	if len(payload) < 8 {
		payload = make([]byte, 8)
	}
	binary.LittleEndian.PutUint64(payload, uint64(words))
	return payload
}

// fillRegion writes node i's deterministic region content.
func fillRegion(mem []byte, base uint64, node, words int) {
	for j := 0; j < words; j++ {
		v := uint64(node+1)*0x9e3779b97f4a7c15 + uint64(j)*0x6a09e667f3bcc909
		binary.LittleEndian.PutUint64(mem[base+uint64(8*j):], v)
	}
}

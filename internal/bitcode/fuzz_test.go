package bitcode_test

// Native fuzz target for the fat-archive decoder — the parser that
// consumes shipped bitcode frames off the wire before any entry is
// selected or decoded. Properties checked on every input:
//
//  1. DecodeArchive never panics and never allocates proportionally to a
//     declared length the remaining bytes cannot hold.
//  2. Idempotent canonicalization: any input that decodes re-encodes
//     through EncodeArchive to a canonical form that decodes to the same
//     entries and re-encodes to identical bytes. (Varints admit
//     non-minimal encodings and trailing bytes are ignored, so byte
//     equality is asserted only after one canonicalization round, not
//     against the raw input.)
//
// Run the smoke in CI with: go test -fuzz=FuzzDecodeArchive -fuzztime=10s ./internal/bitcode

import (
	"bytes"
	"testing"

	"threechains/internal/bitcode"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/toolchain"
)

// fuzzModule exercises the module features the archive entries carry:
// a global with an initializer, an extern, a dependency and a loop.
func fuzzModule() *ir.Module {
	m := ir.NewModule("fuzz/seed")
	b := ir.NewBuilder(m)
	b.AddGlobal("table", 16, []byte{1, 2, 3})
	b.DeclareExtern("tc.send")
	b.AddDep("libucx.so")
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64}, ir.I64)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	v := b.Load(ir.I64, b.Param(0), 0)
	b.CondBr(b.ICmp(ir.PredSLT, v, b.Param(1)), body, exit)
	b.SetBlock(body)
	b.Store(ir.I64, b.Add(v, b.Const64(1)), b.Param(0), 0)
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(v)
	return m
}

func FuzzDecodeArchive(f *testing.F) {
	fat := toolchain.DefaultOptions()
	thin := fat
	thin.Debug = false
	thin.Triples = []isa.Triple{isa.TripleBF2}
	for _, opts := range []toolchain.Options{fat, thin} {
		_, raw, err := toolchain.BuildArchive(fuzzModule(), opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		// Truncated and bit-flipped variants steer the fuzzer toward the
		// length-prefix and magic checks.
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:7])
		flip := append([]byte(nil), raw...)
		flip[6] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte{'T', 'C', 'F', 'A', 1, 1, 0, 0xFF, 0xFF, 0xFF, 0x1F}) // huge declared blob
	f.Add([]byte{'T', 'C', 'F', 'A'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := bitcode.DecodeArchive(data)
		if err != nil {
			return
		}
		canon, err := bitcode.EncodeArchive(a)
		if err != nil {
			t.Fatalf("decoded archive failed to re-encode: %v", err)
		}
		a2, err := bitcode.DecodeArchive(canon)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v", err)
		}
		if len(a2.Entries) != len(a.Entries) {
			t.Fatalf("canonicalization changed entry count: %d -> %d", len(a.Entries), len(a2.Entries))
		}
		for i := range a.Entries {
			if a.Entries[i].Triple != a2.Entries[i].Triple ||
				!bytes.Equal(a.Entries[i].Bitcode, a2.Entries[i].Bitcode) {
				t.Fatalf("entry %d changed across canonicalization", i)
			}
		}
		if len(canon) != a.Size() {
			t.Fatalf("Size() = %d, canonical form is %d bytes", a.Size(), len(canon))
		}
		canon2, err := bitcode.EncodeArchive(a2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form not a fixed point:\n%x\n%x", canon, canon2)
		}
	})
}

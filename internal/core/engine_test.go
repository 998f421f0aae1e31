package core

// Tests for the pluggable-engine integration: per-registration machine
// reuse in the execution hot path, error recording on undeliverable
// entries, and per-node engine selection.

import (
	"testing"

	"threechains/internal/isa"
	"threechains/internal/mcode"
)

// TestExecuteReusesMachine asserts that Runtime.execute binds one
// Machine to the registration on first execution and keeps reusing it —
// the allocation-elimination half of the engine refactor.
func TestExecuteReusesMachine(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	counter := dst.Node.Alloc(8)
	dst.TargetPtr = counter

	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Send(1, h, "main", []byte{0}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	reg, ok := dst.Reg.Get(h.Hash)
	if !ok {
		t.Fatal("type not registered on destination")
	}
	if reg.Machine == nil {
		t.Fatal("no machine bound to the registration after first execution")
	}
	first := reg.Machine
	for i := 0; i < 3; i++ {
		if _, err := src.Send(1, h, "main", []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	if reg.Machine != first {
		t.Fatal("machine was rebuilt instead of reused")
	}
	if reg.Executions != 4 {
		t.Fatalf("executions = %d, want 4", reg.Executions)
	}
	if got := readU64(dst, counter); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if dst.LastExecErr != nil {
		t.Fatal(dst.LastExecErr)
	}
}

// TestExecuteRecordsEntryError asserts that an out-of-range entry index
// is recorded in LastExecErr and Stats.ExecErrors instead of being
// silently dropped (the old behavior).
func TestExecuteRecordsEntryError(t *testing.T) {
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	if err := dst.PredeployAM(5, "tsi", BuildTSI()); err != nil {
		t.Fatal(err)
	}
	ep := src.Worker.Connect(dst.Worker)
	ep.SendAM(5, 99, []byte{0}) // entry 99 does not exist
	c.Run()
	if dst.LastExecErr == nil {
		t.Fatal("bad entry index left LastExecErr nil")
	}
	if dst.Stats.ExecErrors != 1 {
		t.Fatalf("ExecErrors = %d, want 1", dst.Stats.ExecErrors)
	}
	if dst.Stats.Executions != 0 {
		t.Fatalf("Executions = %d, want 0 (nothing ran)", dst.Stats.Executions)
	}
}

// TestPerNodeEngineSelection runs a heterogeneous cluster mixing the
// superblock and interpreter engines and checks both deliver identical
// guest-visible results.
func TestPerNodeEngineSelection(t *testing.T) {
	c := NewCluster(testParams(), []NodeSpec{
		{Name: "host", March: isa.XeonE5(), Engine: mcode.EngineNameSuperblock},
		{Name: "dpu", March: isa.CortexA72(), Engine: mcode.EngineNameInterp},
	})
	src, dst := c.Runtime(0), c.Runtime(1)
	if got := dst.Session.Engine.Name(); got != mcode.EngineNameInterp {
		t.Fatalf("dpu session engine = %q, want interp", got)
	}
	counter := dst.Node.Alloc(8)
	dst.TargetPtr = counter
	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := src.Send(1, h, "main", []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	if got := readU64(dst, counter); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	reg, _ := dst.Reg.Get(h.Hash)
	if reg == nil || reg.Machine == nil {
		t.Fatal("no machine on interp-engine registration")
	}
	if got := reg.Machine.EngineName(); got != mcode.EngineNameInterp {
		t.Fatalf("machine engine = %q, want interp", got)
	}
}

// TestUnknownEnginePanics pins the configuration-bug contract, including
// for the retired "closure" and "adaptive" engine names.
func TestUnknownEnginePanics(t *testing.T) {
	for _, name := range []string{"jit9000", "closure", "adaptive"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCluster with unknown engine name %q should panic", name)
				}
			}()
			NewCluster(testParams(), []NodeSpec{{Name: "x", March: isa.XeonE5(), Engine: name}})
		}()
	}
}

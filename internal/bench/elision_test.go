package bench

// Pins the host-cost contract of proven-check elision: a warm compiled
// engine running an in-budget kernel with its proven checks elided must
// execute with zero allocations — the batched step-budget wrapper
// and the unchecked load/store closures may not introduce per-run or
// per-traversal garbage — and must return the interpreter oracle's
// exact result and step count.

import (
	"testing"

	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/mcode"
)

// sharedArtifactMachine returns a superblock machine on a closure
// artifact that another machine, with its own memory, has already run k
// on — the runtime shares one artifact per module across every
// registration's machine on a node. Like newEngineTimer it warms the
// returned machine with three runs.
func sharedArtifactMachine(k EngineKernel, march *isa.MicroArch) (*mcode.Machine, error) {
	cm, err := mcode.Lower(k.Mod, march)
	if err != nil {
		return nil, err
	}
	art, err := mcode.SuperblockEngine{}.Prepare(cm)
	if err != nil {
		return nil, err
	}
	var ma *mcode.Machine
	for i := 0; i < 2; i++ {
		ma, err = mcode.NewMachineArt(art, ir.NewSimpleEnv(1<<16), mcode.NewLinkage(cm), ir.ExecLimits{
			StackBase: 32 << 10, StackSize: 16 << 10,
		})
		if err != nil {
			return nil, err
		}
		for j := 0; j < 3; j++ {
			ma.Reset()
			if _, err := ma.Run(k.Entry, k.Args...); err != nil {
				return nil, err
			}
		}
	}
	return ma, nil
}

// TestElidedEnginesAllocFree runs each kernel on a fresh superblock
// machine ("superblock") and on a second machine sharing its closure
// artifact ("closure").
func TestElidedEnginesAllocFree(t *testing.T) {
	for _, k := range EngineCorpus() {
		for _, label := range []string{"closure", mcode.EngineNameSuperblock} {
			t.Run(k.Name+"/"+label, func(t *testing.T) {
				oracle, err := newEngineTimer(mcode.InterpEngine{}, k, isa.XeonE5())
				if err != nil {
					t.Fatal(err)
				}
				oracle.ma.Reset()
				want, err := oracle.ma.Run(k.Entry, k.Args...)
				if err != nil {
					t.Fatal(err)
				}
				wantSteps := oracle.ma.Steps()

				var ma *mcode.Machine
				if label == "closure" {
					ma, err = sharedArtifactMachine(k, isa.XeonE5())
				} else {
					var et *engineTimer
					if et, err = newEngineTimer(mcode.SuperblockEngine{}, k, isa.XeonE5()); err == nil {
						ma = et.ma
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				ma.Reset()
				got, err := ma.Run(k.Entry, k.Args...)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || ma.Steps() != wantSteps {
					t.Fatalf("elided %s: result %d steps %d, oracle %d steps %d",
						label, got, ma.Steps(), want, wantSteps)
				}

				run := func() {
					ma.Reset()
					if _, err := ma.Run(k.Entry, k.Args...); err != nil {
						t.Fatal(err)
					}
				}
				run() // warm pools outside the measured window
				if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
					t.Errorf("warm elided %s/%s allocates %.1f objects per execution, want 0",
						label, k.Name, allocs)
				}
			})
		}
	}
}

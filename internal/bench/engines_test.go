package bench

import (
	"testing"

	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/testbed"
)

// TestEngineVirtualTimeInvariance runs the TSI microbenchmark under
// both execution engines and requires identical simulated metrics: the
// engine choice may only change host wall-clock speed, never the
// virtual-time physics of the model.
func TestEngineVirtualTimeInvariance(t *testing.T) {
	p := testbed.ThorXeon()
	for _, mode := range []TSIMode{TSIActiveMessage, TSIBitcodeCached, TSIBitcodeUncached} {
		p.Engine = mcode.EngineNameSuperblock
		super, err := RunTSI(p, mode)
		if err != nil {
			t.Fatalf("%s/superblock: %v", mode, err)
		}
		p.Engine = mcode.EngineNameInterp
		interp, err := RunTSI(p, mode)
		if err != nil {
			t.Fatalf("%s/interp: %v", mode, err)
		}
		if super != interp {
			t.Errorf("%s: results diverge across engines:\n superblock: %+v\n interp:     %+v",
				mode, super, interp)
		}
	}
}

// TestCompareEngines smoke-tests the wall-clock comparison harness and
// its core claim: the superblock engine is not slower than the
// interpreter.
func TestCompareEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	rows, err := CompareEngines(isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no comparison rows")
	}
	for _, r := range rows {
		if r.Steps <= 0 || r.InterpNs <= 0 || r.SuperNs <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Kernel, r)
		}
		// The measured margin is several-fold (recorded in
		// BENCH_engines.json); 1.0 here is a noise-proof CI floor.
		if r.Speedup < 1 {
			t.Errorf("%s: superblock engine slower than interpreter (%.2fx)", r.Kernel, r.Speedup)
		}
		t.Logf("%s: interp %.1fns superblock %.1fns (i/sb %.2fx)",
			r.Kernel, r.InterpNs, r.SuperNs, r.Speedup)
	}
}

// TestSweepBatchShape smoke-tests the engine-level RunBatch sweep: every
// grid point must execute correctly and batch ≥ 8 must not run slower
// than one-at-a-time execution (the batched run stage's whole point).
func TestSweepBatchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	s, err := SweepBatch(isa.XeonE5(), mcode.DefaultEngine, EngineCorpus()[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(BatchSizes) {
		t.Fatalf("got %d points, want %d", len(s.Points), len(BatchSizes))
	}
	for _, p := range s.Points {
		t.Logf("%s batch %d: %.1f ns/exec (%.2fx)", s.Kernel, p.BatchSize, p.NsPerExec, p.Gain)
		if p.NsPerExec <= 0 {
			t.Errorf("batch %d: degenerate point %+v", p.BatchSize, p)
		}
		// Generous floor: host noise may wobble the gain, but batching a
		// warm machine must never cost ~15% of throughput.
		if p.BatchSize >= 8 && p.Gain < 0.85 {
			t.Errorf("batch %d slower than sequential: gain %.2fx", p.BatchSize, p.Gain)
		}
	}
}

// TestDeliverySweepAmortizes runs the end-to-end delivery sweep on a
// reduced grid and checks the batched pipeline's claim: draining ≥ 8
// frames per poll must beat one-message-per-poll host throughput.
func TestDeliverySweepAmortizes(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	s, err := DeliverySweep(testbed.ThorXeon(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		t.Logf("delivery batch %d: %.1f ns/msg (%.2fx)", p.BatchSize, p.NsPerExec, p.Gain)
	}
	last := s.Points[len(s.Points)-1]
	if last.Gain < 1.3 {
		t.Errorf("batch-8 delivery gain %.2fx, want >= 1.3x over one-message-per-poll", last.Gain)
	}
}

package core

// Tests for the batched ifunc delivery pipeline: burst draining and
// (type, entry) grouping in the runtime, the MaxDrain=1 paper-fidelity
// mode, and virtual-time invariance of mixed-engine clusters.

import (
	"testing"

	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/sim"
)

// TestBatchedDeliveryDrainsBurst posts a back-to-back burst and checks
// the delivery pipeline batches it: every frame executes, but polls and
// group runs are amortized over the burst instead of paid per message.
func TestBatchedDeliveryDrainsBurst(t *testing.T) {
	const burst = 64
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	counter := dst.Node.Alloc(8)
	dst.TargetPtr = counter

	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if _, err := src.Send(1, h, "main", []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()

	if got := readU64(dst, counter); got != burst {
		t.Fatalf("counter = %d, want %d", got, burst)
	}
	ws := dst.Worker.Stats
	if ws.IfuncFrames != burst {
		t.Fatalf("IfuncFrames = %d, want %d", ws.IfuncFrames, burst)
	}
	// The first frame's JIT registration keeps the core busy long enough
	// for the rest of the burst to queue, so the drain count must come
	// out far below one poll per message.
	if ws.IfuncPolls >= burst/2 {
		t.Errorf("IfuncPolls = %d for %d frames: burst did not batch", ws.IfuncPolls, burst)
	}
	if dst.Stats.Drains != ws.IfuncPolls {
		t.Errorf("runtime Drains = %d, worker IfuncPolls = %d", dst.Stats.Drains, ws.IfuncPolls)
	}
	// One type, one entry: each drain contributes exactly one group.
	if dst.Stats.GroupRuns != dst.Stats.Drains {
		t.Errorf("GroupRuns = %d, want %d (one group per drain)", dst.Stats.GroupRuns, dst.Stats.Drains)
	}
	if dst.Stats.Executions != burst {
		t.Errorf("Executions = %d, want %d", dst.Stats.Executions, burst)
	}
	if dst.LastExecErr != nil {
		t.Fatal(dst.LastExecErr)
	}
}

// TestMaxDrainOnePreservesPerMessagePolling pins the paper-fidelity
// mode: with MaxDrain = 1 every frame pays its own poll pickup, exactly
// the §V one-message-per-poll runtime the calibrated tables assume.
func TestMaxDrainOnePreservesPerMessagePolling(t *testing.T) {
	const burst = 16
	c := twoNodes()
	src, dst := c.Runtime(0), c.Runtime(1)
	dst.Worker.MaxDrain = 1
	counter := dst.Node.Alloc(8)
	dst.TargetPtr = counter

	h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if _, err := src.Send(1, h, "main", []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()

	if got := readU64(dst, counter); got != burst {
		t.Fatalf("counter = %d, want %d", got, burst)
	}
	if dst.Worker.Stats.IfuncPolls != burst {
		t.Errorf("IfuncPolls = %d, want %d (one poll per message)", dst.Worker.Stats.IfuncPolls, burst)
	}
	if dst.Stats.GroupRuns != burst {
		t.Errorf("GroupRuns = %d, want %d", dst.Stats.GroupRuns, burst)
	}
}

// TestMixedEngineClusterMatchesHomogeneous runs the same traffic through
// a homogeneous superblock cluster and a heterogeneous superblock/interp
// cluster and requires identical virtual-time outcomes: final simulation
// clock, per-node CPU busy time and guest-visible state. This is the
// contract that lets a deployment pick engines per node — a DPU on the
// interpreter, a host on compiled superblocks — without perturbing any
// simulated metric.
func TestMixedEngineClusterMatchesHomogeneous(t *testing.T) {
	// Enough messages per node that drains batch several frames.
	const msgsPerNode = 40

	run := func(engines [3]string) (now sim.Time, busy [4]sim.Time, counters [3]uint64) {
		c := NewCluster(testParams(), []NodeSpec{
			{Name: "src", March: isa.XeonE5(), Engine: engines[0]},
			{Name: "n1", March: isa.XeonE5(), Engine: engines[0]},
			{Name: "n2", March: isa.CortexA72(), Engine: engines[1]},
			{Name: "n3", March: isa.A64FX(), Engine: engines[2]},
		})
		src := c.Runtime(0)
		h, err := src.RegisterBitcode("tsi", BuildTSI(), allTriples)
		if err != nil {
			t.Fatal(err)
		}
		var addrs [3]uint64
		for i := 0; i < 3; i++ {
			dst := c.Runtime(i + 1)
			addrs[i] = dst.Node.Alloc(8)
			dst.TargetPtr = addrs[i]
		}
		for m := 0; m < msgsPerNode; m++ {
			for i := 1; i <= 3; i++ {
				if _, err := src.Send(i, h, "main", []byte{0}); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.Run()
		for i := 0; i < 3; i++ {
			counters[i] = readU64(c.Runtime(i+1), addrs[i])
			if err := c.Runtime(i + 1).LastExecErr; err != nil {
				t.Fatalf("node %d: %v", i+1, err)
			}
		}
		for i := range busy {
			busy[i] = c.Runtime(i).Node.Stats.CPUBusy
		}
		return c.Eng.Now(), busy, counters
	}

	homoNow, homoBusy, homoCounters := run([3]string{
		mcode.EngineNameSuperblock, mcode.EngineNameSuperblock, mcode.EngineNameSuperblock})
	mixNow, mixBusy, mixCounters := run([3]string{
		mcode.EngineNameInterp, mcode.EngineNameSuperblock, mcode.EngineNameInterp})

	if homoNow != mixNow {
		t.Errorf("final virtual time diverges: homogeneous %v, mixed %v", homoNow, mixNow)
	}
	if homoBusy != mixBusy {
		t.Errorf("per-node CPU busy diverges:\n homogeneous: %v\n mixed:       %v", homoBusy, mixBusy)
	}
	if homoCounters != mixCounters {
		t.Errorf("guest state diverges: homogeneous %v, mixed %v", homoCounters, mixCounters)
	}
	for i, got := range mixCounters {
		if got != msgsPerNode {
			t.Errorf("node %d counter = %d, want %d", i+1, got, msgsPerNode)
		}
	}
}

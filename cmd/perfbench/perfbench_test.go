package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// smallWorkloads run in-process in the tests; scale-1000 checks itself
// against its one-shard reference on every benchmark run instead.
var smallWorkloads = []string{"tsi-stream", "pointer-chase", "offload-mix"}

func measureT(t *testing.T, name string, seed int64, reference bool) *measurement {
	t.Helper()
	cfg := config{workload: name, seed: seed, seconds: 1, reference: reference}
	var ref *refResult
	if workloads[name].needsRef && !reference {
		r := measureT(t, name, seed, true)
		ref = &refResult{Digests: r.digests, MakespanPS: int64(r.makespan)}
	}
	m, err := measure(workloads[name], cfg, ref)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return m
}

// virtualCounts is every deterministic figure of a run: the virt_*
// metrics and the program's own per-layer counts.
func virtualCounts(m *measurement) []float64 {
	out := map[string]metric{}
	m.endToEnd(out, 0)
	b, a := m.before, m.after
	return []float64{
		out["virt_makespan_us"].Value, out["virt_op_p50_us"].Value, out["virt_op_p99_us"].Value,
		float64(a.events - b.events), float64(a.steps - b.steps), float64(a.msgs - b.msgs),
		float64(a.bytes - b.bytes), float64(a.polls - b.polls), float64(a.frames - b.frames),
		float64(a.full - b.full), float64(a.trunc - b.trunc), float64(a.hashref - b.hashref),
		float64(a.ship - b.ship), float64(a.pull - b.pull), float64(a.local - b.local),
		float64(a.getBytes - b.getBytes), float64(a.putBytes - b.putBytes), float64(a.cpuBusy - b.cpuBusy),
	}
}

func TestSameSeedIsBitIdentical(t *testing.T) {
	for _, name := range smallWorkloads {
		a, b := measureT(t, name, 5, false), measureT(t, name, 5, false)
		if va, vb := virtualCounts(a), virtualCounts(b); !slices.Equal(va, vb) {
			t.Errorf("%s: same seed, different virtual figures:\n%v\n%v", name, va, vb)
		}
		if !slices.Equal(a.digests, b.digests) {
			t.Errorf("%s: same seed, different output digests", name)
		}
	}
}

func TestOtherSeedChangesInputsAndPasses(t *testing.T) {
	for _, name := range smallWorkloads {
		a, b := measureT(t, name, 1, false), measureT(t, name, 2, false)
		for _, m := range []*measurement{a, b} {
			if m.failed != 0 || len(m.problems) != 0 || m.attempted == 0 {
				t.Errorf("%s seed %d: %d of %d ops failed: %v", name, m.cfg.seed, m.failed, m.attempted, m.problems)
			}
		}
		if slices.Equal(a.digests, b.digests) && slices.Equal(virtualCounts(a), virtualCounts(b)) {
			t.Errorf("%s: seeds 1 and 2 produced identical runs", name)
		}
	}
}

// TestReferenceCatchesWrongOutputs corrupts one digest and expects the
// check to count that digest's ops as failed.
func TestReferenceCatchesWrongOutputs(t *testing.T) {
	m := measureT(t, "offload-mix", 3, false)
	ref := &refResult{Digests: slices.Clone(m.digests), MakespanPS: int64(m.makespan)}
	ref.Digests[2]++
	failed, problems := m.w.check(ref)
	if failed != mixBurst || len(problems) == 0 {
		t.Fatalf("corrupted reference: %d failed, problems %v", failed, problems)
	}
}

func TestHostFingerprint(t *testing.T) {
	var fp map[string]any
	if err := json.Unmarshal([]byte(hostFingerprint()), &fp); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cpu", "nproc", "gomaxprocs", "go"} {
		if _, ok := fp[k]; !ok {
			t.Errorf("fingerprint lacks %q: %v", k, fp)
		}
	}
}

func TestChargingRule(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "threechains/internal/ucx.(*Worker).drainIfuncs", "threechains/internal/sim.(*Engine).Run"}, "ucx"},
		{[]string{"threechains/internal/ir.LoadMem", "threechains/internal/mcode.(*Machine).RunBatch", "threechains/internal/core.(*Runtime).drainSink"}, "mcode"},
		{[]string{"threechains/internal/ir.(*Builder).emit", "threechains/internal/passes.Run", "threechains/internal/toolchain.BuildArchive"}, "jit"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "go"},
		{[]string{"main.(*tsiWorld).send"}, "harness"},
		{nil, "unattributed"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("%v: charged to %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestStolenFrac: steal counts against the CPUs that worked, weighted by
// their work and scaled by the CPUs the process used, up to its shard
// count; an idle CPU's steal does not count.
func TestStolenFrac(t *testing.T) {
	t0 := time.Now()
	a := cpuStat{busy: []uint64{0, 0, 0}, steal: []uint64{0, 0, 0}, at: t0}
	b := cpuStat{busy: []uint64{75, 50, 0}, steal: []uint64{25, 0, 40}, at: t0.Add(time.Second), procNS: 15e8}
	// CPU 0: 25% stolen over 75 busy ticks; CPU 1: none over 50; the
	// process kept 1.5 CPUs busy, which scales the loss only when it runs
	// more than one shard.
	if got, want := stolenFrac(a, b, 2), 0.25*75/125*1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("two shards: stolenFrac = %v, want %v", got, want)
	}
	if got, want := stolenFrac(a, b, 1), 0.25*75/125; math.Abs(got-want) > 1e-12 {
		t.Fatalf("one shard: stolenFrac = %v, want %v", got, want)
	}
	if got := stolenFrac(cpuStat{}, b, 1); got != 0 {
		t.Fatalf("no reading: stolenFrac = %v, want 0", got)
	}
}

// TestLedgerReadsProfile profiles a harness busy loop and expects the
// decoded ledger to charge it to the harness.
func TestLedgerReadsProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = splitmix64(x)
	}
	pprof.StopCPUProfile()
	lg, err := buildLedger(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if lg.samples == 0 || lg.ns["harness"]*2 < lg.total {
		t.Fatalf("ledger %v of %d ns (x=%d)", lg.ns, lg.total, x)
	}
}

package bench

// Differential and acceptance tests for the placement planner at the
// cluster level: every policy produces bit-identical execution results,
// cost-model decisions are deterministic across runs and execution
// engines (virtual-time invariance extended to routed offloads), and on
// the mixed heterogeneous scenario the planner beats both static
// policies.

import (
	"fmt"
	"testing"

	"threechains/internal/place"
	"threechains/internal/testbed"
)

// acceptanceScenario is the mixed-hetero workload of the default grid.
func acceptanceScenario() place.WorkloadParams {
	return PlacementScenarios()[0].Params
}

// TestPlacementPoliciesBitIdentical runs every scenario of the default
// grid under all three policies: identical result hashes are asserted
// inside PlacementSweep (it errors on divergence), so this test is the
// check that the whole grid actually completes and stays comparable.
func TestPlacementPoliciesBitIdentical(t *testing.T) {
	rows, err := PlacementSweep(testbed.ThorXeon(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	for _, r := range rows {
		for _, pt := range r.Points[1:] {
			if pt.ResultHash != r.Points[0].ResultHash {
				t.Errorf("%s: %s hash %s != %s hash %s", r.Scenario,
					pt.Policy, pt.ResultHash, r.Points[0].Policy, r.Points[0].ResultHash)
			}
		}
	}
}

// TestPlacementCostModelWins pins the acceptance criterion: on the
// mixed-hetero scenario (mixed payload/region sizes, asymmetric node
// speeds) the cost model achieves lower total virtual time than both
// static policies, with a genuinely mixed route choice.
func TestPlacementCostModelWins(t *testing.T) {
	p := testbed.ThorXeon()
	sc := PlacementScenarios()[:1]
	rows, err := PlacementSweep(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	ship, pull, cost := r.Points[0].TotalUS, r.Points[1].TotalUS, r.Points[2].TotalUS
	if cost >= ship || cost >= pull {
		t.Fatalf("cost model %0.1fus does not beat ship %0.1fus and pull %0.1fus", cost, ship, pull)
	}
	cm := r.Points[2]
	if cm.ShipOps == 0 || cm.PullOps == 0 {
		t.Errorf("degenerate route mix: ship=%d pull=%d local=%d (a static policy in disguise)",
			cm.ShipOps, cm.PullOps, cm.LocalOps)
	}
	t.Logf("mixed-hetero: ship=%.0fus pull=%.0fus cost=%.0fus win=%.1f%% (routes s=%d p=%d l=%d)",
		ship, pull, cost, r.WinPct, cm.ShipOps, cm.PullOps, cm.LocalOps)
}

// TestPlacementDeterministicAcrossRunsAndEngines runs the cost-model
// policy on the acceptance scenario twice on the default engine and once
// on the interpreter: total virtual time, route mix and result hash
// must be identical everywhere — decisions consume only engine-invariant
// virtual-time state, so engine choice (host wall-clock) can never leak
// into placement.
func TestPlacementDeterministicAcrossRunsAndEngines(t *testing.T) {
	params := acceptanceScenario()
	type run struct {
		label string
		prof  testbed.Profile
	}
	base := testbed.ThorXeon()
	interp := testbed.ThorXeon()
	interp.Engine = "interp"
	runs := []run{
		{"superblock-1", base},
		{"superblock-2", base},
		{"interp", interp},
	}
	total0, stats0, hash0, err := RunPlacementScenario(runs[0].prof, params, place.PolicyCostModel)
	if err != nil {
		t.Fatal(err)
	}
	for _, rn := range runs[1:] {
		total, stats, hash, err := RunPlacementScenario(rn.prof, params, place.PolicyCostModel)
		if err != nil {
			t.Fatalf("%s: %v", rn.label, err)
		}
		if total != total0 {
			t.Errorf("%s: total virtual time %v != %v", rn.label, total, total0)
		}
		if stats != stats0 {
			t.Errorf("%s: route stats %+v != %+v", rn.label, stats, stats0)
		}
		if hash != hash0 {
			t.Errorf("%s: result hash %016x != %016x", rn.label, hash, hash0)
		}
	}
}

// TestPlacementSweepSanity checks the sweep rows carry coherent derived
// fields (fingerprint present, best-static/win arithmetic).
func TestPlacementSweepSanity(t *testing.T) {
	rows, err := PlacementSweep(testbed.ThorXeon(), PlacementScenarios()[:1])
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Fingerprint == "" || len(r.Points) != 3 {
		t.Fatalf("row shape: %+v", r)
	}
	want := r.Points[0].TotalUS
	if r.Points[1].TotalUS < want {
		want = r.Points[1].TotalUS
	}
	if r.BestStaticUS != want {
		t.Errorf("best static %v, want %v", r.BestStaticUS, want)
	}
}

// TestConcurrentPlacementBitIdentical: W-deep offload streams produce
// bit-identical memory and per-op results across all four policies —
// including the queueing-aware planner — and match the sequential
// runner's hash for the same workload (per-destination serialization
// makes every op's value independent of route, depth and mode).
func TestConcurrentPlacementBitIdentical(t *testing.T) {
	p := testbed.ThorXeon()
	rows, err := ConcurrentPlacementSweep(p, nil)
	if err != nil {
		t.Fatal(err) // the sweep itself asserts cross-policy equality
	}
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	for _, r := range rows {
		if len(r.Points) != 4 {
			t.Fatalf("%s: %d points, want 4", r.Scenario, len(r.Points))
		}
		for _, pt := range r.Points[1:] {
			if pt.ResultHash != r.Points[0].ResultHash {
				t.Errorf("%s: %s hash %s != %s hash %s", r.Scenario,
					pt.Policy, pt.ResultHash, r.Points[0].Policy, r.Points[0].ResultHash)
			}
		}
	}
	// Cross-mode: the same workload driven sequentially hashes the same.
	sc := ConcurrentPlacementScenarios()[0]
	_, _, seqHash, err := RunPlacementScenario(p, sc.Params, place.PolicyShipCode)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%016x", seqHash)
	if rows[0].Points[0].ResultHash != want {
		t.Errorf("concurrent hash %s != sequential hash %s", rows[0].Points[0].ResultHash, want)
	}
}

// TestConcurrentQueueModelWins pins the acceptance criterion: on the
// concurrent mixed-hetero scenario (stream depth 16) the queueing-aware
// cost model beats both static policies AND the zero-load cost model on
// makespan, with a genuinely mixed route choice.
func TestConcurrentQueueModelWins(t *testing.T) {
	sc := ConcurrentPlacementScenarios()[:1]
	rows, err := ConcurrentPlacementSweep(testbed.ThorXeon(), sc)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	ship, pull := r.Points[0].TotalUS, r.Points[1].TotalUS
	zero, queue := r.Points[2].TotalUS, r.Points[3].TotalUS
	if queue >= ship || queue >= pull || queue >= zero {
		t.Fatalf("queue model %0.1fus does not beat ship %0.1fus, pull %0.1fus and zero-load %0.1fus",
			queue, ship, pull, zero)
	}
	q := r.Points[3]
	if q.ShipOps == 0 || q.PullOps == 0 {
		t.Errorf("degenerate route mix: ship=%d pull=%d local=%d (a static policy in disguise)",
			q.ShipOps, q.PullOps, q.LocalOps)
	}
	t.Logf("%s depth=%d: ship=%.0fus pull=%.0fus zero-load=%.0fus queue=%.0fus win=%.1f%% (routes s=%d p=%d l=%d)",
		r.Scenario, r.Depth, ship, pull, zero, queue, r.QueueWinPct, q.ShipOps, q.PullOps, q.LocalOps)
}

// TestConcurrentPlacementDeterministicAcrossRunsAndEngines runs the
// queueing-aware policy on the concurrent acceptance scenario twice on
// the default engine and once on the interpreter: makespan, route
// stats, result hash and the planner's full committed decision trace
// (routes, estimates, horizon claims) must be identical everywhere.
func TestConcurrentPlacementDeterministicAcrossRunsAndEngines(t *testing.T) {
	params := ConcurrentPlacementScenarios()[0].Params
	base := testbed.ThorXeon()
	interp := testbed.ThorXeon()
	interp.Engine = "interp"
	runs := []struct {
		label string
		prof  testbed.Profile
	}{
		{"superblock-1", base},
		{"superblock-2", base},
		{"interp", interp},
	}
	total0, stats0, hash0, trace0, err := RunConcurrentPlacementScenario(runs[0].prof, params, place.PolicyCostModelQueue)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace0) != params.Ops {
		t.Fatalf("trace length %d, want %d", len(trace0), params.Ops)
	}
	for _, rn := range runs[1:] {
		total, stats, hash, trace, err := RunConcurrentPlacementScenario(rn.prof, params, place.PolicyCostModelQueue)
		if err != nil {
			t.Fatalf("%s: %v", rn.label, err)
		}
		if total != total0 {
			t.Errorf("%s: makespan %v != %v", rn.label, total, total0)
		}
		if stats != stats0 {
			t.Errorf("%s: route stats %+v != %+v", rn.label, stats, stats0)
		}
		if hash != hash0 {
			t.Errorf("%s: result hash %016x != %016x", rn.label, hash, hash0)
		}
		if len(trace) != len(trace0) {
			t.Fatalf("%s: trace length %d != %d", rn.label, len(trace), len(trace0))
		}
		for i := range trace {
			if trace[i] != trace0[i] {
				t.Errorf("%s: decision %d differs: %+v vs %+v", rn.label, i, trace[i], trace0[i])
				break
			}
		}
	}
}

// BenchmarkPlacementPolicies drives a small generated scenario under all
// three routing policies per iteration — the CI -benchtime=1x smoke for
// the placement subsystem (crashes, divergence and policy errors surface
// without timing noise; virtual-time outcomes are tracked in
// BENCH_engines.json, not asserted here).
func BenchmarkPlacementPolicies(b *testing.B) {
	p := testbed.ThorXeon()
	params := place.WorkloadParams{Seed: 46, Nodes: 3, Types: 4, Ops: 16}
	for i := 0; i < b.N; i++ {
		var hashes []uint64
		for _, pol := range []place.Policy{place.PolicyShipCode, place.PolicyPullData, place.PolicyCostModel} {
			_, _, hash, err := RunPlacementScenario(p, params, pol)
			if err != nil {
				b.Fatal(err)
			}
			hashes = append(hashes, hash)
		}
		if hashes[0] != hashes[1] || hashes[1] != hashes[2] {
			b.Fatalf("policies diverged: %x", hashes)
		}
	}
}

// BenchmarkConcurrentPlacement drives a reduced concurrent scenario
// under all four routing policies per iteration — the CI -benchtime=1x
// smoke for the windowed-stream path and the queueing-aware planner
// (crashes, stream stalls and cross-policy divergence surface without
// timing noise).
func BenchmarkConcurrentPlacement(b *testing.B) {
	p := testbed.ThorXeon()
	params := ConcurrentPlacementScenarios()[0].Params
	params.Ops = 48
	for i := 0; i < b.N; i++ {
		var hashes []uint64
		for _, pol := range concurrentPolicies {
			_, _, hash, _, err := RunConcurrentPlacementScenario(p, params, pol)
			if err != nil {
				b.Fatal(err)
			}
			hashes = append(hashes, hash)
		}
		for _, h := range hashes[1:] {
			if h != hashes[0] {
				b.Fatalf("policies diverged: %x", hashes)
			}
		}
	}
}

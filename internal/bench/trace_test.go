package bench

// Trace determinism suite: the canonical trace bytes must be identical
// across repeated runs, across execution engines, and across shard
// counts; and attaching a trace must never perturb the simulated
// outcome. These are the observability layer's differential guarantees,
// mirrored after the virtual-time invariance suites.

import (
	"bytes"
	"fmt"
	"testing"

	"threechains/internal/place"
	"threechains/internal/testbed"
)

// TestTraceDeterministicAcrossRunsAndEngines pins the canonical trace of
// the concurrent-hetero scenario byte-for-byte across repeated runs and
// across the interp and superblock engines.
func TestTraceDeterministicAcrossRunsAndEngines(t *testing.T) {
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
	out0, err := RunTracedConcurrentScenario(runs[0].prof, params, place.PolicyCostModelQueue)
	if err != nil {
		t.Fatal(err)
	}
	canon0 := out0.Trace.Canonical()
	if len(canon0) == 0 {
		t.Fatal("traced run recorded no events")
	}
	for _, rn := range runs[1:] {
		out, err := RunTracedConcurrentScenario(rn.prof, params, place.PolicyCostModelQueue)
		if err != nil {
			t.Fatalf("%s: %v", rn.label, err)
		}
		if out.Total != out0.Total {
			t.Errorf("%s: makespan %v != %v", rn.label, out.Total, out0.Total)
		}
		if out.Hash != out0.Hash {
			t.Errorf("%s: result hash %016x != %016x", rn.label, out.Hash, out0.Hash)
		}
		if canon := out.Trace.Canonical(); !bytes.Equal(canon, canon0) {
			t.Errorf("%s: canonical trace diverged (%d vs %d bytes): %s",
				rn.label, len(canon), len(canon0), firstDiffLine(canon0, canon))
		}
	}
}

// TestTraceDeterministicAcrossShardCounts pins the canonical trace of
// the grouped scale scenario byte-for-byte at shard counts 1, 2 and 4
// (the scheduler lane — whose window geometry legitimately depends on
// the shard count — is excluded from the canonical encoding).
func TestTraceDeterministicAcrossShardCounts(t *testing.T) {
	sc := ScaleScenarios()[0]
	p := testbed.ThorXeon()
	out1, tr1, err := RunTracedScaleScenario(p, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	canon1 := tr1.Canonical()
	if len(canon1) == 0 {
		t.Fatal("traced scale run recorded no events")
	}
	// Tracing-off/on invariance on the same axis: the untraced runner
	// must agree on every simulated observable, event count included.
	plain, err := RunScaleScenario(p, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hash != out1.Hash || plain.Virtual != out1.Virtual || plain.Events != out1.Events {
		t.Errorf("tracing perturbed the run: hash %016x/%016x virtual %v/%v events %d/%d",
			plain.Hash, out1.Hash, plain.Virtual, out1.Virtual, plain.Events, out1.Events)
	}
	for _, shards := range []int{2, 4} {
		out, tr, err := RunTracedScaleScenario(p, sc, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if out.Hash != out1.Hash || out.Virtual != out1.Virtual {
			t.Errorf("shards=%d: outcome diverged (hash %016x/%016x, virtual %v/%v)",
				shards, out.Hash, out1.Hash, out.Virtual, out1.Virtual)
		}
		if canon := tr.Canonical(); !bytes.Equal(canon, canon1) {
			t.Errorf("shards=%d: canonical trace diverged (%d vs %d bytes): %s",
				shards, len(canon), len(canon1), firstDiffLine(canon1, canon))
		}
	}
}

// TestTracingDoesNotPerturbRun pins tracing-off vs tracing-on on the
// concurrent scenario: same makespan, same route stats, same result
// hash — tracing observes virtual time, never perturbs it.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	params := ConcurrentPlacementScenarios()[0].Params
	p := testbed.ThorXeon()
	total0, stats0, hash0, _, err := RunConcurrentPlacementScenario(p, params, place.PolicyCostModelQueue)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunTracedConcurrentScenario(p, params, place.PolicyCostModelQueue)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total != total0 {
		t.Errorf("makespan %v (traced) != %v (untraced)", out.Total, total0)
	}
	if out.Stats != stats0 {
		t.Errorf("route stats %+v (traced) != %+v (untraced)", out.Stats, stats0)
	}
	if out.Hash != hash0 {
		t.Errorf("result hash %016x (traced) != %016x (untraced)", out.Hash, hash0)
	}
	if out.Trace.NumEvents() == 0 {
		t.Error("traced run recorded no events")
	}
	if len(out.Registry.Snapshot()) == 0 {
		t.Error("metrics registry snapshot empty")
	}
}

// firstDiffLine locates the first differing canonical line for a
// readable failure message.
func firstDiffLine(a, b []byte) string {
	al := bytes.Split(a, []byte{'\n'})
	bl := bytes.Split(b, []byte{'\n'})
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("first diff at line %d: %q vs %q", i, al[i], bl[i])
		}
	}
	return "traces differ only in length"
}

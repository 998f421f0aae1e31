package core

import (
	"bytes"
	"strings"
	"testing"

	"threechains/internal/isa"
	"threechains/internal/obs"
	"threechains/internal/place"
)

// TestTracingDisabledAllocFree pins the zero-overhead-when-disabled
// contract: with no trace or metrics attached, the warm send/deliver
// path — which now carries every emission site (frame-form instants,
// fabric tx/rx, drain and execute spans) as nil-checked hooks — still
// allocates nothing per message.
func TestTracingDisabledAllocFree(t *testing.T) {
	c, src, dst, h, _ := warmSendWorld(t)
	if src.Trace != nil || dst.Trace != nil || src.Node.Trace != nil {
		t.Fatal("trace attached without AttachTrace")
	}
	payload := make([]byte, 8)
	for i := 0; i < 32; i++ {
		if err := src.SendQuiet(1, h, "main", payload); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	msg := func() {
		if err := src.SendQuiet(1, h, "main", payload); err != nil {
			t.Fatal(err)
		}
		c.Run()
	}
	const budget = 0.5
	if allocs := testing.AllocsPerRun(300, msg); allocs > budget {
		t.Errorf("disabled-tracing warm delivery allocates %.2f objects/msg, budget %.1f", allocs, budget)
	}
}

// TestTracingDisabledOffloadAllocs pins the warm ship-routed offload
// with tracing and metrics unattached: the only per-op allocations are
// the pre-existing completion signal and its fire bookkeeping — the
// nil-checked plan instant and latency-histogram sites add nothing.
func TestTracingDisabledOffloadAllocs(t *testing.T) {
	c, src, _, h, _ := warmSendWorld(t)
	payload := make([]byte, 8)
	opts := OffloadOpts{Policy: place.PolicyShipCode}
	for i := 0; i < 16; i++ {
		if _, err := src.Offload(1, h, "main", payload, opts); err != nil {
			t.Fatal(err)
		}
		c.Run()
	}
	op := func() {
		if _, err := src.Offload(1, h, "main", payload, opts); err != nil {
			t.Fatal(err)
		}
		c.Run()
	}
	// The completion signal and its AtFire event are inherent to the
	// Offload API (Send's quiet path avoids them); pin their ceiling so
	// any hook regression that starts allocating shows up immediately.
	const budget = 4
	if allocs := testing.AllocsPerRun(200, op); allocs > budget {
		t.Errorf("disabled-tracing warm offload allocates %.2f objects/op, budget %d", allocs, budget)
	}
}

// TestAttachTraceRecordsDeliveryPipeline wires a trace and metrics into
// a two-node cluster and checks one warm delivery lands every pipeline
// stage in the right node's buffer: sender frame instant + tx span,
// receiver rx instant + drain and execute spans — and that the metrics
// registry reads the same counters the stats structs hold.
func TestAttachTraceRecordsDeliveryPipeline(t *testing.T) {
	c, src, dst, h, _ := warmSendWorld(t)
	tr := obs.NewTrace(len(c.Runtimes))
	reg := obs.NewRegistry()
	c.AttachTrace(tr)
	c.AttachMetrics(reg)
	if err := src.SendQuiet(1, h, "main", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	c.Run()

	canon := string(tr.Canonical())
	for _, want := range []string{
		"n0 core inst frame-trunc",
		"n0 nic-out span tx",
		"n1 nic-in inst rx",
		"n1 core span drain",
		"n1 core span execute",
	} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical trace missing %q:\n%s", want, canon)
		}
	}

	var gotSent, gotExec bool
	for _, pt := range reg.Snapshot() {
		if pt.Node == 0 && pt.Name == "runtime.ifuncs_sent" {
			gotSent = true
			if pt.Value != src.Stats.IfuncsSent {
				t.Errorf("ifuncs_sent metric %d != stat %d", pt.Value, src.Stats.IfuncsSent)
			}
		}
		if pt.Node == 1 && pt.Name == "runtime.executions" {
			gotExec = true
			if pt.Value != dst.Stats.Executions {
				t.Errorf("executions metric %d != stat %d", pt.Value, dst.Stats.Executions)
			}
		}
	}
	if !gotSent || !gotExec {
		t.Fatal("metrics snapshot missing registered counters")
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"X"`) {
		t.Error("chrome export has no complete events")
	}
}

// TestOffloadRouteLatencyHistograms checks AttachMetrics' per-route
// histograms observe plan-to-completion latency for each launched
// route.
func TestOffloadRouteLatencyHistograms(t *testing.T) {
	c, src, dst, h, _ := warmSendWorld(t)
	reg := obs.NewRegistry()
	c.AttachMetrics(reg)
	dst.TargetPtr = dst.Node.Alloc(64)
	if _, err := src.Offload(1, h, "main", make([]byte, 8), OffloadOpts{Policy: place.PolicyShipCode}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	var shipCount uint64
	for _, pt := range reg.Snapshot() {
		if pt.Node == 0 && pt.Name == "offload.latency_ps.ship" {
			shipCount = pt.Count
			if pt.Count > 0 && pt.P99 == 0 {
				t.Error("ship latency histogram has observations but zero p99")
			}
		}
	}
	if shipCount != 1 {
		t.Fatalf("ship latency count = %d, want 1", shipCount)
	}
}

// TestTraceGuestForwardFrameInstants pins that guest forwards record
// their frame form like host sends do: two tc.send_self forwards of one
// type from the middle node of a three-node line land frame-full then
// frame-trunc instants on the forwarding node's core track, each naming
// the forward's destination.
func TestTraceGuestForwardFrameInstants(t *testing.T) {
	specs := []NodeSpec{{Name: "a", March: isa.XeonE5()}, {Name: "b", March: isa.XeonE5()}, {Name: "c", March: isa.XeonE5()}}
	c := NewCluster(testParams(), specs)
	for _, r := range c.Runtimes {
		r.TargetPtr = r.Node.Alloc(8)
	}
	src := c.Runtime(0)
	h, err := src.RegisterBitcode("prop", BuildPropagator(), allTriples)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(len(c.Runtimes))
	c.AttachTrace(tr)
	payload := make([]byte, 16)
	payload[0] = 1 // TTL 1: node 1 forwards once to node 2
	payload[8] = 1 // stride
	for i := 0; i < 2; i++ {
		if _, err := src.Send(1, h, "main", payload); err != nil {
			t.Fatal(err)
		}
		c.Run()
	}
	if got := readU64(c.Runtime(2), c.Runtime(2).TargetPtr); got != 2 {
		t.Fatalf("node 2 visits = %d, want 2", got)
	}

	var forwards []string
	for _, line := range strings.Split(string(tr.Canonical()), "\n") {
		if strings.HasPrefix(line, "n1 core inst frame-") {
			forwards = append(forwards, line)
		}
	}
	if len(forwards) != 2 ||
		!strings.HasPrefix(forwards[0], "n1 core inst frame-full ") ||
		!strings.HasPrefix(forwards[1], "n1 core inst frame-trunc ") {
		t.Fatalf("forwarding node's frame instants = %q, want frame-full then frame-trunc", forwards)
	}
	for _, line := range forwards {
		if !strings.HasSuffix(line, " dst=2") {
			t.Errorf("forward instant %q does not name destination node 2", line)
		}
	}
}

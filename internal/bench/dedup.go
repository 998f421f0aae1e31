package bench

// The content-addressed dedup and delta write-back sweeps: the harness
// behind `paperbench -dedup` and the BENCH_engines.json "dedup" section.
//
// Fan-in dedup: N tenant nodes each host the same service kernel and
// cold-send it to one shared node. Under the paper's pairwise protocol
// every tenant pays the full multi-KiB frame — the service receives the
// identical code section N times. Under the cluster-wide
// content-addressed protocol the archive crosses the wire once; every
// later tenant sends a 43-byte hash-ref (distinct type names, content
// matched through the destination's store) or a 26-byte truncated frame
// (shared type name, content matched through the destination's
// registration) — cold-send bytes drop by (N-1)/N.
//
// Delta write-back: a pull-routed workload whose kernels dirty a
// controlled fraction of the operand region. The write-back PUT pays for
// the dirty segments plus descriptors instead of the whole region, so
// PUT bytes scale with the dirty fraction and hit the whole-region
// fallback only when everything is dirty.

import (
	"fmt"
	"hash/fnv"

	"threechains/internal/core"
	"threechains/internal/place"
	"threechains/internal/testbed"
)

// DedupPoint is one protocol mode's outcome on a fan-in scenario.
type DedupPoint struct {
	// Mode is "pairwise" (per-destination caching only, the paper's
	// protocol) or "cas" (cluster-wide content-addressed negotiation).
	Mode string `json:"mode"`
	// Frame mix across every sender.
	FullFrames    uint64 `json:"full_frames"`
	CASTruncated  uint64 `json:"cas_truncated"`
	HashRefFrames uint64 `json:"hash_ref_frames"`
	// ColdCodeBytes is the total code-section payload that crossed the
	// wire — the quantity the dedup exists to kill.
	ColdCodeBytes uint64 `json:"cold_code_bytes"`
	// VirtTime is the final virtual time in sim ticks — lower under CAS
	// because truncated/hash-ref frames spend less time on the wire.
	VirtTime int64 `json:"virt_time"`
	// ResultHash fingerprints the guest-visible outcome (service
	// counter, executions): identical across modes and engines by
	// construction. Timing is deliberately excluded — it is the one
	// thing the protocol is allowed to change.
	ResultHash string `json:"result_hash"`
}

// DedupResult is one fan-in scenario row of the dedup sweep.
type DedupResult struct {
	Profile  string `json:"profile"`
	Scenario string `json:"scenario"`
	// Nodes is the cluster size (Senders tenants + 1 service node).
	Nodes   int `json:"nodes"`
	Senders int `json:"senders"`
	// Pairwise vs content-addressed outcomes and the cold-byte saving.
	Pairwise   DedupPoint `json:"pairwise"`
	CAS        DedupPoint `json:"cas"`
	SavingsPct float64    `json:"savings_pct"`
}

// runDedupFanin drives one fan-in scenario: `senders` tenant nodes each
// register the same kernel content — under one shared type name or one
// name per tenant — and send it cold to node 0. Waves are serialized
// (send, quiesce, next) so every negotiation sees the store state the
// previous wave established; decisions are scope-free and the scenario
// is single-heap, so the outcome is bit-identical across engines.
func runDedupFanin(p testbed.Profile, senders int, sharedName, disableCAS bool) (DedupPoint, error) {
	specs := make([]core.NodeSpec, senders+1)
	for i := range specs {
		specs[i] = core.NodeSpec{Name: fmt.Sprintf("%s-n%d", p.Name, i), March: p.March(), Engine: p.Engine}
	}
	cl := core.NewCluster(p.Net, specs)
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		if disableCAS {
			rt.Cache = core.CachePairwise
		}
	}
	svc := cl.Runtime(0)
	svc.TargetPtr = svc.Node.Alloc(8)

	mod := buildWorkloadKernel(place.TypeSpec{ID: 0}) // cheap increment, identical content everywhere
	for t := 1; t <= senders; t++ {
		name := "svc-shared"
		if !sharedName {
			name = fmt.Sprintf("svc-tenant-%d", t)
		}
		tenant := cl.Runtime(t)
		h, err := tenant.RegisterBitcode(name, mod, p.Triples)
		if err != nil {
			return DedupPoint{}, err
		}
		if _, err := tenant.Send(0, h, "main", []byte{0}); err != nil {
			return DedupPoint{}, err
		}
		cl.Run()
		if svc.LastExecErr != nil {
			return DedupPoint{}, fmt.Errorf("tenant %d: %w", t, svc.LastExecErr)
		}
	}

	pt := DedupPoint{Mode: "cas"}
	if disableCAS {
		pt.Mode = "pairwise"
	}
	for _, rt := range cl.Runtimes {
		pt.FullFrames += rt.Stats.FullFrames
		pt.CASTruncated += rt.Stats.CASTruncated
		pt.HashRefFrames += rt.Stats.HashRefFrames
		pt.ColdCodeBytes += rt.Stats.ColdCodeBytes
	}
	mem := svc.Node.Mem()
	counter := uint64(0)
	for i := 0; i < 8; i++ {
		counter |= uint64(mem[svc.TargetPtr+uint64(i)]) << (8 * i)
	}
	if counter != uint64(senders) {
		return DedupPoint{}, fmt.Errorf("service counter = %d, want %d (frames dropped?)", counter, senders)
	}
	pt.VirtTime = int64(cl.Eng.Now())
	h := fnv.New64a()
	fmt.Fprintf(h, "counter=%d exec=%d\n", counter, svc.Stats.Executions)
	pt.ResultHash = fmt.Sprintf("%016x", h.Sum64())
	return pt, nil
}

// DedupScenarios names the fan-in shapes of the sweep.
func DedupScenarios() []string { return []string{"fanin-multitenant", "fanin-shared"} }

// DedupSweep runs both fan-in scenarios at the given fan-in under both
// protocol modes and reports the cold-byte saving.
func DedupSweep(p testbed.Profile, senders int) ([]DedupResult, error) {
	var out []DedupResult
	for _, sc := range DedupScenarios() {
		shared := sc == "fanin-shared"
		pair, err := runDedupFanin(p, senders, shared, true)
		if err != nil {
			return nil, fmt.Errorf("%s pairwise: %w", sc, err)
		}
		cas, err := runDedupFanin(p, senders, shared, false)
		if err != nil {
			return nil, fmt.Errorf("%s cas: %w", sc, err)
		}
		res := DedupResult{
			Profile: p.Name, Scenario: sc,
			Nodes: senders + 1, Senders: senders,
			Pairwise: pair, CAS: cas,
		}
		if pair.ColdCodeBytes > 0 {
			res.SavingsPct = 100 * (1 - float64(cas.ColdCodeBytes)/float64(pair.ColdCodeBytes))
		}
		out = append(out, res)
	}
	return out, nil
}

// DeltaPoint is one dirty-fraction row of the delta write-back sweep.
type DeltaPoint struct {
	// DirtyWords is the per-op overwrite span (0 = the single-word
	// bump); RegionWords the fixed operand-region size.
	DirtyWords  int `json:"dirty_words"`
	RegionWords int `json:"region_words"`
	Ops         int `json:"ops"`
	// PutBytes is the total write-back PUT payload actually sent;
	// FullBytes what a whole-region write-back would have sent.
	PutBytes  uint64  `json:"put_bytes"`
	FullBytes uint64  `json:"full_bytes"`
	PutPct    float64 `json:"put_pct"`
	// ResultHash is the workload result hash (identical across dirtiness
	// only within a row; across engines and policies always).
	ResultHash string `json:"result_hash"`
}

// deltaParams is the delta sweep's workload shape: pull-routed cheap
// write kernels against fixed 8 KiB regions (fractions must be exact,
// so no draws vary the region size).
func deltaParams(dirtyWords int) place.WorkloadParams {
	return place.WorkloadParams{
		Seed: 11, Nodes: 4, Types: 3, Ops: 48,
		HeavyFrac: 0.0001, ReadFrac: 0.0001, SelfFrac: 0.0001,
		MinRegionWords: 1024, MaxRegionWords: 1024,
		SpeedMin: 1, SpeedMax: 1,
		DirtyWords: dirtyWords,
	}
}

// DeltaDirtySweep returns the sweep's dirty-span grid.
func DeltaDirtySweep() []int { return []int{0, 16, 256, 1024} }

// DeltaSweep measures write-back PUT bytes against the whole-region
// baseline across the dirty-fraction grid, always on the pull route.
func DeltaSweep(p testbed.Profile) ([]DeltaPoint, error) {
	var out []DeltaPoint
	for _, dw := range DeltaDirtySweep() {
		params := deltaParams(dw)
		w := place.Generate(params)
		pw, err := newPlacementWorld(p, w, p.Engine)
		if err != nil {
			return nil, err
		}
		if _, _, hash, err := pw.run(place.PolicyPullData); err != nil {
			return nil, fmt.Errorf("dirty=%d: %w", dw, err)
		} else {
			pt := DeltaPoint{
				DirtyWords: dw, RegionWords: 1024, Ops: len(w.Ops),
				PutBytes:   pw.drv.Stats.WriteBackPutBytes,
				FullBytes:  pw.drv.Stats.WriteBackFullBytes,
				ResultHash: fmt.Sprintf("%016x", hash),
			}
			if pt.FullBytes > 0 {
				pt.PutPct = 100 * float64(pt.PutBytes) / float64(pt.FullBytes)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

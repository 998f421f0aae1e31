// paperbench regenerates the complete evaluation of "Bring the BitCODE"
// (§V): Tables I-VI and Figures 5-12, printed in the paper's layout.
// EXPERIMENTS.md is produced from this output.
//
// Usage:
//
//	paperbench             # full paper grid (several minutes of CPU)
//	paperbench -quick      # reduced grids
//	paperbench -placement  # include the placement-policy sweep (on by
//	                       # default): ship-code vs pull-data vs the
//	                       # cost-model planner on generated scenarios
//	paperbench -json       # also write BENCH_engines.json (engine, batch
//	                       # and placement sweeps in machine-readable
//	                       # form, for tracking the perf trajectory
//	                       # across PRs); a section turned off by its
//	                       # flag (-engines=false, ...) is left out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"

	"threechains/internal/bench"
	"threechains/internal/isa"
	"threechains/internal/obs"
	"threechains/internal/place"
	"threechains/internal/testbed"
)

func main() {
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "reduced DAPC grids")
	engines := flag.Bool("engines", true, "include the execution-engine comparison")
	placement := flag.Bool("placement", true, "include the placement-policy sweep")
	scale := flag.Bool("scale", true, "include the sharded-engine scale sweep")
	dedup := flag.Bool("dedup", true, "include the content-addressed dedup and delta write-back sweeps")
	regioncache := flag.Bool("regioncache", true, "include the data-region cache repeat-pull sweep")
	jsonOut := flag.Bool("json", false, "write BENCH_engines.json with the engine and batch sweeps")
	jsonPath := flag.String("json-path", "BENCH_engines.json", "output path for -json")
	tracePath := flag.String("trace", "", "write a Perfetto-loadable Chrome trace of the concurrent-hetero scenario to this path and print its virtual-time profile")
	flag.Parse()

	fmt.Println("=== Three-Chains paper evaluation (simulated testbeds) ===")
	fmt.Println()
	rep := &enginesReport{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
	}
	if *engines {
		engineReport(rep)
	}
	if *placement {
		rep.Placement = placementReport()
	}
	if *scale {
		rep.Scale = scaleReport()
	}
	if *dedup {
		rep.Dedup, rep.Delta = dedupReport()
	}
	if *regioncache {
		rep.RegionCache = regioncacheReport()
	}
	if *tracePath != "" || *jsonOut {
		// -json without -trace still collects the metrics section
		// (quietly, no trace file).
		rep.Metrics = traceReport(*tracePath, *tracePath != "")
	}
	if *jsonOut {
		if err := writeJSON(*jsonPath, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", *jsonPath)
	}
	run("tsibench", nil)
	args := []string{}
	if *quick {
		args = append(args, "-quick")
	}
	run("dapcbench", args)
}

// enginesReport is the machine-readable form of the engine comparison
// and batch sweeps (BENCH_engines.json).
type enginesReport struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// Gomaxprocs is the scheduler parallelism the sweeps actually ran
	// with — the number a reader needs to interpret the scale section's
	// wall-clock speedups (NumCPU alone says nothing about parallel runs).
	Gomaxprocs int `json:"gomaxprocs"`
	// Engines is the interpreter-vs-superblock wall-clock comparison,
	// one row per (µarch, kernel).
	Engines []engineRow `json:"engines,omitempty"`
	// BatchSweeps holds the engine-level RunBatch sweep (per kernel) and
	// the end-to-end delivery-pipeline sweep ("tsi-delivery").
	BatchSweeps []bench.BatchSweep `json:"batch_sweeps,omitempty"`
	// Verifier is the static-verifier cost report: one-time host cost of
	// full verification per corpus kernel, the modeled virtual-time
	// admission scan, and the facts proven (step bound, elidable
	// memory ops).
	Verifier []verifierRow `json:"verifier,omitempty"`
	// Placement is the compute/data placement policy sweep: per scenario,
	// the total virtual time of ship-code vs pull-data vs the cost-model
	// planner (internal/place), with the planner's route mix.
	Placement []bench.PlacementResult `json:"placement,omitempty"`
	// Scale is the sharded-engine scaling sweep: grouped 256- and
	// 1000-node scenarios run at shard counts 1/2/4/NumCPU, wall clock
	// and wall-per-virtual ratio per shard count, with the bit-identity
	// invariant re-asserted on every run.
	Scale []bench.ScaleResult `json:"scale,omitempty"`
	// Dedup is the content-addressed transfer-cache sweep: 64-way fan-in
	// cold-send bytes under pairwise vs cluster-wide negotiation, with
	// the guest-outcome hash asserted equal between modes.
	Dedup []bench.DedupResult `json:"dedup,omitempty"`
	// Delta is the delta write-back sweep: pull-route PUT bytes vs the
	// whole-region baseline across dirty-span sizes.
	Delta []bench.DeltaPoint `json:"delta,omitempty"`
	// RegionCache is the data-region cache sweep: repeat-pull GET bytes
	// across (region size, dirty span) under cache-on vs cache-off, with
	// the guest-outcome hash asserted equal between modes.
	RegionCache []bench.RegionCacheResult `json:"regioncache,omitempty"`
	// Metrics is the unified per-node metrics snapshot of the traced
	// concurrent-hetero run (counters plus latency-histogram quantiles),
	// deterministic in both order and values.
	Metrics []obs.MetricPoint `json:"metrics,omitempty"`
}

type engineRow struct {
	March    string  `json:"march"`
	Kernel   string  `json:"kernel"`
	Steps    int64   `json:"steps"`
	InterpNs float64 `json:"interp_ns"`
	SuperNs  float64 `json:"super_ns"`
	// Speedup is the superblock engine's win over the interpreter
	// (interp_ns / super_ns).
	Speedup float64 `json:"speedup"`
}

type verifierRow struct {
	March         string  `json:"march"`
	Kernel        string  `json:"kernel"`
	Instrs        int     `json:"instrs"`
	VerifyNs      float64 `json:"verify_ns"`
	VirtualScanNs float64 `json:"virtual_scan_ns"`
	Bounded       bool    `json:"bounded"`
	MinSteps      int64   `json:"min_steps,omitempty"`
	ElidableLoads int     `json:"elidable_loads"`
	ElidableStore int     `json:"elidable_stores"`
}

// engineReport prints and collects into rep the interpreter-vs-
// superblock wall-clock comparison, the static-verifier costs and the
// message-rate-vs-batch-size sweeps: how fast the simulator host
// executes guest code under each engine, and how much the batched
// delivery pipeline amortizes per-message software overhead
// (virtual-time metrics are engine- and batch-invariant by contract).
func engineReport(rep *enginesReport) {
	fmt.Printf("--- Execution engines (host wall-clock per guest execution) ---\n")
	fmt.Printf("%-16s %-12s %8s %12s %12s %9s\n",
		"march", "kernel", "steps", "interp", "superblock", "i/sb")
	for _, march := range []*isa.MicroArch{isa.XeonE5(), isa.A64FX(), isa.CortexA72()} {
		rows, err := bench.CompareEngines(march)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("%-16s %-12s %8d %10.1fns %10.1fns %8.2fx\n",
				march.Name, r.Kernel, r.Steps, r.InterpNs, r.SuperNs, r.Speedup)
			rep.Engines = append(rep.Engines, engineRow{
				March: march.Name, Kernel: r.Kernel, Steps: r.Steps,
				InterpNs: r.InterpNs, SuperNs: r.SuperNs, Speedup: r.Speedup,
			})
		}
	}
	fmt.Printf("\n")

	fmt.Printf("--- Static verifier (one-time admission cost + proven facts) ---\n")
	fmt.Printf("%-16s %-12s %7s %12s %13s %8s %9s %7s %7s\n",
		"march", "kernel", "instrs", "verify", "vscan(model)", "bounded", "minsteps", "eload", "estore")
	for _, march := range []*isa.MicroArch{isa.XeonE5(), isa.A64FX(), isa.CortexA72()} {
		rows, err := bench.MeasureVerifier(march)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("%-16s %-12s %7d %10.1fns %11.1fns %8v %9d %7d %7d\n",
				march.Name, r.Kernel, r.Instrs, r.VerifyNs, r.VirtualScanNs,
				r.Bounded, r.MinSteps, r.ElidableLoads, r.ElidableStores)
			rep.Verifier = append(rep.Verifier, verifierRow{
				March: march.Name, Kernel: r.Kernel, Instrs: r.Instrs,
				VerifyNs: r.VerifyNs, VirtualScanNs: r.VirtualScanNs,
				Bounded: r.Bounded, MinSteps: r.MinSteps,
				ElidableLoads: r.ElidableLoads, ElidableStore: r.ElidableStores,
			})
		}
	}
	fmt.Printf("\n")

	fmt.Printf("--- Batch sweep (host throughput vs delivery batch size) ---\n")
	sweeps, err := bench.SweepBatches(isa.XeonE5())
	if err != nil {
		log.Fatal(err)
	}
	delivery, err := bench.DeliverySweep(testbed.ThorXeon(), nil)
	if err != nil {
		log.Fatal(err)
	}
	sweeps = append(sweeps, delivery)
	rep.BatchSweeps = sweeps
	for _, s := range sweeps {
		fmt.Printf("%-14s (%s, %s)\n", s.Kernel, s.March, s.Engine)
		for _, p := range s.Points {
			fmt.Printf("    batch %3d  %10.1f ns/exec  %6.2fx\n", p.BatchSize, p.NsPerExec, p.Gain)
		}
	}
	fmt.Printf("\n")
}

// placementReport runs the placement-policy sweeps on the Thor-Xeon
// profile: generated heterogeneous scenarios offloaded under every
// routing policy, total virtual time compared (the §V tables measure a
// fixed ship-code pipeline; this measures the choice the paper leaves to
// the caller). The sequential sweep compares the statics against the
// zero-load cost model; the concurrent sweep drives windowed offload
// streams and adds the queueing-aware planner. The tables go to stdout.
func placementReport() []bench.PlacementResult {
	rows, err := bench.PlacementSweep(testbed.ThorXeon(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- Placement policies (total virtual time, sequential offload stream) ---\n")
	fmt.Printf("%-17s %6s %12s %12s %12s %7s %18s\n",
		"scenario", "ops", "ship", "pull", "cost-model", "win", "cost-model routes")
	for _, r := range rows {
		cm := r.Points[2]
		fmt.Printf("%-17s %6d %10.1fµs %10.1fµs %10.1fµs %6.1f%% ship=%d pull=%d local=%d\n",
			r.Scenario, r.Ops, r.Points[0].TotalUS, r.Points[1].TotalUS,
			r.CostModelUS, r.WinPct, cm.ShipOps, cm.PullOps, cm.LocalOps)
	}
	fmt.Printf("\n")
	conc, err := bench.ConcurrentPlacementSweep(testbed.ThorXeon(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- Concurrent placement (makespan, windowed offload streams) ---\n")
	fmt.Printf("%-17s %6s %6s %12s %12s %12s %12s %7s %18s\n",
		"scenario", "ops", "depth", "ship", "pull", "zero-load", "queue", "win", "queue routes")
	for _, r := range conc {
		q := r.Points[3]
		fmt.Printf("%-17s %6d %6d %10.1fµs %10.1fµs %10.1fµs %10.1fµs %6.1f%% ship=%d pull=%d local=%d\n",
			r.Scenario, r.Ops, r.Depth, r.Points[0].TotalUS, r.Points[1].TotalUS,
			r.CostModelUS, r.QueueUS, r.QueueWinPct, q.ShipOps, q.PullOps, q.LocalOps)
	}
	fmt.Printf("\n")
	return append(rows, conc...)
}

// scaleReport runs the sharded-engine scale sweep on the Thor-Xeon
// profile: grouped scale scenarios (256 and 1000 nodes) at shard counts
// 1/2/4/NumCPU. The sweep fails hard if any shard count diverges from
// the single-heap outcome, so a printed row is also a passed
// differential. Wall-clock speedups are only meaningful when
// GOMAXPROCS > 1; the JSON records it so readers can tell.
func scaleReport() []bench.ScaleResult {
	rows, err := bench.ScaleSweep(testbed.ThorXeon(), nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- Sharded-engine scale sweep (GOMAXPROCS=%d) ---\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-12s %6s %8s %7s %10s %12s %10s %8s\n",
		"scenario", "nodes", "ops", "shards", "wall", "virtual", "wall/virt", "speedup")
	for _, r := range rows {
		for _, run := range r.Runs {
			fmt.Printf("%-12s %6d %8d %7d %8.1fms %10.1fµs %9.1fx %7.2fx\n",
				r.Scenario, r.Nodes, r.Ops, run.Shards, run.WallMS,
				run.VirtualUS, run.WallPerVirtual, run.Speedup)
		}
	}
	fmt.Printf("\n")
	return rows
}

// dedupReport runs the content-addressed dedup sweep (64-way fan-in,
// pairwise vs cluster-wide negotiation) and the delta write-back sweep
// (pull-route PUT bytes across dirty spans) on the Thor-Xeon profile.
// Guest outcomes are asserted mode-invariant inside the sweep; only
// bytes and virtual time may move. The tables go to stdout.
func dedupReport() ([]bench.DedupResult, []bench.DeltaPoint) {
	const senders = 64
	rows, err := bench.DedupSweep(testbed.ThorXeon(), senders)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- Content-addressed dedup (%d-way fan-in, cold-send bytes) ---\n", senders)
	fmt.Printf("%-18s %6s %14s %14s %8s %24s\n",
		"scenario", "nodes", "pairwise", "cas", "savings", "cas frame mix")
	for _, r := range rows {
		if r.CAS.ResultHash != r.Pairwise.ResultHash {
			log.Fatalf("%s: guest outcome diverged between modes", r.Scenario)
		}
		fmt.Printf("%-18s %6d %13dB %13dB %7.2f%% full=%d trunc=%d hashref=%d\n",
			r.Scenario, r.Nodes, r.Pairwise.ColdCodeBytes, r.CAS.ColdCodeBytes,
			r.SavingsPct, r.CAS.FullFrames, r.CAS.CASTruncated, r.CAS.HashRefFrames)
	}
	fmt.Printf("\n")
	deltas, err := bench.DeltaSweep(testbed.ThorXeon())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- Delta write-back (pull route, %d-word regions) ---\n", deltas[0].RegionWords)
	fmt.Printf("%-12s %6s %14s %14s %8s\n",
		"dirty words", "ops", "put bytes", "full bytes", "put/full")
	for _, p := range deltas {
		fmt.Printf("%-12d %6d %13dB %13dB %7.2f%%\n",
			p.DirtyWords, p.Ops, p.PutBytes, p.FullBytes, p.PutPct)
	}
	fmt.Printf("\n")
	return rows, deltas
}

// regioncacheReport runs the data-region cache sweep on the Thor-Xeon
// profile: repeat pulls of one owner region across (region size, dirty
// span), cache-on vs cache-off. Guest outcomes are asserted
// mode-invariant inside the sweep; only GET bytes and virtual time may
// move. The table goes to stdout.
func regioncacheReport() []bench.RegionCacheResult {
	rows, err := bench.RegionCacheSweep(testbed.ThorXeon())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- Region cache (repeat-pull GET bytes, %d rounds) ---\n", rows[0].Rounds)
	fmt.Printf("%-8s %-8s %14s %14s %8s %8s %8s %12s %12s\n",
		"region", "dirty", "cache", "nocache", "savings", "elides", "deltas", "virt(cache)", "virt(off)")
	for _, r := range rows {
		fmt.Printf("%-8d %-8d %13dB %13dB %7.2f%% %8d %8d %12d %12d\n",
			r.RegionWords, r.DirtyWords, r.Cache.GetBytes, r.NoCache.GetBytes,
			r.SavingsPct, r.Cache.Elides, r.Cache.DeltaPulls,
			r.Cache.VirtTime, r.NoCache.VirtTime)
	}
	fmt.Printf("\n")
	return rows
}

// traceReport runs the concurrent-hetero scenario with tracing and
// metrics attached, writes the Chrome trace-event JSON when path is
// non-empty (load it at ui.perfetto.dev: one process per node with
// core/nic-out/nic-in tracks plus a scheduler lane), prints the
// virtual-time profile when print is true, and returns the metrics
// snapshot for the JSON report.
func traceReport(path string, print bool) []obs.MetricPoint {
	sc := bench.ConcurrentPlacementScenarios()[0]
	out, err := bench.RunTracedConcurrentScenario(testbed.ThorXeon(), sc.Params, place.PolicyCostModelQueue)
	if err != nil {
		log.Fatal(err)
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := out.Trace.WriteChrome(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d events; load in ui.perfetto.dev)\n\n", path, out.Trace.NumEvents())
	}
	if print {
		fmt.Printf("--- Virtual-time profile (%s) ---\n", sc.Name)
		fmt.Print(out.Trace.Profile(12))
		fmt.Printf("\n")
	}
	return out.Registry.Snapshot()
}

// writeJSON dumps the engines report for cross-PR trajectory tracking.
func writeJSON(path string, rep *enginesReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// run executes a sibling command in-process when possible; paperbench is
// a thin driver, so it simply execs the already-built binaries when
// present and falls back to `go run`.
func run(tool string, args []string) {
	if path, err := exec.LookPath("./" + tool); err == nil {
		pipe(exec.Command(path, args...))
		return
	}
	goArgs := append([]string{"run", "threechains/cmd/" + tool}, args...)
	pipe(exec.Command("go", goArgs...))
}

func pipe(cmd *exec.Cmd) {
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		log.Fatal(err)
	}
}

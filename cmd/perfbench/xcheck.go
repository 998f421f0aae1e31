package main

// Isolated cross-checks: the hot layers' public functions timed directly
// on inputs taken from the workload, printed beside the ledger so that a
// wrong attribution stands out (a layer whose ledger share is far from
// calls-per-op × isolated cost is mis-charged or contended).

import (
	"fmt"
	"os"
	"time"

	"threechains/internal/fabric"
	"threechains/internal/ifunc"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/place"
	"threechains/internal/sim"
)

// Scratch memory layout of the isolated kernel runs.
const (
	scratchPayload = 0x1000
	scratchTarget  = 0x2000
	scratchStack   = 0x30000
	scratchSize    = 0x40000
)

// xsample holds the workload-derived inputs of the cross-checks.
type xsample struct {
	march    *isa.MicroArch
	typeHash uint64
	payload  []byte
	module   *ir.Module
	entry    string
	// kernelArgs fills scratch memory and returns the argument vector.
	kernelArgs func(mem []byte) []uint64
	// externs are stub results for the module's runtime intrinsics.
	externs   map[string]uint64
	net       fabric.NetParams
	ifuncPoll sim.Time
	policy    place.Policy
	requests  []xreq
}

// xreq is one planner request shape taken from the workload.
type xreq struct {
	payloadLen, dataBytes int
	writeBack             bool
	steps, execMult       float64
}

// crossCheck runs every isolated timing; pending is the workload's mean
// event-queue depth at Run and batch its mean execution group size.
func crossCheck(s xsample, pending, batch int) map[string]float64 {
	out := map[string]float64{
		"xcheck.ifunc.codec_ns": timePerCall(codecBench(s)),
		"xcheck.place.plan_ns":  timePerCall(planBench(s)),
		"xcheck.sim.event_ns":   timePerCall(simBench(pending)),
		"xcheck.mcode.exec_ns":  0,
	}
	if fn, err := execBench(s, batch); err == nil {
		out["xcheck.mcode.exec_ns"] = timePerCall(fn)
	} else {
		fmt.Fprintln(os.Stderr, "xcheck: mcode:", err)
	}
	return out
}

// timePerCall returns the median ns per call of fn(n) over five rounds,
// n sized so one round takes about 20 ms.
func timePerCall(fn func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		fn(n)
		if el := time.Since(start); el > 20*time.Millisecond || n > 1<<26 {
			break
		}
		n *= 2
	}
	var rounds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		fn(n)
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(rounds)
}

// codecBench encodes the workload's truncated frame and parses it back.
func codecBench(s xsample) func(int) {
	hdr := ifunc.Header{Kind: ifunc.KindBitcode, NameHash: s.typeHash, SrcNode: 0, PayloadLen: uint32(len(s.payload))}
	buf := make([]byte, 0, ifunc.TruncatedLen(len(s.payload)))
	var f ifunc.Frame
	return func(n int) {
		for i := 0; i < n; i++ {
			hdr.Seq = uint32(i)
			buf = ifunc.AppendTruncated(buf[:0], hdr, s.payload)
			if err := f.ParseInto(buf); err != nil {
				panic(err)
			}
		}
	}
}

// execBench runs the workload's kernel in batches on the default engine
// against scratch memory; one call is one execution.
func execBench(s xsample, batch int) (func(int), error) {
	cm, err := mcode.Lower(s.module, s.march)
	if err != nil {
		return nil, err
	}
	link := mcode.NewLinkage(cm)
	for i, g := range cm.GOT {
		if g.Kind == mcode.GOTFunc {
			v := s.externs[g.Sym]
			link.Funcs[i] = func([]uint64) (uint64, error) { return v, nil }
		}
	}
	env := ir.NewSimpleEnv(scratchSize)
	ma, err := mcode.NewMachine(cm, env, link, ir.ExecLimits{StackBase: scratchStack, StackSize: scratchSize - scratchStack})
	if err != nil {
		return nil, err
	}
	args := s.kernelArgs(env.Mem())
	argvs := make([][]uint64, batch)
	for i := range argvs {
		argvs[i] = args
	}
	out := make([]mcode.BatchResult, batch)
	if err := ma.RunBatch(s.entry, argvs, out); err != nil {
		return nil, err
	}
	if out[0].Err != nil {
		return nil, out[0].Err
	}
	return func(n int) {
		for done := 0; done < n; done += batch {
			ma.Reset()
			if err := ma.RunBatch(s.entry, argvs, out); err != nil {
				panic(err)
			}
		}
	}, nil
}

// planBench prices the workload's request shapes on a fresh planner.
func planBench(s xsample) func(int) {
	var pl place.Planner
	models := make([]place.CostModel, len(s.requests))
	reqs := make([]place.Request, len(s.requests))
	for i, r := range s.requests {
		models[i] = place.CostModel{
			Net:    s.net,
			Local:  place.NodeTraits{March: s.march, ExecMult: 1, IfuncPoll: s.ifuncPoll},
			Remote: place.NodeTraits{March: s.march, ExecMult: r.execMult, IfuncPoll: s.ifuncPoll},
		}
		reqs[i] = place.Request{
			Dst: 1 + i%8, PayloadLen: r.payloadLen, DataBytes: r.dataBytes, WriteBack: r.writeBack,
			TypeHash: s.typeHash, FrameBytes: ifunc.TruncatedLen(r.payloadLen),
			RemoteRegistered: true, LocalRegistered: true, MeanSteps: r.steps, Measured: true,
			PullViable: r.dataBytes <= 32<<10, ShipViable: true,
		}
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			j := i % len(reqs)
			if _, err := pl.Plan(s.policy, models[j], reqs[j]); err != nil {
				panic(err)
			}
		}
	}
}

// simBench keeps depth events pending while dispatching n: every event
// reschedules itself a pseudo-random delay ahead, so the queue holds the
// workload's depth throughout.
func simBench(depth int) func(int) {
	return func(n int) {
		eng := sim.New()
		left := n
		var seed uint64 = 1
		var fire func(any)
		fire = func(any) {
			left--
			if left >= depth {
				seed = seed*6364136223846793005 + 1442695040888963407
				eng.AfterCall(sim.Time(1+seed>>54)*sim.Nanosecond, fire, nil)
			}
		}
		for i := 0; i < depth && i < n; i++ {
			eng.AtCall(sim.Time(i)*sim.Nanosecond, fire, nil)
		}
		eng.Run()
	}
}

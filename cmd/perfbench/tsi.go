package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/sim"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
)

// tsi-stream: warm cached-bitcode Target-Side Increment on two Thor-Xeon
// nodes. One client posts bursts of back-to-back messages, each burst
// far deeper than the destination's drain bound of 8, and runs each
// burst to quiescence. Burst sizes and each message's payload length
// (1-32 bytes) come from the seed. An op is one message; its latency runs
// from the burst's post to the message's execution.
const (
	tsiMsgsPerSecond = 900_000
	tsiMaxDrain      = 8
	tsiBurstMin      = 192
	tsiBurstMax      = 320
	tsiMaxPayload    = 32
	tsiWarmMsgs      = 64
)

type tsiWorld struct {
	cl       *core.Cluster
	src, dst *core.Runtime
	h        *core.Handle
	counter  uint64
	bursts   []int
	// lenSeed keys the per-message payload lengths.
	lenSeed uint64
	payload []byte
	posted  uint64
	sent    int
	module  *ir.Module
	// burstAt is the virtual time the current burst was posted at.
	burstAt sim.Time
	lat     *phases
}

func setupTSI(cfg config, jitNS *int64) (world, error) {
	p := testbed.ThorXeon()
	cl := core.NewCluster(p.Net, []core.NodeSpec{
		{Name: p.Name + "-src", March: p.March(), Engine: p.Engine},
		{Name: p.Name + "-dst", March: p.March(), Engine: p.Engine},
	})
	w := &tsiWorld{
		cl: cl, src: cl.Runtime(0), dst: cl.Runtime(1),
		lenSeed: uint64(deriveSeed(cfg.seed, "tsi-payloads")), payload: make([]byte, tsiMaxPayload),
	}
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
	}
	w.dst.Worker.MaxDrain = tsiMaxDrain
	w.counter = w.dst.Node.Alloc(8)
	w.dst.TargetPtr = w.counter

	start := time.Now()
	w.module = core.BuildTSI()
	_, raw, err := toolchain.BuildArchive(w.module, toolchain.Options{Opt: 2, Debug: true, Triples: p.Triples})
	if err != nil {
		return nil, err
	}
	if w.h, err = w.src.RegisterArchive("tsi", raw); err != nil {
		return nil, err
	}
	*jitNS += time.Since(start).Nanoseconds()

	rng := rand.New(rand.NewSource(deriveSeed(cfg.seed, "tsi-bursts")))
	for total := cfg.seconds * tsiMsgsPerSecond; total > 0; {
		n := min(total, tsiBurstMin+rng.Intn(tsiBurstMax-tsiBurstMin+1))
		w.bursts = append(w.bursts, n)
		total -= n
	}
	w.dst.Observer = func(_, _ string, _ uint64, when sim.Time) {
		if w.lat != nil {
			w.lat.latency(when - w.burstAt)
		}
	}
	// Warm-up: the first message registers and JITs the type remotely;
	// the rest fill the pools.
	for i := 0; i < tsiWarmMsgs; i++ {
		if err := w.send(); err != nil {
			return nil, err
		}
	}
	cl.Run()
	return w, nil
}

func (w *tsiWorld) cluster() *core.Cluster { return w.cl }

// send posts the next message; its payload length is a pure function of
// the seed and the message's index.
func (w *tsiWorld) send() error {
	n := 1 + splitmix64(w.lenSeed+w.posted)%tsiMaxPayload
	_, err := w.src.Send(1, w.h, "main", w.payload[:n])
	if err == nil {
		w.posted++
	}
	return err
}

func (w *tsiWorld) burst(ph *phases, n int) error {
	w.lat = ph
	w.burstAt = w.cl.Eng.Now()
	err := ph.issue(func() error {
		for i := 0; i < n; i++ {
			if err := w.send(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ph.run(w.cl)
	ph.done(n)
	w.lat = nil
	return nil
}

func (w *tsiWorld) timed(ph *phases) error {
	for _, n := range w.bursts {
		if err := w.burst(ph, n); err != nil {
			return err
		}
		w.sent += n
	}
	return nil
}

func (w *tsiWorld) unit(ph *phases) (int, error) {
	return tsiBurstMax, w.burst(ph, tsiBurstMax)
}

func (w *tsiWorld) attempted() int { return w.sent }

// check: the destination counter must equal the number of messages
// posted, warm-up included, each message incrementing it exactly once.
func (w *tsiWorld) check(*refResult) (int, []string) {
	got := binary.LittleEndian.Uint64(w.dst.Node.Mem()[w.counter:])
	if got == w.posted {
		return 0, nil
	}
	missing := int64(w.posted) - int64(got)
	if missing < 0 {
		missing = -missing
	}
	return int(missing), []string{fmt.Sprintf("counter %d after %d messages", got, w.posted)}
}

func (w *tsiWorld) digests() []uint64 {
	return []uint64{binary.LittleEndian.Uint64(w.dst.Node.Mem()[w.counter:])}
}

func (w *tsiWorld) steps() uint64 {
	if reg, ok := w.dst.Reg.Get(w.h.Hash); ok {
		return reg.TotalSteps
	}
	return 0
}

func (w *tsiWorld) sample() xsample {
	return xsample{
		march: w.dst.Node.March, typeHash: w.h.Hash, payload: w.payload[:tsiMaxPayload/2],
		module: w.module, entry: "main",
		kernelArgs: func(mem []byte) []uint64 { return []uint64{scratchPayload, tsiMaxPayload / 2, scratchTarget} },
		net:        w.cl.Net.Params, ifuncPoll: w.dst.Worker.IfuncPoll,
		requests: []xreq{{payloadLen: tsiMaxPayload / 2, dataBytes: 8, writeBack: true, steps: w.meanSteps(), execMult: 1}},
	}
}

func (w *tsiWorld) meanSteps() float64 {
	return meanSteps(w.cl, w.h.Hash)
}

package bench

import (
	"fmt"
	"time"

	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/testbed"
)

// BatchSweepPoint is one point of the message-rate-vs-batch-size report:
// the host wall-clock cost of one guest execution when messages are
// delivered in batches of BatchSize through Machine.RunBatch, and the
// throughput gain over one-at-a-time delivery.
type BatchSweepPoint struct {
	BatchSize int     `json:"batch_size"`
	NsPerExec float64 `json:"ns_per_exec"`
	// Gain is the host-throughput multiplier versus batch size 1
	// (ns1 / nsB); 1.0 at batch size 1 by construction.
	Gain float64 `json:"gain"`
}

// BatchSweep is the sweep of one kernel under one engine on one µarch.
type BatchSweep struct {
	March  string            `json:"march"`
	Kernel string            `json:"kernel"`
	Engine string            `json:"engine"`
	Steps  int64             `json:"steps"`
	Points []BatchSweepPoint `json:"points"`
}

// BatchSizes is the default batch-size grid of the sweep.
var BatchSizes = []int{1, 2, 4, 8, 16, 32, 64}

// SweepBatch measures the host-side win of the batched run stage: batch
// size 1 executes the kernel exactly like one-at-a-time delivery (one
// Reset+Run per message, the runtime's pre-batching hot path), larger
// sizes execute one Reset+RunBatch per batch (the batched pipeline's
// per-group run). Rounds alternate nothing — each point keeps its
// fastest round, like CompareEngines, so host noise cannot bias a point.
func SweepBatch(march *isa.MicroArch, eng mcode.Engine, k EngineKernel, sizes []int) (BatchSweep, error) {
	if len(sizes) == 0 {
		sizes = BatchSizes
	}
	sweep := BatchSweep{March: march.Name, Kernel: k.Name, Engine: eng.Name()}
	et, err := newEngineTimer(eng, k, march)
	if err != nil {
		return sweep, fmt.Errorf("bench: batch sweep %s/%s: %w", eng.Name(), k.Name, err)
	}
	sweep.Steps = et.steps

	const rounds = 7
	// Total executions per timed round, kept constant across batch sizes
	// so every point does the same guest work.
	execs := 16384
	if et.steps > 1000 {
		execs = 1024
	}

	// One timed round of the whole grid per iteration, keeping each
	// size's fastest round: interleaving shares the host's thermal and
	// frequency state across sizes, so transient noise cannot bias one
	// point the way back-to-back per-size rounds would.
	argvs := make([][]uint64, sizes[len(sizes)-1])
	for i := range argvs {
		argvs[i] = k.Args
	}
	out := make([]mcode.BatchResult, len(argvs))
	best := make([]float64, len(sizes))
	oneRound := func(bs, batches int) (float64, error) {
		start := time.Now()
		for b := 0; b < batches; b++ {
			et.ma.Reset()
			if bs == 1 {
				if _, err := et.ma.Run(k.Entry, k.Args...); err != nil {
					return 0, err
				}
				continue
			}
			if err := et.ma.RunBatch(k.Entry, argvs[:bs], out[:bs]); err != nil {
				return 0, err
			}
			for i := 0; i < bs; i++ {
				if out[i].Err != nil {
					return 0, out[i].Err
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(batches*bs), nil
	}
	for r := 0; r < rounds; r++ {
		for si, bs := range sizes {
			ns, err := oneRound(bs, execs/bs)
			if err != nil {
				return sweep, fmt.Errorf("bench: batch sweep %s/%s b=%d: %w", eng.Name(), k.Name, bs, err)
			}
			if r == 0 || ns < best[si] {
				best[si] = ns
			}
		}
	}

	ns1 := best[0]
	for si, bs := range sizes {
		gain := 1.0
		if bs != 1 && ns1 > 0 {
			gain = ns1 / best[si]
		}
		sweep.Points = append(sweep.Points, BatchSweepPoint{BatchSize: bs, NsPerExec: best[si], Gain: gain})
	}
	return sweep, nil
}

// SweepBatches runs the default sweep grid: the engine-comparison corpus
// under mcode.DefaultEngine (the engine nodes run) on one µarch.
func SweepBatches(march *isa.MicroArch) ([]BatchSweep, error) {
	var out []BatchSweep
	for _, k := range EngineCorpus() {
		s, err := SweepBatch(march, mcode.DefaultEngine, k, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// DeliverySweep measures the end-to-end host throughput of the ifunc
// delivery pipeline as a function of the per-poll drain bound: a warm
// two-node TSI cluster on the profile, the destination's MaxDrain pinned
// to each batch size, and a back-to-back stream of messages timed on the
// host clock. Batch size 1 reproduces the pre-batching one-message-per-
// poll pipeline (one poll wakeup, one registry lookup, one cost charge
// and one flush event per message); larger bounds amortize all of those
// per drain, which is where the batched pipeline's host-throughput win
// lives — beyond what the engine-level RunBatch sweep alone can show.
func DeliverySweep(p testbed.Profile, sizes []int) (BatchSweep, error) {
	if len(sizes) == 0 {
		sizes = BatchSizes
	}
	engine := p.Engine
	if engine == "" {
		engine = mcode.DefaultEngine.Name()
	}
	sweep := BatchSweep{March: p.March().Name, Kernel: "tsi-delivery", Engine: engine}

	const rounds = 5
	const msgs = 2048
	worlds := make([]*tsiWorld, len(sizes))
	for si, bs := range sizes {
		w, err := newTSIWorld(p, TSIBitcodeCached)
		if err != nil {
			return sweep, fmt.Errorf("bench: delivery sweep b=%d: %w", bs, err)
		}
		w.dst.Worker.MaxDrain = bs
		// Warm the stream once so JIT, caches and pools are steady state
		// before timing.
		for i := 0; i < 64; i++ {
			if err := w.sendOne(); err != nil {
				return sweep, err
			}
		}
		w.cluster.Run()
		worlds[si] = w
	}

	best := make([]float64, len(sizes))
	for r := 0; r < rounds; r++ {
		for si := range sizes {
			w := worlds[si]
			start := time.Now()
			for i := 0; i < msgs; i++ {
				if err := w.sendOne(); err != nil {
					return sweep, err
				}
			}
			w.cluster.Run()
			ns := float64(time.Since(start).Nanoseconds()) / float64(msgs)
			if r == 0 || ns < best[si] {
				best[si] = ns
			}
			if w.dst.LastExecErr != nil {
				return sweep, w.dst.LastExecErr
			}
		}
	}
	ns1 := best[0]
	for si, bs := range sizes {
		gain := 1.0
		if bs != 1 && ns1 > 0 {
			gain = ns1 / best[si]
		}
		sweep.Points = append(sweep.Points, BatchSweepPoint{BatchSize: bs, NsPerExec: best[si], Gain: gain})
	}
	return sweep, nil
}

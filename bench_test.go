// Benchmarks regenerating the paper's evaluation (§V): one benchmark per
// table and figure, plus ablations over the design choices DESIGN.md
// calls out and wall-clock microbenchmarks of the infrastructure itself.
//
// Simulated metrics (latencies, message rates, chase rates) are virtual
// time, reported through b.ReportMetric with explicit units; they are
// deterministic and do not vary with b.N. The figure benchmarks use
// reduced grids so `go test -bench=.` stays fast; cmd/paperbench runs the
// full paper grid.
package threechains_test

import (
	"fmt"
	"testing"

	"threechains/internal/bench"
	"threechains/internal/bitcode"
	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/jit"
	"threechains/internal/linker"
	"threechains/internal/mcode"
	"threechains/internal/minilang"
	"threechains/internal/passes"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
)

// reportTSI reports one table row's metrics.
func reportTSI(b *testing.B, r bench.TSIResult) {
	b.ReportMetric(r.LatencyUS, "µs/lat")
	b.ReportMetric(r.RateMsgSec/1e6, "Mmsg/s")
	b.ReportMetric(float64(r.MsgBytes), "wire-B")
	if r.JITms > 0 {
		b.ReportMetric(r.JITms, "JIT-ms")
	}
}

// tsiBench runs one (platform, mode) cell under b.
func tsiBench(b *testing.B, p testbed.Profile, mode bench.TSIMode) {
	var r bench.TSIResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = bench.RunTSI(p, mode)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportTSI(b, r)
}

// --- Tables I-III: TSI overhead breakdowns (the per-mode cells). -------

func BenchmarkTableI_OokamiTSIBreakdown(b *testing.B) {
	for _, m := range []bench.TSIMode{bench.TSIActiveMessage, bench.TSIBitcodeUncached, bench.TSIBitcodeCached} {
		b.Run(m.String(), func(b *testing.B) { tsiBench(b, testbed.Ookami(), m) })
	}
}

func BenchmarkTableII_ThorBF2TSIBreakdown(b *testing.B) {
	for _, m := range []bench.TSIMode{bench.TSIActiveMessage, bench.TSIBitcodeUncached, bench.TSIBitcodeCached} {
		b.Run(m.String(), func(b *testing.B) { tsiBench(b, testbed.ThorBF2(), m) })
	}
}

func BenchmarkTableIII_ThorXeonTSIBreakdown(b *testing.B) {
	for _, m := range []bench.TSIMode{bench.TSIActiveMessage, bench.TSIBitcodeUncached, bench.TSIBitcodeCached} {
		b.Run(m.String(), func(b *testing.B) { tsiBench(b, testbed.ThorXeon(), m) })
	}
}

// --- Tables IV-VI: latencies and message rates (incl. binary rows). ----

func BenchmarkTableIV_OokamiTSIRates(b *testing.B) {
	for _, m := range []bench.TSIMode{bench.TSIActiveMessage, bench.TSIBitcodeCached,
		bench.TSIBitcodeUncached, bench.TSIBinaryCached, bench.TSIBinaryUncached} {
		b.Run(m.String(), func(b *testing.B) { tsiBench(b, testbed.Ookami(), m) })
	}
}

func BenchmarkTableV_ThorBF2TSIRates(b *testing.B) {
	for _, m := range []bench.TSIMode{bench.TSIActiveMessage, bench.TSIBitcodeCached, bench.TSIBitcodeUncached} {
		b.Run(m.String(), func(b *testing.B) { tsiBench(b, testbed.ThorBF2(), m) })
	}
}

func BenchmarkTableVI_ThorXeonTSIRates(b *testing.B) {
	for _, m := range []bench.TSIMode{bench.TSIActiveMessage, bench.TSIBitcodeCached, bench.TSIBitcodeUncached} {
		b.Run(m.String(), func(b *testing.B) { tsiBench(b, testbed.ThorXeon(), m) })
	}
}

// --- Figures 5-12: DAPC depth sweeps and scaling sweeps. ----------------

// benchDepths is the reduced depth grid for `go test -bench` runs.
var benchDepths = []int{1, 64, 4096}

// dapcCell runs one figure cell and reports chases/second.
func dapcCell(b *testing.B, cfg bench.DAPCConfig, mode bench.DAPCMode) {
	var r bench.DAPCResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = bench.RunDAPC(cfg, mode)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RateChasesSec, "chases/s")
	b.ReportMetric(r.RemoteHops, "hops/chase")
}

// figBench sweeps (mode × depth) cells for a depth figure.
func figBench(b *testing.B, cfg bench.DAPCConfig, modes []bench.DAPCMode) {
	for _, m := range modes {
		for _, d := range benchDepths {
			c := cfg
			c.Depth = d
			b.Run(fmt.Sprintf("%s/depth=%d", m, d), func(b *testing.B) { dapcCell(b, c, m) })
		}
	}
}

// scaleBench sweeps (mode × servers) cells for a scaling figure.
func scaleBench(b *testing.B, cfg bench.DAPCConfig, modes []bench.DAPCMode, servers []int) {
	cfg.Depth = 4096
	for _, m := range modes {
		for _, s := range servers {
			c := cfg
			c.Servers = s
			b.Run(fmt.Sprintf("%s/servers=%d", m, s), func(b *testing.B) { dapcCell(b, c, m) })
		}
	}
}

func cMode() []bench.DAPCMode {
	return []bench.DAPCMode{bench.DAPCActiveMessage, bench.DAPCGet, bench.DAPCBitcode}
}

func BenchmarkFig5_DAPCDepthThorBF2(b *testing.B) {
	cfg := bench.DAPCConfig{Profile: testbed.ThorMixed(), ClientMarch: isa.XeonE5, Servers: 32, Chases: 6}
	figBench(b, cfg, cMode())
}

func BenchmarkFig6_DAPCDepthOokami(b *testing.B) {
	cfg := bench.DAPCConfig{Profile: testbed.Ookami(), Servers: 64, Chases: 6}
	modes := append(cMode(), bench.DAPCBinary)
	figBench(b, cfg, modes)
}

func BenchmarkFig7_DAPCDepthThorXeon(b *testing.B) {
	cfg := bench.DAPCConfig{Profile: testbed.ThorXeon(), ClientMarch: isa.XeonE5, Servers: 16, Chases: 6}
	figBench(b, cfg, cMode())
}

func BenchmarkFig8_DAPCDepthJulia(b *testing.B) {
	cfg := bench.DAPCConfig{Profile: testbed.ThorMixed(), ClientMarch: isa.XeonE5, Servers: 32, Chases: 6}
	figBench(b, cfg, []bench.DAPCMode{bench.DAPCJulia, bench.DAPCBitcode})
}

func BenchmarkFig9_DAPCScaleThorBF2(b *testing.B) {
	cfg := bench.DAPCConfig{Profile: testbed.ThorMixed(), ClientMarch: isa.XeonE5, Chases: 6}
	scaleBench(b, cfg, cMode(), []int{2, 8, 32})
}

func BenchmarkFig10_DAPCScaleOokami(b *testing.B) {
	cfg := bench.DAPCConfig{Profile: testbed.Ookami(), Chases: 6}
	scaleBench(b, cfg, append(cMode(), bench.DAPCBinary), []int{2, 16, 64})
}

func BenchmarkFig11_DAPCScaleThorXeon(b *testing.B) {
	cfg := bench.DAPCConfig{Profile: testbed.ThorXeon(), ClientMarch: isa.XeonE5, Chases: 6}
	scaleBench(b, cfg, cMode(), []int{2, 8, 16})
}

func BenchmarkFig12_DAPCScaleJulia(b *testing.B) {
	cfg := bench.DAPCConfig{Profile: testbed.ThorMixed(), ClientMarch: isa.XeonE5, Chases: 6}
	scaleBench(b, cfg, []bench.DAPCMode{bench.DAPCJulia, bench.DAPCBitcode}, []int{2, 8, 32})
}

// --- Ablations over DESIGN.md's design choices. --------------------------

// BenchmarkAblationCaching compares steady-state TSI latency with the
// sender cache on vs off (design choice 1: transparent caching).
func BenchmarkAblationCaching(b *testing.B) {
	for _, mode := range []bench.TSIMode{bench.TSIBitcodeCached, bench.TSIBitcodeUncached} {
		b.Run(mode.String(), func(b *testing.B) { tsiBench(b, testbed.ThorXeon(), mode) })
	}
}

// BenchmarkAblationFatVsThinArchive quantifies the per-target byte cost
// of fat bitcode (design choice 2).
func BenchmarkAblationFatVsThinArchive(b *testing.B) {
	sets := map[string][]isa.Triple{
		"1-target": {isa.TripleXeon},
		"2-target": {isa.TripleXeon, isa.TripleA64FX},
		"3-target": {isa.TripleXeon, isa.TripleA64FX, isa.TripleBF2},
	}
	for name, triples := range sets {
		b.Run(name, func(b *testing.B) {
			var raw []byte
			var err error
			for i := 0; i < b.N; i++ {
				_, raw, err = toolchain.BuildArchive(core.BuildTSI(), toolchain.Options{
					Opt: passes.O2, Debug: true, Triples: triples,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(raw)), "archive-B")
		})
	}
}

// BenchmarkAblationTargetSideOpt shows µarch specialization (design
// choice 3): the same vector bitcode costs fewer virtual cycles on wider
// SIMD units.
func BenchmarkAblationTargetSideOpt(b *testing.B) {
	m := ir.NewModule("vecsum")
	bb := ir.NewBuilder(m)
	bb.NewFunc("main", []ir.Type{ir.Ptr, ir.I64}, ir.I64)
	bb.VSet(bb.Param(0), bb.Const64(1), bb.Param(1))
	bb.Ret(bb.VReduce(ir.VPredAdd, bb.Param(0), bb.Param(1)))
	for _, march := range []*isa.MicroArch{isa.A64FX(), isa.XeonE5(), isa.CortexA72()} {
		b.Run(march.Name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				cm, err := mcode.Lower(m, march)
				if err != nil {
					b.Fatal(err)
				}
				env := ir.NewSimpleEnv(1 << 16)
				ma, _ := mcode.NewMachine(cm, env, mcode.NewLinkage(cm), ir.ExecLimits{})
				if _, err := ma.Run("main", 0, 4096); err != nil {
					b.Fatal(err)
				}
				cycles = mcode.Cycles(&ma.Counts, march)
			}
			b.ReportMetric(cycles, "vcycles")
		})
	}
}

// BenchmarkAblationBinaryVsBitcode compares one-time deployment cost
// (design choice 4): JIT compilation vs binary load.
func BenchmarkAblationBinaryVsBitcode(b *testing.B) {
	for _, mode := range []bench.TSIMode{bench.TSIBitcodeUncached, bench.TSIBinaryUncached} {
		b.Run(mode.String(), func(b *testing.B) { tsiBench(b, testbed.ThorBF2(), mode) })
	}
}

// BenchmarkAblationLSEAtomics isolates the LSE story: the same atomic
// bitcode on a µarch with and without single-instruction atomics.
func BenchmarkAblationLSEAtomics(b *testing.B) {
	m := ir.NewModule("atomics")
	bb := ir.NewBuilder(m)
	bb.NewFunc("main", []ir.Type{ir.Ptr, ir.I64}, ir.I64)
	i := bb.Alloca(8)
	bb.Store(ir.I64, bb.Const64(0), i, 0)
	head := bb.NewBlock("head")
	body := bb.NewBlock("body")
	exit := bb.NewBlock("exit")
	bb.Br(head)
	bb.SetBlock(head)
	iv := bb.Load(ir.I64, i, 0)
	bb.CondBr(bb.ICmp(ir.PredSLT, iv, bb.Param(1)), body, exit)
	bb.SetBlock(body)
	bb.AtomicAdd(bb.Param(0), bb.Const64(1))
	bb.Store(ir.I64, bb.Add(iv, bb.Const64(1)), i, 0)
	bb.Br(head)
	bb.SetBlock(exit)
	bb.Ret(bb.Load(ir.I64, bb.Param(0), 0))
	for _, march := range []*isa.MicroArch{isa.A64FX(), isa.CortexA72()} {
		b.Run(march.Name+"/"+march.Features(), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				cm, err := mcode.Lower(m, march)
				if err != nil {
					b.Fatal(err)
				}
				env := ir.NewSimpleEnv(1 << 14)
				ma, _ := mcode.NewMachine(cm, env, mcode.NewLinkage(cm), ir.ExecLimits{StackBase: 8192, StackSize: 4096})
				if _, err := ma.Run("main", 64, 1000); err != nil {
					b.Fatal(err)
				}
				cycles = mcode.Cycles(&ma.Counts, march)
			}
			b.ReportMetric(cycles, "vcycles")
		})
	}
}

// BenchmarkAblationOptLevel compares O0 vs O2 pipelines (design choice:
// JIT-time optimization). Frontend-generated code (minilang here) is
// where the optimizer earns its keep; the hand-built C-path kernels are
// already minimal.
func BenchmarkAblationOptLevel(b *testing.B) {
	const src = `
function poly(x::Int, y::Int)::Int
    a = x * 1 + 0
    b = a + y * 0
    c = 2 * 3 + 4
    if c == 10
        return 0
    end
    d = b + c
    return d + helperk(d)
end
function helperk(v::Int)::Int
    return v + v
end`
	mod, err := minilang.Compile("poly", src)
	if err != nil {
		b.Fatal(err)
	}
	for _, lvl := range []passes.Level{passes.O0, passes.O2} {
		b.Run(fmt.Sprintf("O%d", lvl), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				m := mod.Clone()
				if err := passes.Optimize(m, lvl); err != nil {
					b.Fatal(err)
				}
				n = m.NumInstrs()
			}
			b.ReportMetric(float64(n), "IR-instrs")
		})
	}
}

// --- Wall-clock microbenchmarks of the infrastructure. ------------------

func BenchmarkInfraBitcodeEncode(b *testing.B) {
	m := core.BuildChaser()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bitcode.Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInfraBitcodeDecode(b *testing.B) {
	data, err := bitcode.Encode(core.BuildChaser())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bitcode.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInfraJITLower(b *testing.B) {
	m := core.BuildChaser()
	march := isa.XeonE5()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mcode.Lower(m, march); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInfraJITSessionCompile(b *testing.B) {
	march := isa.XeonE5()
	m := core.BuildChaser()
	raw, _ := bitcode.Encode(m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ld := linker.NewLoader()
		lib := linker.NewDynLib(core.LibTC)
		for _, s := range []string{core.SymNodeID, core.SymSendSelf, core.SymComplete} {
			lib.Funcs[s] = func([]uint64) (uint64, error) { return 0, nil }
		}
		ld.Preload(lib)
		next := uint64(64)
		s := jit.NewSession(march, ld, func(g ir.Global) uint64 {
			a := next
			next += uint64(g.Size)
			return a
		})
		if _, _, _, err := s.Compile(jit.CacheKey(raw), m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInfraVMExecution(b *testing.B) {
	// Steady-state VM throughput on the sum loop (default engine).
	cm, err := mcode.Lower(bench.LoopKernel(), isa.XeonE5())
	if err != nil {
		b.Fatal(err)
	}
	env := ir.NewSimpleEnv(1 << 14)
	ma, _ := mcode.NewMachine(cm, env, mcode.NewLinkage(cm), ir.ExecLimits{StackBase: 8192, StackSize: 4096})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma.Reset()
		if _, err := ma.Run("main", 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInterpVsSuperblock compares the two execution engines
// head to head on the TSI kernel (the per-message hot path) and a
// dispatch-bound loop, on a warm reused machine — the runtime's steady
// state after the per-registration machine reuse refactor. The
// superblock engine is the default because of this benchmark; CHANGES.md
// records the measured baseline.
func BenchmarkEngineInterpVsSuperblock(b *testing.B) {
	for _, k := range bench.EngineCorpus() {
		for _, eng := range []mcode.Engine{mcode.InterpEngine{}, mcode.SuperblockEngine{}} {
			b.Run(k.Name+"/"+eng.Name(), func(b *testing.B) {
				cm, err := mcode.Lower(k.Mod, isa.XeonE5())
				if err != nil {
					b.Fatal(err)
				}
				env := ir.NewSimpleEnv(1 << 16)
				ma, err := mcode.NewMachineFor(eng, cm, env, mcode.NewLinkage(cm),
					ir.ExecLimits{StackBase: 32 << 10, StackSize: 16 << 10})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ma.Run(k.Entry, k.Args...); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ma.Reset()
					if _, err := ma.Run(k.Entry, k.Args...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineRunBatch measures the batched run stage against
// one-at-a-time execution on a warm machine of the default engine (the
// one cluster nodes run): b=1 is the pre-batching delivery hot path (one
// Reset+Run per message), larger sizes are one Reset+RunBatch per
// delivery group — the per-group unit of the batched pipeline. The end-to-end pipeline win (poll, lookup and cost-charge
// amortization on top of this) is measured by bench.DeliverySweep and
// reported by `paperbench -json`.
func BenchmarkEngineRunBatch(b *testing.B) {
	k := bench.EngineCorpus()[0] // tsi
	for _, bs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%s/batch-%d", k.Name, bs), func(b *testing.B) {
			cm, err := mcode.Lower(k.Mod, isa.XeonE5())
			if err != nil {
				b.Fatal(err)
			}
			env := ir.NewSimpleEnv(1 << 16)
			ma, err := mcode.NewMachineFor(mcode.DefaultEngine, cm, env, mcode.NewLinkage(cm),
				ir.ExecLimits{StackBase: 32 << 10, StackSize: 16 << 10})
			if err != nil {
				b.Fatal(err)
			}
			argvs := make([][]uint64, bs)
			for i := range argvs {
				argvs[i] = k.Args
			}
			out := make([]mcode.BatchResult, bs)
			if err := ma.RunBatch(k.Entry, argvs, out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ma.Reset()
				if bs == 1 {
					if _, err := ma.Run(k.Entry, k.Args...); err != nil {
						b.Fatal(err)
					}
					continue
				}
				if err := ma.RunBatch(k.Entry, argvs, out); err != nil {
					b.Fatal(err)
				}
			}
			// ns/op is per batch; scale mentally by batch size (each op
			// executes bs guest activations).
		})
	}
}

// BenchmarkSuperblockBatchSweep runs the superblock engine's RunBatch
// sweep on a reduced grid — the CI regression smoke for the superblock
// backend (one iteration exercises formation, native loops, the direct
// RMW runner and the batch trampoline end to end) and the quick local
// view of the sweep recorded in BENCH_engines.json.
func BenchmarkSuperblockBatchSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range bench.EngineCorpus() {
			s, err := bench.SweepBatch(isa.XeonE5(), mcode.SuperblockEngine{}, k, []int{1, 8})
			if err != nil {
				b.Fatal(err)
			}
			last := s.Points[len(s.Points)-1]
			b.ReportMetric(last.Gain, k.Name+"-b8-gain")
		}
	}
}

func BenchmarkInfraEndToEndTSI(b *testing.B) {
	// Wall-clock cost of one fully simulated cached TSI message.
	p := testbed.ThorXeon()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTSI(p, bench.TSIBitcodeCached); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDAPCCaching measures the caching protocol at
// application scale: the same pointer chase with the code cache on vs
// off (every server-to-server forward re-ships the ~8 KiB chaser
// archive).
func BenchmarkAblationDAPCCaching(b *testing.B) {
	base := bench.DAPCConfig{
		Profile: testbed.ThorMixed(), ClientMarch: isa.XeonE5,
		Servers: 8, Depth: 512, Chases: 6, EntriesPerServer: 512,
	}
	for _, disabled := range []bool{false, true} {
		name := "cache-on"
		cfg := base
		if disabled {
			name = "cache-off"
			cfg.DisableCache = true
		}
		b.Run(name, func(b *testing.B) { dapcCell(b, cfg, bench.DAPCBitcode) })
	}
}

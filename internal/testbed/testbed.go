// Package testbed defines the simulated counterparts of the paper's two
// evaluation platforms (§IV-F):
//
//   - Ookami: HPE Apollo 80, Fujitsu A64FX FX700 nodes (48 cores, 1.8 GHz,
//     SVE-512, HBM), ConnectX-6 100 Gb/s InfiniBand.
//   - Thor: Dell PowerEdge R730, dual Xeon E5-2697A v4 (2.6 GHz, AVX2)
//     hosts, each with an NVIDIA BlueField-2 DPU (Cortex-A72, 2.0 GHz,
//     NEON, no LSE) on 100 Gb/s InfiniBand. Thor appears twice: Xeon
//     endpoints and BF2 endpoints.
//
// Fabric parameters are fitted to the paper's own measurements, which are
// the only ground truth available for hardware we cannot access:
//
//   - LatPerByte from the cached-vs-uncached transmission latency delta:
//     (5.02−2.62) µs over 5159 B on Ookami → 0.465 ns/B, 0.401 ns/B on
//     Thor-Xeon, 0.310 ns/B on Thor-BF2 (Tables I–III).
//   - GapPerByte from the uncached message rate (Tables IV–VI): e.g.
//     Xeon 2.037 M msg/s at 5185 B → ≈0.083 ns/B ≈ 100 Gb/s — the link
//     bandwidth, confirming the latency slope is protocol, not wire.
//   - Send/Recv/NIC/dispatch/poll overheads from the remaining system of
//     equations over the six latency and six rate measurements.
//
// Everything downstream (caching wins, ifunc-vs-AM gaps, DAPC scaling
// shapes) is emergent from the simulation, not fitted.
package testbed

import (
	"threechains/internal/fabric"
	"threechains/internal/isa"
	"threechains/internal/sim"
)

// Profile is one testbed configuration.
type Profile struct {
	// Name identifies the platform in reports ("Ookami", "Thor-Xeon",
	// "Thor-BF2").
	Name string
	// March builds the endpoint micro-architecture.
	March func() *isa.MicroArch
	// Net is the calibrated fabric parameterization.
	Net fabric.NetParams
	// AMDispatch is the CPU cost of dispatching an Active Message through
	// the registered handler table.
	AMDispatch sim.Time
	// IfuncPoll is the fixed CPU cost of one ifunc poll pickup (each
	// drained frame additionally pays the fabric's receive overhead, so
	// a one-frame drain charges exactly the paper's per-message cost and
	// larger drains amortize the poll).
	IfuncPoll sim.Time
	// Triples is the fat-bitcode target list used on this platform (the
	// paper builds x86_64 + aarch64 archives).
	Triples []isa.Triple
	// Engine selects the execution backend for every node built from
	// this profile, by mcode registry name ("superblock" or "interp";
	// "" = the default superblock engine). The calibrated virtual-time
	// numbers are engine-independent — both backends charge identical
	// operation counts — so this knob only changes host wall-clock cost.
	Engine string
}

// PaperTriples is the two-ISA target set the paper ships (x86_64 hosts
// and aarch64 DPUs/A64FX).
var PaperTriples = []isa.Triple{isa.TripleXeon, isa.TripleA64FX}

// Ookami returns the A64FX cluster profile.
//
// Fit (Table I/IV): AM 2.58 µs / 1.32 M msg/s; cached 2.67 µs / 1.669 M;
// uncached 5.12 µs / 405 K.
func Ookami() Profile {
	return Profile{
		Name:  "Ookami",
		March: isa.A64FX,
		Net: fabric.NetParams{
			BaseLatency:  1608 * sim.Nanosecond,
			LatPerByte:   sim.FromNanos(0.4652),
			GapPerByte:   sim.FromNanos(0.4372),
			SendOverhead: 200 * sim.Nanosecond,
			RecvOverhead: 300 * sim.Nanosecond,
			NICOverhead:  251 * sim.Nanosecond,
		},
		AMDispatch: 451 * sim.Nanosecond,
		IfuncPoll:  253 * sim.Nanosecond,
		Triples:    []isa.Triple{isa.TripleXeon, isa.TripleA64FX},
	}
}

// ThorBF2 returns the BlueField-2 DPU endpoint profile on Thor.
//
// Fit (Table II/V): AM 1.88 µs / 974 K msg/s; cached 1.86 µs / 1.311 M;
// uncached 3.49 µs / 417 K.
func ThorBF2() Profile {
	return Profile{
		Name:  "Thor-BF2",
		March: isa.CortexA72,
		Net: fabric.NetParams{
			BaseLatency:  593 * sim.Nanosecond,
			LatPerByte:   sim.FromNanos(0.3101),
			GapPerByte:   sim.FromNanos(0.4139),
			SendOverhead: 250 * sim.Nanosecond,
			RecvOverhead: 430 * sim.Nanosecond,
			NICOverhead:  276 * sim.Nanosecond,
		},
		AMDispatch: 587 * sim.Nanosecond,
		IfuncPoll:  293 * sim.Nanosecond,
		Triples:    PaperTriples,
	}
}

// ThorXeon returns the Xeon host endpoint profile on Thor.
//
// Fit (Table III/VI): AM 1.56 µs / 6.754 M msg/s; cached 1.53 µs /
// 7.302 M; uncached 3.59 µs / 2.037 M.
func ThorXeon() Profile {
	return Profile{
		Name:  "Thor-Xeon",
		March: isa.XeonE5,
		Net: fabric.NetParams{
			BaseLatency:  1343 * sim.Nanosecond,
			LatPerByte:   sim.FromNanos(0.4012),
			GapPerByte:   sim.FromNanos(0.0831),
			SendOverhead: 60 * sim.Nanosecond,
			RecvOverhead: 40 * sim.Nanosecond,
			NICOverhead:  0,
		},
		AMDispatch: 105 * sim.Nanosecond,
		IfuncPoll:  54 * sim.Nanosecond,
		Triples:    PaperTriples,
	}
}

// ThorMixed returns the heterogeneous Thor configuration used by the DAPC
// figures: a Xeon client driving BlueField-2 DPU servers. Wire parameters
// follow the BF2 profile (the DPU side bounds the path) while the client
// node keeps Xeon compute.
func ThorMixed() Profile {
	p := ThorBF2()
	p.Name = "Thor-Mixed"
	return p
}

// All returns the three primary paper profiles.
func All() []Profile {
	return []Profile{Ookami(), ThorBF2(), ThorXeon()}
}

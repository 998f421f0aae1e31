package bench

// The data-region cache sweep: the harness behind `paperbench
// -regioncache` and the BENCH_engines.json "regioncache" section.
//
// A driver repeatedly pulls the same operand region from one owner while
// a controlled fraction of the region is dirtied between pulls (by
// shipped executions — third-party writes are the only thing that can
// invalidate the puller's staged copy, since its own write-backs
// re-stamp the entry with the post-PUT owner version). With the cache
// on, repeat pulls elide the GET entirely at dirty fraction 0 and pay a
// chunk-granular vectored GetV proportional to the dirty fraction
// otherwise, degrading to the whole-region GET when everything is
// dirty; with the cache off every pull pays the full region. Guest
// outcomes are bit-identical between modes by construction — only bytes
// and virtual time move.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"threechains/internal/core"
	"threechains/internal/place"
	"threechains/internal/testbed"
)

// RegionCachePoint is one cache mode's outcome on a repeat-pull scenario.
type RegionCachePoint struct {
	// Mode is "cache" (the region cache negotiating every pull) or
	// "nocache" (core.CacheCAS: every pull GETs the whole region).
	Mode string `json:"mode"`
	// GetBytes is the total pull-route GET payload that actually crossed
	// the wire (descriptors included); DemandBytes what the pulls asked
	// for (one whole region each) — the cache-off baseline.
	GetBytes    uint64  `json:"get_bytes"`
	DemandBytes uint64  `json:"demand_bytes"`
	GetPct      float64 `json:"get_pct"`
	// Elides counts pulls that skipped the GET on a version hit;
	// DeltaPulls those that fetched only stale chunks through GetV.
	Elides     uint64 `json:"elides"`
	DeltaPulls uint64 `json:"delta_pulls"`
	// VirtTime is the final virtual time in sim ticks — lower with the
	// cache on because elided and delta pulls spend less time on the wire.
	VirtTime int64 `json:"virt_time"`
	// ResultHash fingerprints the guest-visible outcome (per-op kernel
	// values + the owner's final region bytes): identical across modes
	// and engines by construction.
	ResultHash string `json:"result_hash"`
}

// RegionCacheResult is one (region size, dirty span) row of the sweep.
type RegionCacheResult struct {
	Profile string `json:"profile"`
	// RegionWords is the operand-region size; DirtyWords how many words
	// each interleaved shipped execution overwrites (0 = no interleaved
	// ships: the repeat pulls see an unchanged region).
	RegionWords int `json:"region_words"`
	DirtyWords  int `json:"dirty_words"`
	Rounds      int `json:"rounds"`
	// Cache vs no-cache outcomes and the GET-byte saving.
	Cache      RegionCachePoint `json:"cache"`
	NoCache    RegionCachePoint `json:"nocache"`
	SavingsPct float64          `json:"savings_pct"`
}

// RegionCacheRegionWords returns the sweep's region-size grid.
func RegionCacheRegionWords() []int { return []int{256, 1024} }

// RegionCacheDirtySweep returns the dirty-span grid for one region size:
// untouched, one chunk's worth, half the region, the whole region (where
// the vectored delta degrades to the whole-region fallback).
func RegionCacheDirtySweep(regionWords int) []int {
	return []int{0, 16, regionWords / 2, regionWords}
}

// regionCacheRounds is the repeat count per scenario: enough repeats
// that the cold pull's full GET is amortization noise, few enough that
// the sweep stays a sub-second smoke.
const regionCacheRounds = 6

// runRegionCachePoint drives one repeat-pull scenario: `rounds` rounds
// of [shipped dirtying execution (when dirtyWords > 0), read-only pull]
// against one owner region, issued through a depth-1 offload stream so
// every pull sees the region state the preceding ship established. The
// scenario is single-heap and the op order serial, so the outcome is
// bit-identical across engines and cache modes.
func runRegionCachePoint(p testbed.Profile, regionWords, dirtyWords, rounds int, disableCache bool) (RegionCachePoint, error) {
	specs := []core.NodeSpec{
		{Name: p.Name + "-driver", March: p.March(), Engine: p.Engine},
		{Name: p.Name + "-owner", March: p.March(), Engine: p.Engine},
	}
	cl := core.NewCluster(p.Net, specs)
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		if disableCache {
			rt.Cache = core.CacheCAS
		}
	}
	drv, owner := cl.Runtime(0), cl.Runtime(1)
	size := uint64(regionWords * 8)
	region := owner.Node.Alloc(regionWords * 8)
	mem := owner.Node.Mem()
	for i := 0; i < regionWords; i++ {
		binary.LittleEndian.PutUint64(mem[region+uint64(i*8):], uint64(i)*0x9e3779b97f4a7c15)
	}
	binary.LittleEndian.PutUint64(mem[region:], 0)
	// Ship-code executes against the destination's TargetPtr: keep it in
	// agreement with the region.
	owner.TargetPtr = region

	// One dirty-write workload kernel: the overwrite span arrives in the
	// payload, so the same registration serves ships (span = dirtyWords)
	// and pulls (span = 1, the bare bump — discarded anyway, the pulls
	// are read-only).
	h, err := drv.RegisterBitcode("rc-kernel", buildWorkloadKernel(place.TypeSpec{ID: 0, DirtyWords: 2}), p.Triples)
	if err != nil {
		return RegionCachePoint{}, err
	}
	shipPayload := make([]byte, 8)
	binary.LittleEndian.PutUint64(shipPayload, uint64(dirtyWords))
	pullPayload := make([]byte, 8)
	binary.LittleEndian.PutUint64(pullPayload, 1)

	var ops []core.StreamOp
	for r := 0; r < rounds; r++ {
		if dirtyWords > 0 {
			ops = append(ops, core.StreamOp{
				Dst: 1, H: h, Fn: "main", Payload: shipPayload,
				Opts: core.OffloadOpts{Policy: place.PolicyShipCode, DataAddr: region, DataSize: size, WriteBack: true},
			})
		}
		ops = append(ops, core.StreamOp{
			Dst: 1, H: h, Fn: "main", Payload: pullPayload,
			Opts: core.OffloadOpts{Policy: place.PolicyPullData, DataAddr: region, DataSize: size},
		})
	}
	s := drv.StartOffloadStream(ops, 1)
	cl.Run()
	if s.Err != nil {
		return RegionCachePoint{}, s.Err
	}
	if !s.Done.Fired() {
		return RegionCachePoint{}, fmt.Errorf("region=%d dirty=%d: stream stalled", regionWords, dirtyWords)
	}
	if drv.LastExecErr != nil {
		return RegionCachePoint{}, drv.LastExecErr
	}

	pt := RegionCachePoint{Mode: "cache"}
	if disableCache {
		pt.Mode = "nocache"
	}
	pt.GetBytes = drv.Stats.PullGetBytes
	pt.DemandBytes = drv.Stats.PullGetFullBytes
	if pt.DemandBytes > 0 {
		pt.GetPct = 100 * float64(pt.GetBytes) / float64(pt.DemandBytes)
	}
	pt.Elides = drv.Stats.RegionElides
	pt.DeltaPulls = drv.Stats.RegionDeltaPulls
	pt.VirtTime = int64(cl.Eng.Now())
	fp := fnv.New64a()
	var b [8]byte
	for _, v := range s.Results {
		binary.LittleEndian.PutUint64(b[:], v)
		fp.Write(b[:])
	}
	fp.Write(mem[region : region+size])
	pt.ResultHash = fmt.Sprintf("%016x", fp.Sum64())
	return pt, nil
}

// RegionCacheSweep runs the repeat-pull grid (region sizes × dirty
// spans) under both cache modes and reports the GET-byte saving. Guest
// outcomes are asserted mode-invariant inside the sweep; only bytes and
// virtual time may move.
func RegionCacheSweep(p testbed.Profile) ([]RegionCacheResult, error) {
	var out []RegionCacheResult
	for _, rw := range RegionCacheRegionWords() {
		for _, dw := range RegionCacheDirtySweep(rw) {
			on, err := runRegionCachePoint(p, rw, dw, regionCacheRounds, false)
			if err != nil {
				return nil, fmt.Errorf("region=%d dirty=%d cache: %w", rw, dw, err)
			}
			off, err := runRegionCachePoint(p, rw, dw, regionCacheRounds, true)
			if err != nil {
				return nil, fmt.Errorf("region=%d dirty=%d nocache: %w", rw, dw, err)
			}
			if on.ResultHash != off.ResultHash {
				return nil, fmt.Errorf("region=%d dirty=%d: guest outcome diverged between cache modes (%s vs %s)",
					rw, dw, on.ResultHash, off.ResultHash)
			}
			res := RegionCacheResult{
				Profile: p.Name, RegionWords: rw, DirtyWords: dw,
				Rounds: regionCacheRounds, Cache: on, NoCache: off,
			}
			if off.GetBytes > 0 {
				res.SavingsPct = 100 * (1 - float64(on.GetBytes)/float64(off.GetBytes))
			}
			out = append(out, res)
		}
	}
	return out, nil
}

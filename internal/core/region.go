package core

// The data-region cache: the content-addressed machinery of PR 7
// extended from code archives to operand regions. The owner of a pulled
// region tracks a per-region version counter (ifunc.RegionClock) bumped
// on every write — one-sided PUT/PutV application via the fabric write
// observer, guest kernel stores via executeBatchAt — so a puller can
// tell from deterministic virtual-time state alone whether its staged
// copy is current. The puller keeps one cache entry per (owner, region):
// the staged snapshot interned in the node's content store (BlobData,
// sharing the StoreBudget LRU with code blobs), its per-chunk FNV-1a
// hashes, and the owner version the snapshot reflects.
//
// A repeat pull negotiates against that entry before touching the wire:
//
//   - version hit  → the GET is elided entirely (zero wire legs);
//   - stale        → a host-side chunk diff picks the changed chunks and
//     a vectored chunk-granular ucx.GetV fetches only those, falling
//     back to a whole-region Get when the per-segment framing would not
//     undercut the region;
//   - no live entry → whole-region Get, exactly the pre-cache route.
//
// Correctness contract: like real RDMA, a pull that races writes to the
// same region is undefined — callers must serialize pulls and writes per
// region, which the offload stream's per-destination serialization
// provides. Under that contract the staged bytes of every mode equal
// what a whole-region GET would have returned, so guest outcomes are
// bit-identical cache-on vs cache-off (pinned by differential tests);
// only wire bytes and virtual time may move. The version peek itself is
// a zero-cost virtual-time read gated exactly like the CAS negotiation
// (casPeer: same shard partition only, off below CacheCAS), so sharded
// runs degrade to whole-region pulls for cross-partition destinations
// and stay bit-identical at every shard count.

import (
	"bytes"

	"threechains/internal/ifunc"
	"threechains/internal/ucx"
)

// regionKey identifies one staged region: the owner node and the exact
// region bounds (distinct overlapping pulls get distinct entries).
type regionKey struct {
	dst        int
	addr, size uint64
}

// regionEntry is one staged region the puller may reuse.
type regionEntry struct {
	// storeHash keys the snapshot in the node's content store; snapshot
	// is the canonical buffer Intern returned. The entry is live only
	// while the store still holds exactly that buffer (budget eviction
	// invalidates the entry; a content-hash collision fails the pointer
	// identity check and reads as dead — never as someone else's bytes).
	storeHash uint64
	snapshot  []byte
	// chunks are the snapshot's per-chunk FNV-1a hashes — what a real
	// protocol would exchange to localize staleness.
	chunks []uint64
	// version is the owner's region version the snapshot reflects; 0
	// means unknown (a write-back is in flight), which never matches a
	// live owner version, so a racing validity check degrades to a diff.
	version uint64
}

// regionPeer returns the owner runtime when the region negotiation may
// read its clock and memory: the casPeer gate (same shard partition) at
// CacheRegions, for a remote owner. Pulls from an ineligible peer run
// the pre-cache whole-region route.
func (r *Runtime) regionPeer(dst int) *Runtime {
	if r.Cache < CacheRegions || dst == r.Node.ID {
		return nil
	}
	return r.casPeer(dst)
}

// regionEntryLive reports whether e's snapshot is still resident in the
// content store, via a recency-touching Get when touch is set (a pull
// actually reusing the entry) or a recency-neutral Peek otherwise (the
// planner's pricing probe). Liveness requires pointer identity with the
// canonical store buffer: eviction and collisions both read as dead.
func (r *Runtime) regionEntryLive(e *regionEntry, touch bool) bool {
	if e == nil || len(e.snapshot) == 0 {
		return false
	}
	var data []byte
	var ok bool
	if touch {
		data, ok = r.Store.Get(e.storeHash)
	} else {
		data, ok = r.Store.Peek(e.storeHash)
	}
	return ok && len(data) == len(e.snapshot) && &data[0] == &e.snapshot[0]
}

// regionEntryFor returns the live cache entry for (dst, addr, size), or
// nil. Recency semantics follow regionEntryLive's touch flag.
func (r *Runtime) regionEntryFor(dst int, addr, size uint64, touch bool) *regionEntry {
	e := r.regionCache[regionKey{dst, addr, size}]
	if e == nil || !r.regionEntryLive(e, touch) {
		return nil
	}
	return e
}

// staleSegments returns the chunk-granular byte ranges of cur (the
// owner's current region bytes) that differ from the staged snapshot,
// adjacent stale chunks coalesced into one segment. The hash comparison
// models the wire protocol (per-chunk FNV-1a against the entry's stored
// hashes); the byte comparison guards the astronomically rare collision
// so the cache can never stage wrong bytes — a colliding chunk reads as
// stale and is re-fetched.
func staleSegments(snap, cur []byte, chunks []uint64) []ucx.GetSeg {
	n := len(cur)
	nc := ifunc.RegionChunks(n)
	var segs []ucx.GetSeg
	runStart := -1
	for c := 0; c <= nc; c++ {
		stale := false
		if c < nc {
			off := c * ifunc.RegionChunkBytes
			end := off + ifunc.RegionChunkBytes
			if end > n {
				end = n
			}
			cc := cur[off:end]
			stale = c >= len(chunks) || ifunc.ContentHash(cc) != chunks[c] ||
				!bytes.Equal(cc, snap[off:end])
		}
		if stale {
			if runStart < 0 {
				runStart = c
			}
			continue
		}
		if runStart >= 0 {
			off := runStart * ifunc.RegionChunkBytes
			end := c * ifunc.RegionChunkBytes
			if end > n {
				end = n
			}
			segs = append(segs, ucx.GetSeg{Off: off, Len: end - off})
			runStart = -1
		}
	}
	return segs
}

// regionCacheStore interns snap (the bytes the owner's region holds, or
// will hold once an in-flight write-back lands) as the cache entry for
// (dst, addr, size). The snapshot enters the content store as an
// unpinned BlobData blob: it shares the StoreBudget LRU with code blobs
// and evicts like any other cache tail — an evicted snapshot simply
// costs the next pull a full GET. The snapshot it replaces is released
// from the store once nothing else uses it (releaseSnapshot), so each
// entry keeps one resident snapshot, not its whole history. version 0
// marks the entry provisional (write-back in flight); the caller stamps
// the real owner version once it is known.
func (r *Runtime) regionCacheStore(dst int, addr, size uint64, snap []byte, version uint64) *regionEntry {
	if r.regionCache == nil {
		r.regionCache = make(map[regionKey]*regionEntry)
		r.regionRefs = make(map[*byte]int)
	}
	k := regionKey{dst, addr, size}
	e := r.regionCache[k]
	if e == nil {
		e = &regionEntry{}
		r.regionCache[k] = e
	}
	oldHash, old := e.storeHash, e.snapshot
	h := ifunc.ContentHash(snap)
	e.storeHash = h
	e.snapshot = r.Store.Intern(h, ifunc.BlobData, snap, 0)
	r.regionRefs[&e.snapshot[0]]++
	e.chunks = ifunc.AppendChunkHashes(e.chunks[:0], e.snapshot)
	e.version = version
	if len(old) > 0 {
		r.regionRefs[&old[0]]--
		r.releaseSnapshot(oldHash, old)
	}
	return e
}

// unpinSnapshot ends an in-flight pull's pin on the snapshot it pinned —
// hash and buffer as captured at Pin time, never re-read from the entry,
// which the pull itself may have re-pointed at a newer snapshot — and
// releases that snapshot if it was replaced meanwhile.
func (r *Runtime) unpinSnapshot(hash uint64, snap []byte) {
	r.Store.Unpin(hash)
	r.releaseSnapshot(hash, snap)
}

// releaseSnapshot drops snap from the content store once no region entry
// points at it (entries are counted per canonical buffer in regionRefs:
// identical regions share one) and no pull pins it. Store.Release checks
// the pins and that snap is still the canonical buffer under hash.
func (r *Runtime) releaseSnapshot(hash uint64, snap []byte) {
	p := &snap[0]
	if r.regionRefs[p] > 0 {
		return
	}
	delete(r.regionRefs, p)
	r.Store.Release(hash, snap)
}

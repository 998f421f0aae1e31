package ifunc

import (
	"bytes"

	"threechains/internal/sim"
)

// ContentHash is the cluster-wide content key: 64-bit FNV-1a over the
// raw bytes, computed without allocating (unlike hash/fnv's heap-backed
// state). It produces exactly the same values as hash/fnv's New64a, so
// hashes are stable across the codebase and across PRs. Hashing happens
// only on cold paths (registration, intern, pull snapshot); the warm
// send path reuses hashes memoized on handles and registrations.
func ContentHash(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hasher is an incremental, allocation-free FNV-1a state for callers
// that hash in pieces (a value type: keep it on the stack or embed it —
// no pool needed, which is the whole point versus hash/fnv).
type Hasher uint64

// NewHasher returns the initial FNV-1a state.
func NewHasher() Hasher { return fnvOffset64 }

// Write folds b into the state.
func (h *Hasher) Write(b []byte) {
	x := uint64(*h)
	for _, c := range b {
		x ^= uint64(c)
		x *= fnvPrime64
	}
	*h = Hasher(x)
}

// Sum64 returns the current hash.
func (h Hasher) Sum64() uint64 { return uint64(h) }

// BlobKind discriminates what a store entry holds.
type BlobKind uint8

const (
	// BlobCode is a shipped code section (fat-bitcode archive or per-ISA
	// object) — the unit the caching protocol dedups cluster-wide.
	BlobCode BlobKind = 1
	// BlobData is a staged data-region snapshot (pull-route GET images),
	// interned so identical regions share one buffer and so the store's
	// byte budget covers data staging too.
	BlobData BlobKind = 2
)

// StoreStats counts store activity for reports.
type StoreStats struct {
	// Puts counts Intern calls that stored new content; Hits counts
	// Intern calls answered by an existing blob (the dedup win).
	Puts, Hits uint64
	// Evictions / EvictedBytes count budget-driven LRU evictions.
	Evictions    uint64
	EvictedBytes uint64
	// Collisions counts Intern calls whose 64-bit hash matched a stored
	// blob with different bytes (astronomically rare; the call returns a
	// private copy and the store keeps the first content).
	Collisions uint64
}

// DefaultEvictLogCap is the eviction ring's default retention: enough
// for every determinism suite to see its full sequence, small enough
// that eviction-churn runs of any length stay bounded.
const DefaultEvictLogCap = 4096

// EvictRecord is one budget-driven eviction, logged in order so
// determinism tests can compare eviction sequences bit-for-bit across
// runs, engines and shard counts.
type EvictRecord struct {
	Hash uint64
	// Kind distinguishes evicted code blobs from staged region snapshots
	// — the two kinds share one LRU, and budget-interplay tests assert
	// the mix, not just the sequence.
	Kind  BlobKind
	Bytes int
	At    sim.Time
}

// Store is the per-node content-addressed store behind the cluster-wide
// caching protocol: every code section (and staged data snapshot) lives
// here exactly once, keyed by ContentHash. Registrations and source
// handles pin their blobs (refcounts); a sender may elide or
// hash-reference a code section only while the destination holds it
// *pinned* — refcount-routed invalidation, so a deregistered module can
// never be truncated-sent on the strength of a stale third-party "have".
//
// Budget bounds resident bytes: when an Intern pushes the total past
// Budget, unpinned blobs are evicted least-recently-used first, with
// ties (and recency itself) resolved by virtual time plus insertion
// sequence — a deterministic total order, so eviction decisions are
// identical across engines and shard counts. Budget <= 0 means
// unlimited (the default, preserving the seed's intern-forever
// behavior). Pinned blobs never evict; the budget is a cache bound, not
// a correctness bound.
type Store struct {
	// Budget is the resident-byte bound (<= 0: unlimited).
	Budget int64
	// Now supplies virtual time for LRU recency; nil reads as 0 (still
	// deterministic via insertion sequence).
	Now func() sim.Time
	// Stats counts activity.
	Stats StoreStats
	// EvictLogCap bounds the in-memory eviction log (a ring buffer: once
	// full, each new record overwrites the oldest and bumps the dropped
	// count). 0 means DefaultEvictLogCap; negative disables retention
	// entirely (every record counts as dropped). Set before the first
	// eviction; the ring does not resize in place.
	EvictLogCap int
	// OnEvict, when set, observes every budget-driven eviction as it
	// happens — the retention-free hook (trace sinks), independent of the
	// bounded ring.
	OnEvict func(EvictRecord)

	evictLog     []EvictRecord
	evictHead    int
	evictDropped uint64

	blobs map[uint64]*blob
	// order keeps insertion order so the eviction scan never depends on
	// map iteration order.
	order    []*blob
	bytes    int64
	maxBytes int64
	seq      uint64
}

type blob struct {
	hash    uint64
	kind    BlobKind
	data    []byte
	pins    int
	lastUse sim.Time
	seq     uint64
	dead    bool
}

// NewStore returns an empty store with unlimited budget.
func NewStore(now func() sim.Time) *Store {
	return &Store{Now: now, blobs: make(map[uint64]*blob)}
}

func (s *Store) now() sim.Time {
	if s.Now == nil {
		return 0
	}
	return s.Now()
}

// Intern stores (a private copy of) b under hash, or returns the
// canonical existing bytes when the content is already resident — the
// cluster-visible generalization of the old per-runtime code interning.
// pin > 0 adds that many references (registrations and handles pin; a
// cache-only insert passes 0). The returned slice is the canonical
// buffer: callers must treat it as immutable.
func (s *Store) Intern(hash uint64, kind BlobKind, b []byte, pin int) []byte {
	if bl, ok := s.blobs[hash]; ok {
		if !bytes.Equal(bl.data, b) {
			s.Stats.Collisions++
			return append([]byte(nil), b...)
		}
		s.Stats.Hits++
		bl.pins += pin
		bl.lastUse = s.now()
		return bl.data
	}
	s.Stats.Puts++
	s.seq++
	bl := &blob{
		hash: hash, kind: kind,
		data:    append([]byte(nil), b...),
		pins:    pin,
		lastUse: s.now(),
		seq:     s.seq,
	}
	s.blobs[hash] = bl
	s.order = append(s.order, bl)
	s.bytes += int64(len(bl.data))
	if s.bytes > s.maxBytes {
		s.maxBytes = s.bytes
	}
	s.evictOver()
	return bl.data
}

// Get returns the canonical bytes for hash, touching LRU recency.
func (s *Store) Get(hash uint64) ([]byte, bool) {
	bl, ok := s.blobs[hash]
	if !ok {
		return nil, false
	}
	bl.lastUse = s.now()
	return bl.data, true
}

// Peek returns the canonical bytes for hash without touching LRU
// recency — the pricing probe (the planner's what-would-a-pull-cost
// question must not perturb the eviction order the way a real use
// does).
func (s *Store) Peek(hash uint64) ([]byte, bool) {
	bl, ok := s.blobs[hash]
	if !ok {
		return nil, false
	}
	return bl.data, true
}

// Contains reports residency without touching recency.
func (s *Store) Contains(hash uint64) bool {
	_, ok := s.blobs[hash]
	return ok
}

// HasPinned reports whether hash is resident AND referenced (pinned).
// This is the only predicate the send-path negotiation may use: "have"
// means a live registration or handle holds the content, not merely
// that an evictable cache copy exists. It does not touch recency — the
// sender's virtual-time peek must not perturb the peer's LRU order.
func (s *Store) HasPinned(hash uint64) bool {
	bl, ok := s.blobs[hash]
	return ok && bl.pins > 0
}

// Pin adds a reference to hash, reporting whether it was resident.
func (s *Store) Pin(hash uint64) bool {
	bl, ok := s.blobs[hash]
	if !ok {
		return false
	}
	bl.pins++
	return true
}

// Unpin drops a reference. The blob stays resident (budget permitting)
// so re-registration of the same content still dedups; it merely
// becomes evictable and stops counting as a "have". Unpin of an absent
// or unreferenced hash is a no-op (collision copies are unmanaged).
func (s *Store) Unpin(hash uint64) {
	if bl, ok := s.blobs[hash]; ok && bl.pins > 0 {
		bl.pins--
	}
}

// Release drops a staged data snapshot the moment its last user lets go
// of it, instead of leaving it to budget eviction: it removes the
// BlobData blob under hash when nothing pins it and data is its
// canonical buffer (pointer identity, as in region-entry liveness — a
// collision copy or a re-interned successor is left alone). It reports
// whether the blob was removed. A release is not an eviction: it is
// neither counted in Stats nor logged.
func (s *Store) Release(hash uint64, data []byte) bool {
	bl, ok := s.blobs[hash]
	if !ok || bl.kind != BlobData || bl.pins > 0 || len(data) == 0 ||
		len(bl.data) != len(data) || &bl.data[0] != &data[0] {
		return false
	}
	bl.dead = true
	delete(s.blobs, hash)
	s.bytes -= int64(len(bl.data))
	s.compact()
	return true
}

// Bytes returns currently resident bytes; MaxBytes the high-water mark.
func (s *Store) Bytes() int64    { return s.bytes }
func (s *Store) MaxBytes() int64 { return s.maxBytes }

// Len returns the number of resident blobs.
func (s *Store) Len() int { return len(s.blobs) }

// evictOver evicts unpinned blobs, least (lastUse, seq) first, until
// resident bytes fit the budget or only pinned blobs remain. The victim
// scan walks the insertion-ordered slice, never the map, so the choice
// is deterministic.
func (s *Store) evictOver() {
	if s.Budget <= 0 {
		return
	}
	for s.bytes > s.Budget {
		victim := -1
		for i, bl := range s.order {
			if bl.dead || bl.pins > 0 {
				continue
			}
			if victim < 0 || bl.lastUse < s.order[victim].lastUse ||
				(bl.lastUse == s.order[victim].lastUse && bl.seq < s.order[victim].seq) {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		bl := s.order[victim]
		bl.dead = true
		delete(s.blobs, bl.hash)
		s.bytes -= int64(len(bl.data))
		s.Stats.Evictions++
		s.Stats.EvictedBytes += uint64(len(bl.data))
		rec := EvictRecord{Hash: bl.hash, Kind: bl.kind, Bytes: len(bl.data), At: s.now()}
		if s.OnEvict != nil {
			s.OnEvict(rec)
		}
		s.logEvict(rec)
		s.compact()
	}
}

// logEvict appends rec to the bounded eviction ring, overwriting the
// oldest retained record once the ring is full.
func (s *Store) logEvict(rec EvictRecord) {
	max := s.EvictLogCap
	if max == 0 {
		max = DefaultEvictLogCap
	}
	if max < 0 {
		s.evictDropped++
		return
	}
	if len(s.evictLog) < max {
		s.evictLog = append(s.evictLog, rec)
		return
	}
	s.evictLog[s.evictHead] = rec
	s.evictHead = (s.evictHead + 1) % max
	s.evictDropped++
}

// EvictRecords returns the retained eviction log, oldest first — the
// last EvictLogCap evictions (all of them when the ring never filled).
func (s *Store) EvictRecords() []EvictRecord {
	out := make([]EvictRecord, 0, len(s.evictLog))
	out = append(out, s.evictLog[s.evictHead:]...)
	out = append(out, s.evictLog[:s.evictHead]...)
	return out
}

// EvictLogLen returns the number of retained eviction records.
func (s *Store) EvictLogLen() int { return len(s.evictLog) }

// EvictLogDropped returns how many eviction records aged out of the
// bounded ring (0 until the ring wraps).
func (s *Store) EvictLogDropped() uint64 { return s.evictDropped }

// compact drops dead entries from the insertion-order slice once they
// outnumber live ones, keeping the victim scan amortized-linear.
func (s *Store) compact() {
	if len(s.order) < 2*len(s.blobs)+8 {
		return
	}
	live := s.order[:0]
	for _, bl := range s.order {
		if !bl.dead {
			live = append(live, bl)
		}
	}
	s.order = live
}

package ifunc

import (
	"fmt"
	"math"

	"threechains/internal/jit"
	"threechains/internal/mcode"
)

// Registration is a receiver-side registered ifunc type: everything the
// polling function needs to execute truncated frames of this type and to
// re-forward the full code to third parties.
type Registration struct {
	// Name is the registered name when known locally; remotely learned
	// registrations synthesize one from the hash.
	Name string
	Hash uint64
	Kind CodeKind
	// Compiled is the ready-to-run artifact (JIT output or loaded
	// binary).
	Compiled *jit.Compiled
	// CodeBytes is the original code section (fat-bitcode archive or
	// per-ISA object) kept verbatim so this node can propagate the ifunc
	// onward — the recursive-injection capability. It is the canonical
	// buffer of the node's content-addressed store, pinned for the
	// registration's lifetime.
	CodeBytes []byte
	// CodeHash is ContentHash(CodeBytes) — the cluster-wide content key,
	// memoized at registration so the send path never re-hashes.
	CodeHash uint64
	// EntryNames maps frame entry indices to function names.
	EntryNames []string
	// Executions counts invocations on this node.
	Executions uint64
	// TotalSteps accumulates the dynamic machine instructions those
	// invocations executed (lifetime total, kept for reports).
	TotalSteps uint64
	// stepEWMA is the decayed mean dynamic step count of one message of
	// this type — the cost signal shared by the runtime's cost-aware
	// drain ordering and the placement planner's cost model. Unlike the
	// lifetime mean TotalSteps/Executions, it tracks phase changes in a
	// type's behavior (a kernel whose per-message work grows or shrinks
	// over time re-converges within ~2/stepAlpha messages).
	stepEWMA float64
	// putEWMA is the decayed mean write-back PUT payload (bytes beyond
	// the PUT header) of one pull-route execution of this type — what the
	// delta write-back actually transmitted, segment descriptors
	// included. The planner prices the PullCost write-back term with it,
	// so a kernel that dirties 8 bytes of a 32 KiB region stops being
	// charged for 32 KiB.
	putEWMA float64
	putObs  uint64
	// getEWMA mirrors putEWMA for the pull direction: the decayed mean
	// GET payload (response bytes beyond the header, segment descriptors
	// included) one pull-route execution of this type actually fetched
	// once the region cache negotiated away current chunks. Version hits
	// (full elisions) are not folded in — they are priced separately as
	// zero — so the estimate stays the expected residual of a *stale*
	// re-pull.
	getEWMA float64
	getObs  uint64
	// Machine is the reusable execution context the runtime binds to this
	// registration on first execution. Reusing it (with its pooled
	// register files) keeps the per-message hot path allocation-free;
	// it dies with the registration, matching the paper's compiled-code
	// lifetime ("stays alive until the ifunc is de-registered").
	Machine *mcode.Machine
}

// stepAlpha is the per-message weight of the decayed step estimate: an
// effective window of ~2/alpha ≈ 32 messages, small enough to adapt to
// phase changes within one busy drain sequence, large enough that one
// outlier message cannot reorder a drain.
const stepAlpha = 1.0 / 16

// ObserveExec folds a batch of n executions totaling steps dynamic
// machine instructions into the registration's cost statistics. The
// decayed estimate weights the batch mean by 1-(1-alpha)^n, which is
// exactly n sequential per-message updates with the same mean —
// batch-size invariant, so MaxDrain never perturbs the estimate's
// trajectory for a steady workload.
func (r *Registration) ObserveExec(n, steps uint64) {
	if n == 0 {
		return
	}
	mean := float64(steps) / float64(n)
	if r.Executions == 0 {
		r.stepEWMA = mean
	} else {
		w := math.Pow(1-stepAlpha, float64(n))
		r.stepEWMA += (1 - w) * (mean - r.stepEWMA)
	}
	r.Executions += n
	r.TotalSteps += steps
}

// MeanSteps returns the decayed mean dynamic step count of one message
// of this type; ok is false when the type has never executed here (no
// measurement to decay).
func (r *Registration) MeanSteps() (mean float64, ok bool) {
	if r.Executions == 0 {
		return 0, false
	}
	return r.stepEWMA, true
}

// ObservePutBytes folds one pull-route write-back's transmitted PUT
// payload (0 when the kernel dirtied nothing) into the decayed
// estimate, with the same window as the step estimate.
func (r *Registration) ObservePutBytes(b float64) {
	if r.putObs == 0 {
		r.putEWMA = b
	} else {
		r.putEWMA += stepAlpha * (b - r.putEWMA)
	}
	r.putObs++
}

// MeanPutBytes returns the decayed mean write-back PUT payload of one
// pull-route execution; ok is false before the first observation.
func (r *Registration) MeanPutBytes() (mean float64, ok bool) {
	if r.putObs == 0 {
		return 0, false
	}
	return r.putEWMA, true
}

// ObserveGetBytes folds one stale pull's transmitted GET payload (the
// chunk-delta bytes, or the whole region on the vectored-framing
// fallback and on cold pulls) into the decayed estimate.
func (r *Registration) ObserveGetBytes(b float64) {
	if r.getObs == 0 {
		r.getEWMA = b
	} else {
		r.getEWMA += stepAlpha * (b - r.getEWMA)
	}
	r.getObs++
}

// MeanGetBytes returns the decayed mean GET payload of one stale
// pull-route execution; ok is false before the first observation.
func (r *Registration) MeanGetBytes() (mean float64, ok bool) {
	if r.getObs == 0 {
		return 0, false
	}
	return r.getEWMA, true
}

// EntryName resolves a frame entry index.
func (r *Registration) EntryName(idx uint16) (string, error) {
	if int(idx) >= len(r.EntryNames) {
		return "", fmt.Errorf("ifunc: entry %d out of range (%d entries) in %s",
			idx, len(r.EntryNames), r.Name)
	}
	return r.EntryNames[idx], nil
}

// Registry is the per-node table of registered ifunc types, keyed by the
// 64-bit type hash carried in every frame header.
type Registry struct {
	byHash map[uint64]*Registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byHash: make(map[uint64]*Registration)}
}

// Get looks up a registration.
func (rg *Registry) Get(hash uint64) (*Registration, bool) {
	r, ok := rg.byHash[hash]
	return r, ok
}

// Put stores a registration (replacing any previous one of the same
// hash, like re-registering an ifunc library).
func (rg *Registry) Put(r *Registration) { rg.byHash[r.Hash] = r }

// Delete removes a registration, reporting whether it existed.
func (rg *Registry) Delete(hash uint64) bool {
	if _, ok := rg.byHash[hash]; !ok {
		return false
	}
	delete(rg.byHash, hash)
	return true
}

// Len returns the number of registered types.
func (rg *Registry) Len() int { return len(rg.byHash) }

// SentCache is the sender-side hash table of §III-D: which (endpoint,
// ifunc-type) pairs have already received the code section. Hits allow
// truncated transmission.
type SentCache struct {
	m map[sentKey]bool
}

type sentKey struct {
	dstNode int
	hash    uint64
}

// NewSentCache returns an empty cache.
func NewSentCache() *SentCache {
	return &SentCache{m: make(map[sentKey]bool)}
}

// Contains reports whether dst already has the code for hash.
func (c *SentCache) Contains(dstNode int, hash uint64) bool {
	return c.m[sentKey{dstNode, hash}]
}

// Mark records that dst now has the code for hash.
func (c *SentCache) Mark(dstNode int, hash uint64) {
	c.m[sentKey{dstNode, hash}] = true
}

// Forget drops all entries for a type (re-registration invalidates).
func (c *SentCache) Forget(hash uint64) {
	for k := range c.m { //repolint:allow maprange — filter-delete of all matches, order-insensitive
		if k.hash == hash {
			delete(c.m, k)
		}
	}
}

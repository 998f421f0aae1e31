// Package sim is a deterministic discrete-event simulation engine with
// virtual time. It is the substrate under the RDMA fabric model: all
// latencies, bandwidth delays, JIT costs and compute times are charged to
// a virtual clock, so every benchmark in this repository is exactly
// reproducible, bit for bit, independent of the host machine.
//
// Two execution styles are supported:
//
//   - Event callbacks (At/After): run-to-completion handlers, used by
//     servers, NIC models and the Three-Chains runtime.
//   - Processes (Go): goroutines cooperatively scheduled by the engine,
//     used for client code written in a blocking style (the GBPC client
//     issues a GET and waits for it). Exactly one goroutine runs at a
//     time per shard and handoff points are deterministic, so processes
//     add no nondeterminism.
//
// # Sharded execution
//
// The engine optionally partitions its event queue into shards that run
// on parallel OS workers (NewSharded). Every schedulable entity — a
// fabric node, or the host test harness — is a "domain"; each domain is
// pinned to one shard and is only ever dispatched by that shard's
// worker, so domain-local state needs no synchronization. Cross-shard
// scheduling is permitted only with a delay of at least the configured
// lookahead L (for the LogGP fabric, L = SendOverhead + BaseLatency, the
// latency floor of any wire crossing). Execution proceeds in conservative
// synchronous windows: with T the global minimum pending timestamp, every
// shard may safely dispatch events in [T, T+L) in parallel, because any
// event a peer generates inside the window lands at ≥ T+L. Events that
// cross shards inside a window are deposited in the target shard's
// mailbox and merged at the window barrier; a cross-shard event below the
// horizon is a causality violation and panics.
//
// Determinism is carried by the event ordering key (time, scheduling
// domain, per-domain sequence number). The key is assigned identically at
// every shard count — a domain's schedule calls happen in the same order
// no matter how domains are packed onto shards — so a sharded run
// dispatches each shard's events in exactly the order a single-heap run
// would, and results are bit-identical at any shard count.
//
// Time is int64 picoseconds: fine enough to represent per-byte wire costs
// (~0.5 ns/B) without rounding, wide enough for hours of simulated time.
package sim

import (
	"fmt"
	"math"
	"sync"
)

// Time is a point in virtual time, in picoseconds since simulation start.
type Time int64

// Duration constants.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// timeMax is the sentinel "no pending event" timestamp.
const timeMax = Time(math.MaxInt64)

// Seconds converts virtual time to floating seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts virtual time to floating microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t)/int64(Nanosecond))
	}
}

// FromSeconds converts floating seconds to virtual time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromNanos converts floating nanoseconds to virtual time.
func FromNanos(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// HostDomain is the domain ID of code running outside any event callback
// (test harnesses, benchmark drivers between Run calls). It lives on
// shard 0 and orders before every node domain at equal timestamps.
const HostDomain = -1

// event is one scheduled callback. The ordering key is (at, dom, seq):
// dom is the domain whose execution scheduled the event and seq is that
// domain's private counter, so the key — and therefore dispatch order —
// is identical at every shard count. tgt is the domain the event executes
// as (it selects the shard, and becomes the scheduling domain of anything
// the callback schedules in turn). An event body is a closure (fn), a
// closure-free signal fire (sig/val), or a closure-free call (fnA/arg) —
// the latter two let hot transport paths schedule without allocating.
type event struct {
	at  Time
	seq uint64
	fn  func()
	fnA func(any)
	arg any
	sig *Signal
	val uint64
	dom int32
	tgt int32
}

// keyLess reports whether a orders before b by the (at, dom, seq) key.
// Keys are unique (per-domain counters never repeat), so this is a
// strict total order and insertion order never matters.
func keyLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap over the event array. The
// standard container/heap would box every event into an interface{} on
// Push/Pop, one heap allocation per scheduled event; storing events by
// value in a reused backing array makes scheduling allocation-free in
// steady state.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !keyLess(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release closure/signal refs while the slot is pooled
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && keyLess(&s[l], &s[min]) {
			min = l
		}
		if r < n && keyLess(&s[r], &s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// laneMinCap is the lane ring's first capacity; it doubles on demand.
const laneMinCap = 16

// eventQueue is one shard's pending events: a sorted FIFO lane in front
// of the binary heap. Much of the traffic arrives in key order — a
// node's burst of sends leaves its NIC at strictly rising times — and a
// heap pays a full sift-down per pop for exactly that shape, because
// each new event is the largest key it holds. push appends an event to
// the lane when its key is above the lane's tail, so the lane stays
// sorted; every other event goes to the heap. pop takes the smaller of
// the lane head and the heap top. Dispatch order is the global key order
// whatever order events are pushed in, so mailbox merges stay
// order-insensitive. When nothing arrives in key order the lane costs
// one key compare per push and per pop.
//
// The lane is a power-of-two ring that grows only when full, so its
// capacity is bounded by twice its peak occupancy, not by the length of
// the stream that passes through it. It is allocated on first use.
type eventQueue struct {
	lane []event // ring; live slots are [head, head+n) mod len(lane)
	head int
	n    int
	heap eventHeap
}

func (q *eventQueue) len() int { return q.n + len(q.heap) }

// laneFirst reports whether the lane head is the smallest pending event.
func (q *eventQueue) laneFirst() bool {
	return q.n > 0 && (len(q.heap) == 0 || keyLess(&q.lane[q.head], &q.heap[0]))
}

// peek returns the smallest pending event; the queue must not be empty.
func (q *eventQueue) peek() *event {
	if q.laneFirst() {
		return &q.lane[q.head]
	}
	return &q.heap[0]
}

func (q *eventQueue) push(e event) {
	if q.n == 0 || keyLess(&q.lane[(q.head+q.n-1)&(len(q.lane)-1)], &e) {
		if q.n == len(q.lane) {
			q.grow()
		}
		q.lane[(q.head+q.n)&(len(q.lane)-1)] = e
		q.n++
		return
	}
	q.heap.push(e)
}

// pop removes and returns the smallest pending event; the queue must
// not be empty.
func (q *eventQueue) pop() event {
	if q.laneFirst() {
		ev := q.lane[q.head]
		q.lane[q.head] = event{} // release closure/signal refs while the slot is pooled
		q.head = (q.head + 1) & (len(q.lane) - 1)
		q.n--
		return ev
	}
	return q.heap.pop()
}

// grow doubles the lane ring, unwrapping the live slots to the front.
func (q *eventQueue) grow() {
	c := 2 * len(q.lane)
	if c == 0 {
		c = laneMinCap
	}
	lane := make([]event, c)
	k := copy(lane, q.lane[q.head:])
	copy(lane[k:q.n], q.lane[:q.head])
	q.lane = lane
	q.head = 0
}

// shardState is one shard's private event queue and virtual clock. Only
// the owning worker (or the coordinator, sequentially) touches anything
// but the mailbox; the mailbox receives cross-shard events under its
// mutex during parallel windows and is merged at barriers.
type shardState struct {
	now    Time
	curDom int32
	// curEvDom/curSeq are the dispatching event's ordering-key halves
	// (scheduling domain and per-domain sequence number) — together with
	// now they reproduce the full deterministic event key for observers
	// (EventKey). Zero outside dispatch.
	curEvDom int32
	curSeq   uint64
	events   eventQueue
	executed uint64
	inboxMu  sync.Mutex
	inbox    []event
	_        [64]byte // keep adjacent shards off one cache line
}

func (sh *shardState) next() Time {
	if sh.events.len() == 0 {
		return timeMax
	}
	return sh.events.peek().at
}

// dispatch runs one popped event in this shard's context.
func (sh *shardState) dispatch(ev event) {
	sh.now = ev.at
	sh.curDom = ev.tgt
	sh.curEvDom = ev.dom
	sh.curSeq = ev.seq
	sh.executed++
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.fnA != nil:
		ev.fnA(ev.arg)
	case ev.sig != nil:
		ev.sig.Fire(ev.val)
	}
}

// runWindow dispatches every event strictly below end, including events
// the callbacks schedule into the same window.
func (sh *shardState) runWindow(end Time) {
	for sh.events.len() > 0 && sh.events.peek().at < end {
		sh.dispatch(sh.events.pop())
	}
	sh.curDom = HostDomain
}

// group is the engine state shared by every per-domain view.
type group struct {
	shards    []shardState
	lookahead Time
	shardOf   func(domain int) int

	// Per-domain sequence counters and shard bindings, indexed dom+1 so
	// HostDomain (-1) lands at slot 0. A slot is written only by the
	// owning domain's shard worker (or the coordinator), never two
	// workers at once.
	domSeq   []uint64
	domShard []int32
	domView  []*Engine

	// Parallel-window state. winActive/windowEnd are written by the
	// coordinator while all workers are parked, read by workers inside
	// the window (the wake channel send is the happens-before edge).
	winActive bool
	windowEnd Time

	// windowHook, when set, observes every conservative window barrier:
	// called from the coordinator (workers parked) with the window's
	// [start, horizon) bounds and the number of shards about to run. A
	// nil hook costs one pointer compare per window. Window geometry is
	// inherently shard-count-dependent, so observers must keep barrier
	// records out of any cross-shard-count determinism comparison.
	windowHook func(start, horizon Time, active int)

	wake    []chan Time
	done    chan int
	started bool
	active  []int
}

// Engine is a per-domain view of the scheduler: Now() reads the domain's
// shard clock and At/After target the domain (so the callback runs on —
// and as — that domain). The view returned by New/NewSharded is the host
// view (domain -1, shard 0); Domain() derives node views. The zero value
// is not usable; call New or NewSharded.
type Engine struct {
	g     *group
	dom   int32
	shard int32
}

// New returns a single-shard engine at time zero.
func New() *Engine { return NewSharded(1) }

// NewSharded returns an engine whose event queue is partitioned into
// shards parallel shards. With shards == 1 it behaves exactly like New.
// Domains are bound to shards by SetShardOf (default: everything on
// shard 0); cross-shard scheduling requires a lookahead (SetLookahead or
// ProposeLookahead) and runs in conservative parallel windows.
func NewSharded(shards int) *Engine {
	if shards < 1 {
		panic("sim: shard count must be >= 1")
	}
	g := &group{
		shards:   make([]shardState, shards),
		domSeq:   make([]uint64, 1),
		domShard: make([]int32, 1),
		domView:  make([]*Engine, 1),
		active:   make([]int, 0, shards),
	}
	for i := range g.shards {
		g.shards[i].curDom = HostDomain
	}
	root := &Engine{g: g, dom: HostDomain, shard: 0}
	g.domView[0] = root
	return root
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.g.shards) }

// DomainID returns this view's domain (HostDomain for the root view).
func (e *Engine) DomainID() int { return int(e.dom) }

// SetShardOf installs the domain→shard placement policy. It must be
// called before any Domain views are created; changing the placement of
// live domains would break the single-writer ownership invariant.
func (e *Engine) SetShardOf(fn func(domain int) int) {
	if len(e.g.domView) > 1 {
		panic("sim: SetShardOf after Domain views exist")
	}
	e.g.shardOf = fn
}

// SetLookahead sets the conservative cross-shard lookahead: the minimum
// delay any cross-shard event is scheduled with. Parallel windows span
// exactly this much virtual time.
func (e *Engine) SetLookahead(l Time) { e.g.lookahead = l }

// ProposeLookahead lowers the lookahead to l if l is smaller than the
// current bound (or sets it if unset). Transports call this with their
// latency floor, so the engine ends up with the min over all fabrics.
func (e *Engine) ProposeLookahead(l Time) {
	if l <= 0 {
		return
	}
	if e.g.lookahead == 0 || l < e.g.lookahead {
		e.g.lookahead = l
	}
}

// Lookahead returns the configured cross-shard lookahead (0 = none; a
// multi-shard engine without lookahead runs sequentially merged).
func (e *Engine) Lookahead() Time { return e.g.lookahead }

// SetWindowHook installs an observer for conservative window barriers
// (nil to remove). The hook runs on the coordinator between barriers —
// never concurrently with shard workers — and must not schedule events.
func (e *Engine) SetWindowHook(fn func(start, horizon Time, active int)) {
	e.g.windowHook = fn
}

// Domain returns the view for domain d (creating it on first use), bound
// to the shard chosen by the SetShardOf policy. Views are cached: the
// same domain always yields the same *Engine.
func (e *Engine) Domain(d int) *Engine {
	g := e.g
	if d < 0 {
		return g.domView[0]
	}
	for len(g.domView) <= d+1 {
		g.domSeq = append(g.domSeq, 0)
		g.domShard = append(g.domShard, 0)
		g.domView = append(g.domView, nil)
	}
	if v := g.domView[d+1]; v != nil {
		return v
	}
	s := 0
	if g.shardOf != nil {
		s = g.shardOf(d)
	}
	if s < 0 || s >= len(g.shards) {
		panic(fmt.Sprintf("sim: shardOf(%d) = %d out of range [0,%d)", d, s, len(g.shards)))
	}
	v := &Engine{g: g, dom: int32(d), shard: int32(s)}
	g.domShard[d+1] = int32(s)
	g.domView[d+1] = v
	return v
}

// Now returns the current virtual time of this view's shard. During a
// parallel window shards advance independently; after Run returns every
// shard clock is normalized to the global maximum.
func (e *Engine) Now() Time { return e.g.shards[e.shard].now }

// EventKey returns the ordering key (time, scheduling domain, sequence)
// of the event this view's shard is currently dispatching. The key is
// assigned identically at every shard count and is identical across
// engines (virtual-time behavior is engine-invariant by contract), so it
// is a stable, deterministic identity for anything derived from the
// currently running event — trace span IDs in particular. From host
// context (outside any dispatch) it returns the shard's resting state:
// all zeros before the first Run, the last dispatched key after.
func (e *Engine) EventKey() (at Time, dom int32, seq uint64) {
	sh := &e.g.shards[e.shard]
	return sh.now, sh.curEvDom, sh.curSeq
}

// Executed returns the number of events dispatched so far, across all
// shards. Host-context only while workers are parked.
func (e *Engine) Executed() uint64 {
	var n uint64
	for i := range e.g.shards {
		n += e.g.shards[i].executed
	}
	return n
}

// schedule assigns the ordering key and routes the event to the target
// domain's shard. The scheduling-domain half of the key comes from the
// calling context: the domain the caller's shard is currently
// dispatching, or HostDomain when idle.
func (e *Engine) schedule(at Time, fn func(), fnA func(any), arg any, sig *Signal, val uint64, tgt int32) {
	g := e.g
	src := &g.shards[e.shard]
	dom := src.curDom
	seq := g.domSeq[dom+1]
	g.domSeq[dom+1] = seq + 1
	ev := event{at: at, seq: seq, fn: fn, fnA: fnA, arg: arg, sig: sig, val: val, dom: dom, tgt: tgt}
	ts := g.domShard[tgt+1]
	dst := &g.shards[ts]
	if ts == e.shard || !g.winActive {
		if at < dst.now {
			panic(fmt.Sprintf("sim: scheduling at %v, before now %v", at, dst.now))
		}
		dst.events.push(ev)
		return
	}
	// Cross-shard during a parallel window: the conservative horizon is
	// the only thing standing between us and a causality violation.
	if at < g.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard event at %v below horizon %v (lookahead %v violated)",
			at, g.windowEnd, g.lookahead))
	}
	dst.inboxMu.Lock()
	dst.inbox = append(dst.inbox, ev)
	dst.inboxMu.Unlock()
}

// At schedules fn at absolute virtual time t, executing as this view's
// domain. Scheduling in the past is a programming error and panics (it
// would silently break causality).
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, fn, nil, nil, nil, 0, e.dom)
}

// After schedules fn d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.g.shards[e.shard].now+d, fn)
}

// AtFire schedules s.Fire(v) at absolute time t without allocating a
// closure — the completion-event fast path for transport layers.
func (e *Engine) AtFire(t Time, s *Signal, v uint64) {
	e.schedule(t, nil, nil, nil, s, v, e.dom)
}

// AtCall schedules fn(arg) at absolute time t without allocating: a
// func value and a pointer arg both fit an interface word, so hot paths
// can carry per-event state through a memoized handler.
func (e *Engine) AtCall(t Time, fn func(any), arg any) {
	e.schedule(t, nil, fn, arg, nil, 0, e.dom)
}

// AfterCall schedules fn(arg) d after the current time, allocation-free.
func (e *Engine) AfterCall(d Time, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.AtCall(e.g.shards[e.shard].now+d, fn, arg)
}

// AtDomainCall schedules fn(arg) at absolute time t, executing as domain
// tgt — the cross-shard scheduling primitive used by the fabric to land
// arrival events on the destination node's shard. During a parallel
// window t must be at or beyond the conservative horizon.
func (e *Engine) AtDomainCall(tgt int, t Time, fn func(any), arg any) {
	g := e.g
	if tgt < -1 || tgt+1 >= len(g.domShard) {
		panic(fmt.Sprintf("sim: AtDomainCall to unregistered domain %d", tgt))
	}
	e.schedule(t, nil, fn, arg, nil, 0, int32(tgt))
}

// minNextKey returns the shard holding the globally smallest pending
// event by the full (at, dom, seq) key, or -1 when every queue is empty.
func (g *group) minNextKey() int {
	best := -1
	for i := range g.shards {
		q := &g.shards[i].events
		if q.len() == 0 {
			continue
		}
		if best == -1 || keyLess(q.peek(), g.shards[best].events.peek()) {
			best = i
		}
	}
	return best
}

// Step dispatches the single next event in global key order; it reports
// false when every queue is empty. With multiple shards this is the
// sequential merged executor — bit-identical to windowed parallel runs.
func (e *Engine) Step() bool {
	g := e.g
	if len(g.shards) == 1 {
		sh := &g.shards[0]
		if sh.events.len() == 0 {
			return false
		}
		sh.dispatch(sh.events.pop())
		return true
	}
	i := g.minNextKey()
	if i < 0 {
		return false
	}
	sh := &g.shards[i]
	sh.dispatch(sh.events.pop())
	sh.curDom = HostDomain
	return true
}

// Run dispatches events until every queue drains. A multi-shard engine
// with a configured lookahead runs conservative windows on parallel
// workers; without lookahead it falls back to the sequential merge.
func (e *Engine) Run() {
	g := e.g
	if len(g.shards) == 1 {
		sh := &g.shards[0]
		for sh.events.len() > 0 {
			sh.dispatch(sh.events.pop())
		}
		sh.curDom = HostDomain
		return
	}
	if g.lookahead > 0 {
		g.runWindows()
	} else {
		for e.Step() {
		}
	}
	g.normalizeClocks()
}

// normalizeClocks sets every shard clock to the global maximum so that
// host-context Now() is consistent no matter which view asks.
func (g *group) normalizeClocks() {
	var max Time
	for i := range g.shards {
		if g.shards[i].now > max {
			max = g.shards[i].now
		}
	}
	for i := range g.shards {
		g.shards[i].now = max
	}
}

// flushInboxes merges mailbox events into shard queues at a barrier.
// Event keys are unique and the queue pops in key order whatever the
// push order, so arrival order into the mailbox is irrelevant.
func (g *group) flushInboxes() {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.inboxMu.Lock()
		for i := range sh.inbox {
			ev := sh.inbox[i]
			if ev.at < sh.now {
				panic(fmt.Sprintf("sim: mailbox event at %v, before shard now %v", ev.at, sh.now))
			}
			sh.events.push(ev)
			sh.inbox[i] = event{} // drop references while the slot is parked
		}
		sh.inbox = sh.inbox[:0]
		sh.inboxMu.Unlock()
	}
}

// startWorkers lazily spawns one parked worker per shard beyond the
// first; the coordinator always runs one active shard inline.
func (g *group) startWorkers() {
	if g.started {
		return
	}
	g.started = true
	g.wake = make([]chan Time, len(g.shards))
	g.done = make(chan int, len(g.shards))
	for i := 1; i < len(g.shards); i++ {
		g.wake[i] = make(chan Time, 1)
		go func(idx int) {
			for end := range g.wake[idx] {
				g.shards[idx].runWindow(end)
				g.done <- idx
			}
		}(i)
	}
}

// runWindows is the conservative parallel loop: T = global min pending
// time, horizon H = T + lookahead; every shard with work below H runs
// its window concurrently, then mailboxes merge at the barrier.
func (g *group) runWindows() {
	g.startWorkers()
	for {
		g.flushInboxes()
		T := timeMax
		for i := range g.shards {
			if n := g.shards[i].next(); n < T {
				T = n
			}
		}
		if T == timeMax {
			return
		}
		end := T + g.lookahead
		act := g.active[:0]
		for i := range g.shards {
			if g.shards[i].next() < end {
				act = append(act, i)
			}
		}
		g.active = act
		if g.windowHook != nil {
			g.windowHook(T, end, len(act))
		}
		g.winActive = true
		g.windowEnd = end
		if len(act) == 1 || act[0] != 0 {
			// Run the first active shard inline on the coordinator;
			// shard 0 has no worker so it must always run here.
			inline := act[0]
			for _, s := range act[1:] {
				if s == 0 {
					inline = 0
					break
				}
			}
			woken := 0
			for _, s := range act {
				if s != inline {
					g.wake[s] <- end
					woken++
				}
			}
			g.shards[inline].runWindow(end)
			for ; woken > 0; woken-- {
				<-g.done
			}
		} else {
			for _, s := range act[1:] {
				g.wake[s] <- end
			}
			g.shards[0].runWindow(end)
			for range act[1:] {
				<-g.done
			}
		}
		g.winActive = false
	}
}

// RunUntil dispatches events with time ≤ t (in global key order), then
// sets every shard clock to t.
func (e *Engine) RunUntil(t Time) {
	g := e.g
	for {
		best := g.minNextKey()
		if best < 0 || g.shards[best].events.peek().at > t {
			break
		}
		sh := &g.shards[best]
		sh.dispatch(sh.events.pop())
		sh.curDom = HostDomain
	}
	for i := range g.shards {
		if g.shards[i].now < t {
			g.shards[i].now = t
		}
	}
}

// Pending returns the number of queued events across shards and
// mailboxes. Host-context only while workers are parked.
func (e *Engine) Pending() int {
	n := 0
	for i := range e.g.shards {
		n += e.g.shards[i].events.len() + len(e.g.shards[i].inbox)
	}
	return n
}

// Proc is a cooperatively scheduled process: a goroutine that runs only
// when the engine hands it control and always returns control at a
// blocking point (Sleep/Await) or on completion.
type Proc struct {
	Name string
	eng  *Engine

	resume chan struct{}
	parked chan struct{}
	done   bool
}

// Go spawns a process. Body runs in its own goroutine but is scheduled
// deterministically: it starts at the current virtual time (after already
// queued events at the same timestamp), executing as this view's domain.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{Name: name, eng: e, resume: make(chan struct{}), parked: make(chan struct{})}
	go func() {
		<-p.resume
		body(p)
		p.done = true
		p.parked <- struct{}{}
	}()
	e.After(0, p.dispatch)
	return p
}

// dispatch transfers control to the process until its next yield. Must
// only be called from engine context (an event callback).
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.parked
}

// yield parks the process and returns control to the engine. Must only be
// called from the process goroutine.
func (p *Proc) yield() {
	p.parked <- struct{}{}
	<-p.resume
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Now returns the engine clock (valid from process context while
// running).
func (p *Proc) Now() Time { return p.eng.Now() }

// Engine returns the owning engine view.
func (p *Proc) Engine() *Engine { return p.eng }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.eng.After(d, p.dispatch)
	p.yield()
}

// Await suspends the process until the signal fires; it returns the
// signal's value. Awaiting an already fired signal returns immediately
// without yielding time.
func (p *Proc) Await(s *Signal) uint64 {
	if s.fired {
		return s.value
	}
	s.subscribe(func() { p.dispatch() })
	p.yield()
	return s.value
}

// Signal is a one-shot event with an optional value — the completion
// object used for network operations (like a UCX request handle).
// Signals are domain-local: creating on one shard and firing from
// another is a race and (being a sub-lookahead interaction) is outside
// the conservative protocol.
type Signal struct {
	eng   *Engine
	fired bool
	value uint64
	subs  []func()
}

// NewSignal creates a signal owned by this view's domain.
func (e *Engine) NewSignal() *Signal { return &Signal{eng: e} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Value returns the fired value (zero before firing).
func (s *Signal) Value() uint64 { return s.value }

// Fire marks the signal complete and schedules all waiters at the current
// time. Firing twice panics: completions are one-shot.
func (s *Signal) Fire(v uint64) {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	s.value = v
	for _, fn := range s.subs {
		s.eng.After(0, fn)
	}
	s.subs = nil
}

// OnFire registers a callback to run when the signal fires (immediately
// scheduled if already fired).
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		s.eng.After(0, fn)
		return
	}
	s.subscribe(fn)
}

func (s *Signal) subscribe(fn func()) { s.subs = append(s.subs, fn) }

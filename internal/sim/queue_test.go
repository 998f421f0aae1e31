package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// key is an event's ordering key as these tests compute it themselves,
// without asking the queue.
type key struct {
	at  Time
	dom int32
	seq uint64
}

func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

func sortedKeys(ks []key) []key {
	out := append([]key(nil), ks...)
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

func diffKeys(t *testing.T, what string, got, want []key) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dispatched %d events, scheduled %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: dispatch %d is %+v, sorted schedule has %+v", what, i, got[i], want[i])
		}
	}
}

// TestEventQueueKeyOrder checks dispatch order against an independent
// sort of every scheduled (at, dom, seq) key: directly on the queue,
// and through the engine at 1, 2 and 4 shards with monotone bursts from
// HostDomain, out-of-order pushes that interleave with the lane,
// same-time ties across domains, events scheduled from callbacks and
// mailbox merges in shuffled order. Every event is scheduled strictly
// after the one dispatching it, so the dispatch sequence of each shard
// must be exactly the sorted set of keys scheduled onto it.
func TestEventQueueKeyOrder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("queue/seed=%d", seed), func(t *testing.T) {
			queueKeyOrder(t, seed)
		})
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("engine/shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				engineKeyOrder(t, seed, shards)
			})
		}
	}
}

// queueKeyOrder drives an eventQueue with seeded rounds of pushes and
// pops. Pushed keys always lie above the last popped key, as they do in
// a simulation, so the pops must come out as the sorted push set.
func queueKeyOrder(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const doms = 6
	var (
		q      eventQueue
		seq    [doms + 1]uint64 // per scheduling domain, indexed dom+1
		now    Time
		pushed []key
		popped []key
	)
	push := func(at Time, dom int32) {
		k := key{at, dom, seq[dom+1]}
		seq[dom+1]++
		pushed = append(pushed, k)
		q.push(event{at: k.at, dom: k.dom, seq: k.seq})
	}
	for round := 0; round < 200; round++ {
		switch rng.Intn(4) {
		case 0: // monotone burst from HostDomain
			base := now + Time(1+rng.Intn(50))
			for i := 0; i < 1+rng.Intn(300); i++ {
				push(base+Time(i*(1+rng.Intn(3))), HostDomain)
			}
		case 1: // out-of-order pushes interleaved with an ascending run
			base := now + Time(1+rng.Intn(50))
			for i := 0; i < 1+rng.Intn(100); i++ {
				push(base+Time(3*i), HostDomain)
				if rng.Intn(3) == 0 {
					push(now+1+Time(rng.Intn(3*i+1)), int32(rng.Intn(doms)))
				}
			}
		case 2: // same-time ties across domains
			at := now + Time(1+rng.Intn(20))
			for i := 0; i < 1+rng.Intn(20); i++ {
				push(at, int32(rng.Intn(doms+1)-1))
			}
		case 3: // a shuffled mailbox merge
			var batch []key
			for i := 0; i < 1+rng.Intn(64); i++ {
				d := int32(rng.Intn(doms+1) - 1)
				batch = append(batch, key{now + Time(1+rng.Intn(200)), d, seq[d+1]})
				seq[d+1]++
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for _, k := range batch {
				pushed = append(pushed, k)
				q.push(event{at: k.at, dom: k.dom, seq: k.seq})
			}
		}
		for n := rng.Intn(q.len() + 1); n > 0; n-- {
			if p := q.peek(); p.at < now {
				t.Fatalf("peek at %d ps is below the last pop at %d ps", p.at, now)
			}
			ev := q.pop()
			now = ev.at
			popped = append(popped, key{ev.at, ev.dom, ev.seq})
		}
	}
	for q.len() > 0 {
		ev := q.pop()
		popped = append(popped, key{ev.at, ev.dom, ev.seq})
	}
	diffKeys(t, "queue", popped, sortedKeys(pushed))
}

// orderWorld is a seeded event storm over doms domains on a sharded
// engine. It mirrors the engine's key assignment on its own: a schedule
// call made while domain d dispatches (or from the host) gets key
// (at, d, d's next sequence number).
type orderWorld struct {
	eng    *Engine
	views  []*Engine // indexed dom+1; slot 0 is the host view
	shards int
	L      Time
	// Indexed by scheduling domain (dom+1); written only while that
	// domain dispatches, so only from its shard.
	seq    []uint64
	posted [][]posting
	rng    []*rand.Rand
	budget []int
	// got[s] is the key sequence shard s dispatched, in order.
	got [][]key
}

type posting struct {
	k     key
	shard int
}

func newOrderWorld(seed int64, shards, doms int) *orderWorld {
	w := &orderWorld{shards: shards, L: 100 * Nanosecond}
	w.eng = NewSharded(shards)
	w.eng.SetShardOf(func(d int) int { return d % shards })
	w.eng.SetLookahead(w.L)
	w.views = append(w.views, w.eng)
	for d := 0; d < doms; d++ {
		w.views = append(w.views, w.eng.Domain(d))
	}
	w.seq = make([]uint64, doms+1)
	w.posted = make([][]posting, doms+1)
	w.budget = make([]int, doms+1)
	for i := range w.views {
		w.rng = append(w.rng, rand.New(rand.NewSource(seed*1000+int64(i))))
		w.budget[i] = 400
	}
	w.got = make([][]key, shards)
	return w
}

func (w *orderWorld) shardOf(dom int) int {
	if dom < 0 {
		return 0
	}
	return dom % w.shards
}

// post schedules one event from domain from onto domain tgt at at.
func (w *orderWorld) post(from, tgt int, at Time) {
	k := key{at, int32(from), w.seq[from+1]}
	w.seq[from+1]++
	w.posted[from+1] = append(w.posted[from+1], posting{k, w.shardOf(tgt)})
	if tgt == from {
		w.views[from+1].AtCall(at, w.fire, tgt)
	} else {
		w.views[from+1].AtDomainCall(tgt, at, w.fire, tgt)
	}
}

// fire records the dispatched key and, while the domain's budget lasts,
// schedules more work from the callback. Cross-domain events land at
// least one lookahead ahead; local ones at least a picosecond ahead, so
// every new key sorts after the running event. Times sit on a 1 ns grid
// to make same-time ties across domains common.
func (w *orderWorld) fire(arg any) {
	dom := arg.(int)
	v := w.views[dom+1]
	at, edom, eseq := v.EventKey()
	s := w.shardOf(dom)
	w.got[s] = append(w.got[s], key{at, edom, eseq})
	if dom < 0 || w.budget[dom+1] <= 0 {
		return
	}
	rng := w.rng[dom+1]
	doms := len(w.views) - 1
	now := v.Now()
	switch rng.Intn(3) {
	case 0: // a NIC burst: monotone sends to one peer
		peer, n, gap := rng.Intn(doms), 1+rng.Intn(24), Time(1+rng.Intn(3))*Nanosecond
		for i := 0; i < n; i++ {
			w.post(dom, peer, now+w.L+Time(i)*gap)
		}
		w.budget[dom+1] -= n
	case 1: // local follow-ups
		for i := 0; i < 1+rng.Intn(3); i++ {
			w.post(dom, dom, now+Time(1+rng.Intn(5))*Nanosecond)
			w.budget[dom+1]--
		}
	case 2: // same-time sends to two peers
		at := now + w.L + Time(rng.Intn(3))*Nanosecond
		w.post(dom, rng.Intn(doms), at)
		w.post(dom, rng.Intn(doms), at)
		w.budget[dom+1] -= 2
	}
}

func engineKeyOrder(t *testing.T, seed int64, shards int) {
	const doms = 8
	w := newOrderWorld(seed, shards, doms)
	rng := rand.New(rand.NewSource(seed))
	// A monotone burst from HostDomain with out-of-order pushes between
	// its sends; a few target the host itself.
	for i := 0; i < 320; i++ {
		w.post(HostDomain, rng.Intn(doms+1)-1, Time(i)*Nanosecond)
		if i%3 == 0 {
			w.post(HostDomain, rng.Intn(doms), Time(rng.Intn(i+1))*Nanosecond)
		}
	}
	// Mailbox merges in shuffled order: with a window open, host sends
	// to other shards park in their mailboxes, which are shuffled before
	// Run merges them at its first barrier.
	w.eng.g.winActive = true
	for i := 0; i < 64; i++ {
		w.post(HostDomain, rng.Intn(doms), Time(rng.Intn(400))*Nanosecond)
	}
	w.eng.g.winActive = false
	parked := 0
	for i := range w.eng.g.shards {
		in := w.eng.g.shards[i].inbox
		rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		parked += len(in)
	}
	if shards > 1 && parked == 0 {
		t.Fatal("no host send parked in a mailbox")
	}
	w.eng.Run()

	want := make([][]key, shards)
	total := 0
	for _, ps := range w.posted {
		for _, p := range ps {
			want[p.shard] = append(want[p.shard], p.k)
			total++
		}
	}
	for s := range want {
		diffKeys(t, fmt.Sprintf("shard %d", s), w.got[s], sortedKeys(want[s]))
	}
	if got := w.eng.Executed(); got != uint64(total) {
		t.Fatalf("executed %d events, scheduled %d", got, total)
	}
}

// TestEventLaneCapacityBounded pins the lane's memory to its occupancy:
// a 1M-event stream that keeps K events in key order pending (plus
// out-of-order stragglers on the heap) leaves the ring at no more than
// 2K slots, however many events pass through it.
func TestEventLaneCapacityBounded(t *testing.T) {
	const K = 100
	const events = 1 << 20
	e := New()
	left := events
	straggler := func(any) {}
	var fire func(any)
	fire = func(any) {
		left--
		if left >= K {
			e.AfterCall(K*Nanosecond, fire, nil)
		}
		if left%7 == 0 {
			e.AfterCall(1, straggler, nil)
		}
	}
	for i := 0; i < K; i++ {
		e.AtCall(Time(i)*Nanosecond, fire, nil)
	}
	e.Run()
	if left != 0 {
		t.Fatalf("stream dispatched %d of %d events", events-left, events)
	}
	if c := len(e.g.shards[0].events.lane); c > 2*K || c < K {
		t.Fatalf("lane ring holds %d slots after a stream of occupancy %d, want [%d, %d]", c, K, K, 2*K)
	}
}

// BenchmarkEventQueue times schedule plus dispatch per event on a
// single-shard engine. burst-256 is the TSI stream shape: a monotone
// burst of 256 sends into a node, each arrival scheduling a NIC-hop
// event that lands behind the burst's tail. random-1k schedules 1024
// events at pseudo-random times.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("burst-256", func(b *testing.B) {
		const burst = 256
		e := New()
		node := e.Domain(0)
		n := 0
		done := func(any) { n++ }
		arrive := func(any) {
			n++
			node.AfterCall(600*Nanosecond, done, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := e.Now()
			for j := 0; j < burst; j++ {
				e.AtDomainCall(0, now+Time(j)*40*Nanosecond, arrive, nil)
			}
			e.Run()
		}
		reportPerEvent(b, n, 2*burst)
	})
	b.Run("random-1k", func(b *testing.B) {
		const events = 1024
		e := New()
		n := 0
		fire := func(any) { n++ }
		var x uint64 = 1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := e.Now()
			for j := 0; j < events; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				e.AtCall(now+Time(x>>44), fire, nil)
			}
			e.Run()
		}
		reportPerEvent(b, n, events)
	})
}

func reportPerEvent(b *testing.B, n, perOp int) {
	if n != b.N*perOp {
		b.Fatalf("dispatched %d events, want %d", n, b.N*perOp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
}

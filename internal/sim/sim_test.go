package sim

import (
	"fmt"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.After(30*Nanosecond, func() { order = append(order, 3) })
	e.After(10*Nanosecond, func() { order = append(order, 1) })
	e.After(20*Nanosecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.After(Microsecond, func() {
		hits = append(hits, e.Now())
		e.After(Microsecond, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != Microsecond || hits[1] != 2*Microsecond {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.After(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.After(Microsecond, func() { fired++ })
	e.After(3*Microsecond, func() { fired++ })
	e.RunUntil(2 * Microsecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*Microsecond {
		t.Fatalf("clock = %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wake []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			wake = append(wake, p.Now())
		}
	})
	e.Run()
	if len(wake) != 3 || wake[0] != 10*Microsecond || wake[2] != 30*Microsecond {
		t.Fatalf("wake = %v", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	runOnce := func() []string {
		e := New()
		var trace []string
		for _, name := range []string{"a", "b"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(Microsecond)
				}
			})
		}
		e.Run()
		return trace
	}
	first := runOnce()
	for i := 0; i < 10; i++ {
		got := runOnce()
		if len(got) != len(first) {
			t.Fatalf("trace lengths differ")
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d differs at %d: %v vs %v", i, j, got, first)
			}
		}
	}
}

func TestSignalAwait(t *testing.T) {
	e := New()
	sig := e.NewSignal()
	var got uint64
	var when Time
	e.Go("waiter", func(p *Proc) {
		got = p.Await(sig)
		when = p.Now()
	})
	e.After(7*Microsecond, func() { sig.Fire(99) })
	e.Run()
	if got != 99 || when != 7*Microsecond {
		t.Fatalf("got %d at %v", got, when)
	}
}

func TestAwaitFiredSignalReturnsImmediately(t *testing.T) {
	e := New()
	sig := e.NewSignal()
	sig.Fire(5)
	var when Time
	e.Go("late", func(p *Proc) {
		if v := p.Await(sig); v != 5 {
			t.Errorf("value = %d", v)
		}
		when = p.Now()
	})
	e.Run()
	if when != 0 {
		t.Fatalf("await of fired signal advanced time to %v", when)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := New()
	sig := e.NewSignal()
	sig.Fire(1)
	defer func() {
		if recover() == nil {
			t.Error("double fire did not panic")
		}
	}()
	sig.Fire(2)
}

func TestOnFire(t *testing.T) {
	e := New()
	sig := e.NewSignal()
	count := 0
	sig.OnFire(func() { count++ })
	sig.OnFire(func() { count++ })
	e.After(Microsecond, func() { sig.Fire(0) })
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
	// Late subscription on a fired signal still runs.
	sig.OnFire(func() { count++ })
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestManyProcsManyEvents(t *testing.T) {
	e := New()
	total := 0
	for i := 0; i < 50; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Sleep(Time(1+j) * Nanosecond)
				total++
			}
		})
	}
	e.Run()
	if total != 50*20 {
		t.Fatalf("total = %d", total)
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		t Time
		s string
	}{
		{500 * Nanosecond, "500ns"},
		{2500 * Nanosecond, "2.500µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.s {
			t.Errorf("%d ps = %q, want %q", int64(c.t), got, c.s)
		}
	}
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Error("FromSeconds wrong")
	}
	if FromNanos(2.5) != 2500*Picosecond {
		t.Error("FromNanos wrong")
	}
}

// TestScheduleAllocFree pins the event pool: scheduling and dispatching
// events in steady state (queue storage warm) allocates nothing. Events
// are stored by value in the reused heap array and lane ring, with no
// container/heap interface boxing, and AtFire/AtCall events carry no
// closure. The warm burst is the TSI stream shape: a monotone run of
// sends through the lane with out-of-order pushes onto the heap.
func TestScheduleAllocFree(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the heap backing array past any size this test reaches.
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	e.Run()

	cycle := func() {
		e.At(e.Now()+1, fn)
		e.At(e.Now()+2, fn)
		e.At(e.Now()+1, fn)
		for e.Step() {
		}
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs > 0 {
		t.Errorf("warm schedule+dispatch allocates %.2f objects/op, want 0", allocs)
	}

	const burst = 512
	fnA := func(any) {}
	burstCycle := func() {
		now := e.Now()
		for i := 1; i <= burst; i++ {
			e.AtCall(now+Time(i)*Nanosecond, fnA, nil)
			if i%8 == 0 {
				// Below the lane's tail: goes to the heap.
				e.AtCall(now+Time(i/2)*Nanosecond+1, fnA, nil)
			}
		}
		for e.Step() {
		}
	}
	burstCycle()
	if c := len(e.g.shards[0].events.lane); c < burst {
		t.Fatalf("monotone burst left the lane ring at %d slots, want >= %d", c, burst)
	}
	if allocs := testing.AllocsPerRun(50, burstCycle); allocs > 0 {
		t.Errorf("warm %d-event burst allocates %.2f objects/op, want 0", burst, allocs)
	}
}

// TestAtFireOrdering checks the closure-free fire event behaves exactly
// like an At(func(){ s.Fire(v) }) — same timestamp, same tie-break order
// relative to surrounding events, value delivered.
func TestAtFireOrdering(t *testing.T) {
	e := New()
	var order []string
	s := e.NewSignal()
	s.OnFire(func() { order = append(order, "sig") })
	e.At(5, func() { order = append(order, "before") })
	e.AtFire(5, s, 42)
	e.At(5, func() { order = append(order, "after") })
	e.Run()
	if s.Value() != 42 {
		t.Fatalf("signal value = %d, want 42", s.Value())
	}
	// Fire defers subscribers via After(0), so the subscriber lands after
	// the events already queued at t=5 — exactly like the closure form.
	want := "[before after sig]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

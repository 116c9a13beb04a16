package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestPendingExcludesCanceled is the regression test for the Pending
// accounting bug: canceled events used to stay counted until the queue
// drained past them, so idle-detection loops saw phantom work.
func TestPendingExcludesCanceled(t *testing.T) {
	e := NewEngine()
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.Schedule(Time(10+i), func() {})
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", e.Pending())
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d after two cancels, want 3", e.Pending())
	}
	evs[3].Cancel() // double cancel must not double-count
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d after double cancel, want 3", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", e.Pending())
	}
}

// TestCancelThenReschedule exercises slot reuse: a canceled event's arena
// slot is recycled for a new event, and the stale handle must not be able
// to cancel (or observe) the new occupant.
func TestCancelThenReschedule(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(10, func() { t.Fatal("canceled event fired") })
	stale.Cancel()
	// Drain the queue so the canceled slot returns to the free list.
	e.Run()
	fired := false
	fresh := e.Schedule(5, func() { fired = true })
	if stale.Cancel() {
		t.Fatal("stale handle canceled a recycled slot")
	}
	e.Run()
	if !fired {
		t.Fatal("rescheduled event did not fire (stale cancel hit it?)")
	}
	if fresh.Cancel() {
		t.Fatal("Cancel on a fired event returned true")
	}
}

// TestCancelWithinCallback cancels a same-timestamp successor from inside
// a running callback: the engine must skip it without firing.
func TestCancelWithinCallback(t *testing.T) {
	e := NewEngine()
	var victim Event
	canceledFired := false
	e.Schedule(10, func() { victim.Cancel() })
	victim = e.Schedule(10, func() { canceledFired = true })
	survived := false
	e.Schedule(10, func() { survived = true })
	e.Run()
	if canceledFired {
		t.Fatal("event canceled mid-timestamp still fired")
	}
	if !survived {
		t.Fatal("later same-timestamp event lost")
	}
}

// TestRunUntilAllCanceledPrefix verifies RunUntil advances the clock to
// its deadline even when every queued event ahead of it was canceled —
// the canceled prefix must be discarded, not treated as pending work.
func TestRunUntilAllCanceledPrefix(t *testing.T) {
	e := NewEngine()
	var evs []Event
	for _, d := range []Time{10, 20, 30} {
		evs = append(evs, e.Schedule(d, func() { t.Fatal("canceled event fired") }))
	}
	for _, ev := range evs {
		ev.Cancel()
	}
	fired := false
	e.Schedule(50, func() { fired = true })
	e.RunUntil(40)
	if e.Now() != 40 {
		t.Fatalf("Now() = %d after RunUntil(40), want 40", e.Now())
	}
	if fired {
		t.Fatal("event beyond the deadline fired")
	}
	e.RunUntil(60)
	if !fired {
		t.Fatal("surviving event did not fire")
	}
}

// TestEngineOrderVsReferenceSort is the event queue's order test: for
// random batches of delays (with duplicates), the firing order must match
// a stable sort of the schedule by (time, submission order).
func TestEngineOrderVsReferenceSort(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) > 512 {
			delays = delays[:512]
		}
		e := NewEngine()
		type rec struct {
			when Time
			id   int
		}
		var fired []rec
		want := make([]rec, len(delays))
		for i, d := range delays {
			i, at := i, Time(d%97) // force many equal timestamps
			want[i] = rec{at, i}
			e.ScheduleAt(at, func() { fired = append(fired, rec{e.Now(), i}) })
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].when < want[b].when })
		e.Run()
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRandomCancelProperty mixes random scheduling and cancellation
// and checks that exactly the surviving events fire, in order, and that
// Pending tracks the survivors at every step.
func TestEngineRandomCancelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var fired []int
		var want []int
		n := 1 + rng.Intn(200)
		evs := make([]Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.Schedule(Time(1+rng.Intn(50)), func() { fired = append(fired, i) })
		}
		live := n
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				if !evs[i].Cancel() {
					t.Fatal("Cancel on live event returned false")
				}
				live--
				evs[i] = Event{}
			}
		}
		if e.Pending() != live {
			t.Fatalf("Pending() = %d, want %d", e.Pending(), live)
		}
		type key struct {
			when Time
			id   int
		}
		var keys []key
		for i := 0; i < n; i++ {
			if evs[i] != (Event{}) {
				keys = append(keys, key{evs[i].When(), i})
			}
		}
		sort.SliceStable(keys, func(a, b int) bool {
			if keys[a].when != keys[b].when {
				return keys[a].when < keys[b].when
			}
			return keys[a].id < keys[b].id
		})
		for _, k := range keys {
			want = append(want, k.id)
		}
		e.Run()
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: order diverged at %d: got %v want %v", trial, i, fired, want)
			}
		}
	}
}

// TestScheduleArgNoAlloc pins the zero-allocation contract of the hot
// path: steady-state Schedule/ScheduleArg + Step must not allocate.
func TestScheduleArgNoAlloc(t *testing.T) {
	e := NewEngine()
	var sink int
	fn := func(a any) { sink += a.(int) }
	// Warm the arena and the free list.
	for i := 0; i < 100; i++ {
		e.ScheduleArg(1, fn, 1)
	}
	e.Run()
	arg := any(3) // boxed once, outside the measured loop
	// A prebuilt func() rides as the arg of the same event form.
	plain := func() { sink++ }
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(1, fn, arg)
		e.Schedule(2, plain)
		e.ScheduleAt(e.Now()+3, plain)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/ScheduleArg+Run allocates %.1f per op, want 0", allocs)
	}
}

// TestHeapProperty checks the two-tier event queue against a reference
// that keeps the pending events sorted by (when, seq). Each seeded run
// mixes outside schedules, reservations and cancels, Step, RunUntil and
// peeks, with callbacks that schedule 0, 1 or 2 events and sometimes
// cancel one, reserve a key, file a reserved one or peek before
// scheduling. Delays span several ring widths, so events queue in the far
// heap and migrate; some land on the last ring slot or the first far one;
// some are on a coarse grid, so far events tie with the events a callback
// schedules just as the base advances; cancels often hit the queue's
// head; and RunUntil sometimes jumps past the whole ring or stops exactly
// on a reserved key's time. Reserved keys are taken at the current
// instant or later and filed while the reference says they are ahead;
// some are filed behind the position (and must be refused by Ahead) and
// some never. The run counts where filed keys landed (a ring list's head,
// middle or tail, the far heap, the current instant) and fails if any
// case never happened.
func TestHeapProperty(t *testing.T) {
	type refEv struct {
		when Time
		seq  uint64
		ev   Event
	}
	const span = ringSlots << slotShift // cycles the ring covers
	var landed struct{ head, middle, tail, far, instant int }
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref []refEv // pending events in (when, seq) order
		var seq uint64
		var dormant []Key // reserved keys not yet filed or dropped
		var pos Key       // the reference firing position
		var maxReserved Time
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
		}
		keyLess := func(a, b Key) bool { return a.When < b.When || a.When == b.When && a.Seq < b.Seq }
		refInsert := func(k Key, ev Event) {
			i := sort.Search(len(ref), func(i int) bool { return keyLess(k, Key{ref[i].when, ref[i].seq}) })
			ref = slices.Insert(ref, i, refEv{k.When, k.Seq, ev})
		}
		var fire func(any)
		pickTime := func() Time {
			now := e.Now()
			at := now + Time(rng.Intn(40)) // narrow spread: many ties
			switch rng.Intn(8) {
			case 0: // anywhere in three ring widths
				at = now + Time(rng.Intn(3*span))
			case 1: // on a 1024-cycle grid, up to three ring widths out
				at = (now>>10 + 1 + Time(rng.Intn(48))) << 10
			case 2: // the last ring slot or the first far one
				if b := (e.base+ringSlots-1+Time(rng.Intn(2)))<<slotShift + Time(rng.Intn(1<<slotShift)); b >= now {
					at = b
				}
			case 3: // the current instant
				at = now
			}
			return at
		}
		schedule := func() {
			seq++
			at := pickTime()
			// seq exceeds every pending key's, so the event goes after
			// all others at the same time.
			refInsert(Key{at, seq}, e.ScheduleArgAt(at, fire, seq))
		}
		reserve := func() {
			seq++
			at := pickTime()
			k := e.Reserve(at)
			if k != (Key{at, seq}) {
				fail("Reserve(%d) = %+v, want seq %d", at, k, seq)
			}
			maxReserved = max(maxReserved, at)
			dormant = append(dormant, k)
		}
		file := func() {
			if len(dormant) == 0 {
				return
			}
			i := rng.Intn(len(dormant))
			k := dormant[i]
			dormant = slices.Delete(dormant, i, i+1)
			ahead := keyLess(pos, k)
			if e.Ahead(k) != ahead {
				fail("Ahead(%+v) = %v at position %+v", k, !ahead, pos)
			}
			if !ahead {
				return // it would have fired already: dropped
			}
			ev := e.ScheduleReserved(k, fire, k.Seq)
			refInsert(k, ev)
			switch li := int(k.When>>slotShift) & ringMask; {
			case k.When == e.Now():
				landed.instant++
			case k.When>>slotShift-e.base >= ringSlots:
				landed.far++
			case e.head[li] == ev.slot && e.tail[li] == ev.slot:
				// alone in its list: no order to get wrong
			case e.head[li] == ev.slot:
				landed.head++
			case e.tail[li] == ev.slot:
				landed.tail++
			default:
				landed.middle++
			}
		}
		cancel := func() {
			if len(ref) == 0 {
				return
			}
			i := rng.Intn(len(ref))
			if rng.Intn(2) == 0 {
				i = 0 // the head of the earliest slot
			}
			if !ref[i].ev.Cancel() {
				fail("Cancel of pending event %d returned false", ref[i].seq)
			}
			ref = slices.Delete(ref, i, i+1)
		}
		peek := func() {
			when, ok := e.peekWhen()
			if ok != (len(ref) > 0) || ok && when != ref[0].when {
				fail("peekWhen = (%d, %v) with %d pending, reference head %v", when, ok, len(ref), ref[:min(1, len(ref))])
			}
		}
		fire = func(a any) {
			id := a.(uint64)
			if len(ref) == 0 || ref[0].seq != id || ref[0].when != e.Now() {
				fail("fired event %d at %d, reference head %v", id, e.Now(), ref[:min(1, len(ref))])
			}
			ref = ref[1:]
			pos = Key{e.Now(), id}
			if e.Ahead(pos) || !e.Ahead(Key{pos.When, id + 1}) {
				fail("firing %+v: the position is not the firing event's key", pos)
			}
			if rng.Intn(4) == 0 {
				peek()
			}
			for k := rng.Intn(3); k > 0; k-- {
				schedule()
			}
			switch rng.Intn(5) {
			case 0:
				cancel()
			case 1:
				reserve()
			case 2:
				file()
			}
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(8) {
			case 0, 1:
				schedule()
			case 2:
				cancel()
			case 3:
				if had := len(ref) > 0; e.Step() != had {
					fail("Step disagrees with %d pending", len(ref))
				}
			case 4:
				limit := e.Now() + Time(rng.Intn(60))
				switch rng.Intn(8) {
				case 0:
					limit = e.Now() + Time(span+rng.Intn(2*span))
				case 1, 2: // stop on a reserved key's time
					if len(dormant) > 0 {
						limit = max(limit, dormant[rng.Intn(len(dormant))].When)
					}
				}
				e.RunUntil(limit)
				if e.Now() != limit || len(ref) > 0 && ref[0].when <= limit {
					fail("RunUntil(%d) left the clock at %d with head %v", limit, e.Now(), ref[:min(1, len(ref))])
				}
				// Everything at limit issued so far would have fired.
				pos = Key{limit, seq}
			case 5:
				peek()
			case 6:
				reserve()
			case 7:
				file()
			}
			if e.Pending() != len(ref) {
				fail("Pending() = %d, reference holds %d", e.Pending(), len(ref))
			}
			if e.base > e.Now()>>slotShift {
				fail("ring base slot %d passed now=%d", e.base, e.Now())
			}
		}
		e.Run()
		if len(ref) != 0 {
			fail("queue drained with %d reference events unfired", len(ref))
		}
		if want := max(pos.When, maxReserved); e.Now() != want {
			fail("drained Run left the clock at %d, want %d (last firing or latest reserved key)", e.Now(), want)
		}
		for _, k := range dormant {
			if e.Ahead(k) {
				fail("key %+v still ahead after the queue drained", k)
			}
		}
	}
	if landed.head == 0 || landed.middle == 0 || landed.tail == 0 || landed.far == 0 || landed.instant == 0 {
		t.Fatalf("reserved keys never filed in some position: %+v", landed)
	}
	t.Logf("reserved keys filed: %+v", landed)
}

// peekWhen returns the fire time of the earliest live event, collecting
// any canceled events sitting at the front of the queue.
func (e *Engine) peekWhen() (Time, bool) {
	slot, _, ok := e.front()
	if !ok {
		return 0, false
	}
	return e.recs[slot].when, true
}

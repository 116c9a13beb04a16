package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// trainFiring is one executed callback: the script id of the event or
// train, the firing's index within its train, and the clock.
type trainFiring struct {
	id, k int
	at    Time
}

// trainTag is the callback argument. A train's one tag counts its
// firings; an expanded train's n tags each carry a fixed index.
type trainTag struct {
	h     *trainHarness
	id, k int
}

// trainHarness drives one engine through a scripted mix of events and
// trains. With expand set, every train is scheduled as n separate
// ScheduleArgAt calls instead: the reference a real train must match
// firing for firing.
type trainHarness struct {
	e       *Engine
	expand  bool
	rng     *rand.Rand // draws made inside callbacks
	log     []trainFiring
	handles [][]Event // per script id: the train's handle, or the expansion's
}

func newTrainHarness(expand bool, seed int64) *trainHarness {
	return &trainHarness{e: NewEngine(), expand: expand, rng: rand.New(rand.NewSource(seed))}
}

func trainFire(a any) {
	tg := a.(*trainTag)
	h := tg.h
	h.log = append(h.log, trainFiring{tg.id, tg.k, h.e.Now()})
	if !h.expand {
		tg.k++
	}
	// Callbacks schedule and cancel too, so trains re-queue among events
	// created mid-firing. Both harnesses draw the same values as long as
	// their firing sequences agree.
	switch h.rng.Intn(8) {
	case 0:
		h.train(h.e.Now()+Time(h.rng.Intn(6)), Time(h.rng.Intn(4)), 1+h.rng.Intn(4))
	case 1:
		h.at(h.e.Now() + Time(h.rng.Intn(6)))
	case 2:
		h.cancel(h.rng.Intn(len(h.handles)))
	}
}

func (h *trainHarness) at(t Time) {
	id := len(h.handles)
	h.handles = append(h.handles, []Event{h.e.ScheduleArgAt(t, trainFire, &trainTag{h: h, id: id})})
}

func (h *trainHarness) train(first, step Time, n int) {
	id := len(h.handles)
	if !h.expand {
		h.handles = append(h.handles, []Event{h.e.ScheduleArgTrain(first, step, n, trainFire, &trainTag{h: h, id: id})})
		return
	}
	evs := make([]Event, n)
	for k := range evs {
		evs[k] = h.e.ScheduleArgAt(first+Time(k)*step, trainFire, &trainTag{h: h, id: id, k: k})
	}
	h.handles = append(h.handles, evs)
}

func (h *trainHarness) cancel(id int) bool {
	live := false
	for _, ev := range h.handles[id] {
		if ev.Cancel() {
			live = true
		}
	}
	return live
}

// pendingKeys lists the (time, seq) key of every firing still to come,
// expanding each queued train into its remaining firings.
func pendingKeys(e *Engine) []heapEnt {
	var keys []heapEnt
	for _, ent := range e.heap {
		r := &e.recs[ent.slot]
		if r.canceled {
			continue
		}
		for i := 0; i <= r.left; i++ {
			keys = append(keys, heapEnt{when: ent.when + Time(i)*r.step, seq: ent.seq + uint64(i)})
		}
	}
	slices.SortFunc(keys, func(a, b heapEnt) int {
		if entLess(a, b) {
			return -1
		}
		return 1
	})
	return keys
}

// TestTrainMatchesSeparateEvents is the train's property test: a seeded
// script mixing plain events, trains (n=1 and step=0 included), Cancel on
// events and on trains mid-flight, Step, and RunUntil limits that split
// trains must fire exactly as the same script with every train expanded
// into n ScheduleArgAt calls — and after every operation both engines
// must agree on Fired, Pending, the clock and the (time, seq) key of every
// firing still to come.
func TestTrainMatchesSeparateEvents(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			drv := rand.New(rand.NewSource(seed))
			got, ref := newTrainHarness(false, seed), newTrainHarness(true, seed)
			hs := []*trainHarness{got, ref}
			check := func(op string) {
				t.Helper()
				if !slices.Equal(got.log, ref.log) {
					t.Fatalf("after %s: firings diverged\n got %v\nwant %v", op, got.log, ref.log)
				}
				if got.e.Fired() != ref.e.Fired() || got.e.Pending() != ref.e.Pending() || got.e.Now() != ref.e.Now() {
					t.Fatalf("after %s: fired/pending/now = %d/%d/%d, reference %d/%d/%d", op,
						got.e.Fired(), got.e.Pending(), got.e.Now(), ref.e.Fired(), ref.e.Pending(), ref.e.Now())
				}
				if g, w := pendingKeys(got.e), pendingKeys(ref.e); !slices.Equal(g, w) {
					t.Fatalf("after %s: pending keys diverged\n got %v\nwant %v", op, g, w)
				}
			}
			for i := 0; i < 300; i++ {
				now := got.e.Now()
				switch op := drv.Intn(12); {
				case op < 3:
					at := now + Time(drv.Intn(30))
					for _, h := range hs {
						h.at(at)
					}
				case op < 6:
					first, n := now+Time(drv.Intn(30)), 1+drv.Intn(8)
					step := Time(drv.Intn(10))
					if drv.Intn(4) == 0 {
						step = 0
					}
					for _, h := range hs {
						h.train(first, step, n)
					}
				case op < 7:
					if len(got.handles) == 0 {
						continue
					}
					id := drv.Intn(len(got.handles))
					if g, w := got.cancel(id), ref.cancel(id); g != w {
						t.Fatalf("Cancel(%d) = %v, reference %v", id, g, w)
					}
				case op < 10:
					if g, w := got.e.Step(), ref.e.Step(); g != w {
						t.Fatalf("Step() = %v, reference %v", g, w)
					}
				default:
					limit := now + Time(drv.Intn(15))
					for _, h := range hs {
						h.e.RunUntil(limit)
					}
				}
				check(fmt.Sprintf("op %d", i))
			}
			for got.e.Pending() > 0 || ref.e.Pending() > 0 {
				got.e.Step()
				ref.e.Step()
				check("drain")
			}
			if len(got.log) == 0 {
				t.Fatal("nothing fired; the script exercised nothing")
			}
		})
	}
}

// TestGroupStats checks the window counters against a hand-computed
// schedule. With lookahead 10, shard 0 holds events at 0, 5 and 30,
// shard 1 at 3 and 12, and the global lane one at 15:
//   - window [0,10) runs both shards (0, 5 | 3);
//   - window [10,15) runs shard 1 (12), cut short by the global event;
//   - the global event at 15 runs between windows;
//   - window [30,40) runs shard 0 (30).
func TestGroupStats(t *testing.T) {
	g := NewGroup(GroupConfig{Shards: 2, Lookahead: 10, Workers: 1})
	nop := func() {}
	for _, at := range []Time{0, 5, 30} {
		g.Shard(0).ScheduleAt(at, nop)
	}
	for _, at := range []Time{3, 12} {
		g.Shard(1).ScheduleAt(at, nop)
	}
	g.Global().ScheduleAt(15, nop)
	g.Run()
	if got, want := g.Stats(), (GroupStats{Windows: 3, ShardWindows: 4, Fired: 6}); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}

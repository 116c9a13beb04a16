package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// stormRec is one executed event in a lookahead storm: the lane's clock at
// execution plus a tag identifying the event (chain step or cross arrival
// with its source shard).
type stormRec struct {
	t   Time
	tag int32
}

// runStorm drives a seeded random event storm across shards shards for the
// given worker count: every shard runs a self-chain from time zero, and at
// random steps posts a cross-shard event to its neighbour with delay
// lookahead+offset, where offset is drawn from offsets. It returns each
// lane's execution trace in order. Per-shard RNGs are seeded from seed and
// consumed only by that shard's chain, so the storm a given seed produces
// is a pure function of (shards, lookahead, offsets, seed) — identical at
// every worker count.
func runStorm(shards, workers int, lookahead Time, offsets []Time, seed uint64) [][]stormRec {
	g := NewGroup(GroupConfig{
		Shards:    shards,
		Lookahead: lookahead,
		Workers:   workers,
	})
	traces := make([][]stormRec, shards)
	rngs := make([]*Rand, shards)
	for s := 0; s < shards; s++ {
		rngs[s] = NewRand(seed + uint64(s)*1_000_003)
	}
	const steps = 400
	for s := 0; s < shards; s++ {
		s := s
		lane := g.Shard(s)
		var step func()
		n := 0
		step = func() {
			traces[s] = append(traces[s], stormRec{t: lane.Now(), tag: int32(n)})
			r := rngs[s].Uint64()
			if r%3 == 0 {
				// Cross-shard post: delay at the lookahead boundary or one
				// of the offered offsets past it.
				dst := g.Shard((s + 1) % shards)
				off := offsets[int(r/3)%len(offsets)]
				src := int32(s)
				lane.CrossAt(dst, lane.Now()+lookahead+off, func() {
					traces[(s+1)%shards] = append(traces[(s+1)%shards],
						stormRec{t: dst.Now(), tag: -1 - src})
				})
			}
			if n++; n < steps {
				// Keep hops short relative to the lookahead so chains from
				// different shards stay inside one another's windows — the
				// regime where ordering bugs would show.
				lane.Schedule(1+Time(r%7), step)
			}
		}
		lane.ScheduleAt(0, step)
	}
	g.Run()
	return traces
}

func stormWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestWindowedLookaheadBoundary is the conservative-window property test:
// random cross-shard storms whose deliveries land exactly at the lookahead
// edge (offset 0) and one cycle past it (offset 1) — the two legal
// extremes — must execute every event in nondecreasing timestamp order on
// every lane, and produce the exact same traces at every worker count.
func TestWindowedLookaheadBoundary(t *testing.T) {
	const shards = 4
	const lookahead = Time(50)
	offsets := []Time{0, 1}
	for _, seed := range []uint64{1, 42, 0xfeed} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ref [][]stormRec
			for _, w := range stormWorkerCounts() {
				traces := runStorm(shards, w, lookahead, offsets, seed)
				for lane, tr := range traces {
					for i := 1; i < len(tr); i++ {
						if tr[i].t < tr[i-1].t {
							t.Fatalf("workers=%d lane %d executed out of order: event %d at t=%d after t=%d",
								w, lane, i, tr[i].t, tr[i-1].t)
						}
					}
				}
				if ref == nil {
					ref = traces
					continue
				}
				for lane := range traces {
					if len(traces[lane]) != len(ref[lane]) {
						t.Fatalf("workers=%d lane %d trace length %d != reference %d",
							w, lane, len(traces[lane]), len(ref[lane]))
					}
					for i := range traces[lane] {
						if traces[lane][i] != ref[lane][i] {
							t.Fatalf("workers=%d lane %d event %d = %+v, reference %+v",
								w, lane, i, traces[lane][i], ref[lane][i])
						}
					}
				}
			}
		})
	}
}

// TestWindowedLookaheadViolationPanics plants a cross-shard delivery one
// cycle inside the window (delay = lookahead-1) and checks the drain
// barrier detects it: the receiving lane has already been parked at the
// window horizon, so the late message must trip the causality panic rather
// than execute behind the lane's frontier.
func TestWindowedLookaheadViolationPanics(t *testing.T) {
	for _, w := range stormWorkerCounts() {
		w := w
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			const lookahead = Time(50)
			g := NewGroup(GroupConfig{
				Shards:    2,
				Lookahead: lookahead,
				Workers:   w,
			})
			src, dst := g.Shard(0), g.Shard(1)
			// Both lanes have an event at t=0, so the window floor is 0 and
			// the horizon is exactly the lookahead: a delivery at
			// lookahead-1 lands behind the parked frontier with certainty.
			src.ScheduleAt(0, func() {
				src.CrossAt(dst, src.Now()+lookahead-1, func() {})
			})
			dst.ScheduleAt(0, func() {})
			defer func() {
				if recover() == nil {
					t.Fatal("lookahead violation went undetected: expected the drain barrier to panic")
				}
			}()
			g.Run()
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
//
// Then shard 0 fires parMinEvents events at 50, and both shards hold one
// event at 60 and one at 80:
//   - window [50,60) runs shard 0 alone, inline;
//   - window [60,70) runs both shards after a window of parMinEvents
//     events, so with helpers it is the one parallel window;
//   - window [80,90) runs both after a window of two events, inline.
func TestGroupStats(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewGroup(GroupConfig{Shards: 2, Lookahead: 10, Workers: workers})
		nop := func() {}
		for _, at := range []Time{0, 5, 30, 60, 80} {
			g.Shard(0).ScheduleAt(at, nop)
		}
		for i := 0; i < parMinEvents; i++ {
			g.Shard(0).ScheduleAt(50, nop)
		}
		for _, at := range []Time{3, 12, 60, 80} {
			g.Shard(1).ScheduleAt(at, nop)
		}
		g.Global().ScheduleAt(15, nop)
		g.Run()
		want := GroupStats{Windows: 6, ShardWindows: 9, Fired: 10 + parMinEvents}
		if workers > 1 {
			want.Parallel = 1
		}
		if got := g.Stats(); got != want {
			t.Fatalf("workers=%d: Stats() = %+v, want %+v", workers, got, want)
		}
	}
}

// runTrickleBurst drives 4 shards through a trickle of small windows, a
// burst, and a second trickle. Each shard's chain hops 300 cycles at a
// time (past the 250-cycle lookahead, so most windows hold one or two
// events) except during [10_000, 20_000), where it hops 1 cycle at a time
// and every shard fires about 250 events per window. Every 7th step posts
// to the next shard at the lookahead edge. It returns each lane's trace
// and the group's counters.
func runTrickleBurst(workers int) ([][]stormRec, GroupStats) {
	const shards, lookahead = 4, Time(250)
	g := NewGroup(GroupConfig{Shards: shards, Lookahead: lookahead, Workers: workers})
	traces := make([][]stormRec, shards)
	for s := 0; s < shards; s++ {
		s, lane := s, g.Shard(s)
		n := int32(0)
		var step func()
		step = func() {
			traces[s] = append(traces[s], stormRec{t: lane.Now(), tag: n})
			if n%7 == 0 {
				dst, src := (s+1)%shards, int32(s)
				lane.CrossAt(g.Shard(dst), lane.Now()+lookahead, func() {
					traces[dst] = append(traces[dst], stormRec{t: g.Shard(dst).Now(), tag: -1 - src})
				})
			}
			n++
			hop := Time(300)
			if now := lane.Now(); now >= 10_000 && now < 20_000 {
				hop = 1
			}
			if lane.Now() < 30_000 {
				lane.Schedule(hop, step)
			}
		}
		lane.ScheduleAt(Time(s*37), step)
	}
	g.Run()
	return traces, g.Stats()
}

// TestDispatchTrickleAndBurst: helpers take only the windows the dispatch
// rule picks, and which those are never changes the result. The fire
// traces and the window counts are identical at 1, 2 and 4 workers; no
// window goes parallel on 1 worker, and the burst's windows do on more.
func TestDispatchTrickleAndBurst(t *testing.T) {
	ref, refStats := runTrickleBurst(1)
	if refStats.Parallel != 0 {
		t.Fatalf("workers=1: %d parallel windows, want 0", refStats.Parallel)
	}
	if refStats.Fired < 4*10_000 {
		t.Fatalf("workers=1: fired %d events, want the burst's %d or more", refStats.Fired, 4*10_000)
	}
	for _, w := range []int{2, 4} {
		traces, st := runTrickleBurst(w)
		for lane := range traces {
			if !slices.Equal(traces[lane], ref[lane]) {
				t.Fatalf("workers=%d: lane %d trace differs from the 1-worker run", w, lane)
			}
		}
		if st.Parallel == 0 {
			t.Fatalf("workers=%d: no window went parallel on the burst (%+v)", w, st)
		}
		if st.Parallel >= st.Windows/2 {
			t.Fatalf("workers=%d: %d of %d windows went parallel; the trickle's should run inline", w, st.Parallel, st.Windows)
		}
		if st.Windows != refStats.Windows || st.ShardWindows != refStats.ShardWindows || st.Fired != refStats.Fired {
			t.Fatalf("workers=%d: stats %+v, 1-worker run %+v", w, st, refStats)
		}
	}
}

// TestHelperPanicReachesCaller: a panic in a shard event that a helper
// goroutine runs reaches Run's caller, with its value, once the window's
// barrier has passed, instead of killing the process. A warm-up window
// of parMinEvents events makes the next one parallel; in it the shard-0
// event waits until the shard-1 event has started, so the two run on
// different goroutines, and the shard-1 event panics.
func TestHelperPanicReachesCaller(t *testing.T) {
	g := NewGroup(GroupConfig{Shards: 2, Lookahead: 10, Workers: 2})
	nop := func() {}
	for i := 0; i < parMinEvents; i++ {
		g.Shard(0).ScheduleAt(0, nop)
	}
	started := make(chan struct{})
	overlapped := false
	g.Shard(0).ScheduleAt(20, func() {
		select {
		case <-started:
			overlapped = true
		case <-time.After(10 * time.Second):
		}
	})
	g.Shard(1).ScheduleAt(20, func() {
		close(started)
		panic("boom in shard 1")
	})
	defer func() {
		if v := recover(); v != "boom in shard 1" {
			t.Fatalf("recovered %v, want the shard-1 panic", v)
		}
		if !overlapped {
			t.Fatal("the shard events did not overlap: the window ran inline")
		}
		if st := g.Stats(); st.Parallel != 1 {
			t.Fatalf("Stats().Parallel = %d, want 1", st.Parallel)
		}
	}()
	g.Run()
}

// TestGroupRunUntilEndOfTime: a limit of ^Time(0) used to wrap the window
// horizon's limit+1 to 0, so no shard was ever active and the loop never
// ended.
func TestGroupRunUntilEndOfTime(t *testing.T) {
	g := NewGroup(GroupConfig{Shards: 2, Lookahead: 10, Workers: 1})
	fired := false
	g.Shard(0).ScheduleAt(5, func() { fired = true })
	done := make(chan struct{})
	go func() {
		g.RunUntil(^Time(0))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunUntil(^Time(0)) did not return")
	}
	if !fired || g.Shard(0).Now() != ^Time(0) {
		t.Fatalf("fired=%v, shard clock %d; want the event run and the clock at the limit", fired, g.Shard(0).Now())
	}
}

// TestGroupRunUntilStoppedKeepsClocks: a bounded group run that Stop ends
// early leaves each lane where its last window parked it, not at the
// limit, so the next Run fires the event still pending before the limit
// without any lane's clock going backwards.
func TestGroupRunUntilStoppedKeepsClocks(t *testing.T) {
	g := NewGroup(GroupConfig{Shards: 2, Lookahead: 10, Workers: 1})
	g.Shard(0).ScheduleAt(10, func() { g.Shard(0).Stop() })
	var at Time
	g.Shard(1).ScheduleAt(20, func() { at = g.Shard(1).Now() })
	g.RunUntil(100)
	clocks := make([]Time, len(g.all))
	for i, e := range g.all {
		clocks[i] = e.Now()
		if clocks[i] > 20 {
			t.Fatalf("lane %d clock %d after a run stopped at 10; the event at 20 is still pending", i, clocks[i])
		}
	}
	g.Run()
	if at != 20 {
		t.Fatalf("pending event fired at %d, want 20", at)
	}
	for i, e := range g.all {
		if e.Now() < clocks[i] {
			t.Fatalf("lane %d clock went backwards: %d -> %d", i, clocks[i], e.Now())
		}
	}
}

// TestDrainOrdersEqualTimePosts pins the order cross-shard posts fire in
// at their target: by time, then source shard, then post order, whatever
// order of times each shard posted in. A post queues behind an event the
// target held before the barrier at the same time.
func TestDrainOrdersEqualTimePosts(t *testing.T) {
	for _, workers := range []int{1, 3} {
		g := NewGroup(GroupConfig{Shards: 3, Lookahead: 10, Workers: workers})
		dst := g.Shard(2)
		var got []string
		note := func(tag string) func() {
			return func() { got = append(got, fmt.Sprintf("%s@%d", tag, dst.Now())) }
		}
		dst.ScheduleAt(100, note("held"))
		post := func(src int, posts ...any) {
			lane := g.Shard(src)
			lane.ScheduleAt(0, func() {
				for i := 0; i < len(posts); i += 2 {
					lane.CrossAt(dst, posts[i].(Time), note(posts[i+1].(string)))
				}
			})
		}
		// Each shard posts its later time first.
		post(1, Time(100), "b0", Time(50), "b1")
		post(0, Time(100), "a0", Time(50), "a1", Time(100), "a2")
		g.Run()
		want := []string{"a1@50", "b1@50", "held@100", "a0@100", "a2@100", "b0@100"}
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: fired %v, want %v", workers, got, want)
		}
	}
}

// TestWindowParkResetsPosition: a shard parked at a window horizon h has
// fired nothing at h, so a key reserved at h is still ahead there, even
// one taken before the events the window fired.
func TestWindowParkResetsPosition(t *testing.T) {
	g := NewGroup(GroupConfig{Shards: 1, Lookahead: 100, Workers: 1})
	lane := g.Shard(0)
	k := lane.Reserve(100)
	lane.ScheduleAt(0, func() {})
	filed := false
	g.Global().ScheduleAt(100, func() {
		// The window [0, 100) ran the shard event at 0 and parked the
		// shard at 100; the global lane runs before any shard event at
		// 100.
		if lane.Now() != 100 || !lane.Ahead(k) {
			t.Fatalf("shard clock %d, Ahead(%+v) = %v; want 100, true", lane.Now(), k, lane.Ahead(k))
		}
		lane.ScheduleReserved(k, func(any) { filed = true }, nil)
	})
	g.Run()
	if !filed {
		t.Fatal("the reserved event filed at the horizon never fired")
	}
}

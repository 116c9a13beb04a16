package sim

import (
	"fmt"
	"runtime"
	"testing"
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

package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// This file adds sharded execution: a Group of engines that together
// simulate one system. Each shard owns a disjoint subset of the simulated
// resources (in gangfm: a contiguous range of cluster nodes with their
// NIC, host CPU, and buffer state), plus one extra "global" engine for
// entities that talk to every shard (the masterd, the control network,
// the chaos auditor). Events whose callback touches another shard's state
// must not be inserted into that shard's queue directly while shards run
// concurrently; they travel as cross-shard messages through per-shard
// outboxes drained at window barriers.
//
// Shards run concurrently under conservative time windows: with L the
// minimum latency of any cross-shard interaction (lookahead), all events
// in [t, t+L) on different shards are causally independent and may run in
// parallel. The coordinator computes the horizon h = min(earliest shard
// event + L, earliest global event, limit+1), lets worker goroutines run
// each shard's serial sub-window up to h, then drains outboxes in
// deterministic (time, shard, post order) so the next window starts from
// identical state regardless of worker count or goroutine interleaving.
// One worker runs the same windows on the coordinator goroutine, and so
// does every window too small to pay for waking a helper (parMinEvents):
// helpers sleep on a channel between the windows they are handed.
//
// The global lane never runs inside a window: global events execute only
// when every shard has been parked at or beyond the event's timestamp, so
// global callbacks may read and write any shard's state without locks
// (the barrier is the synchronization). This matches how the paper's
// masterd behaves — it acts on daemon notifications, never mid-quantum.

// GroupConfig parameterizes NewGroup.
type GroupConfig struct {
	// Shards is the number of shard lanes (excluding the global lane).
	Shards int
	// Lookahead is the minimum virtual-time latency of any cross-shard
	// interaction, at least 1: an event executing at time t on one shard
	// must never create an event at a time earlier than t+Lookahead on
	// another shard. Deliveries into the global lane are exempt (it is
	// barrier-serialized), but events the global lane sends to a shard
	// must also respect the bound.
	Lookahead Time
	// Workers caps the goroutines running shard windows (>= 1). With 1
	// worker the coordinator runs every window itself — no goroutines,
	// no barriers, the same windows. With more, a window goes to the
	// helpers only when the dispatch rule (parMinEvents) expects it to be
	// worth the wake-up; the rest still run on the coordinator.
	Workers int
}

// parMinEvents is the dispatch rule's threshold: a window is shared with
// helper goroutines only when the previous shard window fired at least
// this many events and at least two shards are active in this one. Waking
// a parked helper and waiting for it costs a few microseconds of
// scheduler work, more than most windows hold (on the 256-node pairs
// benchmark 98% of windows fire fewer than 128 events), so every other
// window runs inline on the coordinator. The rule reads only simulation
// state, so which windows go parallel is the same on every run; the
// windows themselves, and so the results, are the same either way.
const parMinEvents = 500

// crossMsg is one event posted from a shard to another lane, parked in the
// source shard's outbox until the next window barrier.
type crossMsg struct {
	to   *Engine
	when Time
	fn   func(any)
	arg  any
}

// Group is a set of engines executing one simulation cooperatively.
// Construct with NewGroup; drive with Run or RunUntil. All methods are
// coordinator-side: call them from one goroutine only.
type Group struct {
	shards    []*Engine
	global    *Engine
	all       []*Engine
	lookahead Time
	workers   int

	stopReq atomic.Bool

	// The current window's work list, and the events the previous shard
	// window fired (the dispatch rule's input).
	active    []*Engine
	horizon   Time
	widx      atomic.Int64
	lastFired uint64

	// Parked helpers, started by the run's first parallel window, one
	// per slot of wake: each takes a token from wake, runs windowWork,
	// and answers on done.
	wake chan struct{}
	done chan *windowPanic

	stats GroupStats // window counters; Fired is summed on demand
}

// GroupStats counts a group's work since it was built.
type GroupStats struct {
	Windows      uint64 // conservative windows run
	ShardWindows uint64 // sum over windows of the shards active in each
	Parallel     uint64 // windows shared with helper goroutines
	Fired        uint64 // events executed on every lane
}

// windowPanic is a panic recovered from a shard's share of a parallel
// window, raised again on the coordinator once the window's barrier has
// passed. i is the shard's index in the window's work list.
type windowPanic struct {
	i int64
	v any
}

// NewGroup builds a group of cfg.Shards shard engines plus one global
// engine, all starting at time zero.
func NewGroup(cfg GroupConfig) *Group {
	if cfg.Shards < 1 {
		panic("sim: group needs at least one shard")
	}
	if cfg.Lookahead < 1 {
		panic("sim: group needs lookahead >= 1")
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	g := &Group{
		lookahead: cfg.Lookahead,
		workers:   workers,
	}
	for i := 0; i < cfg.Shards; i++ {
		g.shards = append(g.shards, &Engine{group: g, shard: i})
	}
	g.global = &Engine{group: g, shard: -1}
	g.all = append(append(make([]*Engine, 0, cfg.Shards+1), g.shards...), g.global)
	return g
}

// Shard returns shard lane i.
func (g *Group) Shard(i int) *Engine { return g.shards[i] }

// Global returns the barrier-serialized global lane.
func (g *Group) Global() *Engine { return g.global }

// Fired returns the total events executed across all lanes.
func (g *Group) Fired() uint64 {
	var n uint64
	for _, e := range g.all {
		n += e.fired
	}
	return n
}

// Stats returns the window-loop counters and the events fired.
func (g *Group) Stats() GroupStats {
	s := g.stats
	s.Fired = g.Fired()
	return s
}

// Run executes events until every queue drains or Stop is called.
func (g *Group) Run() { g.run(0, false) }

// RunUntil executes all events with time <= limit, then advances every
// lane's clock to limit unless Stop ended the run early. Events beyond the
// limit stay queued.
func (g *Group) RunUntil(limit Time) { g.run(limit, true) }

// Stop makes the innermost Run/RunUntil return once the current event (or,
// on a shard, the current window) completes.
func (g *Group) Stop() { g.stopReq.Store(true) }

func (g *Group) run(limit Time, bounded bool) {
	g.stopReq.Store(false)
	g.runWindows(limit, bounded)
	if g.stopReq.Load() {
		// A stopped run may have left events at or before limit
		// pending: each lane stays where its last window parked it, so
		// the next run never moves a clock backwards.
		return
	}
	for _, e := range g.all {
		if bounded {
			// Window horizons may have parked a lane at limit+1 (the
			// window that covers events at limit exactly); RunUntil's
			// contract is that every clock reads limit afterwards.
			e.now, e.cur = limit, e.seq
		} else {
			e.drained()
		}
	}
}

func (g *Group) runWindows(limit Time, bounded bool) {
	defer g.stopHelpers()
	for !g.stopReq.Load() {
		g.drain()
		var tS Time
		haveS := false
		for _, s := range g.shards {
			if t, ok := s.peekWhen(); ok && (!haveS || t < tS) {
				tS, haveS = t, true
			}
		}
		// The global lane runs an event only when every shard is parked
		// at or beyond it (tG <= tS): at that instant no shard goroutine
		// is live, so the callback may touch any shard's state.
		if tG, ok := g.global.peekWhen(); ok && (!haveS || tG <= tS) {
			if bounded && tG > limit {
				return
			}
			g.global.Step()
			continue
		}
		if !haveS {
			return
		}
		if bounded && tS > limit {
			return
		}
		h := tS + g.lookahead
		if h < tS { // overflow near the end of time
			h = math.MaxUint64
		}
		if tG, ok := g.global.peekWhen(); ok && tG < h {
			h = tG
		}
		if bounded && h-1 > limit { // h >= 1; limit+1 would wrap at the end of time
			h = limit + 1
		}
		g.runShardsTo(h)
	}
}

// runShardsTo executes every shard event with time < h, in parallel across
// shards when the dispatch rule allows, then parks every shard clock at h.
func (g *Group) runShardsTo(h Time) {
	g.active = g.active[:0]
	var before uint64
	for _, s := range g.shards {
		if t, ok := s.peekWhen(); ok && t < h {
			g.active = append(g.active, s)
			before += s.fired
		}
	}
	g.stats.Windows++
	g.stats.ShardWindows += uint64(len(g.active))
	if g.workers > 1 && len(g.active) > 1 && g.lastFired >= parMinEvents {
		g.stats.Parallel++
		g.runParallel(h)
	} else {
		for _, s := range g.active {
			s.runWindow(h)
		}
	}
	g.lastFired = 0
	for _, s := range g.active {
		g.lastFired += s.fired
	}
	g.lastFired -= before
	for _, s := range g.shards {
		s.parkBefore(h)
	}
}

// runParallel publishes the window, wakes one helper per active shard
// beyond the first (up to the cap), takes part in the work, and waits for
// every woken helper to leave the window before touching shared state
// again. A panic in any shard's events is raised here after that barrier,
// the one from the earliest shard in the work list, as the inline loop
// would have raised it.
func (g *Group) runParallel(h Time) {
	if g.wake == nil {
		g.startHelpers()
	}
	g.horizon = h
	g.widx.Store(0)
	k := min(cap(g.wake), len(g.active)-1)
	for i := 0; i < k; i++ {
		g.wake <- struct{}{}
	}
	p := g.windowWork()
	for i := 0; i < k; i++ {
		if q := <-g.done; q != nil && (p == nil || q.i < p.i) {
			p = q
		}
	}
	if p != nil {
		panic(p.v)
	}
}

// windowWork claims shards off the shared index until none remain, or
// until one of their events panics; it returns that panic. The
// coordinator and every woken helper run it each parallel window.
func (g *Group) windowWork() (p *windowPanic) {
	n := int64(len(g.active))
	var i int64
	defer func() {
		if v := recover(); v != nil {
			p = &windowPanic{i: i, v: v}
		}
	}()
	for {
		if i = g.widx.Add(1) - 1; i >= n {
			return nil
		}
		g.active[i].runWindow(g.horizon)
	}
}

// startHelpers starts the parked helpers: one fewer than the worker cap,
// and never more than there are shards beyond the coordinator's.
func (g *Group) startHelpers() {
	n := min(g.workers, len(g.shards)) - 1
	g.wake = make(chan struct{}, n)
	g.done = make(chan *windowPanic, n)
	for i := 0; i < n; i++ {
		go func(wake <-chan struct{}, done chan<- *windowPanic) {
			for range wake {
				done <- g.windowWork()
			}
			done <- nil // exiting
		}(g.wake, g.done)
	}
}

// stopHelpers ends the run's helpers and returns once each has exited.
// Every window's barrier has passed, so each is parked on wake.
func (g *Group) stopHelpers() {
	if g.wake == nil {
		return
	}
	close(g.wake)
	for i := 0; i < cap(g.done); i++ {
		<-g.done
	}
	g.wake, g.done = nil, nil
}

// drain moves every parked cross-shard message into its target queue, in
// shard order and, within a shard, post order. That order depends only on
// what each shard posted, not on how goroutines interleaved during the
// window. It needs no sort by time: the drained posts take one contiguous
// block of seqs on each target, after every event already queued there
// and before any scheduled later, and seq only breaks ties among equal
// times. Among posts at one time, the order (source shard, post order) is
// exactly what a stable sort by time would have kept.
func (g *Group) drain() {
	for _, s := range g.shards {
		for i := range s.outbox {
			m := &s.outbox[i]
			if m.when < m.to.now {
				panic(fmt.Sprintf(
					"sim: cross-shard event at t=%d is behind lane %d's frontier %d — a cross-shard interaction undercut the declared lookahead %d",
					m.when, m.to.shard, m.to.now, g.lookahead))
			}
			m.to.schedule(m.when, m.fn, m.arg)
			m.to, m.fn, m.arg = nil, nil, nil
		}
		s.outbox = s.outbox[:0]
	}
}

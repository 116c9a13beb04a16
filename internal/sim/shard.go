package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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
// One worker runs the same windows on the coordinator goroutine.
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
	// no barriers, the same windows.
	Workers int
}

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

	// The current window's work list and barrier.
	active  []*Engine
	horizon Time
	widx    atomic.Int64
	wexit   atomic.Int64
	epoch   atomic.Uint64
	quit    atomic.Bool
	nhelp   int
	wg      sync.WaitGroup

	stats GroupStats // window counters; Fired is summed on demand
}

// GroupStats counts a group's work since it was built.
type GroupStats struct {
	Windows      uint64 // conservative windows run
	ShardWindows uint64 // sum over windows of the shards active in each
	Fired        uint64 // events executed on every lane
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
	g.startWorkers()
	defer g.stopWorkers()
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
// shards, then parks every shard clock at h.
func (g *Group) runShardsTo(h Time) {
	g.active = g.active[:0]
	for _, s := range g.shards {
		if t, ok := s.peekWhen(); ok && t < h {
			g.active = append(g.active, s)
		}
	}
	g.stats.Windows++
	g.stats.ShardWindows += uint64(len(g.active))
	if g.nhelp == 0 || len(g.active) <= 1 {
		for _, s := range g.active {
			s.runWindow(h)
		}
	} else {
		// Publish the window, release the helpers, take part in the
		// work, then wait for every helper to leave the window before
		// touching shared state again.
		g.horizon = h
		g.widx.Store(0)
		g.wexit.Store(0)
		g.epoch.Add(1)
		g.windowWork()
		for g.wexit.Load() < int64(g.nhelp) {
			runtime.Gosched()
		}
	}
	for _, s := range g.shards {
		s.parkBefore(h)
	}
}

// windowWork claims shards off the shared index until none remain. Both
// the coordinator and every helper run it each window.
func (g *Group) windowWork() {
	n := int64(len(g.active))
	for {
		i := g.widx.Add(1) - 1
		if i >= n {
			return
		}
		g.active[i].runWindow(g.horizon)
	}
}

func (g *Group) helperLoop() {
	defer g.wg.Done()
	var seen uint64
	spins := 0
	for {
		if g.quit.Load() {
			return
		}
		if e := g.epoch.Load(); e != seen {
			seen = e
			g.windowWork()
			g.wexit.Add(1)
			spins = 0
			continue
		}
		if spins++; spins&63 == 0 {
			runtime.Gosched()
		}
	}
}

func (g *Group) startWorkers() {
	n := g.workers - 1
	if n <= 0 {
		return
	}
	if n > len(g.shards)-1 {
		n = len(g.shards) - 1 // more helpers than extra shards is pure overhead
	}
	if n <= 0 {
		return
	}
	g.quit.Store(false)
	g.nhelp = n
	g.wg.Add(n)
	for i := 0; i < n; i++ {
		go g.helperLoop()
	}
}

func (g *Group) stopWorkers() {
	if g.nhelp == 0 {
		return
	}
	g.quit.Store(true)
	g.wg.Wait()
	g.nhelp = 0
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

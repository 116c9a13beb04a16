package sim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
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
	fn   func()
	afn  func(any)
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
	xfer    []crossMsg
	widx    atomic.Int64
	wexit   atomic.Int64
	epoch   atomic.Uint64
	quit    atomic.Bool
	nhelp   int
	wg      sync.WaitGroup

	// Min-frontier cache: frontier[i]/fOK[i] mirror shards[i].peekWhen()
	// whenever dirty[i] is false, so the per-window horizon computation
	// touches only the shards whose queues changed instead of peeking
	// every heap every window. Writes follow the window ownership rules:
	// during a window, entry i is touched only by the goroutine running
	// shard i (the schedule hook lowers it, Cancel marks it dirty); the
	// coordinator reads and refreshes entries only between windows.
	frontier []Time
	fOK      []bool
	dirty    []bool
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
	g.frontier = make([]Time, cfg.Shards)
	g.fOK = make([]bool, cfg.Shards)
	g.dirty = make([]bool, cfg.Shards)
	for i := range g.dirty {
		g.dirty[i] = true
	}
	return g
}

// noteSchedule maintains the frontier cache on event insertion (called from
// Engine.schedule for shard lanes). Insertion can only lower a queue's
// minimum, so a clean entry is updated in place; a dirty entry is left for
// refreshFrontiers.
func (g *Group) noteSchedule(shard int, t Time) {
	if g.dirty[shard] {
		return
	}
	if !g.fOK[shard] || t < g.frontier[shard] {
		g.frontier[shard], g.fOK[shard] = t, true
	}
}

// noteCancel invalidates a shard's cached frontier: the canceled event may
// have been the minimum, and the new minimum is only discoverable by a heap
// peek (done lazily at the next refresh).
func (g *Group) noteCancel(shard int) { g.dirty[shard] = true }

// refreshFrontiers re-peeks the queues of dirty shards only. Coordinator
// context (between windows).
func (g *Group) refreshFrontiers() {
	for i, d := range g.dirty {
		if !d {
			continue
		}
		w, ok := g.shards[i].peekWhen()
		g.frontier[i], g.fOK[i], g.dirty[i] = w, ok, false
	}
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

// Run executes events until every queue drains or Stop is called.
func (g *Group) Run() { g.run(0, false) }

// RunUntil executes all events with time <= limit, then advances every
// lane's clock to limit. Events beyond the limit stay queued.
func (g *Group) RunUntil(limit Time) { g.run(limit, true) }

// Stop makes the innermost Run/RunUntil return once the current event (or,
// on a shard, the current window) completes.
func (g *Group) Stop() { g.stopReq.Store(true) }

func (g *Group) run(limit Time, bounded bool) {
	g.stopReq.Store(false)
	g.runWindows(limit, bounded)
	if bounded {
		for _, e := range g.all {
			// Window horizons may have parked a lane at limit+1 (the
			// window that covers events at limit exactly); RunUntil's
			// contract is that every clock reads limit afterwards.
			if e.now != limit {
				e.now = limit
			}
		}
	}
}

func (g *Group) runWindows(limit Time, bounded bool) {
	g.startWorkers()
	defer g.stopWorkers()
	for !g.stopReq.Load() {
		g.drain()
		g.refreshFrontiers()
		var tS Time
		haveS := false
		for i, ok := range g.fOK {
			if ok && (!haveS || g.frontier[i] < tS) {
				tS, haveS = g.frontier[i], true
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
		if bounded && h > limit+1 {
			h = limit + 1
		}
		g.runShardsTo(h)
	}
}

// runShardsTo executes every shard event with time < h, in parallel across
// shards, then parks every shard clock at h.
func (g *Group) runShardsTo(h Time) {
	g.active = g.active[:0]
	for i, s := range g.shards {
		if g.fOK[i] && g.frontier[i] < h {
			g.active = append(g.active, s)
			// The shard will fire (and schedule) events this window; its
			// cached frontier is stale until the next refresh.
			g.dirty[i] = true
		}
	}
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
		if s.now < h {
			s.now = h
		}
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

// drain moves every parked cross-shard message into its target queue. The
// stable sort by time (preserving source-shard order among ties) makes the
// insertion sequence deterministic, so target seq assignment — and with it
// every future tie-break — is independent of how goroutines interleaved
// during the window.
func (g *Group) drain() {
	n := 0
	for _, s := range g.shards {
		n += len(s.outbox)
	}
	if n == 0 {
		return
	}
	g.xfer = g.xfer[:0]
	for _, s := range g.shards {
		g.xfer = append(g.xfer, s.outbox...)
		s.outbox = s.outbox[:0]
	}
	slices.SortStableFunc(g.xfer, func(a, b crossMsg) int { return cmp.Compare(a.when, b.when) })
	for i := range g.xfer {
		m := &g.xfer[i]
		if m.when < m.to.now {
			panic(fmt.Sprintf(
				"sim: cross-shard event at t=%d is behind lane %d's frontier %d — a cross-shard interaction undercut the declared lookahead %d",
				m.when, m.to.shard, m.to.now, g.lookahead))
		}
		// schedule's frontier hook keeps the target's cached minimum
		// consistent (insertions only lower it), so no dirty marking is
		// needed here.
		m.to.schedule(m.when, m.fn, m.afn, m.arg)
		m.to, m.fn, m.afn, m.arg = nil, nil, nil, nil
	}
}

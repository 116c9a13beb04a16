// Package sim provides the deterministic discrete-event simulation kernel
// on which the whole gangfm stack runs.
//
// All simulated activity is expressed as events on a single virtual clock.
// Time is measured in CPU cycles of the simulated 200 MHz host processor
// (the paper reports every overhead in cycles of a 200 MHz Pentium Pro, so
// using cycles as the base unit lets every result be compared directly).
//
// A single Engine is intentionally single-goroutine: determinism is what
// makes the protocol tests meaningful. Parallelism is available two ways:
// one level up, where independent engine instances (one per
// parameter-sweep point) run on separate goroutines, and within one
// simulation via Group (see shard.go), which partitions the system into
// per-shard engines run under conservative lookahead windows without
// giving up deterministic results.
//
// The event queue is the hot path of every experiment, so it is built to
// run allocation-free in steady state: event records live in a per-engine
// arena recycled through a free list, ordered by a hand-rolled 4-ary
// min-heap of (time, seq) keys held in a flat slice. Scheduling, firing,
// and canceling events never allocate once the arena has grown to the
// engine's high-water mark of concurrently pending events.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point on (or a span of) the virtual clock, in CPU cycles.
type Time uint64

// Common spans, assuming the default 200 MHz clock. These are convenience
// constants for tests and examples; code that must honor a configurable
// clock should go through Clock instead.
const (
	Cycle Time = 1
)

// Clock converts between wall-clock durations, data rates, and cycles.
type Clock struct {
	// Hz is the frequency of the simulated processor. The paper's host
	// is a 200 MHz Pentium Pro.
	Hz uint64
}

// DefaultClock is the 200 MHz Pentium-Pro clock used throughout the paper.
var DefaultClock = Clock{Hz: 200_000_000}

// FromDuration converts a wall-clock duration to cycles.
func (c Clock) FromDuration(d time.Duration) Time {
	if d <= 0 {
		return 0
	}
	return Time(float64(d) / float64(time.Second) * float64(c.Hz))
}

// ToDuration converts cycles to a wall-clock duration.
func (c Clock) ToDuration(t Time) time.Duration {
	return time.Duration(float64(t) / float64(c.Hz) * float64(time.Second))
}

// CyclesPerByte returns the per-byte cost, in cycles, of moving data at the
// given rate in megabytes per second (decimal MB, as used in the paper).
func (c Clock) CyclesPerByte(mbPerSec float64) float64 {
	if mbPerSec <= 0 {
		return math.Inf(1)
	}
	return float64(c.Hz) / (mbPerSec * 1e6)
}

// CopyCycles returns the number of cycles needed to move n bytes at the
// given MB/s rate, rounded up so a nonzero transfer never costs zero.
func (c Clock) CopyCycles(n int, mbPerSec float64) Time {
	if n <= 0 {
		return 0
	}
	cy := float64(n) * c.CyclesPerByte(mbPerSec)
	return Time(math.Ceil(cy))
}

// Event is a handle to a scheduled callback, returned by Engine.Schedule
// and friends. It is a small value (not a pointer into the engine): the
// underlying event record is recycled after the event fires or its
// cancellation is collected, and the generation check in Cancel makes a
// stale handle harmless. The zero Event is valid and never pending.
type Event struct {
	eng  *Engine
	slot int32
	gen  uint64
	when Time
}

// When returns the virtual time at which the event will fire (or fired).
func (ev Event) When() Time { return ev.when }

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or zero Event is a no-op. Cancel reports whether the
// event was still pending.
func (ev Event) Cancel() bool {
	e := ev.eng
	if e == nil {
		return false
	}
	r := &e.recs[ev.slot]
	if r.gen != ev.gen || r.canceled {
		return false
	}
	r.canceled = true
	r.fn, r.afn, r.arg = nil, nil, nil
	e.pending--
	if g := e.group; g != nil && e.shard >= 0 {
		g.noteCancel(e.shard)
	}
	return true
}

// eventRec is the arena-resident part of an event: the callback and the
// liveness bookkeeping. The ordering key lives in the heap entry instead,
// so comparisons never chase a pointer into the arena.
type eventRec struct {
	fn       func()
	afn      func(any)
	arg      any
	gen      uint64 // bumped on every recycle; stale handles mismatch
	canceled bool
}

// heapEnt is one entry of the 4-ary min-heap: the ordering key plus the
// arena slot it refers to. Keeping the key inline makes the sift loops
// pure value comparisons over a contiguous slice.
type heapEnt struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	slot int32
}

func entLess(a, b heapEnt) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine is the discrete-event simulation core. The zero value is not
// usable; construct with NewEngine (standalone) or NewGroup (sharded).
type Engine struct {
	now     Time
	recs    []eventRec // arena of event records
	free    []int32    // recycled arena slots
	heap    []heapEnt  // 4-ary min-heap over (when, seq)
	seq     uint64
	fired   uint64
	pending int // scheduled and not canceled
	stopped bool

	// Sharded-mode fields, nil/zero on standalone engines. shard is the
	// lane index within the group (-1 for the global lane); outbox parks
	// cross-shard messages until the group's next window barrier.
	group  *Group
	shard  int
	outbox []crossMsg
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time. In a group each lane keeps its own
// clock: the time of the event it is executing or its window horizon.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (diagnostics).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events scheduled and not canceled.
// Canceled events awaiting lazy removal from the queue are not counted.
func (e *Engine) Pending() int { return e.pending }

// Schedule queues fn to run delay cycles from now and returns the event.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	return e.schedule(e.Now()+delay, fn, nil, nil)
}

// ScheduleAt queues fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a cost-accounting bug, and silently clamping
// would corrupt causality.
func (e *Engine) ScheduleAt(t Time, fn func()) Event {
	return e.schedule(t, fn, nil, nil)
}

// ScheduleArg queues fn(arg) to run delay cycles from now. It exists so
// hot paths can use one long-lived callback value instead of allocating a
// fresh closure per event; passing a pointer-typed arg does not allocate.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) Event {
	return e.schedule(e.Now()+delay, nil, fn, arg)
}

// ScheduleArgAt queues fn(arg) to run at absolute time t (see ScheduleArg).
func (e *Engine) ScheduleArgAt(t Time, fn func(any), arg any) Event {
	return e.schedule(t, nil, fn, arg)
}

func (e *Engine) schedule(t Time, fn func(), afn func(any), arg any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now=%d", t, e.now))
	}
	e.seq++
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.recs = append(e.recs, eventRec{})
		slot = int32(len(e.recs) - 1)
	}
	r := &e.recs[slot]
	r.fn, r.afn, r.arg = fn, afn, arg
	r.canceled = false
	e.push(heapEnt{when: t, seq: e.seq, slot: slot})
	e.pending++
	if g := e.group; g != nil && e.shard >= 0 {
		g.noteSchedule(e.shard, t)
	}
	return Event{eng: e, slot: slot, gen: r.gen, when: t}
}

// freeSlot recycles an arena slot whose heap entry has been popped. The
// generation bump invalidates every outstanding handle to the old event.
func (e *Engine) freeSlot(slot int32) {
	r := &e.recs[slot]
	r.gen++
	r.fn, r.afn, r.arg = nil, nil, nil
	r.canceled = false
	e.free = append(e.free, slot)
}

// Step executes the single earliest pending event. It reports whether an
// event was executed (false means the queue is empty).
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ent := e.popMin()
		r := &e.recs[ent.slot]
		if r.canceled {
			e.freeSlot(ent.slot)
			continue
		}
		fn, afn, arg := r.fn, r.afn, r.arg
		// Recycle before invoking: the callback may schedule into the
		// same slot, and holding dead callbacks alive would leak.
		e.freeSlot(ent.slot)
		e.pending--
		e.now = ent.when
		e.fired++
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	if e.group != nil {
		panic("sim: Run called on a grouped engine; drive the Group instead")
	}
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes all events with time <= limit, then advances the clock
// to limit. Events scheduled beyond the limit stay queued.
func (e *Engine) RunUntil(limit Time) {
	if e.group != nil {
		panic("sim: RunUntil called on a grouped engine; drive the Group instead")
	}
	e.stopped = false
	for !e.stopped {
		when, ok := e.peekWhen()
		if !ok || when > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
}

// Stop makes the innermost Run/RunUntil return after the current event. On
// a grouped engine it stops the whole group (any lane may call it — e.g. a
// fail-fast auditor hook firing inside a shard window).
func (e *Engine) Stop() {
	if e.group != nil {
		e.group.Stop()
		return
	}
	e.stopped = true
}

// CrossAt queues fn at absolute time t on the target engine. On standalone
// engines (or when target is e itself, or the caller is the
// barrier-serialized global lane) this is a plain ScheduleAt on the
// target. Only a shard posting to another lane needs the outbox, since
// windows may run concurrently: the message is parked and inserted at the
// next window barrier, and t must then respect the group's lookahead bound
// relative to the sending event's time.
func (e *Engine) CrossAt(target *Engine, t Time, fn func()) {
	e.cross(target, t, fn, nil, nil)
}

// CrossArgAt is CrossAt with the allocation-avoiding (fn, arg) callback
// form (see ScheduleArg).
func (e *Engine) CrossArgAt(target *Engine, t Time, fn func(any), arg any) {
	e.cross(target, t, nil, fn, arg)
}

func (e *Engine) cross(target *Engine, t Time, fn func(), afn func(any), arg any) {
	if target == e || e.group == nil || e.shard < 0 {
		target.schedule(t, fn, afn, arg)
		return
	}
	e.outbox = append(e.outbox, crossMsg{to: target, when: t, fn: fn, afn: afn, arg: arg})
}

// runWindow executes every pending event with time strictly before h, then
// parks the clock at h. It is one shard's serial share of a conservative
// window; only the group coordinator and its helpers call it.
func (e *Engine) runWindow(h Time) {
	for {
		when, ok := e.peekWhen()
		if !ok || when >= h {
			break
		}
		e.Step()
	}
	if e.now < h {
		e.now = h
	}
}

// peekWhen returns the fire time of the earliest live event, collecting
// any canceled events sitting at the front of the queue.
func (e *Engine) peekWhen() (Time, bool) {
	for len(e.heap) > 0 {
		ent := e.heap[0]
		if !e.recs[ent.slot].canceled {
			return ent.when, true
		}
		e.popMin()
		e.freeSlot(ent.slot)
	}
	return 0, false
}

// push adds an entry to the 4-ary heap (sift-up).
func (e *Engine) push(ent heapEnt) {
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// popMin removes and returns the heap minimum (sift-down).
func (e *Engine) popMin() heapEnt {
	h := e.heap
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown()
	}
	return min
}

func (e *Engine) siftDown() {
	h := e.heap
	n := len(h)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entLess(h[c], h[best]) {
				best = c
			}
		}
		if !entLess(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// Package sim provides the deterministic discrete-event simulation kernel
// on which the whole gangfm stack runs.
//
// All simulated activity is expressed as events on a single virtual clock.
// Time is measured in CPU cycles of the simulated 200 MHz host processor
// (the paper reports every overhead in cycles of a 200 MHz Pentium Pro, so
// using cycles as the base unit lets every result be compared directly).
//
// An Engine is intentionally single-goroutine: determinism is what makes
// the protocol tests meaningful. Parallelism lives one level up, where
// independent engine instances (one per parameter-sweep point) run on
// separate goroutines.
//
// The event queue is the hot path of every experiment, so it is built to
// run allocation-free in steady state: event records live in a per-engine
// arena recycled through a free list. Scheduling, firing, and canceling
// events never allocate once the arena has grown to the engine's
// high-water mark of concurrently pending events.
//
// Events fire in (time, seq) order, seq being the order in which they were
// scheduled, from a queue of two tiers:
//
//   - The near tier is a ring of 512 slots, each 32 cycles wide, embedded
//     in the Engine: an int32 head and tail per slot (4 KB) and a 512-bit
//     occupancy bitmap. It covers the 16,384 cycles from its base slot
//     on, enough for nearly every delay the stack schedules. A slot's events form a
//     list through the arena, sorted by (time, seq). A new event has the
//     largest seq yet, so it goes after the last entry at or before its
//     time: the tail, in the common case. Popping scans the bitmap from
//     the base slot and takes the first list's head. Both are O(1).
//   - The far tier is a 4-ary min-heap of (time, seq, slot) entries for
//     the events past the ring. Its sifts carry a hole and write the
//     moving entry once. When the base advances, the far events it brings
//     into range migrate into the ring.
//
// Three rules make the order exact. The slot lists stay sorted. Migration
// runs before the fired event's callback, so the events the callback
// schedules queue behind older far events at the same time. And the base
// advances only when a live event fires, never when a canceled one is
// discarded: it therefore never passes now, and no event can be scheduled
// in a slot behind it.
//
// The slot width and count are constants, sized so the ring's arrays stay
// in cache. A ring of 16,384 one-cycle slots (128 KB of slot arrays per
// engine) was tried first: on the shallow-queue bandwidth workload it ran
// each point 1-6% slower and used 3-6% more memory.
//
// An event's Key is its (time, seq) pair, its place in that order. A
// caller that knows an event will do nothing unless something changes
// before it fires can reserve the key instead of scheduling the event:
// Reserve takes the next seq, exactly as a schedule at that point would,
// and queues nothing. If the change comes, ScheduleReserved files the
// event under the reserved key, where it would have stood all along; if
// the key has already been passed, the event would have fired as a no-op
// and is dropped. Dropping it leaves the relative order of every other
// event as it was. The firing position decides which: it is now plus the
// seq of the event firing at now, and Ahead reports whether a key is past
// it. RunUntil(limit) moves the position to limit past every seq issued
// so far (everything at limit has fired), unless Stop ended it early. A
// Run that drains the queue lifts the clock to the latest reserved time,
// where the last dropped event would have left it.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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
// Per-packet paths take theirs once at construction, so a packet's charge
// is one multiply (ByteCost.Cycles), never a division.
func (c Clock) CyclesPerByte(mbPerSec float64) ByteCost {
	if mbPerSec <= 0 {
		return ByteCost(math.Inf(1))
	}
	return ByteCost(float64(c.Hz) / (mbPerSec * 1e6))
}

// ByteCost is a per-byte transfer cost in cycles.
type ByteCost float64

// Cycles returns the cost of moving n bytes, rounded up so a nonzero
// transfer never costs zero.
func (b ByteCost) Cycles(n int) Time {
	if n <= 0 {
		return 0
	}
	return Time(math.Ceil(float64(n) * float64(b)))
}

// Event is a handle to a scheduled callback, returned by Engine.Schedule
// and friends. It is a small value (not a pointer into the engine): the
// underlying event record is recycled after the event fires or its
// cancellation is collected, and Cancel's seq check makes a stale handle
// harmless (seqs are never reused, and a free record holds seq 0). The
// zero Event is valid and never pending.
type Event struct {
	eng  *Engine
	slot int32
	seq  uint64
	when Time
}

// Key is an event's place in the firing order: events fire by When, ties
// by Seq, the order in which they were scheduled or reserved.
type Key struct {
	When Time
	Seq  uint64
}

// When returns the virtual time at which the event will fire or fired.
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
	if r.seq != ev.seq || r.canceled {
		return false
	}
	r.canceled = true
	r.fn, r.arg = nil, nil
	e.pending--
	return true
}

// eventRec is the arena-resident part of an event: the callback, its key
// and the liveness bookkeeping. next links the record into its near ring
// slot's list. Every event has the one (fn, arg) form; a plain func()
// rides as the arg of Call.
type eventRec struct {
	fn       func(any)
	arg      any
	seq      uint64 // 0 while the record is free; stale handles mismatch
	when     Time
	next     int32 // successor in the ring slot's list
	canceled bool
}

// before reports whether r's key precedes (t, seq).
func (r *eventRec) before(t Time, seq uint64) bool {
	return r.when < t || r.when == t && r.seq < seq
}

// heapEnt is one entry of the far tier's 4-ary min-heap: the ordering key
// plus the arena slot it refers to. Keeping the key inline makes the sift
// loops pure value comparisons over a contiguous slice.
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

// The near tier is a ring of ringSlots slots, each 1<<slotShift cycles
// wide, that covers the absolute slots [base, base+ringSlots). More slots
// keep more events out of the far heap but grow the arrays every lookup
// touches (see the package comment); wider slots crowd more events into
// each sorted list.
const (
	slotShift = 5
	ringSlots = 512
	ringMask  = ringSlots - 1
	ringWords = ringSlots / 64
)

// Engine is the discrete-event simulation core. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now  Time
	recs []eventRec // arena of event records
	free []int32    // recycled arena slots

	// The near tier: slot s (absolute, when>>slotShift) of the ring lives
	// at index s&ringMask as a list of arena slots sorted by (when, seq),
	// from head to tail; occ has bit i set while list i is non-empty.
	// base only moves to the slot of a live event as it fires, so it
	// never passes now and every queued event's slot is >= base.
	base Time
	occ  [ringWords]uint64
	head [ringSlots]int32
	tail [ringSlots]int32

	far     []heapEnt // 4-ary min-heap of events at slots >= base+ringSlots
	seq     uint64    // the last seq issued, by a schedule or a reservation
	fired   uint64
	pending int // scheduled and not canceled
	stopped bool

	// The firing position is (now, cur): cur is the seq of the event
	// firing at now. reserved is the latest time any key was reserved for.
	cur      uint64
	reserved Time
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (diagnostics).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events scheduled and not canceled.
// Canceled events awaiting lazy removal from the queue are not counted.
func (e *Engine) Pending() int { return e.pending }

// Call is the trampoline that runs a plain func() passed as the arg of the
// (fn, arg) callback form: Schedule and ScheduleAt queue (Call, fn). A
// func value converts to any without allocating, so the closure-taking
// entry points cost nothing extra.
func Call(f any) { f.(func())() }

// Schedule queues fn to run delay cycles from now and returns the event.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	return e.schedule(e.now+delay, Call, fn)
}

// ScheduleAt queues fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a cost-accounting bug, and silently clamping
// would corrupt causality.
func (e *Engine) ScheduleAt(t Time, fn func()) Event {
	return e.schedule(t, Call, fn)
}

// ScheduleArg queues fn(arg) to run delay cycles from now. It exists so
// hot paths can use one long-lived callback value instead of allocating a
// fresh closure per event; passing a pointer-typed arg does not allocate.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) Event {
	return e.schedule(e.now+delay, fn, arg)
}

// ScheduleArgAt queues fn(arg) to run at absolute time t (see ScheduleArg).
func (e *Engine) ScheduleArgAt(t Time, fn func(any), arg any) Event {
	return e.schedule(t, fn, arg)
}

func (e *Engine) schedule(t Time, fn func(any), arg any) Event {
	e.seq++
	return e.insert(t, e.seq, fn, arg)
}

// Reserve takes the key of an event at t, t >= now, without queuing
// anything: the seq is the one a schedule here would have taken. The
// caller later files the event with ScheduleReserved while Ahead reports
// the key still ahead, or drops it; see the package comment for when that
// is exact.
func (e *Engine) Reserve(t Time) Key {
	if t < e.now {
		panic(fmt.Sprintf("sim: key reserved at %d, before now=%d", t, e.now))
	}
	e.seq++
	e.reserved = max(e.reserved, t)
	return Key{When: t, Seq: e.seq}
}

// Ahead reports whether k is past the firing position: an event with
// that key would not have fired yet.
func (e *Engine) Ahead(k Key) bool {
	return k.When > e.now || k.When == e.now && k.Seq > e.cur
}

// ScheduleReserved queues fn(arg) under the reserved key k, where it would
// have stood had it been scheduled when k was reserved. k must be ahead
// and filed at most once.
func (e *Engine) ScheduleReserved(k Key, fn func(any), arg any) Event {
	if !e.Ahead(k) {
		panic(fmt.Sprintf("sim: reserved key %+v filed behind the firing position (%d, %d)", k, e.now, e.cur))
	}
	return e.insert(k.When, k.Seq, fn, arg)
}

// insert files fn(arg) under the key (t, seq) into the tier that covers t.
// Scheduling in the past panics: it always indicates a cost-accounting
// bug, and silently clamping would corrupt causality.
func (e *Engine) insert(t Time, seq uint64, fn func(any), arg any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now=%d", t, e.now))
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.recs = append(e.recs, eventRec{})
		slot = int32(len(e.recs) - 1)
	}
	r := &e.recs[slot]
	r.fn, r.arg = fn, arg
	r.when, r.seq = t, seq
	r.canceled = false
	if s := t >> slotShift; s-e.base < ringSlots {
		e.ringInsert(slot, t, seq, int(s&ringMask))
	} else {
		e.push(heapEnt{when: t, seq: seq, slot: slot})
	}
	e.pending++
	return Event{eng: e, slot: slot, seq: seq, when: t}
}

// ringInsert files arena slot, keyed (t, seq), into ring list i after
// every entry with a smaller key, keeping the list sorted. A scheduled
// event carries the largest seq so far, so it goes after every entry at
// or before t: the tail, in the common case. A reserved key may sort
// before entries at t scheduled since it was taken.
func (e *Engine) ringInsert(slot int32, t Time, seq uint64, i int) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if e.occ[w]&bit == 0 {
		e.occ[w] |= bit
		e.head[i], e.tail[i] = slot, slot
		return
	}
	recs := e.recs
	if tl := e.tail[i]; recs[tl].before(t, seq) {
		recs[tl].next = slot
		e.tail[i] = slot
		return
	}
	p := e.head[i]
	if !recs[p].before(t, seq) {
		recs[slot].next = p
		e.head[i] = slot
		return
	}
	// The tail sorts after the new key, so the walk stops before it.
	for recs[recs[p].next].before(t, seq) {
		p = recs[p].next
	}
	recs[slot].next = recs[p].next
	recs[p].next = slot
}

// freeSlot recycles an arena slot that has left the queue. Clearing the
// seq invalidates every outstanding handle to the old event.
func (e *Engine) freeSlot(slot int32) {
	r := &e.recs[slot]
	r.seq = 0
	r.fn, r.arg = nil, nil
	r.canceled = false
	e.free = append(e.free, slot)
}

// Step executes the single earliest pending event. It reports whether an
// event was executed (false means the queue is empty).
func (e *Engine) Step() bool { return e.fireNext(^Time(0)) }

// fireNext executes the earliest pending event if it fires at or before
// limit, and reports whether it did: one queue lookup per event.
func (e *Engine) fireNext(limit Time) bool {
	slot, i, ok := e.front()
	if !ok {
		return false
	}
	r := &e.recs[slot]
	t := r.when
	if t > limit {
		return false
	}
	if i >= 0 {
		e.unlinkHead(i, slot)
	} else {
		e.popMin()
	}
	// The base moves only here, to the slot of a live event as it fires,
	// so it never passes now. The far events it brings into range move
	// into the ring before the callback runs: the callback's schedules
	// then queue behind them, as their larger seqs require.
	if s := t >> slotShift; s != e.base {
		e.base = s
		e.migrate()
	}
	fn, arg := r.fn, r.arg
	e.cur = r.seq
	// Recycle before invoking: the callback may schedule into the
	// same slot, and holding dead callbacks alive would leak.
	e.freeSlot(slot)
	e.pending--
	e.now = t
	e.fired++
	fn(arg)
	return true
}

// Run executes events until the queue drains or Stop is called. A drained
// run leaves the clock at the latest reserved key's time if that is later
// than the last event's.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	// Drained: every key issued so far counts as fired, and the clock
	// stands at the latest of them, reserved ones included.
	if !e.stopped {
		e.now, e.cur = max(e.now, e.reserved), e.seq
	}
}

// RunUntil executes all events with time <= limit, then advances the clock
// to limit unless Stop ended the run early. Events scheduled beyond the
// limit stay queued.
func (e *Engine) RunUntil(limit Time) {
	e.stopped = false
	for !e.stopped && e.fireNext(limit) {
	}
	// Every event at or before limit has fired, so every key at limit
	// issued so far counts as fired too. A stopped run may have left
	// events at or before limit pending; its clock stays where the last
	// event put it, so the next run never moves it backwards.
	if !e.stopped && e.now <= limit {
		e.now, e.cur = limit, e.seq
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// front frees the canceled events at the head of the queue and returns the
// arena slot of the earliest live event with the ring list holding it (-1
// for the far heap's root); ok is false when nothing is pending. Every
// ring event precedes every far one, so the far heap is consulted only
// when the ring is empty. Discarding a canceled event never moves base.
func (e *Engine) front() (slot int32, ring int, ok bool) {
	for {
		i := e.firstOcc()
		if i >= 0 {
			slot = e.head[i]
			if !e.recs[slot].canceled {
				return slot, i, true
			}
			e.unlinkHead(i, slot)
			e.freeSlot(slot)
			continue
		}
		if len(e.far) == 0 {
			return 0, 0, false
		}
		slot = e.far[0].slot
		if !e.recs[slot].canceled {
			return slot, -1, true
		}
		e.popMin()
		e.freeSlot(slot)
	}
}

// firstOcc returns the first non-empty ring list at or after base's,
// wrapping around, or -1 when the ring is empty. The ring covers
// [base, base+ringSlots), so list order from base's index is time order.
func (e *Engine) firstOcc() int {
	b := int(e.base & ringMask)
	w := b >> 6
	if m := e.occ[w] >> (b & 63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	// The last pass revisits word w, whose bits at and above b were
	// just seen to be clear: a hit there is a wrapped, later slot.
	for k := 1; k <= ringWords; k++ {
		wi := (w + k) & (ringWords - 1)
		if m := e.occ[wi]; m != 0 {
			return wi<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// unlinkHead removes slot, the head of ring list i.
func (e *Engine) unlinkHead(i int, slot int32) {
	if slot == e.tail[i] {
		e.occ[i>>6] &^= 1 << (i & 63)
		return
	}
	e.head[i] = e.recs[slot].next
}

// migrate moves the far events whose slots the ring now covers into it.
// They leave the heap in (when, seq) order, and the lists they join were
// behind the old base and are still empty, so each appends at its tail.
func (e *Engine) migrate() {
	for len(e.far) > 0 {
		ent := e.far[0]
		s := ent.when >> slotShift
		if s-e.base >= ringSlots {
			return
		}
		e.popMin()
		if e.recs[ent.slot].canceled {
			e.freeSlot(ent.slot)
			continue
		}
		e.ringInsert(ent.slot, ent.when, ent.seq, int(s&ringMask))
	}
}

// push adds an entry to the far heap (sift-up): the hole climbs from the
// new leaf, and ent is written once where it stops.
func (e *Engine) push(ent heapEnt) {
	h := append(e.far, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(ent, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
	e.far = h
}

// popMin removes and returns the far heap's minimum: the last entry
// refills the root (sift-down).
func (e *Engine) popMin() heapEnt {
	h := e.far
	min := h[0]
	n := len(h) - 1
	last := h[n]
	e.far = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return min
}

// siftDown places ent into the root: the hole descends past every smaller
// child, and ent is written once where it stops.
func (e *Engine) siftDown(ent heapEnt) {
	h := e.far
	n := len(h)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if entLess(h[c], h[best]) {
				best = c
			}
		}
		if !entLess(h[best], ent) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ent
}

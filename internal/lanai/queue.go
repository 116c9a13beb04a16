// Package lanai models the LANai 4.3 processor and firmware on the Myrinet
// card: hardware communication contexts, the dual-context control program
// (a send scanner and an interrupt-driven receive context), the halt bit
// checked before every packet injection, and the network flush / release
// protocols of paper §3.2 (Figure 3).
package lanai

import "gangfm/internal/myrinet"

// Queue is a fixed-capacity FIFO of packets occupying fixed-size slots, as
// the FM queues do (capacity counts packet slots, not bytes). The capacity
// is only a number: the packets live in a ring that starts empty and
// doubles on demand up to the capacity. The paper's queues are "usually
// nearly empty" (§3.2), so a card pays for the slots a run occupies, not
// for the 252 send and 668 receive slots it may occupy. Once the ring has
// grown to a run's high-water mark, Enqueue/Dequeue never allocate.
type Queue struct {
	pkts     []*myrinet.Packet // the ring; len(pkts) <= capacity
	capacity int
	head     int // index of the oldest packet
	n        int // number of valid packets
}

// minRing is the ring's first size. A context that holds any packet at
// all usually holds a few, so growth starts past the 1-2-4 steps.
const minRing = 8

// NewQueue returns a queue with capacity slots. It allocates no ring.
func NewQueue(capacity int) *Queue {
	return &Queue{capacity: capacity}
}

// Cap returns the slot capacity.
func (q *Queue) Cap() int { return q.capacity }

// Len returns the number of valid packets currently queued.
func (q *Queue) Len() int { return q.n }

// Full reports whether no slot is free.
func (q *Queue) Full() bool { return q.n >= q.capacity }

func (q *Queue) slot(i int) int {
	i += q.head
	if i >= len(q.pkts) {
		i -= len(q.pkts)
	}
	return i
}

// grow replaces the ring with one of at least need slots (doubling, capped
// at the capacity), unrolling the packets to its front so that FIFO order
// holds across the old ring's wrap.
func (q *Queue) grow(need int) {
	size := max(len(q.pkts)*2, minRing)
	for size < need {
		size *= 2
	}
	size = min(size, q.capacity)
	ring := make([]*myrinet.Packet, size)
	for i := 0; i < q.n; i++ {
		ring[i] = q.pkts[q.slot(i)]
	}
	q.pkts, q.head = ring, 0
}

// Enqueue appends p; it reports whether a slot was available.
func (q *Queue) Enqueue(p *myrinet.Packet) bool {
	if q.n == len(q.pkts) && !q.makeRoom() {
		return false
	}
	q.pkts[q.slot(q.n)] = p
	q.n++
	return true
}

// makeRoom is Enqueue's slow path, taken when the ring is full: at the
// capacity it refuses the packet, below it grows the ring. Kept out of
// line so that Enqueue's fast path stays small enough to inline.
func (q *Queue) makeRoom() bool {
	if q.Full() {
		return false
	}
	q.grow(q.n + 1)
	return true
}

// Dequeue removes and returns the oldest packet, or nil if empty.
func (q *Queue) Dequeue() *myrinet.Packet {
	if q.n == 0 {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head = q.slot(1)
	q.n--
	if q.n == 0 {
		q.head = 0
	}
	return p
}

// At returns the i-th oldest packet without removing it, or nil when out
// of range. FM_extract inspects a batch of pending packets this way.
func (q *Queue) At(i int) *myrinet.Packet {
	if i < 0 || i >= q.n {
		return nil
	}
	return q.pkts[q.slot(i)]
}

// DrainTo removes all queued packets, oldest first, appending them to
// dst[:0] and returning the result. The buffer switch moves queue contents
// to a backing store this way, passing the store's previous slice so its
// backing array is reused instead of allocating one per switch.
func (q *Queue) DrainTo(dst []*myrinet.Packet) []*myrinet.Packet {
	dst = dst[:0]
	for i := 0; i < q.n; i++ {
		s := q.slot(i)
		dst = append(dst, q.pkts[s])
		q.pkts[s] = nil
	}
	q.head, q.n = 0, 0
	return dst
}

// Clear discards all queued packets without returning them.
func (q *Queue) Clear() {
	for i := 0; i < q.n; i++ {
		q.pkts[q.slot(i)] = nil
	}
	q.head, q.n = 0, 0
}

// Load refills the queue from a backing store, oldest first. It panics if
// the packets exceed capacity, which would indicate a switch between
// incompatible queue geometries.
func (q *Queue) Load(pkts []*myrinet.Packet) {
	if len(pkts) > q.capacity {
		panic("lanai: restoring more packets than queue capacity")
	}
	q.Clear()
	if len(pkts) > len(q.pkts) {
		q.grow(len(pkts))
	}
	copy(q.pkts, pkts)
	q.n = len(pkts)
}

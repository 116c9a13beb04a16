package lanai

import (
	"runtime"
	"testing"
	"testing/quick"

	"gangfm/internal/myrinet"
)

func TestQueueBasics(t *testing.T) {
	q := NewQueue(3)
	if q.Cap() != 3 || q.Len() != 0 || q.Full() {
		t.Fatal("fresh queue state wrong")
	}
	if q.Dequeue() != nil || q.At(0) != nil {
		t.Fatal("empty queue should return nil")
	}
	p1 := &myrinet.Packet{MsgID: 1}
	p2 := &myrinet.Packet{MsgID: 2}
	p3 := &myrinet.Packet{MsgID: 3}
	p4 := &myrinet.Packet{MsgID: 4}
	for _, p := range []*myrinet.Packet{p1, p2, p3} {
		if !q.Enqueue(p) {
			t.Fatal("enqueue failed with space available")
		}
	}
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	if q.Enqueue(p4) {
		t.Fatal("enqueue succeeded on full queue")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after a refused enqueue, want 3", q.Len())
	}
	if q.At(0) != p1 {
		t.Fatal("At(0) should return oldest")
	}
	if q.Dequeue() != p1 || q.Dequeue() != p2 || q.Dequeue() != p3 {
		t.Fatal("FIFO order violated")
	}
}

func TestQueueDrainLoad(t *testing.T) {
	q := NewQueue(5)
	for i := 0; i < 4; i++ {
		q.Enqueue(&myrinet.Packet{MsgID: uint64(i)})
	}
	pkts := q.DrainTo(nil)
	if len(pkts) != 4 || q.Len() != 0 {
		t.Fatalf("DrainTo returned %d packets, queue len %d", len(pkts), q.Len())
	}
	q2 := NewQueue(5)
	q2.Load(pkts)
	for i := 0; i < 4; i++ {
		if q2.Dequeue().MsgID != uint64(i) {
			t.Fatal("Load did not preserve order")
		}
	}
}

// The valid-only buffer switch copies just the queued packets: DrainTo on
// a wrapped ring returns exactly those, so their wire bytes are the
// partial payloads plus headers, not capacity times PacketSize.
func TestQueueValidBytes(t *testing.T) {
	q := NewQueue(4)
	for _, n := range []int{1, 2, 3, 100} {
		q.Enqueue(&myrinet.Packet{Type: myrinet.Data, PayloadLen: n})
	}
	q.Dequeue()
	q.Dequeue()
	q.Dequeue()
	q.Enqueue(&myrinet.Packet{Type: myrinet.Data, PayloadLen: myrinet.MaxPayload})
	if q.head+q.n <= len(q.pkts) {
		t.Fatal("test setup: ring should have wrapped")
	}
	n := 0
	for _, p := range q.DrainTo(nil) {
		n += p.WireSize()
	}
	want := (100 + myrinet.HeaderSize) + myrinet.PacketSize
	if n != want {
		t.Fatalf("valid bytes = %d, want %d", n, want)
	}
}

func TestQueueLoadOverCapacityPanics(t *testing.T) {
	q := NewQueue(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic loading beyond capacity")
		}
	}()
	q.Load([]*myrinet.Packet{{}, {}})
}

// Property: a queue behaves exactly like a bounded FIFO for any sequence
// of enqueue/dequeue operations.
func TestQueueFIFOModelProperty(t *testing.T) {
	prop := func(ops []bool, capacity uint8) bool {
		capz := int(capacity%16) + 1
		q := NewQueue(capz)
		var model []*myrinet.Packet
		next := uint64(0)
		for _, enq := range ops {
			if enq {
				p := &myrinet.Packet{MsgID: next}
				next++
				ok := q.Enqueue(p)
				if ok != (len(model) < capz) {
					return false
				}
				if ok {
					model = append(model, p)
				}
			} else {
				got := q.Dequeue()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fill enqueues n fresh packets numbered from *next, failing on a reject.
func fill(t *testing.T, q *Queue, next *uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !q.Enqueue(&myrinet.Packet{MsgID: *next}) {
			t.Fatalf("enqueue of packet %d rejected at %d of %d slots", *next, q.Len(), q.Cap())
		}
		*next++
	}
}

// drainInOrder dequeues everything and checks the packets come out
// numbered from first upward.
func drainInOrder(t *testing.T, q *Queue, first uint64) {
	t.Helper()
	for want := first; q.Len() > 0; want++ {
		if got := q.Dequeue().MsgID; got != want {
			t.Fatalf("dequeued packet %d, want %d", got, want)
		}
	}
}

// TestQueueGrowsWhileWrapped: a ring that is full and wrapped (its oldest
// packet not at index 0) grows on the next enqueue, and the packets still
// leave in arrival order.
func TestQueueGrowsWhileWrapped(t *testing.T) {
	q := NewQueue(64)
	var next uint64
	fill(t, q, &next, minRing)
	for i := 0; i < 5; i++ {
		q.Dequeue()
	}
	fill(t, q, &next, 5)
	if q.head == 0 || q.Len() != len(q.pkts) {
		t.Fatalf("set-up: head %d, %d of %d ring slots used; want a full, wrapped ring",
			q.head, q.Len(), len(q.pkts))
	}
	fill(t, q, &next, 3*minRing) // two growths, the first from the wrapped ring
	if len(q.pkts) != 4*minRing {
		t.Fatalf("ring has %d slots, want %d", len(q.pkts), 4*minRing)
	}
	if got := q.At(0).MsgID; got != 5 {
		t.Fatalf("oldest packet %d after growth, want 5", got)
	}
	drainInOrder(t, q, 5)
}

// TestQueueLoadBeyondRing: Load takes more packets than the current ring
// holds, up to the capacity, and keeps their order; one more panics.
func TestQueueLoadBeyondRing(t *testing.T) {
	const capacity = 100
	q := NewQueue(capacity)
	var next uint64
	fill(t, q, &next, 2)
	pkts := make([]*myrinet.Packet, capacity)
	for i := range pkts {
		pkts[i] = &myrinet.Packet{MsgID: uint64(i)}
	}
	q.Load(pkts)
	if q.Len() != capacity || !q.Full() {
		t.Fatalf("loaded %d of %d packets, Full %v", q.Len(), capacity, q.Full())
	}
	drainInOrder(t, q, 0)

	defer func() {
		if recover() == nil {
			t.Fatal("loading capacity+1 packets did not panic")
		}
	}()
	q.Load(append(pkts, &myrinet.Packet{}))
}

// TestQueueFullAtCapacity: with a capacity that is no power of two, the
// ring stops growing at the capacity, Full turns true at exactly Cap
// packets, and the next enqueue is refused.
func TestQueueFullAtCapacity(t *testing.T) {
	const capacity = 13
	q := NewQueue(capacity)
	var next uint64
	fill(t, q, &next, capacity-1)
	if q.Full() {
		t.Fatal("Full with one slot free")
	}
	fill(t, q, &next, 1)
	if !q.Full() || len(q.pkts) != capacity {
		t.Fatalf("Full %v with a %d-slot ring at %d of %d packets", q.Full(), len(q.pkts), q.Len(), capacity)
	}
	if q.Enqueue(&myrinet.Packet{}) || q.Len() != capacity {
		t.Fatalf("enqueue past capacity accepted: %d of %d packets", q.Len(), capacity)
	}
	drainInOrder(t, q, 0)
}

// TestContextAllocatesByOccupancy: registering a context with the card's
// whole 252 send and 668 receive slots allocates no slot storage; the
// queues grow only when packets arrive. Slot arrays of the full capacity
// would cost 7.4 KB per context.
func TestContextAllocatesByOccupancy(t *testing.T) {
	_, _, nics := rig(t, 1)
	n := nics[0]
	register := func() {
		ctx, err := n.Register(1, 252, 668, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		n.Unregister(ctx)
	}
	register() // size the card's job table and context list
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		register()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("a 252/668-slot context allocates %.0f B, want under 1 KB", per)
	}
}

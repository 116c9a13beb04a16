package lanai

import (
	"testing"

	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// rig builds an engine, network and one NIC per node.
func rig(t *testing.T, nodes int) (*sim.Engine, *myrinet.Network, []*NIC) {
	t.Helper()
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(nodes))
	mem := memmodel.Default()
	nics := make([]*NIC, nodes)
	for i := range nics {
		nics[i] = New(eng, net, mem, DefaultConfig(myrinet.NodeID(i)))
	}
	return eng, net, nics
}

func dataPkt(src, dst myrinet.NodeID, job myrinet.JobID, msg uint64) *myrinet.Packet {
	return &myrinet.Packet{
		Type: myrinet.Data, Src: src, Dst: dst, Job: job,
		MsgID: msg, NFrags: 1, PayloadLen: 256,
	}
}

func TestRegisterResourceLimits(t *testing.T) {
	_, _, nics := rig(t, 2)
	n := nics[0]
	// Default geometry: 252 send slots, 668 recv slots.
	c1, err := n.Register(1, 0, 200, 600, Hooks{})
	if err != nil {
		t.Fatalf("first register: %v", err)
	}
	if _, err := n.Register(2, 0, 100, 10, Hooks{}); err == nil {
		t.Fatal("register should fail when NIC RAM is exhausted")
	}
	if _, err := n.Register(2, 0, 10, 100, Hooks{}); err == nil {
		t.Fatal("register should fail when pinned DMA region is exhausted")
	}
	if _, err := n.Register(1, 0, 1, 1, Hooks{}); err == nil {
		t.Fatal("duplicate job registration should fail")
	}
	n.Unregister(c1)
	if _, err := n.Register(2, 0, 252, 668, Hooks{}); err != nil {
		t.Fatalf("register after unregister: %v", err)
	}
	if _, err := n.Register(3, 0, 0, 1, Hooks{}); err == nil {
		t.Fatal("zero-size queues should be rejected")
	}
}

func TestDataDelivery(t *testing.T) {
	eng, _, nics := rig(t, 2)
	var arrived []*myrinet.Packet
	rx, err := nics[1].Register(1, 1, 126, 334, Hooks{
		OnArrive: func(ctx *Context) {
			arrived = append(arrived, nics[1].DequeueRecv(ctx))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rx
	tx, err := nics[0].Register(1, 0, 126, 334, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		nics[0].EnqueueSend(tx, dataPkt(0, 1, 1, uint64(i)))
	}
	eng.Run()
	if len(arrived) != 5 {
		t.Fatalf("arrived %d packets, want 5", len(arrived))
	}
	for i, p := range arrived {
		if p.MsgID != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, p.MsgID)
		}
	}
	if nics[0].Stats().Injected != 5 || nics[1].Stats().Received != 5 {
		t.Fatal("stats mismatch")
	}
}

func TestNoContextDrop(t *testing.T) {
	eng, _, nics := rig(t, 2)
	tx, _ := nics[0].Register(1, 0, 126, 334, Hooks{})
	nics[0].EnqueueSend(tx, dataPkt(0, 1, 1, 0))
	eng.Run()
	if drops := nics[1].Stats().Drops; len(drops) != 1 || drops[DropNoContext] != 1 {
		t.Fatalf("drops = %v, want one no-context drop", drops)
	}
}

func TestRecvQueueFullDrop(t *testing.T) {
	eng, _, nics := rig(t, 2)
	tx, _ := nics[0].Register(1, 0, 126, 334, Hooks{})
	// Tiny receive queue, host never consumes.
	if _, err := nics[1].Register(1, 1, 10, 2, Hooks{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		nics[0].EnqueueSend(tx, dataPkt(0, 1, 1, uint64(i)))
	}
	eng.Run()
	if got := nics[1].Stats().Drops[DropRecvFull]; got != 4 {
		t.Fatalf("recv-full drops = %d, want 4", got)
	}
}

func TestHaltBitBlocksData(t *testing.T) {
	eng, _, nics := rig(t, 2)
	tx, _ := nics[0].Register(1, 0, 126, 334, Hooks{})
	received := 0
	nics[1].Register(1, 1, 126, 334, Hooks{
		OnArrive: func(ctx *Context) { received++; nics[1].DequeueRecv(ctx) },
	})

	flushed := [2]bool{}
	nics[0].HaltNetwork(0, func() { flushed[0] = true })
	nics[1].HaltNetwork(0, func() { flushed[1] = true })
	eng.Run()
	if !flushed[0] || !flushed[1] {
		t.Fatal("flush did not complete")
	}

	// With the halt bit set, enqueued data stays queued.
	nics[0].EnqueueSend(tx, dataPkt(0, 1, 1, 0))
	eng.Run()
	if received != 0 {
		t.Fatal("data sent while halted")
	}
	if tx.SendQ.Len() != 1 {
		t.Fatal("packet should remain in send queue")
	}

	// Release resumes transmission automatically.
	nics[0].ReleaseNetwork(0, nil)
	nics[1].ReleaseNetwork(0, nil)
	eng.Run()
	if received != 1 {
		t.Fatalf("received = %d after release, want 1", received)
	}
}

func TestFlushWaitsForAllNodes(t *testing.T) {
	eng, _, nics := rig(t, 4)
	done := 0
	for _, n := range nics[:3] {
		n.HaltNetwork(0, func() { done++ })
	}
	eng.Run()
	if done != 0 {
		t.Fatal("flush completed without the 4th node halting")
	}
	nics[3].HaltNetwork(0, func() { done++ })
	eng.Run()
	if done != 4 {
		t.Fatalf("flushed %d nodes, want 4", done)
	}
}

// TestFlushDrainsInFlight is the core flush correctness property: data
// injected before the halt is delivered before the flush completes, so the
// buffer switch sees a quiescent network.
func TestFlushDrainsInFlight(t *testing.T) {
	eng, _, nics := rig(t, 2)
	tx, _ := nics[0].Register(1, 0, 126, 334, Hooks{})
	received := 0
	nics[1].Register(1, 1, 126, 334, Hooks{
		OnArrive: func(ctx *Context) { received++; nics[1].DequeueRecv(ctx) },
	})
	// Inject a burst, then immediately halt.
	const burst = 20
	for i := 0; i < burst; i++ {
		nics[0].EnqueueSend(tx, dataPkt(0, 1, 1, uint64(i)))
	}
	receivedAtFlush := -1
	inFlightAtHalt := tx.SendQ.Len()
	nics[1].HaltNetwork(0, nil)
	nics[0].HaltNetwork(0, func() { receivedAtFlush = received })
	eng.Run()
	sentBeforeHalt := burst - inFlightAtHalt + 1 // +1 possibly mid-injection
	if receivedAtFlush < 0 {
		t.Fatal("flush did not complete")
	}
	// Everything that left node 0 before its halt must be at node 1 by
	// the time node 0's flush completes (FIFO: the halt message arrived
	// after the data, and node 1's halt only came after that data was
	// consumed by its receive context... note node1 halted first here,
	// but its halt message to node 0 does not gate node 0's data).
	if receivedAtFlush < sentBeforeHalt-1 {
		t.Fatalf("flush completed with in-flight data: received %d at flush, sent >= %d",
			receivedAtFlush, sentBeforeHalt)
	}
	// Packets still in the send queue at halt remain there (they will be
	// switched with the buffer).
	if tx.SendQ.Len() == 0 && inFlightAtHalt > 2 {
		t.Fatalf("expected packets stranded in send queue (had %d at halt)", inFlightAtHalt)
	}
}

func TestRefillDelivery(t *testing.T) {
	eng, _, nics := rig(t, 3)
	var got []int
	var from []myrinet.NodeID
	nics[2].Register(1, 2, 126, 334, Hooks{
		OnRefill: func(ctx *Context, p *myrinet.Packet) {
			got = append(got, p.Credits)
			from = append(from, p.Src)
		},
	})
	nics[0].SendRefill(1, 0, 2, 2, 7)
	nics[1].SendRefill(1, 1, 2, 2, 9)
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("refills delivered: %d, want 2", len(got))
	}
	sum := got[0] + got[1]
	if sum != 16 {
		t.Fatalf("credit totals = %v", got)
	}
	if from[0] == from[1] {
		t.Fatal("refill sources not distinguished")
	}
}

func TestRefillBypassesHalt(t *testing.T) {
	// Refills travel as network packets but are emitted directly by the
	// firmware; an in-flight refill arriving during a flush must still be
	// delivered (it carries the credits the resumed process needs).
	eng, _, nics := rig(t, 2)
	creditsSeen := 0
	nics[1].Register(1, 1, 126, 334, Hooks{
		OnRefill: func(ctx *Context, p *myrinet.Packet) { creditsSeen += p.Credits },
	})
	nics[0].SendRefill(1, 0, 1, 1, 5)
	nics[0].HaltNetwork(0, nil)
	nics[1].HaltNetwork(0, nil)
	eng.Run()
	if creditsSeen != 5 {
		t.Fatalf("refill lost across flush: credits=%d", creditsSeen)
	}
}

func TestRoundRobinAcrossContexts(t *testing.T) {
	eng, _, nics := rig(t, 2)
	// Two contexts on node 0, both with traffic: injections alternate.
	a, _ := nics[0].Register(1, 0, 50, 100, Hooks{})
	b, _ := nics[0].Register(2, 0, 50, 100, Hooks{})
	var order []myrinet.JobID
	nics[1].Register(1, 1, 50, 100, Hooks{
		OnArrive: func(ctx *Context) { order = append(order, nics[1].DequeueRecv(ctx).Job) },
	})
	nics[1].Register(2, 1, 50, 100, Hooks{
		OnArrive: func(ctx *Context) { order = append(order, nics[1].DequeueRecv(ctx).Job) },
	})
	for i := 0; i < 4; i++ {
		nics[0].EnqueueSend(a, dataPkt(0, 1, 1, uint64(i)))
		nics[0].EnqueueSend(b, dataPkt(0, 1, 2, uint64(i)))
	}
	eng.Run()
	if len(order) != 8 {
		t.Fatalf("delivered %d, want 8", len(order))
	}
	// Strict alternation 1,2,1,2... (both queues always nonempty).
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("scanner not round-robin: %v", order)
		}
	}
}

func TestSetIdentityRebindsJob(t *testing.T) {
	eng, _, nics := rig(t, 2)
	tx, _ := nics[0].Register(7, 0, 126, 334, Hooks{})
	seenJob7, seenJob9 := 0, 0
	ctx, _ := nics[1].Register(7, 1, 126, 334, Hooks{
		OnArrive: func(c *Context) { seenJob7++; nics[1].DequeueRecv(c) },
	})
	nics[0].EnqueueSend(tx, dataPkt(0, 1, 7, 0))
	eng.Run()

	// Rebind the receiving context to job 9.
	nics[1].SetIdentity(ctx, 9, 1, Hooks{
		OnArrive: func(c *Context) { seenJob9++; nics[1].DequeueRecv(c) },
	})
	nics[0].SetIdentity(tx, 9, 0, Hooks{})
	nics[0].EnqueueSend(tx, dataPkt(0, 1, 9, 1))
	eng.Run()
	if seenJob7 != 1 || seenJob9 != 1 {
		t.Fatalf("seenJob7=%d seenJob9=%d, want 1,1", seenJob7, seenJob9)
	}
	if nics[1].ContextFor(7) != nil {
		t.Fatal("job 7 should no longer resolve")
	}
	if nics[1].ContextFor(9) != ctx {
		t.Fatal("job 9 should resolve to the rebound context")
	}
}

func TestDataFilter(t *testing.T) {
	eng, _, nics := rig(t, 2)
	tx, _ := nics[0].Register(1, 0, 126, 334, Hooks{})
	received := 0
	nics[1].Register(1, 1, 126, 334, Hooks{
		OnArrive: func(c *Context) { received++; nics[1].DequeueRecv(c) },
	})
	nics[1].DataFilter = func(p *myrinet.Packet) bool { return p.MsgID%2 == 0 }
	for i := 0; i < 6; i++ {
		nics[0].EnqueueSend(tx, dataPkt(0, 1, 1, uint64(i)))
	}
	eng.Run()
	if received != 3 {
		t.Fatalf("received = %d with filter, want 3", received)
	}
	if nics[1].Stats().Drops[DropFiltered] != 3 {
		t.Fatal("filtered drops not counted")
	}
}

func TestOnSendSpaceFires(t *testing.T) {
	eng, _, nics := rig(t, 2)
	spaceEvents := 0
	tx, _ := nics[0].Register(1, 0, 4, 100, Hooks{})
	tx.Hooks.OnSendSpace = func(*Context) { spaceEvents++ }
	nics[1].Register(1, 1, 4, 100, Hooks{})
	for i := 0; i < 4; i++ {
		nics[0].EnqueueSend(tx, dataPkt(0, 1, 1, uint64(i)))
	}
	eng.Run()
	if spaceEvents != 4 {
		t.Fatalf("OnSendSpace fired %d times, want 4", spaceEvents)
	}
}

func TestSingleNodeFlushCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(1))
	n := New(eng, net, memmodel.Default(), DefaultConfig(0))
	flushed, released := false, false
	n.HaltNetwork(3, func() { flushed = true })
	n.ReleaseNetwork(3, func() { released = true })
	eng.Run()
	if !flushed || !released {
		t.Fatal("single-node halt/release should complete without peers")
	}
}

func TestFlushStateObservable(t *testing.T) {
	eng, _, nics := rig(t, 3)
	nics[0].HaltNetwork(0, nil)
	eng.Run() // node 1 and 2 never halt; flush is stuck at H,1+arrivals
	local, _ := nics[0].FlushState(0)
	if !local {
		t.Fatal("node 0 should have locally halted")
	}
	// Node 1 received node 0's halt: state S,1.
	l1, r1 := nics[1].FlushState(0)
	if l1 || r1 != 1 {
		t.Fatalf("node 1 state = (%v,%d), want (false,1)", l1, r1)
	}
}

func TestSendRawBypassesQueueAndHalt(t *testing.T) {
	eng, _, nics := rig(t, 2)
	acks := 0
	nics[1].OnControl = func(p *myrinet.Packet) {
		if p.Type == myrinet.Ack {
			acks++
		}
	}
	// Halt node 0; raw control still flows (firmware-generated).
	nics[0].HaltNetwork(0, nil)
	nics[1].HaltNetwork(0, nil)
	eng.Run()
	nics[0].SendRaw(&myrinet.Packet{Type: myrinet.Ack, Src: 0, Dst: 1, Job: 1})
	eng.Run()
	if acks != 1 {
		t.Fatalf("raw ack not delivered while halted: %d", acks)
	}
}

func TestQueueAt(t *testing.T) {
	q := NewQueue(4)
	a, b := &myrinet.Packet{MsgID: 1}, &myrinet.Packet{MsgID: 2}
	q.Enqueue(a)
	q.Enqueue(b)
	if q.At(0) != a || q.At(1) != b {
		t.Fatal("At order wrong")
	}
	if q.At(-1) != nil || q.At(2) != nil {
		t.Fatal("out-of-range At should return nil")
	}
}

func TestRecvEngineSerializesHaltBehindDMA(t *testing.T) {
	// A halt arriving right after a burst of data must not complete the
	// flush until every preceding packet is deposited in the queue.
	eng, _, nics := rig(t, 2)
	tx, _ := nics[0].Register(1, 0, 126, 334, Hooks{})
	nics[1].Register(1, 1, 126, 334, Hooks{})
	const burst = 40
	for i := 0; i < burst; i++ {
		nics[0].EnqueueSend(tx, dataPkt(0, 1, 1, uint64(i)))
	}
	// Let part of the burst reach the wire, then halt while arrivals are
	// still being DMA'd at node 1.
	eng.RunUntil(12_000)
	depositedAtFlush := -1
	nics[1].HaltNetwork(0, func() {
		depositedAtFlush = nics[1].ContextFor(1).RecvQ.Len()
	})
	nics[0].HaltNetwork(0, nil)
	eng.Run()
	injected := int(nics[0].Stats().Injected)
	if injected == 0 || injected == burst {
		t.Fatalf("test setup: want a partial burst in flight, injected=%d", injected)
	}
	if depositedAtFlush != injected {
		t.Fatalf("flush completed with %d/%d in-flight packets deposited", depositedAtFlush, injected)
	}
}

func TestUnregisterReindexesSlots(t *testing.T) {
	_, _, nics := rig(t, 2)
	a, _ := nics[0].Register(1, 0, 10, 10, Hooks{})
	b, _ := nics[0].Register(2, 0, 10, 10, Hooks{})
	c, _ := nics[0].Register(3, 0, 10, 10, Hooks{})
	_ = a
	nics[0].Unregister(b)
	if len(nics[0].Contexts()) != 2 {
		t.Fatal("context not removed")
	}
	if c.Slot != 1 {
		t.Fatalf("slot not reindexed: %d", c.Slot)
	}
	if nics[0].ContextFor(2) != nil {
		t.Fatal("unregistered job still resolves")
	}
}

// TestReleaseBeforeFlushReportsViolation: completing the release stage for
// an epoch whose flush has not finished is a protocol-order breach the card
// reports as a Violation event; the proper halt-then-release order is
// silent.
func TestReleaseBeforeFlushReportsViolation(t *testing.T) {
	var got []string
	watch := func(net *myrinet.Network) {
		got = nil
		net.SetObserver(func(e myrinet.Event) {
			if e.Kind == myrinet.Violation {
				got = append(got, e.Invariant)
			}
		})
	}
	// Out-of-order release: single node, so both trackers complete locally.
	eng, net, nics := rig(t, 1)
	watch(net)
	nics[0].ReleaseNetwork(7, nil)
	eng.Run()
	if len(got) != 1 || got[0] != "flush-order" {
		t.Fatalf("violations = %v, want [flush-order]", got)
	}

	// Proper order for the same epoch: no violation.
	eng2, net2, nics2 := rig(t, 1)
	watch(net2)
	nics2[0].HaltNetwork(7, func() {
		nics2[0].ReleaseNetwork(7, nil)
	})
	eng2.Run()
	if len(got) != 0 {
		t.Fatalf("ordered switch reported violations: %v", got)
	}
}

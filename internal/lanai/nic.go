package lanai

import (
	"fmt"

	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Config holds the card's geometry and firmware cost parameters.
type Config struct {
	// Node is this card's address on the data network.
	Node myrinet.NodeID

	// SendSlots is the total number of packet slots in the send-queue
	// region of the card's RAM. The paper's card has 512 KB of which
	// ~400 KB hold the send queue: 252 slots of 1560 bytes.
	SendSlots int
	// RecvSlots is the total number of packet slots in the pinned DMA
	// receive buffer on the host: 1 MB = 668 slots (paper §4.2).
	RecvSlots int

	// SendOverhead is the LANai processing time per injected packet
	// (scan, route lookup, header build), in host cycles.
	SendOverhead sim.Time
	// RecvOverhead is the receive-context processing time per packet
	// before the DMA starts, in host cycles.
	RecvOverhead sim.Time
	// CtlOverhead is the firmware cost of emitting one halt/ready
	// control packet during the serial broadcast loop.
	CtlOverhead sim.Time
}

// DefaultConfig returns the LANai 4.3 parameters used throughout the
// reproduction.
func DefaultConfig(node myrinet.NodeID) Config {
	return Config{
		Node:         node,
		SendSlots:    252,
		RecvSlots:    668,
		SendOverhead: 400, // 2 us
		RecvOverhead: 500, // 2.5 us
		CtlOverhead:  150,
	}
}

// Recovery parameterizes the firmware's control-packet retransmission
// layer. The protocol of Figure 3 assumes every Halt/Ready arrives; with
// recovery enabled the card arms a timer per switch epoch after its own
// local transition and, while the phase is incomplete, re-broadcasts its
// control packet to the peers not yet heard from — Timeout cycles for the
// first attempt, doubling on each subsequent one (exponential backoff).
// After Retries attempts the phase is force-completed without the missing
// peers (degraded flush): liveness is restored and failure detection is
// left to the masterd's heartbeat, which alone decides eviction.
//
// Retransmitted packets carry a marker; a card receiving a marked packet
// it has already counted (or whose epoch it has completed) echoes its own
// control packet back to the sender, so one-sided loss heals even when
// the receiver has nothing left to wait for. Echoes are unmarked and
// therefore never trigger counter-echoes.
type Recovery struct {
	// Timeout is the first retransmission deadline, measured from the
	// local phase transition, in cycles.
	Timeout sim.Time
	// Retries bounds the retransmission attempts per epoch per phase;
	// attempt i fires after Timeout<<i. After the last attempt the phase
	// is force-completed.
	Retries int
	// CopyBound is the host's worst-case stage-2 buffer copy. Peers enter
	// the release phase when their own copy ends, so a healthy peer's
	// Ready can trail this card's by up to one copy: the first Ready
	// deadline waits CopyBound on top of Timeout.
	CopyBound sim.Time
}

// ctrlRetransmit marks a Halt/Ready as a retransmission in the otherwise
// unused Frag field of control packets; receivers that find it stale echo
// their own control packet back (unmarked) to unstick the sender.
const ctrlRetransmit = 1

// Hooks are the host-library callbacks attached to a context. All hooks
// are optional.
type Hooks struct {
	// OnArrive fires after a data packet has been DMA'd into the
	// context's receive queue.
	OnArrive func(ctx *Context)
	// OnRefill fires when a flow-control refill for this context
	// arrives; p carries the sending node/rank and the credit count.
	OnRefill func(ctx *Context, p *myrinet.Packet)
	// OnSendSpace fires when the send scanner frees a send-queue slot,
	// so a host pump blocked on a full queue can resume.
	OnSendSpace func(ctx *Context)
}

// Context is one hardware communication context on the card: an FM
// process's send queue (card RAM) and receive queue (pinned host RAM).
type Context struct {
	Job   myrinet.JobID
	SendQ *Queue
	RecvQ *Queue
	Hooks Hooks
}

// DropReason classifies why the card discarded a packet.
type DropReason int

const (
	// DropNoContext: no context registered for the packet's job — the
	// situation the paper's synchronized startup (Fig 2) exists to
	// prevent, and the direct cause of lost credits.
	DropNoContext DropReason = iota
	// DropRecvFull: the context's receive queue had no free slot. Under
	// correct credit accounting this never happens.
	DropRecvFull
	// DropFiltered: a data filter (SHARE-style scheme) rejected it.
	DropFiltered
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropNoContext:
		return "no-context"
	case DropRecvFull:
		return "recv-full"
	case DropFiltered:
		return "filtered"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Stats collects card-level counters.
type Stats struct {
	Injected   uint64
	Received   uint64
	Drops      map[DropReason]uint64
	HaltsSent  uint64
	ReadysSent uint64

	// HaltRetransmits / ReadyRetransmits count recovery-layer re-sends
	// (timer-driven retransmissions plus stale-packet echoes). Always zero
	// with recovery disabled.
	HaltRetransmits  uint64
	ReadyRetransmits uint64
	// StaleCtrl counts Halt/Ready packets that carried no new information:
	// duplicates of an already-counted peer, packets for a completed
	// epoch, or packets from an evicted peer.
	StaleCtrl uint64
	// ForcedPhases counts flush/release phases completed degraded, without
	// every peer's control packet, after the retransmission budget ran out.
	ForcedPhases uint64
}

// NIC is the simulated Myrinet card: LANai processor, firmware and queues.
type NIC struct {
	eng *sim.Engine
	net *myrinet.Network
	cfg Config
	// dma is the DMA engine's cost model, priced once so the per-packet
	// receive path divides nothing.
	dma memmodel.Transfer

	contexts []*Context
	// byJob maps a job to its context, indexed by JobID+1 so that NoJob
	// (an idle switched context) sits at 0: job IDs are small and dense,
	// and a per-packet lookup should not hash.
	byJob []*Context

	sendSlotsUsed int
	recvSlotsUsed int

	haltBit     bool
	flush       *phaseTracker
	release     *phaseTracker
	scanPending bool
	rr          int // round-robin cursor over context slots

	// kick is the send scanner's re-arm at linkFree, held dormant as a
	// reserved key while dormant is set: a scan that leaves every send
	// queue empty re-arms nothing unless a touch (see wake) comes first.
	kick    sim.Key
	dormant bool

	// recovery, when non-nil, enables the retransmission layer.
	recovery *Recovery

	// recvEngine serializes the receive context + DMA engine.
	recvEngine *sim.Resource

	// DataFilter, when set, is consulted for every incoming data packet
	// before DMA; returning false drops the packet (and counts it as
	// DropFiltered). Used by the SHARE-style alternative scheme.
	DataFilter func(p *myrinet.Packet) bool
	// OnControl, when set, receives Ack/Nack packets (alternative
	// schemes); Halt/Ready are always handled by the flush trackers.
	OnControl func(p *myrinet.Packet)

	// depositFn/refillFn are the per-card callback values the firmware
	// schedules with, created once so the per-packet paths allocate no
	// closures.
	depositFn func(any)
	refillFn  func(any)

	// opPool recycles the ctrlOp records the flush/release protocol
	// schedules with (tail transitions, control arrivals, retransmission
	// deadlines) — one op per event or deadline chain, freed when it
	// ends. bcastPool does the same for serial broadcast loops, one
	// record per loop.
	opPool    []*ctrlOp
	bcastPool []*bcast

	// relEpoch/relDone hold the one in-flight release completion so the
	// release can use the prebuilt relCompleteFn instead of a closure per
	// switch; the manager above never overlaps two releases.
	relEpoch      uint64
	relDone       func()
	relBusy       bool
	relCompleteFn func()

	stats Stats
}

// ctrlOp is one pooled flush-protocol action: a tail local transition, a
// counted control arrival, or a phase epoch's retransmission deadline
// chain. The record rides through the engine as the event argument, so
// the protocol allocates no closures.
type ctrlOp struct {
	n       *NIC
	t       *phaseTracker
	dst     myrinet.NodeID
	epoch   uint64
	retx    bool
	done    func()
	attempt int // retransmission rounds so far (deadline chains)
}

// bcast is one pooled serial broadcast loop: the destinations snapshotted
// at its start and a cursor that each firing advances. The loop holds one
// pending event: each firing schedules the next one CtlOverhead later. A
// retransmission round (retx) re-checks each destination at fire time.
type bcast struct {
	n     *NIC
	t     *phaseTracker
	epoch uint64
	retx  bool
	dsts  []myrinet.NodeID
	next  int
}

// The shared event callbacks: one function value per action kind for the
// whole package (the record carries all per-event state).
var (
	ctrlTailFn   = func(a any) { a.(*ctrlOp).fireTail() }
	ctrlArriveFn = func(a any) { a.(*ctrlOp).fireArrive() }
)

// bcastFn is a declared function rather than a variable like the two
// above because fire reschedules it.
func bcastFn(a any) { a.(*bcast).fire() }

// The send scanner's callbacks take the card as their argument.
func scanFn(a any) { a.(*NIC).scan() }
func kickFn(a any) { a.(*NIC).kickSender() }

func (n *NIC) getOp() *ctrlOp {
	if ln := len(n.opPool); ln > 0 {
		op := n.opPool[ln-1]
		n.opPool = n.opPool[:ln-1]
		*op = ctrlOp{n: n}
		return op
	}
	return &ctrlOp{n: n}
}

func (n *NIC) putOp(op *ctrlOp) {
	op.done = nil
	n.opPool = append(n.opPool, op)
}

// broadcast starts the serial loop sending t's control packet for epoch,
// one per CtlOverhead, to every other member not yet heard from (retx) or
// to all of them. It returns the loop's length; an empty loop fires nothing.
func (n *NIC) broadcast(t *phaseTracker, epoch uint64, retx bool) sim.Time {
	var b *bcast
	if ln := len(n.bcastPool); ln > 0 {
		b, n.bcastPool = n.bcastPool[ln-1], n.bcastPool[:ln-1]
	} else {
		b = &bcast{n: n}
	}
	b.t, b.epoch, b.retx, b.dsts, b.next = t, epoch, retx, b.dsts[:0], 0
	for d := 0; d < n.net.Nodes(); d++ {
		dst := myrinet.NodeID(d)
		if dst == n.cfg.Node || t.Evicted(dst) || retx && t.Heard(epoch, dst) {
			continue
		}
		b.dsts = append(b.dsts, dst)
	}
	if len(b.dsts) == 0 {
		n.bcastPool = append(n.bcastPool, b)
		return 0
	}
	n.eng.ScheduleArg(n.cfg.CtlOverhead, bcastFn, b)
	return sim.Time(len(b.dsts)) * n.cfg.CtlOverhead
}

// fire schedules the loop's next firing, then sends its control packet;
// the last firing returns the record to the pool instead.
func (b *bcast) fire() {
	n, t, epoch, retx, dst := b.n, b.t, b.epoch, b.retx, b.dsts[b.next]
	if b.next++; b.next == len(b.dsts) {
		n.bcastPool = append(n.bcastPool, b)
	} else {
		n.eng.ScheduleArg(n.cfg.CtlOverhead, bcastFn, b)
	}
	switch {
	case retx:
		if t.Done(epoch) || t.Heard(epoch, dst) {
			return
		}
		n.countRetransmit(t.typ)
	case t.typ == myrinet.Halt:
		n.stats.HaltsSent++
	default:
		n.stats.ReadysSent++
	}
	n.sendCtrl(t.typ, dst, epoch, retx)
}

func (op *ctrlOp) fireTail() {
	n, t, epoch, done := op.n, op.t, op.epoch, op.done
	n.putOp(op)
	n.localTransition(t, epoch, done)
}

func (op *ctrlOp) fireArrive() {
	n, t, epoch, src, retx := op.n, op.t, op.epoch, op.dst, op.retx
	n.putOp(op)
	n.ctrlArrive(t, epoch, src, retx)
}

// New creates a card attached to the network.
func New(eng *sim.Engine, net *myrinet.Network, mem *memmodel.Model, cfg Config) *NIC {
	n := &NIC{
		eng:        eng,
		net:        net,
		dma:        mem.DMA(),
		cfg:        cfg,
		flush:      newPhaseTracker(net.Nodes() - 1),
		release:    newPhaseTracker(net.Nodes() - 1),
		recvEngine: sim.NewResource(eng),
		stats:      Stats{Drops: make(map[DropReason]uint64)},
	}
	n.depositFn = n.deposit
	n.refillFn = n.refillArrived
	n.relCompleteFn = n.releaseComplete
	n.flush.typ, n.release.typ = myrinet.Halt, myrinet.Ready
	net.Attach(cfg.Node, n)
	return n
}

// NewPacket returns a zeroed packet from the network's free list; packets built through it are recycled at their
// death point (see FreePacket).
func (n *NIC) NewPacket() *myrinet.Packet { return n.net.NewPacket() }

// FreePacket returns a pool-allocated packet to the network's free list
// (no-op for externally constructed packets). Host libraries call it when
// they finish consuming a delivered packet.
func (n *NIC) FreePacket(p *myrinet.Packet) { n.net.FreePacket(p) }

// Node returns the card's network address.
func (n *NIC) Node() myrinet.NodeID { return n.cfg.Node }

// Emit stamps e with this card's node and the clock and posts it to the
// network's observer: the card's drops and violations, and the manager's
// (which reaches the network through its card), report here.
func (n *NIC) Emit(e myrinet.Event) {
	e.Time, e.Node = n.eng.Now(), n.cfg.Node
	n.net.Emit(e)
}

// NetworkNodes returns the size of the fabric the card is attached to (the
// routing-table information COMM_init_node reads from the configuration).
func (n *NIC) NetworkNodes() int { return n.net.Nodes() }

// Config returns the card's configuration.
func (n *NIC) Config() Config { return n.cfg }

// Stats returns a snapshot of the counters.
func (n *NIC) Stats() Stats { return n.stats }

// SetRecovery enables the control-packet retransmission layer. Must be
// called before the first switch; the zero value of r is rejected.
func (n *NIC) SetRecovery(r Recovery) {
	if r.Timeout <= 0 || r.Retries < 0 || r.CopyBound < 0 {
		panic(fmt.Sprintf("lanai: invalid recovery config %+v", r))
	}
	n.recovery = &r
}

// EvictPeer removes a peer from the card's membership view: it is no
// longer expected to report in any flush or release phase, open epochs
// blocked only on it complete immediately, and future broadcasts skip it.
func (n *NIC) EvictPeer(peer myrinet.NodeID) {
	n.flush.Evict(peer)
	n.release.Evict(peer)
}

// JoinPeer restores an evicted peer to the card's membership view: a
// repaired node's fresh incarnation will report in every future flush and
// release phase, and broadcasts reach it again. The masterd's rejoin
// barrier only applies joins between rotation rounds, when no flush or
// release epoch is open on any card.
func (n *NIC) JoinPeer(peer myrinet.NodeID) {
	n.flush.Join(peer)
	n.release.Join(peer)
}

// Halted reports the state of the halt bit.
func (n *NIC) Halted() bool { return n.haltBit }

// Register allocates a hardware context with the given queue capacities
// (in packet slots). It fails if the card or the pinned DMA region cannot
// accommodate the request, or the job already has a context — the resource
// scarcity that motivates the whole paper.
func (n *NIC) Register(job myrinet.JobID, sendSlots, recvSlots int, hooks Hooks) (*Context, error) {
	n.wake()
	if sendSlots <= 0 || recvSlots <= 0 {
		return nil, fmt.Errorf("lanai: context for job %d needs positive queue sizes", job)
	}
	if n.sendSlotsUsed+sendSlots > n.cfg.SendSlots {
		return nil, fmt.Errorf("lanai: NIC RAM exhausted: %d send slots in use, %d requested, %d total",
			n.sendSlotsUsed, sendSlots, n.cfg.SendSlots)
	}
	if n.recvSlotsUsed+recvSlots > n.cfg.RecvSlots {
		return nil, fmt.Errorf("lanai: pinned DMA buffer exhausted: %d recv slots in use, %d requested, %d total",
			n.recvSlotsUsed, recvSlots, n.cfg.RecvSlots)
	}
	if job < myrinet.NoJob {
		return nil, fmt.Errorf("lanai: bad job id %d", job)
	}
	if n.ContextFor(job) != nil {
		return nil, fmt.Errorf("lanai: job %d already has a context on node %d", job, n.cfg.Node)
	}
	ctx := &Context{
		Job:   job,
		SendQ: NewQueue(sendSlots),
		RecvQ: NewQueue(recvSlots),
		Hooks: hooks,
	}
	n.contexts = append(n.contexts, ctx)
	n.bindJob(job, ctx)
	n.sendSlotsUsed += sendSlots
	n.recvSlotsUsed += recvSlots
	return ctx, nil
}

// Unregister releases the context's card and DMA resources.
func (n *NIC) Unregister(ctx *Context) {
	n.wake()
	if n.ContextFor(ctx.Job) == ctx {
		n.bindJob(ctx.Job, nil)
	}
	for i, c := range n.contexts {
		if c == ctx {
			n.contexts = append(n.contexts[:i], n.contexts[i+1:]...)
			break
		}
	}
	n.sendSlotsUsed -= ctx.SendQ.Cap()
	n.recvSlotsUsed -= ctx.RecvQ.Cap()
	if n.rr >= len(n.contexts) {
		n.rr = 0
	}
}

// SetIdentity rebinds a context to a different job — the pointer
// update half of the buffer switch: queue contents are swapped separately
// by the glueFM layer, which loads a send queue only after this call.
func (n *NIC) SetIdentity(ctx *Context, job myrinet.JobID, hooks Hooks) {
	n.wake()
	if n.ContextFor(ctx.Job) == ctx {
		n.bindJob(ctx.Job, nil)
	}
	ctx.Job = job
	ctx.Hooks = hooks
	n.bindJob(job, ctx)
}

// ContextFor returns the context serving job, or nil.
func (n *NIC) ContextFor(job myrinet.JobID) *Context {
	if i := int(job) + 1; i >= 0 && i < len(n.byJob) {
		return n.byJob[i]
	}
	return nil
}

// bindJob points job's byJob entry at ctx (nil unbinds), growing the
// table the first time a job past its end is bound.
func (n *NIC) bindJob(job myrinet.JobID, ctx *Context) {
	i := int(job) + 1
	if i >= len(n.byJob) {
		n.byJob = append(n.byJob, make([]*Context, i+1-len(n.byJob))...)
	}
	n.byJob[i] = ctx
}

// EnqueueSend places a host-built packet in the context's send queue and
// wakes the send scanner. It reports whether a slot was free; the host
// library must not call it when the queue is full (it should wait for
// OnSendSpace), but the card tolerates it.
func (n *NIC) EnqueueSend(ctx *Context, p *myrinet.Packet) bool {
	n.wake()
	if !ctx.SendQ.Enqueue(p) {
		return false
	}
	n.kickSender()
	return true
}

// DequeueRecv removes the oldest packet from the context's receive queue
// (the host library calls this from FM_extract).
func (n *NIC) DequeueRecv(ctx *Context) *myrinet.Packet {
	return ctx.RecvQ.Dequeue()
}

// kickSender arms the send scanner if it is idle, transmission is not
// halted, and some context has a packet queued.
func (n *NIC) kickSender() {
	if n.scanPending || n.haltBit || !n.anyReady() {
		return
	}
	n.scanPending = true
	n.eng.ScheduleArg(n.cfg.SendOverhead, scanFn, n)
}

// wake resolves a dormant kick ahead of a touch that could make the
// scanner armable: EnqueueSend, scan, HaltNetwork, releaseComplete,
// Register, Unregister and SetIdentity call it first, and nothing else
// fills a send queue or clears the halt bit or scanPending. If the kick's
// key is still ahead it is filed under that key and fires as it always
// would have. If the key has passed, no touch came between the scan and
// it: every send queue was still empty when it would have fired, so it
// would have done nothing, and it is dropped.
func (n *NIC) wake() {
	if n.dormant { // the check inlines into every touch; the filing does not
		n.fileKick()
	}
}

func (n *NIC) fileKick() {
	n.dormant = false
	if n.eng.Ahead(n.kick) {
		n.eng.ScheduleReserved(n.kick, kickFn, n)
	}
}

// scan is the armed send scanner's firing: inject one packet and re-arm
// when the link frees. A scan that leaves every send queue empty keeps
// its re-arm dormant (see wake).
func (n *NIC) scan() {
	n.wake()
	n.scanPending = false
	// The firmware checks the halt bit before sending each packet
	// (paper §3.2); if it was set while we were preparing, the
	// packet stays queued.
	if n.haltBit {
		return
	}
	ctx := n.nextReady()
	if ctx == nil {
		return
	}
	p := ctx.SendQ.Dequeue()
	n.stats.Injected++
	linkFree := n.net.Send(p)
	if ctx.Hooks.OnSendSpace != nil {
		ctx.Hooks.OnSendSpace(ctx)
	}
	if n.anyReady() {
		n.eng.ScheduleArgAt(linkFree, kickFn, n)
	} else {
		n.kick, n.dormant = n.eng.Reserve(linkFree), true
	}
}

// anyReady reports whether any context has a packet queued to send.
func (n *NIC) anyReady() bool {
	for _, ctx := range n.contexts {
		if ctx.SendQ.Len() > 0 {
			return true
		}
	}
	return false
}

// nextReady returns the next context with a queued packet, round-robin.
// The cursor wraps by compare, not modulo: scan runs once per packet.
func (n *NIC) nextReady() *Context {
	k, j := len(n.contexts), n.rr
	for i := 0; i < k; i++ {
		if j >= k {
			j = 0
		}
		ctx := n.contexts[j]
		if j++; ctx.SendQ.Len() > 0 {
			if j == k {
				j = 0
			}
			n.rr = j
			return ctx
		}
	}
	return nil
}

// SendRefill injects an explicit flow-control refill. Refills bypass the
// credit check and the data send queue (they are small control-like
// packets the firmware emits directly).
func (n *NIC) SendRefill(job myrinet.JobID, srcRank, dstRank int, dst myrinet.NodeID, credits int) {
	p := n.net.NewPacket()
	p.Type, p.Src, p.Dst = myrinet.Refill, n.cfg.Node, dst
	p.Job, p.SrcRank, p.DstRank, p.Credits = job, srcRank, dstRank, credits
	n.net.Send(p)
}

// SendRaw injects a firmware-generated packet directly, bypassing the data
// send queue and the halt bit. The alternative schemes use it for
// NIC-level acknowledgements, which (like PM's) flow regardless of the
// destination process's scheduling state.
func (n *NIC) SendRaw(p *myrinet.Packet) {
	n.net.Send(p)
}

// HaltNetwork implements the first stage of the context switch: set the
// halt bit, broadcast a halt message to every other node (serial loop —
// Myrinet has no hardware broadcast), and invoke onFlushed once halts
// from all other nodes have been collected (state H,p of Figure 3).
func (n *NIC) HaltNetwork(epoch uint64, onFlushed func()) {
	n.wake()
	n.haltBit = true
	if n.flush.peers == 0 {
		n.flush.LocalTransition(epoch, onFlushed)
		return
	}
	// Serial broadcast loop: each control packet costs firmware time and
	// is serialized behind in-flight data at the injection port.
	delay := n.broadcast(n.flush, epoch, false)
	op := n.getOp()
	op.t, op.epoch, op.done = n.flush, epoch, onFlushed
	n.eng.ScheduleArg(delay, ctrlTailFn, op)
}

// ReleaseNetwork implements the third stage: broadcast readiness to
// receive for the new context and, once every other node has also
// reported ready, clear the halt bit, restart the send scanner, and invoke
// onReleased.
func (n *NIC) ReleaseNetwork(epoch uint64, onReleased func()) {
	if n.relBusy {
		panic(fmt.Sprintf("lanai: node %d release of epoch %d overlaps epoch %d", n.cfg.Node, epoch, n.relEpoch))
	}
	n.relBusy = true
	n.relEpoch, n.relDone = epoch, onReleased
	if n.release.peers == 0 {
		n.release.LocalTransition(epoch, n.relCompleteFn)
		return
	}
	delay := n.broadcast(n.release, epoch, false)
	op := n.getOp()
	op.t, op.epoch, op.done = n.release, epoch, n.relCompleteFn
	n.eng.ScheduleArg(delay, ctrlTailFn, op)
}

// releaseComplete finishes the stashed in-flight release once every peer
// has reported ready. The release stage must strictly follow flush
// completion for the same epoch: clearing the halt bit while data of the
// previous context could still be on the wire is exactly the overlap the
// three-stage protocol exists to prevent.
func (n *NIC) releaseComplete() {
	n.wake()
	epoch, done := n.relEpoch, n.relDone
	n.relBusy, n.relDone = false, nil
	if !n.flush.Done(epoch) {
		n.Emit(myrinet.Event{Kind: myrinet.Violation, Invariant: "flush-order",
			Detail: fmt.Sprintf("node %d released epoch %d before its flush completed", n.cfg.Node, epoch)})
	}
	n.haltBit = false
	n.kickSender()
	if done != nil {
		done()
	}
}

// sendCtrl emits one flush-protocol control packet. Retransmissions and
// echoes are distinguished by the marker (see ctrlRetransmit).
func (n *NIC) sendCtrl(typ myrinet.PacketType, dst myrinet.NodeID, epoch uint64, retx bool) {
	p := n.net.NewPacket()
	p.Type, p.Src, p.Dst, p.Job, p.Epoch = typ, n.cfg.Node, dst, myrinet.NoJob, epoch
	if retx {
		p.Frag = ctrlRetransmit
	}
	n.net.Send(p)
}

// localTransition performs the tracker's local transition and, with
// recovery enabled, starts the epoch's retransmission deadline chain if
// the phase is still open.
func (n *NIC) localTransition(t *phaseTracker, epoch uint64, onDone func()) {
	t.LocalTransition(epoch, onDone)
	if n.recovery != nil && !t.Done(epoch) {
		op := n.getOp()
		op.t, op.epoch = t, epoch
		n.armRetry(op)
	}
}

// armRetry schedules op's next deadline, Timeout<<attempt cycles from now
// (plus CopyBound for the first Ready deadline).
func (n *NIC) armRetry(op *ctrlOp) {
	d := n.recovery.Timeout << op.attempt
	if op.t == n.release && op.attempt == 0 {
		d += n.recovery.CopyBound
	}
	n.eng.ScheduleArg(d, ctrlRetryFn, op)
}

func ctrlRetryFn(a any) { a.(*ctrlOp).fireRetry() }

// fireRetry is a retransmission deadline. A phase that completed meanwhile
// ends the chain (Done is a permanent watermark, so a completed epoch
// never reopens); an incomplete one is re-broadcast to the unheard peers
// with backoff or — budget spent — forced complete without them.
func (op *ctrlOp) fireRetry() {
	n, t := op.n, op.t
	switch {
	case t.Done(op.epoch):
	case op.attempt >= n.recovery.Retries:
		if t.ForceComplete(op.epoch) {
			n.stats.ForcedPhases++
		}
	default:
		n.broadcast(t, op.epoch, true)
		op.attempt++
		n.armRetry(op)
		return
	}
	n.putOp(op)
}

func (n *NIC) countRetransmit(typ myrinet.PacketType) {
	if typ == myrinet.Halt {
		n.stats.HaltRetransmits++
	} else {
		n.stats.ReadyRetransmits++
	}
}

// HandlePacket is the receive context: it consumes a packet from the
// network, identifies its type and destination, and DMAs data packets into
// the target context's receive queue (paper §2.2).
func (n *NIC) HandlePacket(p *myrinet.Packet) {
	switch p.Type {
	case myrinet.Halt:
		// Control messages are consumed by the same receive context
		// that performs data DMA, so a halt is counted only after every
		// packet that preceded it on the wire has been fully deposited
		// in its receive queue. The buffer switch that follows flush
		// completion therefore sees complete queues.
		op := n.getOp()
		op.t, op.epoch, op.dst, op.retx = n.flush, p.Epoch, p.Src, p.Frag == ctrlRetransmit
		n.net.FreePacket(p)
		n.recvEngine.UseArg(n.cfg.CtlOverhead, ctrlArriveFn, op)
	case myrinet.Ready:
		op := n.getOp()
		op.t, op.epoch, op.dst, op.retx = n.release, p.Epoch, p.Src, p.Frag == ctrlRetransmit
		n.net.FreePacket(p)
		n.recvEngine.UseArg(n.cfg.CtlOverhead, ctrlArriveFn, op)
	case myrinet.Ack, myrinet.Nack:
		if n.OnControl != nil {
			n.OnControl(p)
		}
		n.net.FreePacket(p)
	case myrinet.Refill:
		ctx := n.ContextFor(p.Job)
		if ctx == nil {
			n.drop(p, DropNoContext)
			return
		}
		n.recvEngine.UseArg(n.cfg.RecvOverhead, n.refillFn, p)
	case myrinet.Data:
		if n.DataFilter != nil && !n.DataFilter(p) {
			n.drop(p, DropFiltered)
			return
		}
		ctx := n.ContextFor(p.Job)
		if ctx == nil {
			n.drop(p, DropNoContext)
			return
		}
		cost := n.cfg.RecvOverhead + n.dma.Cycles(p.WireSize())
		n.recvEngine.UseArg(cost, n.depositFn, p)
	}
}

// ctrlArrive counts one received Halt/Ready against its tracker. Stale
// packets — duplicates, completed epochs, evicted peers — are dropped and
// counted; if a *retransmitted* packet turns out stale and this card has
// itself made the epoch's transition, it echoes its own control packet to
// the sender, healing one-sided loss (the sender is stuck waiting for a
// packet that was lost, not unsent).
func (n *NIC) ctrlArrive(t *phaseTracker, epoch uint64, src myrinet.NodeID, retx bool) {
	if t.Arrive(epoch, src) {
		return
	}
	n.stats.StaleCtrl++
	if !retx || n.recovery == nil || t.Evicted(src) || !t.Transitioned(epoch) {
		return
	}
	n.countRetransmit(t.typ)
	n.sendCtrl(t.typ, src, epoch, false)
}

// refillArrived is the receive context's handling of a refill after its
// processing cost has been paid.
func (n *NIC) refillArrived(a any) {
	p := a.(*myrinet.Packet)
	if cur := n.ContextFor(p.Job); cur != nil && cur.Hooks.OnRefill != nil {
		cur.Hooks.OnRefill(cur, p)
	}
	n.net.FreePacket(p)
}

// deposit completes a data packet's DMA into its context's receive queue.
func (n *NIC) deposit(a any) {
	p := a.(*myrinet.Packet)
	// Re-resolve: a buffer switch may have rebound contexts while the
	// DMA was in progress. Data for a job is only in flight while that
	// job is scheduled (the gang-scheduling invariant), so the context
	// is normally still there.
	cur := n.ContextFor(p.Job)
	if cur == nil {
		n.drop(p, DropNoContext)
		return
	}
	if !cur.RecvQ.Enqueue(p) {
		n.drop(p, DropRecvFull)
		return
	}
	n.stats.Received++
	if cur.Hooks.OnArrive != nil {
		cur.Hooks.OnArrive(cur)
	}
}

func (n *NIC) drop(p *myrinet.Packet, reason DropReason) {
	n.stats.Drops[reason]++
	n.Emit(myrinet.Event{Kind: myrinet.Drop, Pkt: p})
	// A data packet also consumes its piggybacked credits when dropped;
	// the loss of both is exactly how FM's accounting gets corrupted
	// (paper §2.2). Nothing to do here — the damage is the *absence* of
	// bookkeeping. The packet object itself, though, is dead: recycle it.
	n.net.FreePacket(p)
}

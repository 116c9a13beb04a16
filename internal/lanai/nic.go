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
	Slot  int
	Job   myrinet.JobID
	Rank  int
	SendQ *Queue
	RecvQ *Queue
	Hooks Hooks

	nic *Context // guard against cross-NIC misuse (set to self at registration)
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
	mem *memmodel.Model
	cfg Config

	contexts []*Context
	byJob    map[myrinet.JobID]*Context

	sendSlotsUsed int
	recvSlotsUsed int

	haltBit     bool
	flush       *phaseTracker
	release     *phaseTracker
	scanPending bool
	rr          int // round-robin cursor over context slots

	// recovery, when non-nil, enables the retransmission layer; the
	// timer maps hold the pending per-epoch retransmission events so
	// normal completion cancels them (zero clean-path overhead).
	recovery      *Recovery
	flushTimers   map[uint64]sim.Event
	releaseTimers map[uint64]sim.Event

	// recvEngine serializes the receive context + DMA engine.
	recvEngine *sim.Resource

	// DataFilter, when set, is consulted for every incoming data packet
	// before DMA; returning false drops the packet (and counts it as
	// DropFiltered). Used by the SHARE-style alternative scheme.
	DataFilter func(p *myrinet.Packet) bool
	// OnControl, when set, receives Ack/Nack packets (alternative
	// schemes); Halt/Ready are always handled by the flush trackers.
	OnControl func(p *myrinet.Packet)

	// scanFn/kickFn/depositFn/refillFn are the per-card callback values
	// the firmware schedules with, created once so the per-packet paths
	// allocate no closures.
	scanFn    func()
	kickFn    func()
	depositFn func(any)
	refillFn  func(any)

	// opPool recycles the ctrlOp records the clean-path flush/release
	// protocol schedules with (broadcast sends, tail transitions, control
	// arrivals) — one op per event, freed when the event fires.
	opPool []*ctrlOp

	// relEpoch/relDone hold the one in-flight release completion so the
	// release can use the prebuilt relCompleteFn instead of a closure per
	// switch; the manager above never overlaps two releases.
	relEpoch      uint64
	relDone       func()
	relBusy       bool
	relCompleteFn func()

	stats Stats
}

// ctrlOp is one pooled flush-protocol action: a scheduled control-packet
// send, a tail local transition, or a counted control arrival. The record
// rides through the engine as the event argument, so the clean-path
// protocol allocates no closures.
type ctrlOp struct {
	n     *NIC
	t     *phaseTracker
	typ   myrinet.PacketType
	dst   myrinet.NodeID
	epoch uint64
	retx  bool
	done  func()
}

// The shared event callbacks: one function value per action kind for the
// whole package (the op carries all per-event state).
var (
	ctrlSendFn   = func(a any) { a.(*ctrlOp).fireSend() }
	ctrlTailFn   = func(a any) { a.(*ctrlOp).fireTail() }
	ctrlArriveFn = func(a any) { a.(*ctrlOp).fireArrive() }
)

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

func (op *ctrlOp) fireSend() {
	n := op.n
	if op.typ == myrinet.Halt {
		n.stats.HaltsSent++
	} else {
		n.stats.ReadysSent++
	}
	n.sendCtrl(op.typ, op.dst, op.epoch, false)
	n.putOp(op)
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
		mem:        mem,
		cfg:        cfg,
		byJob:      make(map[myrinet.JobID]*Context),
		flush:      newPhaseTracker(net.Nodes() - 1),
		release:    newPhaseTracker(net.Nodes() - 1),
		recvEngine: sim.NewResource(eng, fmt.Sprintf("nic%d-recv", cfg.Node)),
		stats:      Stats{Drops: make(map[DropReason]uint64)},
	}
	n.scanFn = n.scan
	n.kickFn = n.kickSender
	n.depositFn = n.deposit
	n.refillFn = n.refillArrived
	n.relCompleteFn = n.releaseComplete
	net.Attach(cfg.Node, n)
	return n
}

// NewPacket returns a zeroed packet from this node's slice of the
// network's free list; packets built through it are recycled at their
// death point (see FreePacket).
func (n *NIC) NewPacket() *myrinet.Packet { return n.net.NewPacketFrom(n.cfg.Node) }

// FreePacket returns a pool-allocated packet to the network's free list
// (no-op for externally constructed packets). Host libraries call it when
// they finish consuming a delivered packet.
func (n *NIC) FreePacket(p *myrinet.Packet) { n.net.FreePacket(p) }

// Node returns the card's network address.
func (n *NIC) Node() myrinet.NodeID { return n.cfg.Node }

// Emit stamps e with this card's node and lane clock and posts it to the
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
	n.flushTimers = make(map[uint64]sim.Event)
	n.releaseTimers = make(map[uint64]sim.Event)
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

// Expects reports whether the card's flush and release phases wait for
// peer's reports: both false once the peer is evicted, true again after
// it rejoins.
func (n *NIC) Expects(peer myrinet.NodeID) (flush, release bool) {
	return !n.flush.Evicted(peer), !n.release.Evicted(peer)
}

// Halted reports the state of the halt bit.
func (n *NIC) Halted() bool { return n.haltBit }

// Register allocates a hardware context with the given queue capacities
// (in packet slots). It fails if the card or the pinned DMA region cannot
// accommodate the request, or the job already has a context — the resource
// scarcity that motivates the whole paper.
func (n *NIC) Register(job myrinet.JobID, rank, sendSlots, recvSlots int, hooks Hooks) (*Context, error) {
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
	if _, dup := n.byJob[job]; dup {
		return nil, fmt.Errorf("lanai: job %d already has a context on node %d", job, n.cfg.Node)
	}
	ctx := &Context{
		Slot:  len(n.contexts),
		Job:   job,
		Rank:  rank,
		SendQ: NewQueue(sendSlots),
		RecvQ: NewQueue(recvSlots),
		Hooks: hooks,
	}
	ctx.nic = ctx
	n.contexts = append(n.contexts, ctx)
	n.byJob[job] = ctx
	n.sendSlotsUsed += sendSlots
	n.recvSlotsUsed += recvSlots
	return ctx, nil
}

// Unregister releases the context's card and DMA resources.
func (n *NIC) Unregister(ctx *Context) {
	if n.byJob[ctx.Job] == ctx {
		delete(n.byJob, ctx.Job)
	}
	for i, c := range n.contexts {
		if c == ctx {
			n.contexts = append(n.contexts[:i], n.contexts[i+1:]...)
			break
		}
	}
	n.sendSlotsUsed -= ctx.SendQ.Cap()
	n.recvSlotsUsed -= ctx.RecvQ.Cap()
	for i, c := range n.contexts {
		c.Slot = i
	}
	if n.rr >= len(n.contexts) {
		n.rr = 0
	}
}

// SetIdentity rebinds a context to a different (job, rank) — the pointer
// update half of the buffer switch: queue contents are swapped separately
// by the glueFM layer.
func (n *NIC) SetIdentity(ctx *Context, job myrinet.JobID, rank int, hooks Hooks) {
	if n.byJob[ctx.Job] == ctx {
		delete(n.byJob, ctx.Job)
	}
	ctx.Job = job
	ctx.Rank = rank
	ctx.Hooks = hooks
	n.byJob[job] = ctx
}

// ContextFor returns the context serving job, or nil.
func (n *NIC) ContextFor(job myrinet.JobID) *Context {
	return n.byJob[job]
}

// Contexts returns the live contexts (do not mutate).
func (n *NIC) Contexts() []*Context { return n.contexts }

// EnqueueSend places a host-built packet in the context's send queue and
// wakes the send scanner. It reports whether a slot was free; the host
// library must not call it when the queue is full (it should wait for
// OnSendSpace), but the card tolerates it.
func (n *NIC) EnqueueSend(ctx *Context, p *myrinet.Packet) bool {
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
	n.eng.Schedule(n.cfg.SendOverhead, n.scanFn)
}

// scan is the armed send scanner's firing: inject one packet and re-arm
// when the link frees.
func (n *NIC) scan() {
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
	n.eng.ScheduleAt(linkFree, n.kickFn)
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
func (n *NIC) nextReady() *Context {
	if len(n.contexts) == 0 {
		return nil
	}
	for i := 0; i < len(n.contexts); i++ {
		ctx := n.contexts[(n.rr+i)%len(n.contexts)]
		if ctx.SendQ.Len() > 0 {
			n.rr = (n.rr + i + 1) % len(n.contexts)
			return ctx
		}
	}
	return nil
}

// SendRefill injects an explicit flow-control refill. Refills bypass the
// credit check and the data send queue (they are small control-like
// packets the firmware emits directly).
func (n *NIC) SendRefill(job myrinet.JobID, srcRank, dstRank int, dst myrinet.NodeID, credits int) {
	p := n.net.NewPacketFrom(n.cfg.Node)
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
	n.haltBit = true
	if n.flush.peers == 0 {
		n.flush.LocalTransition(epoch, onFlushed)
		return
	}
	// Serial broadcast loop: each control packet costs firmware time and
	// is serialized behind in-flight data at the injection port.
	delay := sim.Time(0)
	for d := 0; d < n.net.Nodes(); d++ {
		dst := myrinet.NodeID(d)
		if dst == n.cfg.Node || n.flush.Evicted(dst) {
			continue
		}
		delay += n.cfg.CtlOverhead
		op := n.getOp()
		op.t, op.typ, op.dst, op.epoch = n.flush, myrinet.Halt, dst, epoch
		n.eng.ScheduleArg(delay, ctrlSendFn, op)
	}
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
	delay := sim.Time(0)
	for d := 0; d < n.net.Nodes(); d++ {
		dst := myrinet.NodeID(d)
		if dst == n.cfg.Node || n.release.Evicted(dst) {
			continue
		}
		delay += n.cfg.CtlOverhead
		op := n.getOp()
		op.t, op.typ, op.dst, op.epoch = n.release, myrinet.Ready, dst, epoch
		n.eng.ScheduleArg(delay, ctrlSendFn, op)
	}
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
	p := n.net.NewPacketFrom(n.cfg.Node)
	p.Type, p.Src, p.Dst, p.Job, p.Epoch = typ, n.cfg.Node, dst, myrinet.NoJob, epoch
	if retx {
		p.Frag = ctrlRetransmit
	}
	n.net.Send(p)
}

// localTransition performs the tracker's local transition and, with
// recovery enabled, wraps the completion callback to cancel the epoch's
// retransmission timer and arms the first one if the phase is still open.
func (n *NIC) localTransition(t *phaseTracker, epoch uint64, onDone func()) {
	if n.recovery == nil {
		t.LocalTransition(epoch, onDone)
		return
	}
	t.LocalTransition(epoch, func() {
		n.cancelRetry(t, epoch)
		if onDone != nil {
			onDone()
		}
	})
	if !t.Done(epoch) {
		n.armRetry(t, epoch, 0)
	}
}

// timersOf returns the retransmission-timer map for a tracker.
func (n *NIC) timersOf(t *phaseTracker) map[uint64]sim.Event {
	if t == n.flush {
		return n.flushTimers
	}
	return n.releaseTimers
}

func (n *NIC) cancelRetry(t *phaseTracker, epoch uint64) {
	timers := n.timersOf(t)
	if ev, ok := timers[epoch]; ok {
		ev.Cancel()
		delete(timers, epoch)
	}
}

// armRetry schedules retransmission attempt number attempt for the epoch,
// Timeout<<attempt cycles from now (plus CopyBound for the first Ready
// deadline).
func (n *NIC) armRetry(t *phaseTracker, epoch uint64, attempt int) {
	d := n.recovery.Timeout << attempt
	if t == n.release && attempt == 0 {
		d += n.recovery.CopyBound
	}
	n.timersOf(t)[epoch] = n.eng.Schedule(d, func() {
		n.retryFire(t, epoch, attempt)
	})
}

// retryFire is a retransmission deadline: the phase is still incomplete,
// so either re-broadcast to the unheard peers and back off, or — budget
// spent — force the phase complete without them.
func (n *NIC) retryFire(t *phaseTracker, epoch uint64, attempt int) {
	delete(n.timersOf(t), epoch)
	if t.Done(epoch) {
		return
	}
	if attempt >= n.recovery.Retries {
		if t.ForceComplete(epoch) {
			n.stats.ForcedPhases++
		}
		return
	}
	typ := myrinet.Halt
	if t == n.release {
		typ = myrinet.Ready
	}
	delay := sim.Time(0)
	for d := 0; d < n.net.Nodes(); d++ {
		dst := myrinet.NodeID(d)
		if dst == n.cfg.Node || t.Evicted(dst) || t.Heard(epoch, dst) {
			continue
		}
		delay += n.cfg.CtlOverhead
		n.eng.Schedule(delay, func() {
			if t.Done(epoch) || t.Heard(epoch, dst) {
				return
			}
			n.countRetransmit(typ)
			n.sendCtrl(typ, dst, epoch, true)
		})
	}
	n.armRetry(t, epoch, attempt+1)
}

func (n *NIC) countRetransmit(typ myrinet.PacketType) {
	if typ == myrinet.Halt {
		n.stats.HaltRetransmits++
	} else {
		n.stats.ReadyRetransmits++
	}
}

// FlushState exposes the Figure 3 state label for an epoch: whether the
// local halt has happened and how many remote halts have been counted.
func (n *NIC) FlushState(epoch uint64) (local bool, remote int) {
	return n.flush.State(epoch)
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
		ctx := n.byJob[p.Job]
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
		ctx := n.byJob[p.Job]
		if ctx == nil {
			n.drop(p, DropNoContext)
			return
		}
		cost := n.cfg.RecvOverhead + n.mem.DMACycles(p.WireSize())
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
	typ := myrinet.Halt
	if t == n.release {
		typ = myrinet.Ready
	}
	n.countRetransmit(typ)
	n.sendCtrl(typ, src, epoch, false)
}

// refillArrived is the receive context's handling of a refill after its
// processing cost has been paid.
func (n *NIC) refillArrived(a any) {
	p := a.(*myrinet.Packet)
	if cur := n.byJob[p.Job]; cur != nil && cur.Hooks.OnRefill != nil {
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
	cur := n.byJob[p.Job]
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
	n.Emit(myrinet.Event{Kind: myrinet.Drop, Job: p.Job, Pkt: p})
	// A data packet also consumes its piggybacked credits when dropped;
	// the loss of both is exactly how FM's accounting gets corrupted
	// (paper §2.2). Nothing to do here — the damage is the *absence* of
	// bookkeeping. The packet object itself, though, is dead: recycle it.
	n.net.FreePacket(p)
}

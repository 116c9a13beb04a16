package fm

import (
	"fmt"

	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Config holds the host-side cost parameters and flow-control settings of
// an endpoint.
type Config struct {
	// SendOverhead is the fixed host cost per injected packet (call
	// overhead, header build, credit bookkeeping), on top of the
	// write-combined copy of the packet into the card's send queue.
	SendOverhead sim.Time
	// RecvOverhead is the fixed host cost per extracted packet (header
	// decode, handler dispatch, credit bookkeeping). FM handlers run on
	// the data in place, so no per-byte copy is charged.
	RecvOverhead sim.Time
	// RefillOverhead is the host cost of emitting an explicit refill.
	RefillOverhead sim.Time

	// C0 is the initial and maximal per-peer credit count.
	C0 int
}

// outboxCap bounds the number of application messages queued in the
// library awaiting injection.
const outboxCap = 16

// DefaultConfig returns host costs calibrated for the 200 MHz Pentium Pro
// (peak one-way bandwidth lands at ~70 MB/s, matching Figure 5/6 at one
// context) and the credit count c0.
func DefaultConfig(c0 int) Config {
	return Config{
		SendOverhead:   300, // 1.5 us per FM_send packet
		RecvOverhead:   600, // 3 us per FM_extract packet
		RefillOverhead: 250,
		C0:             c0,
	}
}

// refillThreshold is the consumed-packet count that triggers an explicit
// refill (the "low water mark" logic of §2.2): max(1, C0/2).
func (c *Config) refillThreshold() int {
	return max(1, c.C0/2)
}

// Stats counts endpoint activity.
type Stats struct {
	MessagesSent     uint64
	PacketsSent      uint64
	PacketsRecvd     uint64
	PayloadBytesRecv uint64
	RefillsSent      uint64
	RefillsRecvd     uint64
	CreditStalls     uint64
	SendQFullStalls  uint64
}

// outMsg is an application message queued for injection.
type outMsg struct {
	dst     int
	size    int
	payload []byte
	frag    int
	nfrags  int
	msgID   uint64
}

// partial is an in-progress reassembly from one source.
type partial struct {
	msgID   uint64
	size    int
	got     int
	nfrags  int
	payload []byte
	// lost marks a message that lost a fragment: its bytes were
	// discarded and its remaining fragments are dropped on arrival.
	lost bool
}

// Endpoint is one process's FM library state: the user-level communication
// interface bound to a hardware context on the local card.
type Endpoint struct {
	eng *sim.Engine
	nic *lanai.NIC
	ctx *lanai.Context
	cpu *sim.Resource
	cfg Config

	job    myrinet.JobID
	rank   int
	nodeOf []myrinet.NodeID // rank -> node

	running bool
	killed  bool

	sendCredits []int // per peer rank
	consumed    []int // per peer rank, consumed since last refill sent

	// outbox is a fixed ring (len == outboxCap): outHead indexes the
	// oldest queued message, outN counts them. A ring instead of a
	// sliding slice keeps the steady-state send path allocation-free.
	outbox    []outMsg
	outHead   int
	outN      int
	nextMsgID []uint64
	pumping   bool
	draining  bool
	// pumpFrag carries the in-flight fragment length to pumpDone — the
	// one shared injection-complete callback (at most one injection is in
	// progress per endpoint, guarded by pumping).
	pumpFrag int
	// drainN carries the in-flight batch size to drainDone (one batch at
	// a time, guarded by draining).
	drainN int
	// refillQ holds the peers whose refill host-cost grants are pending,
	// in grant order (the CPU resource is FIFO); refillGranted pops from
	// it.
	refillQ    []int
	refillHead int
	hooks      lanai.Hooks
	// sendCopy is the write-combined copy of a packet into the card's
	// send queue, priced once (see sendCost).
	sendCopy memmodel.Transfer

	reasm []*partial // src rank -> in-progress message, nil when none
	// partialPool recycles reassembly records. Payload arrays are NOT
	// pooled: the delivered slice's ownership transfers to the handler,
	// which may retain it.
	partialPool []*partial

	handler      func(src int, size int, payload []byte)
	onCanSend    func()
	flushWaiters []func()

	// deliveredBytes counts payload handed to the message handler and
	// discardedBytes the payload of messages that lost a fragment; together
	// with the bytes parked in reasm they must always equal
	// PayloadBytesRecv (the reassembly byte-accounting invariant the chaos
	// auditor checks).
	deliveredBytes uint64
	discardedBytes uint64

	stats Stats
}

// NewEndpoint builds the library state for process rank of job, running on
// the host whose CPU is cpu, with peers located per nodeOf. The endpoint
// starts suspended; Attach it to a context and call Resume.
func NewEndpoint(eng *sim.Engine, nic *lanai.NIC, cpu *sim.Resource, mem *memmodel.Model,
	cfg Config, job myrinet.JobID, rank int, nodeOf []myrinet.NodeID) (*Endpoint, error) {
	if rank < 0 || rank >= len(nodeOf) {
		return nil, fmt.Errorf("fm: rank %d out of range for job of size %d", rank, len(nodeOf))
	}
	if cfg.C0 < 0 {
		return nil, fmt.Errorf("fm: negative credit count %d", cfg.C0)
	}
	e := &Endpoint{
		eng: eng, nic: nic, cpu: cpu, cfg: cfg,
		job: job, rank: rank, nodeOf: nodeOf,
		sendCredits: make([]int, len(nodeOf)),
		consumed:    make([]int, len(nodeOf)),
		nextMsgID:   make([]uint64, len(nodeOf)),
		outbox:      make([]outMsg, outboxCap),
		reasm:       make([]*partial, len(nodeOf)),
		sendCopy:    mem.Copy(memmodel.HostRAM, memmodel.NICWC),
	}
	for i := range e.sendCredits {
		e.sendCredits[i] = cfg.C0
	}
	e.hooks = lanai.Hooks{
		OnArrive:    func(*lanai.Context) { e.drain() },
		OnRefill:    func(_ *lanai.Context, p *myrinet.Packet) { e.refillArrived(p) },
		OnSendSpace: func(*lanai.Context) { e.pump() },
	}
	return e, nil
}

// outSlot maps the i-th oldest outbox message to its ring index.
func (e *Endpoint) outSlot(i int) int {
	i += e.outHead
	if i >= len(e.outbox) {
		i -= len(e.outbox)
	}
	return i
}

// Hooks returns the NIC callbacks that bind this endpoint to a hardware
// context. The glueFM layer installs them at COMM_init_job / switch-in.
// The hook set is built once in NewEndpoint: Attach runs at every
// switch-in, so rebuilding the closures there would allocate per switch.
func (e *Endpoint) Hooks() lanai.Hooks { return e.hooks }

// Attach binds the endpoint to its hardware context.
func (e *Endpoint) Attach(ctx *lanai.Context) {
	e.ctx = ctx
	ctx.Hooks = e.Hooks()
}

// Context returns the attached hardware context (nil before Attach).
func (e *Endpoint) Context() *lanai.Context { return e.ctx }

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Running reports whether the process is scheduled.
func (e *Endpoint) Running() bool { return e.running }

// SetHandler registers the message-arrival callback. The payload slice is
// nil for size-only workloads.
func (e *Endpoint) SetHandler(h func(src int, size int, payload []byte)) { e.handler = h }

// SetOnCanSend registers a callback fired when outbox space frees up after
// Send returned false.
func (e *Endpoint) SetOnCanSend(f func()) { e.onCanSend = f }

// CanSend reports whether the outbox can accept another message.
func (e *Endpoint) CanSend() bool { return e.outN < len(e.outbox) }

// Send queues a message of size bytes for dst. payload may be nil (the
// cost model keys off size); when non-nil its length must equal size and
// the bytes are delivered to the destination handler. Send reports whether
// the message was accepted; when false the caller should wait for
// OnCanSend. Sending to self or out of range panics: it is always an
// application bug.
func (e *Endpoint) Send(dst int, size int, payload []byte) bool {
	if dst < 0 || dst >= len(e.nodeOf) || dst == e.rank {
		panic(fmt.Sprintf("fm: rank %d sending to invalid destination %d", e.rank, dst))
	}
	if size <= 0 {
		panic("fm: message size must be positive")
	}
	if payload != nil && len(payload) != size {
		panic("fm: payload length does not match size")
	}
	if !e.CanSend() {
		return false
	}
	nfrags := (size + myrinet.MaxPayload - 1) / myrinet.MaxPayload
	e.outbox[e.outSlot(e.outN)] = outMsg{
		dst: dst, size: size, payload: payload,
		nfrags: nfrags, msgID: e.nextMsgID[dst],
	}
	e.outN++
	e.nextMsgID[dst]++
	e.pump()
	return true
}

// Suspend models SIGSTOP: the process stops producing and consuming. An
// operation already holding the CPU completes (the signal is delivered at
// the next return to user level).
func (e *Endpoint) Suspend() { e.running = false }

// Kill models SIGKILL: the process will never run again. Unlike Suspend,
// an operation already holding the CPU is abandoned rather than allowed to
// finish — the job's communication contexts are being torn down node by
// node, and a straggler packet injected after this node's queues were
// released would punch a hole in a still-live peer's fragment stream (the
// peer sees message n+1 while mid-reassembly of message n).
func (e *Endpoint) Kill() {
	e.running = false
	e.killed = true
}

// Resume models SIGCONT: the process resumes pumping and draining, and
// re-emits any refill that was deferred because the network was halted
// when it came due.
func (e *Endpoint) Resume() {
	if e.running || e.killed {
		return
	}
	e.running = true
	for peer := range e.consumed {
		if peer != e.rank && e.consumed[peer] >= e.cfg.refillThreshold() {
			e.sendRefill(peer)
		}
	}
	e.pump()
	e.drain()
}

// sendCost is the host time to inject one packet: fixed overhead plus the
// write-combined copy of header+payload into the card's send queue.
func (e *Endpoint) sendCost(wireBytes int) sim.Time {
	return e.cfg.SendOverhead + e.sendCopy.Cycles(wireBytes)
}

// pump advances the send side: one packet per host-CPU grant, in strict
// message order (FM_send blocks the caller, so a message with no credits
// head-of-line-blocks the process).
func (e *Endpoint) pump() {
	if !e.running || e.pumping || e.ctx == nil || e.outN == 0 {
		return
	}
	m := &e.outbox[e.outHead]
	if e.sendCredits[m.dst] <= 0 {
		e.stats.CreditStalls++
		return // a refill arrival re-kicks the pump
	}
	if e.ctx.SendQ.Full() {
		e.stats.SendQFullStalls++
		return // OnSendSpace re-kicks the pump
	}
	fragLen := m.size - m.frag*myrinet.MaxPayload
	if fragLen > myrinet.MaxPayload {
		fragLen = myrinet.MaxPayload
	}
	e.pumping = true
	e.pumpFrag = fragLen
	e.cpu.UseArg(e.sendCost(fragLen+myrinet.HeaderSize), pumpDoneFn, e)
}

// The host-cost completions take the endpoint as their argument.
func pumpDoneFn(a any)    { a.(*Endpoint).pumpDone() }
func drainDoneFn(a any)   { a.(*Endpoint).drainDone() }
func refillGrantFn(a any) { a.(*Endpoint).refillGranted() }

// pumpDone finishes the injection whose host cost was just paid, then
// starts the next.
func (e *Endpoint) pumpDone() {
	e.pumping = false
	e.completeSend(e.pumpFrag)
	e.pump()
}

// completeSend finishes the injection whose host cost was just paid. It
// runs even if the process was suspended mid-operation — the packet was
// already being written when the signal arrived — but not if it was
// killed: a kill tears down the job's contexts, so the half-written
// packet is abandoned instead of injected post-mortem.
func (e *Endpoint) completeSend(fragLen int) {
	if e.outN == 0 || e.killed {
		return
	}
	m := &e.outbox[e.outHead]
	var chunk []byte
	if m.payload != nil {
		start := m.frag * myrinet.MaxPayload
		chunk = m.payload[start : start+fragLen]
	}
	pkt := e.nic.NewPacket()
	pkt.Type = myrinet.Data
	pkt.Src, pkt.Dst = e.nodeOf[e.rank], e.nodeOf[m.dst]
	pkt.Job, pkt.SrcRank, pkt.DstRank = e.job, e.rank, m.dst
	pkt.MsgID, pkt.Frag, pkt.NFrags = m.msgID, m.frag, m.nfrags
	pkt.PayloadLen, pkt.Payload = fragLen, chunk
	// Piggyback a refill for everything of theirs we consumed since the
	// last refill (paper §2.2).
	pkt.Credits = e.consumed[m.dst]
	e.consumed[m.dst] = 0
	e.sendCredits[m.dst]--
	e.stats.PacketsSent++
	if !e.nic.EnqueueSend(e.ctx, pkt) {
		// The pump checked SendQ.Full before paying the host cost;
		// between then and now only the scanner can run, and it only
		// frees slots. Treat overflow as a model invariant violation.
		panic("fm: send queue overflowed despite pump check")
	}
	m.frag++
	if m.frag == m.nfrags {
		e.stats.MessagesSent++
		*m = outMsg{} // drop the payload reference
		e.outHead = e.outSlot(1)
		e.outN--
		if e.outN == 0 {
			e.outHead = 0
		}
		if e.onCanSend != nil && e.CanSend() {
			e.onCanSend()
		}
		if e.outN == 0 && len(e.flushWaiters) > 0 {
			waiters := e.flushWaiters
			e.flushWaiters = nil
			for _, fn := range waiters {
				fn()
			}
		}
	}
}

// Flush invokes fn once every queued message has been injected into the
// card's send queue (the point at which FM_send would have returned for
// all of them). If the process is descheduled first, fn fires after it is
// rescheduled and the queue drains.
func (e *Endpoint) Flush(fn func()) {
	if e.outN == 0 && !e.pumping {
		e.eng.Schedule(0, fn)
		return
	}
	e.flushWaiters = append(e.flushWaiters, fn)
}

// drainBatch bounds how many pending packets one FM_extract call consumes.
const drainBatch = 16

// drain advances the receive side. FM_extract processes every pending
// packet in one call (batched here up to drainBatch per CPU grant), so a
// backlogged receive queue drains faster than it fills; in steady state
// the queue stays nearly empty, exactly as the paper observes (§3.2). The
// packets stay in the receive queue while being processed — they are
// "valid" for the purposes of the buffer switch — and are dequeued when
// the extraction completes.
func (e *Endpoint) drain() {
	if !e.running || e.draining || e.ctx == nil {
		return
	}
	n := e.ctx.RecvQ.Len()
	if n == 0 {
		return
	}
	if n > drainBatch {
		n = drainBatch
	}
	e.draining = true
	e.drainN = n
	e.cpu.UseArg(sim.Time(n)*e.cfg.RecvOverhead, drainDoneFn, e)
}

// drainDone finishes the extraction whose host cost was just paid (the
// batch size rode along in drainN; only one batch is in flight at a time).
func (e *Endpoint) drainDone() {
	e.draining = false
	n := e.drainN
	for i := 0; i < n; i++ {
		got := e.nic.DequeueRecv(e.ctx)
		if got == nil {
			return // buffer was switched out from under a stale drain
		}
		e.consumePacket(got)
	}
	e.drain()
}

func (e *Endpoint) consumePacket(p *myrinet.Packet) {
	e.stats.PacketsRecvd++
	e.stats.PayloadBytesRecv += uint64(p.PayloadLen)
	if p.Credits > 0 {
		e.addCredits(p.SrcRank, p.Credits)
	}
	src := p.SrcRank
	e.consumed[src]++
	e.reassemble(p)
	e.nic.FreePacket(p)
	if e.consumed[src] >= e.cfg.refillThreshold() {
		e.sendRefill(src)
	}
}

// reassemble appends p to its source's in-progress message and delivers
// the message when its last fragment lands. FM does not retransmit, so a
// fragment lost on the wire leaves a gap: the partial message is
// discarded and reported as a fragment-order violation, its remaining
// fragments are dropped quietly, and reassembly resynchronises at the
// next message.
func (e *Endpoint) reassemble(p *myrinet.Packet) {
	src := p.SrcRank
	pa := e.reasm[src]
	if pa != nil && pa.msgID != p.MsgID {
		if !pa.lost {
			e.loseMessage(pa, fmt.Sprintf("msg %d from rank %d arrived during msg %d, which lost fragment %d of %d",
				p.MsgID, src, pa.msgID, pa.got, pa.nfrags))
		}
		e.retire(src, pa)
		pa = nil
	}
	if pa == nil {
		pa = e.newPartial(p.MsgID, p.NFrags)
		e.reasm[src] = pa
	}
	if !pa.lost && p.Frag != pa.got {
		e.loseMessage(pa, fmt.Sprintf("fragment %d of msg %d from rank %d arrived out of order (want %d)",
			p.Frag, p.MsgID, src, pa.got))
	}
	if pa.lost {
		e.discardedBytes += uint64(p.PayloadLen)
		return
	}
	pa.got++
	pa.size += p.PayloadLen
	if p.Payload != nil {
		pa.payload = append(pa.payload, p.Payload...)
	}
	if pa.got == pa.nfrags {
		e.deliveredBytes += uint64(pa.size)
		payload := pa.payload
		size := pa.size
		// The payload array's ownership passes to the handler (which may
		// retain the slice); only the record itself is recycled.
		pa.payload = nil
		e.retire(src, pa)
		if e.handler != nil {
			e.handler(src, size, payload)
		}
	}
}

// retire ends src's reassembly of pa and recycles the record.
func (e *Endpoint) retire(src int, pa *partial) {
	e.reasm[src] = nil
	e.partialPool = append(e.partialPool, pa)
}

// loseMessage discards the partial message pa, counting its bytes as
// discarded, and reports the gap through the card's observation seam.
func (e *Endpoint) loseMessage(pa *partial, detail string) {
	e.discardedBytes += uint64(pa.size)
	pa.lost, pa.size, pa.payload = true, 0, nil
	e.nic.Emit(myrinet.Event{Kind: myrinet.Violation, Invariant: "fragment-order",
		Detail: fmt.Sprintf("job %d rank %d: %s", e.job, e.rank, detail)})
}

// newPartial takes a reassembly record from the pool (or allocates one).
func (e *Endpoint) newPartial(msgID uint64, nfrags int) *partial {
	if n := len(e.partialPool); n > 0 {
		pa := e.partialPool[n-1]
		e.partialPool = e.partialPool[:n-1]
		*pa = partial{msgID: msgID, nfrags: nfrags}
		return pa
	}
	return &partial{msgID: msgID, nfrags: nfrags}
}

func (e *Endpoint) addCredits(peer, n int) {
	e.sendCredits[peer] += n
	if e.sendCredits[peer] > e.cfg.C0 {
		panic(fmt.Sprintf("fm: credits toward rank %d exceed C0=%d — refill accounting corrupt",
			peer, e.cfg.C0))
	}
	e.pump()
}

// sendRefill emits an explicit refill to peer. The owed count is consumed
// only at the moment of injection: if the process is descheduled or the
// network halted before the host operation completes, the refill is
// deferred (and re-issued on Resume) rather than injected into a flushed
// network, where it would arrive after the peer's buffers were switched
// and its credits lost forever.
func (e *Endpoint) sendRefill(peer int) {
	if e.consumed[peer] == 0 {
		return
	}
	// The CPU resource grants in FIFO order, so the pending-peer queue and
	// the grant callbacks pair up positionally — no closure needed.
	e.refillQ = append(e.refillQ, peer)
	e.cpu.UseArg(e.cfg.RefillOverhead, refillGrantFn, e)
}

// refillGranted runs when the host cost of the oldest pending refill has
// been paid.
func (e *Endpoint) refillGranted() {
	peer := e.refillQ[e.refillHead]
	e.refillHead++
	if e.refillHead == len(e.refillQ) {
		e.refillQ = e.refillQ[:0]
		e.refillHead = 0
	}
	n := e.consumed[peer]
	if n == 0 || !e.running || e.nic.Halted() {
		return
	}
	e.consumed[peer] = 0
	e.stats.RefillsSent++
	e.nic.SendRefill(e.job, e.rank, peer, e.nodeOf[peer], n)
}

func (e *Endpoint) refillArrived(p *myrinet.Packet) {
	e.stats.RefillsRecvd++
	e.addCredits(p.SrcRank, p.Credits)
}

// C0 returns the configured per-peer credit maximum.
func (e *Endpoint) C0() int { return e.cfg.C0 }

// Stalled reports whether the endpoint is head-of-line blocked on credits:
// a message is queued, no injection is in progress, and the head message's
// destination has no send credits. The chaos auditor combines this with its
// credit ledger of dropped packets to tell a loss-induced permanent stall
// (paper §2.2) from an ordinary transient window closure.
func (e *Endpoint) Stalled() (dst int, ok bool) {
	if e.outN == 0 || e.pumping {
		return 0, false
	}
	m := &e.outbox[e.outHead]
	if e.sendCredits[m.dst] > 0 {
		return 0, false
	}
	return m.dst, true
}

// AuditInvariants checks the endpoint-local protocol invariants and reports
// each breach. It is read-only and safe to call at any instant:
//
//   - send credits toward every peer stay within [0, C0];
//   - consumed-since-refill counts stay within [0, C0] (a peer cannot have
//     sent more packets than its window without a refill in between);
//   - every payload byte received is delivered to the handler, parked in
//     an in-progress reassembly, or discarded with a message that lost a
//     fragment (reported when it happened) — bytes never vanish.
func (e *Endpoint) AuditInvariants(report func(invariant, detail string)) {
	for peer := range e.sendCredits {
		if peer == e.rank {
			continue
		}
		if c := e.sendCredits[peer]; c < 0 || c > e.cfg.C0 {
			report("credit-bounds", fmt.Sprintf(
				"job %d rank %d holds %d credits toward rank %d (C0=%d)",
				e.job, e.rank, c, peer, e.cfg.C0))
		}
		if o := e.consumed[peer]; o < 0 || o > e.cfg.C0 {
			report("credit-bounds", fmt.Sprintf(
				"job %d rank %d owes %d credits to rank %d (C0=%d)",
				e.job, e.rank, o, peer, e.cfg.C0))
		}
	}
	var pending uint64
	for _, pa := range e.reasm {
		if pa != nil {
			pending += uint64(pa.size)
		}
	}
	if e.stats.PayloadBytesRecv != e.deliveredBytes+e.discardedBytes+pending {
		report("byte-accounting", fmt.Sprintf(
			"job %d rank %d received %d payload bytes but delivered %d, discarded %d, with %d pending reassembly",
			e.job, e.rank, e.stats.PayloadBytesRecv, e.deliveredBytes, e.discardedBytes, pending))
	}
}

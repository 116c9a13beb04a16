// Package altsched implements the two related-work alternatives the paper
// compares against (§5), on the same simulated Myrinet/LANai substrate:
//
//   - SHARE-style discard switching (Franke, Pattnaik & Rudolph): context
//     switches are driven by synchronized clocks with NO network flush;
//     the card discards packets whose job ID does not match the currently
//     scheduled process, and higher-level software retransmits to recover
//     (go-back-N here).
//
//   - PM/SCore-style quiescence flush (Hori, Tezuka & Ishikawa): the
//     transport acknowledges every packet, so a node can flush without
//     control broadcasts — it simply stops transmitting and waits until
//     every outstanding packet has been acknowledged.
//
// Both schemes need an acknowledging transport instead of FM's credits,
// provided here by RChannel: a go-back-N reliable channel between two
// ranks of a job, with cumulative acks, retransmission timers, and
// NIC-level acknowledgement generation (acks are produced when the card
// deposits a packet, as PM does, so they flow even while the destination
// process is descheduled, and a packet the card accepted but could not
// deposit is never acknowledged).
package altsched

import (
	"fmt"

	"gangfm/internal/lanai"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// RChannelConfig tunes the reliable transport.
type RChannelConfig struct {
	// Window is the go-back-N send window in packets.
	Window int
	// RTO is the retransmission timeout in cycles.
	RTO sim.Time
	// SendOverhead is the host cost per (re)transmitted packet.
	SendOverhead sim.Time
	// RecvOverhead is the host cost per consumed packet.
	RecvOverhead sim.Time
}

// DefaultRChannelConfig returns a window comparable to FM's switched-mode
// credit count and an RTO of ~0.5 ms.
func DefaultRChannelConfig() RChannelConfig {
	return RChannelConfig{
		Window:       40,
		RTO:          100_000,
		SendOverhead: 4000, // comparable to FM's per-packet host cost
		RecvOverhead: 600,
	}
}

// RChannelStats counts transport activity.
type RChannelStats struct {
	Sent            uint64 // first transmissions
	Retransmissions uint64
	Delivered       uint64 // in-order deliveries to the application
}

// RChannel is one direction of a reliable go-back-N stream from the local
// rank to a peer. Both sides of a connection own one RChannel for sending
// and deliver the peer's traffic through it.
type RChannel struct {
	eng *sim.Engine
	nic *lanai.NIC
	ctx *lanai.Context
	cpu *sim.Resource
	cfg RChannelConfig

	job        myrinet.JobID
	rank       int
	peerRank   int
	peerNode   myrinet.NodeID
	payloadLen int

	running bool
	// draining marks a channel whose process stopped for a PM quiescence
	// wait: nothing new is sent, but the retransmission timer runs until
	// the window is quiesced, so a packet lost in flight is still resolved.
	draining bool

	// sender state
	nextSeq  uint64
	sendBase uint64
	pending  int // messages requested but not yet transmitted
	timer    sim.Event
	pumping  bool
	// nacked records that the peer rejected the in-flight window (its
	// process was descheduled, PM-style): the window counts as resolved
	// for quiescence purposes and is retransmitted on Resume.
	nacked bool
	// pumpDoneFn is the single cached send-overhead completion callback
	// (one transmission is in flight at a time, guarded by pumping).
	pumpDoneFn func()
	// timeoutFn is the cached retransmission-timer callback; armTimer runs
	// on every ack, so a fresh method value there would allocate per packet.
	timeoutFn func()

	// Receiver state: recvNext is the next sequence number the card
	// accepts, deposited the next one it has yet to deposit, which is the
	// cumulative ack. They differ while accepted packets are in the
	// card's receive DMA.
	recvNext  uint64
	deposited uint64

	onDeliver func(seq uint64)
	stats     RChannelStats
}

// NewRChannel creates the sending half toward peerRank at peerNode. The
// channel transmits fixed-size packets of payloadLen bytes (the benchmarks
// stream uniform packets, as FM's do).
func NewRChannel(eng *sim.Engine, nic *lanai.NIC, ctx *lanai.Context, cpu *sim.Resource,
	cfg RChannelConfig, job myrinet.JobID, rank, peerRank int, peerNode myrinet.NodeID,
	payloadLen int) (*RChannel, error) {
	if cfg.Window <= 0 || cfg.RTO == 0 {
		return nil, fmt.Errorf("altsched: channel needs a positive window and RTO")
	}
	if payloadLen <= 0 || payloadLen > myrinet.MaxPayload {
		return nil, fmt.Errorf("altsched: payload length %d out of range", payloadLen)
	}
	c := &RChannel{
		eng: eng, nic: nic, ctx: ctx, cpu: cpu, cfg: cfg,
		job: job, rank: rank, peerRank: peerRank, peerNode: peerNode,
		payloadLen: payloadLen,
	}
	c.pumpDoneFn = func() {
		c.pumping = false
		if c.pending == 0 {
			return
		}
		c.pending--
		c.transmit(c.nextSeq, false)
		c.nextSeq++
		c.armTimer()
		c.pump()
	}
	c.timeoutFn = c.timeout
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *RChannel) Stats() RChannelStats { return c.stats }

// Outstanding returns the number of unacknowledged packets.
func (c *RChannel) Outstanding() int { return int(c.nextSeq - c.sendBase) }

// Quiesced reports whether every transmitted packet is resolved: either
// acknowledged or nacked (PM counts both — nacked packets are resent after
// the job is rescheduled).
func (c *RChannel) Quiesced() bool { return c.nacked || c.Outstanding() == 0 }

// PendingSends returns requested-but-untransmitted message count.
func (c *RChannel) PendingSends() int { return c.pending }

// SetOnDeliver registers the in-order delivery callback.
func (c *RChannel) SetOnDeliver(fn func(seq uint64)) { c.onDeliver = fn }

// Resume starts (or restarts) the process: pumping and retransmission. A
// window the peer nacked while we were descheduled is retransmitted now.
func (c *RChannel) Resume() {
	if c.running {
		return
	}
	c.running, c.draining = true, false
	if c.nacked {
		c.nacked = false
		for seq := c.sendBase; seq < c.nextSeq; seq++ {
			c.transmit(seq, true)
		}
	}
	c.armTimer()
	c.pump()
}

// Suspend models descheduling: transmission and timers stop. The
// SHARE-style scheme calls it at its (unflushed) switch.
func (c *RChannel) Suspend() {
	c.running, c.draining = false, false
	c.stopTimer()
}

// drain is the PM-style scheme's descheduling: no new transmissions, but
// the unacknowledged window is retransmitted on timeout until it is
// quiesced. Once quiesced it stays so until Resume (acks only shrink the
// window, and a nack holds until then), so the timer never fires after
// the buffers are switched away.
func (c *RChannel) drain() {
	c.running, c.draining = false, true
}

// retransmitting reports whether the retransmission timer may run: while
// the process runs, or while it drains an unquiesced window.
func (c *RChannel) retransmitting() bool {
	return c.running || c.draining && !c.Quiesced()
}

// Send queues n fixed-size messages for transmission.
func (c *RChannel) Send(n int) {
	if n <= 0 {
		panic("altsched: Send needs a positive count")
	}
	c.pending += n
	c.pump()
}

// pump transmits while the window and the card's send queue allow.
func (c *RChannel) pump() {
	if !c.running || c.pumping || c.pending == 0 {
		return
	}
	if c.Outstanding() >= c.cfg.Window || c.ctx.SendQ.Full() {
		return
	}
	c.pumping = true
	c.cpu.Use(c.cfg.SendOverhead, c.pumpDoneFn)
}

func (c *RChannel) transmit(seq uint64, retrans bool) {
	if retrans {
		c.stats.Retransmissions++
	} else {
		c.stats.Sent++
	}
	p := c.nic.NewPacket()
	p.Type = myrinet.Data
	p.Src, p.Dst = c.nic.Node(), c.peerNode
	p.Job, p.SrcRank, p.DstRank = c.job, c.rank, c.peerRank
	p.MsgID, p.NFrags, p.PayloadLen = seq, 1, c.payloadLen
	c.nic.EnqueueSend(c.ctx, p)
}

// Accept performs the receive context's NIC-level processing of an
// arriving data packet, before the DMA deposits it: in-order packets are
// accepted (ackDeposit acknowledges them); out-of-order packets (the gap
// left by a loss or a discard) are rejected — go-back-N — and the current
// cumulative ack is repeated to speed the sender's recovery. Accept runs
// regardless of whether the destination process is scheduled.
func (c *RChannel) Accept(p *myrinet.Packet) bool {
	if p.MsgID == c.recvNext {
		c.recvNext++
		return true
	}
	c.sendAck()
	return false
}

// ackDeposit acknowledges an accepted packet once the card has deposited
// it in the receive queue.
func (c *RChannel) ackDeposit(p *myrinet.Packet) {
	c.deposited = p.MsgID + 1
	c.sendAck()
}

// rebound is called when the channel's context is bound again after a
// switch: an accepted packet still undeposited then lost its context in
// the receive DMA and was dropped, so acceptance resumes after the last
// deposit, where the sender will retransmit.
func (c *RChannel) rebound() { c.recvNext = c.deposited }

// Deliver hands an accepted, deposited packet to the application (called
// from the host drain loop).
func (c *RChannel) Deliver(p *myrinet.Packet) {
	c.stats.Delivered++
	if c.onDeliver != nil {
		c.onDeliver(p.MsgID)
	}
}

// sendAck emits a cumulative acknowledgement. Acks are generated at the
// card level (the receive context acknowledges deposits), so they cost no
// host time and flow even when the process is descheduled — the property
// the PM-style flush depends on.
func (c *RChannel) sendAck() {
	p := c.nic.NewPacket()
	p.Type = myrinet.Ack
	p.Src, p.Dst = c.nic.Node(), c.peerNode
	p.Job, p.SrcRank, p.DstRank = c.job, c.rank, c.peerRank
	p.MsgID = c.deposited
	c.nic.SendRaw(p)
}

// HandleAck processes a cumulative ack for our outgoing stream.
func (c *RChannel) HandleAck(p *myrinet.Packet) {
	if p.MsgID <= c.sendBase {
		return // duplicate
	}
	if p.MsgID > c.nextSeq {
		panic("altsched: ack beyond transmitted window")
	}
	c.sendBase = p.MsgID
	if c.sendBase == c.nextSeq {
		c.nacked = false
	}
	c.armTimer()
	c.pump()
}

// HandleNack records the peer's rejection of our in-flight window: the
// peer's card could not receive for our job (its process is descheduled).
func (c *RChannel) HandleNack(p *myrinet.Packet) {
	if c.Outstanding() > 0 {
		c.nacked = true
		c.stopTimer()
	}
}

// timeout retransmits every unacknowledged packet (go-back-N).
func (c *RChannel) timeout() {
	if !c.retransmitting() || c.Outstanding() == 0 {
		return
	}
	for seq := c.sendBase; seq < c.nextSeq; seq++ {
		c.transmit(seq, true)
	}
	c.armTimer()
}

func (c *RChannel) armTimer() {
	c.stopTimer()
	if !c.retransmitting() || c.Outstanding() == 0 {
		return
	}
	c.timer = c.eng.Schedule(c.cfg.RTO, c.timeoutFn)
}

func (c *RChannel) stopTimer() {
	// A handle to a fired event cancels as a no-op, so no liveness check
	// is needed here.
	c.timer.Cancel()
}

package altsched

import (
	"fmt"

	"gangfm/internal/lanai"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Endpoint is one process under an alternative scheme: a set of reliable
// channels to its peers, bound to the node's shared hardware context when
// the process is scheduled. It is the core.Process a node's manager
// switches under Discard or Quiesce coordination (parpar builds one per
// process in those modes).
type Endpoint struct {
	eng *sim.Engine
	nic *lanai.NIC
	cpu *sim.Resource
	cfg RChannelConfig

	job    myrinet.JobID
	rank   int
	nodeOf []myrinet.NodeID

	ctx     *lanai.Context
	chans   map[int]*RChannel // per peer rank
	running bool
	// quiesce marks a process under PM's quiescence coordination, whose
	// Suspend drains its channels instead of stopping them.
	quiesce      bool
	draining     bool
	payloadBytes int

	recvOverhead sim.Time

	// drainN carries the in-flight drain batch size to drainDoneFn, the
	// cached drain-completion callback (one drain batch is in flight at a
	// time, guarded by draining). hooks is the context-hook set handed to
	// the card at every attach; building it once keeps the per-switch
	// rebind allocation-free.
	drainN      int
	drainDoneFn func()
	hooks       lanai.Hooks
}

// NewEndpoint builds the process's transport state; channels to peers are
// created lazily on first use. quiesce selects PM's descheduling (see
// Suspend).
func NewEndpoint(eng *sim.Engine, nic *lanai.NIC, cpu *sim.Resource, cfg RChannelConfig,
	job myrinet.JobID, rank int, nodeOf []myrinet.NodeID, payloadLen int, quiesce bool) (*Endpoint, error) {
	if rank < 0 || rank >= len(nodeOf) {
		return nil, fmt.Errorf("altsched: rank %d out of range", rank)
	}
	e := &Endpoint{
		eng: eng, nic: nic, cpu: cpu, cfg: cfg,
		job: job, rank: rank, nodeOf: nodeOf,
		chans:        make(map[int]*RChannel),
		quiesce:      quiesce,
		payloadBytes: payloadLen,
		recvOverhead: cfg.RecvOverhead,
	}
	e.drainDoneFn = e.drainDone
	e.hooks = lanai.Hooks{
		OnArrive: func(ctx *lanai.Context) {
			e.ackDeposit(ctx)
			e.drain()
		},
		OnSendSpace: func(*lanai.Context) { e.pumpAll() },
	}
	return e, nil
}

// Channel returns (creating if needed) the reliable channel to peer.
func (e *Endpoint) Channel(peer int) *RChannel {
	if peer == e.rank || peer < 0 || peer >= len(e.nodeOf) {
		panic("altsched: invalid peer")
	}
	if c := e.chans[peer]; c != nil {
		return c
	}
	c, err := NewRChannel(e.eng, e.nic, e.ctx, e.cpu, e.cfg,
		e.job, e.rank, peer, e.nodeOf[peer], e.payload())
	if err != nil {
		panic(err)
	}
	c.running = e.running // inherit the process's run state
	e.chans[peer] = c
	return c
}

func (e *Endpoint) payload() int { return e.payloadBytes }

// Running reports the process's run state.
func (e *Endpoint) Running() bool { return e.running }

// Attach binds the endpoint (and its channels) to the hardware context.
func (e *Endpoint) Attach(ctx *lanai.Context) {
	e.ctx = ctx
	for _, c := range e.chans {
		c.ctx = ctx
		c.rebound()
	}
	ctx.Hooks = e.hooks
}

// ackDeposit acknowledges the packet the card has just deposited in ctx's
// receive queue (its OnArrive hook).
func (e *Endpoint) ackDeposit(ctx *lanai.Context) {
	p := ctx.RecvQ.At(ctx.RecvQ.Len() - 1)
	e.Channel(p.SrcRank).ackDeposit(p)
}

// Suspend stops the process: pumps halt, and so do retransmission
// timers, except under PM's quiescence, which waits for the window in
// flight to resolve: there a timer runs until its channel is quiesced.
func (e *Endpoint) Suspend() {
	e.running = false
	for _, c := range e.chans {
		if e.quiesce {
			c.drain()
		} else {
			c.Suspend()
		}
	}
}

// Resume restarts the process.
func (e *Endpoint) Resume() {
	if e.running {
		return
	}
	e.running = true
	for _, c := range e.chans {
		c.Resume()
	}
	e.drain()
}

// Kill stops the process for good, whatever the scheme: transmissions,
// retransmission timers and the host drain halt, since the job is ending
// and the shared context may be bound to another job next.
func (e *Endpoint) Kill() {
	e.running, e.drainN = false, 0
	for _, c := range e.chans {
		c.Suspend()
		c.pending = 0
	}
}

// Accept is the NIC-level go-back-N check of an arriving data packet (see
// RChannel.Accept).
func (e *Endpoint) Accept(p *myrinet.Packet) bool {
	return e.Channel(p.SrcRank).Accept(p)
}

// Control routes an acknowledgement or a rejection to the right channel.
func (e *Endpoint) Control(p *myrinet.Packet) {
	switch p.Type {
	case myrinet.Ack:
		e.Channel(p.SrcRank).HandleAck(p)
	case myrinet.Nack:
		e.Channel(p.SrcRank).HandleNack(p)
	}
}

// outstanding sums unacknowledged packets across channels.
func (e *Endpoint) outstanding() int {
	n := 0
	for _, c := range e.chans {
		n += c.Outstanding()
	}
	return n
}

// Stats sums the counters of the endpoint's channels.
func (e *Endpoint) Stats() RChannelStats {
	var st RChannelStats
	for _, c := range e.chans {
		cs := c.Stats()
		st.Sent += cs.Sent
		st.Retransmissions += cs.Retransmissions
		st.Delivered += cs.Delivered
	}
	return st
}

// Quiesced reports whether every channel's window is resolved: the test
// core's Quiesce coordination polls.
func (e *Endpoint) Quiesced() bool {
	for _, c := range e.chans {
		if !c.Quiesced() {
			return false
		}
	}
	return true
}

func (e *Endpoint) pumpAll() {
	for _, c := range e.chans {
		c.pump()
	}
}

// drain consumes deposited packets on the host, delivering them to the
// owning channels.
func (e *Endpoint) drain() {
	if !e.running || e.draining || e.ctx == nil {
		return
	}
	n := e.ctx.RecvQ.Len()
	if n == 0 {
		return
	}
	if n > 16 {
		n = 16
	}
	e.draining = true
	e.drainN = n
	e.cpu.Use(sim.Time(n)*e.recvOverhead, e.drainDoneFn)
}

func (e *Endpoint) drainDone() {
	n := e.drainN
	e.draining = false
	for i := 0; i < n; i++ {
		p := e.nic.DequeueRecv(e.ctx)
		if p == nil {
			return
		}
		e.Channel(p.SrcRank).Deliver(p)
		e.nic.FreePacket(p)
	}
	e.drain()
}

// Report aggregates a run's switch and transport statistics, under any
// coordination (see parpar's Cluster.SchemeReport).
type Report struct {
	// Switches counts job-to-job switches, summed over the nodes.
	Switches int
	// MeanCoord is the mean cost of stages 1 and 3 per switch in cycles:
	// the flush and release, the quiescence wait, or zero for discard.
	MeanCoord float64
	MeanCopy  float64 // cycles of stage 2
	// Sent, Retransmissions and Delivered sum the go-back-N channels.
	Sent            uint64
	Retransmissions uint64
	Delivered       uint64
	Discards        uint64 // card-level ID-filter drops
}

// Efficiency returns delivered / total transmissions.
func (r Report) Efficiency() float64 {
	total := r.Sent + r.Retransmissions
	if total == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(total)
}

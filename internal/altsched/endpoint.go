package altsched

import (
	"fmt"

	"gangfm/internal/lanai"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Endpoint is one process under an alternative scheme: a set of reliable
// channels to its peers, bound to the node's shared hardware context when
// the process is scheduled.
type Endpoint struct {
	eng *sim.Engine
	nic *lanai.NIC
	cpu *sim.Resource
	cfg RChannelConfig

	job    myrinet.JobID
	rank   int
	nodeOf []myrinet.NodeID

	ctx          *lanai.Context
	chans        map[int]*RChannel // per peer rank
	running      bool
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
// created lazily on first use.
func NewEndpoint(eng *sim.Engine, nic *lanai.NIC, cpu *sim.Resource, cfg RChannelConfig,
	job myrinet.JobID, rank int, nodeOf []myrinet.NodeID, payloadLen int) (*Endpoint, error) {
	if rank < 0 || rank >= len(nodeOf) {
		return nil, fmt.Errorf("altsched: rank %d out of range", rank)
	}
	e := &Endpoint{
		eng: eng, nic: nic, cpu: cpu, cfg: cfg,
		job: job, rank: rank, nodeOf: nodeOf,
		chans:        make(map[int]*RChannel),
		payloadBytes: payloadLen,
		recvOverhead: cfg.RecvOverhead,
	}
	e.drainDoneFn = e.drainDone
	e.hooks = lanai.Hooks{
		OnArrive:    func(*lanai.Context) { e.drain() },
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

// Job returns the endpoint's job.
func (e *Endpoint) Job() myrinet.JobID { return e.job }

// Rank returns the endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Running reports the process's run state.
func (e *Endpoint) Running() bool { return e.running }

// attach binds the endpoint (and its channels) to the hardware context.
func (e *Endpoint) attach(ctx *lanai.Context) {
	e.ctx = ctx
	for _, c := range e.chans {
		c.ctx = ctx
	}
	ctx.Hooks = e.hooks
}

// Suspend stops the process: pumps and retransmission timers halt.
func (e *Endpoint) Suspend() {
	e.running = false
	for _, c := range e.chans {
		c.Suspend()
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

// accept is the NIC-level receive-context processing (go-back-N check and
// cumulative ack) of an arriving data packet.
func (e *Endpoint) accept(p *myrinet.Packet) bool {
	return e.Channel(p.SrcRank).Accept(p)
}

// handleAck routes a cumulative acknowledgement to the right channel.
func (e *Endpoint) handleAck(p *myrinet.Packet) {
	e.Channel(p.SrcRank).HandleAck(p)
}

// handleNack routes a rejection to the right channel.
func (e *Endpoint) handleNack(p *myrinet.Packet) {
	e.Channel(p.SrcRank).HandleNack(p)
}

// outstanding sums unacknowledged packets across channels.
func (e *Endpoint) outstanding() int {
	n := 0
	for _, c := range e.chans {
		n += c.Outstanding()
	}
	return n
}

// quiesced reports whether every channel's window is resolved.
func (e *Endpoint) quiesced() bool {
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

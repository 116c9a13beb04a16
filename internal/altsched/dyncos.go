package altsched

import (
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Dynamic coscheduling (Sobalvarro, Pakin, Weihl & Chien; paper §5):
// instead of gang scheduling, an incoming message triggers the scheduling
// of the process it is destined to. The original work used FM version 1,
// which supports a single full-size context, and the competing workload
// was local sequential computation — so there is no buffer partitioning
// and no buffer switching at all: the parallel process always owns the
// card, and the scheduler only decides whether the *CPU* runs it or the
// local compute job.

// DynCosConfig tunes a dynamically coscheduled node.
type DynCosConfig struct {
	// Dispatch is the wakeup latency from message arrival to the
	// destination process running (interrupt + OS scheduler).
	Dispatch sim.Time
	// IdleTimeout deschedules the process after this long with no
	// communication activity, returning the CPU to the local job.
	IdleTimeout sim.Time
	// Channel tunes the reliable transport.
	Channel RChannelConfig
	// PayloadLen is the fixed packet payload.
	PayloadLen int
}

// DefaultDynCosConfig returns a 100 us dispatch and 1 ms idle timeout.
func DefaultDynCosConfig() DynCosConfig {
	return DynCosConfig{
		Dispatch:    20_000,  // 100 us
		IdleTimeout: 200_000, // 1 ms
		Channel:     DefaultRChannelConfig(),
		PayloadLen:  256,
	}
}

// DynCosNode is one node under dynamic coscheduling: a communicating
// process (always bound to the card) time-shares the CPU with a local
// sequential job; arrivals wake the communicator.
type DynCosNode struct {
	eng *sim.Engine
	cfg DynCosConfig

	EP *Endpoint

	wakePending bool
	idleTimer   sim.Event
	// Cached timer callbacks: onActivity and armIdleTimer run per arrival,
	// so fresh closures or method values there would allocate per message.
	wakeFn      func()
	idleCheckFn func()

	// CPU accounting for the local compute job: it runs whenever the
	// communicating process does not.
	computeSince  sim.Time
	ComputeCycles sim.Time
	Wakeups       uint64
}

// NewDynCosNode builds a node whose communicating process is rank of a
// two-rank job spanning nodes 0 and 1.
func NewDynCosNode(eng *sim.Engine, net *myrinet.Network, mem *memmodel.Model,
	id myrinet.NodeID, rank int, cfg DynCosConfig) (*DynCosNode, error) {
	nic := lanai.New(eng, net, mem, lanai.DefaultConfig(id))
	cpu := sim.NewResource(eng)
	nicCfg := nic.Config()
	ctx, err := nic.Register(1, nicCfg.SendSlots, nicCfg.RecvSlots, lanai.Hooks{})
	if err != nil {
		return nil, err
	}
	ep, err := NewEndpoint(eng, nic, cpu, cfg.Channel, 1, rank, []myrinet.NodeID{0, 1}, cfg.PayloadLen, false)
	if err != nil {
		return nil, err
	}
	n := &DynCosNode{eng: eng, cfg: cfg, EP: ep}
	n.wakeFn = func() {
		n.wakePending = false
		n.wake()
	}
	n.idleCheckFn = n.idleCheck
	ep.Attach(ctx)
	// Wrap the arrival hook: accept/ack at NIC level, then wake the
	// process if it is descheduled.
	nic.DataFilter = ep.Accept
	nic.OnControl = ep.Control
	ctx.Hooks = lanai.Hooks{
		OnArrive: func(ctx *lanai.Context) {
			ep.ackDeposit(ctx)
			n.onActivity()
			ep.drain()
		},
		OnSendSpace: func(*lanai.Context) { ep.pumpAll() },
	}
	n.computeSince = eng.Now()
	return n, nil
}

// onActivity wakes the communicating process on message arrival and
// re-arms the idle timer.
func (n *DynCosNode) onActivity() {
	n.armIdleTimer()
	if n.EP.Running() || n.wakePending {
		return
	}
	n.wakePending = true
	n.eng.Schedule(n.cfg.Dispatch, n.wakeFn)
}

// Wake schedules the communicating process immediately (a self-initiated
// wake, e.g. the application decided to send).
func (n *DynCosNode) Wake() { n.wake() }

func (n *DynCosNode) wake() {
	if n.EP.Running() {
		return
	}
	n.Wakeups++
	n.ComputeCycles += n.eng.Now() - n.computeSince
	n.EP.Resume()
	n.armIdleTimer()
}

// armIdleTimer (re)schedules the deschedule check.
func (n *DynCosNode) armIdleTimer() {
	n.idleTimer.Cancel()
	n.idleTimer = n.eng.Schedule(n.cfg.IdleTimeout, n.idleCheckFn)
}

// idleCheck deschedules the communicator when it has gone quiet.
func (n *DynCosNode) idleCheck() {
	if !n.EP.Running() {
		return
	}
	busy := n.EP.outstanding() > 0 || n.EP.ctx.RecvQ.Len() > 0
	for _, c := range n.EP.chans {
		if c.PendingSends() > 0 {
			busy = true
		}
	}
	if busy {
		n.armIdleTimer()
		return
	}
	n.EP.Suspend()
	n.computeSince = n.eng.Now()
}

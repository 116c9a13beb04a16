package myrinet

import (
	"fmt"
	"math"

	"gangfm/internal/sim"
)

// Handler receives packets delivered by the network. Each node attaches
// exactly one handler (its NIC).
type Handler interface {
	HandlePacket(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// HandlePacket calls f(p).
func (f HandlerFunc) HandlePacket(p *Packet) { f(p) }

// Config holds the network's physical parameters.
type Config struct {
	// Nodes is the number of attached compute nodes.
	Nodes int
	// LinkMBs is the per-direction link bandwidth in MB/s. Myrinet in
	// the paper's era is 1.28 Gb/s per direction = 160 MB/s.
	LinkMBs float64
	// SwitchLatency is the fixed propagation delay through the crossbar
	// (source NIC to destination NIC), in cycles.
	SwitchLatency sim.Time
	// PerPacketGap is the inter-packet gap at the injection port (route
	// header processing, sampling delay), in cycles.
	PerPacketGap sim.Time
}

// Verdict is the fault layer's decision for one packet at injection time.
// The zero Verdict delivers the packet normally.
type Verdict struct {
	// Drop loses the packet: it never reaches the destination handler
	// (FM assumes an insignificant SAN error rate; paper §2.2 describes
	// how a single loss corrupts the credit accounting forever).
	Drop bool
	// Duplicate delivers an extra copy right behind the original on the
	// same route.
	Duplicate bool
}

// Injector decides the fate of each transmitted packet — the seam the
// chaos layer plugs into (internal/chaos compiles fault plans into one).
// Implementations must be deterministic functions of their own seeded
// state and the packet presented — Send stamps its per-route Seq first.
type Injector interface {
	Packet(now sim.Time, p *Packet) Verdict
}

// EventKind names what an Event reports.
type EventKind uint8

const (
	// Drop: a packet died on the fabric (an injected loss, or a delivery
	// to a node with no card) or was discarded by a card. Pkt is valid
	// only during the call.
	Drop EventKind = iota + 1
	// Violation: a node-side check failed (the card's flush order, the
	// manager's backing-store digest).
	Violation
	// Flushed: a node's stage-1 flush is done and the stage-2 copy of Job,
	// the outgoing job (NoJob for an idle switch), is about to start.
	Flushed
	// Evict: the masterd declared Node dead, after killing its matrix
	// column and before killing the jobs spanning it.
	Evict
	// Rejoin: the masterd admitted a repaired Node, after reviving its
	// matrix column.
	Rejoin
)

// Event is one observation posted to the network's observer, stamped
// with the engine's clock when it fired.
type Event struct {
	Kind              EventKind
	Time              sim.Time
	Node              NodeID
	Job               JobID
	Pkt               *Packet
	Invariant, Detail string
}

// DefaultConfig returns the ParPar data-network parameters: 16 nodes on
// 160 MB/s links with ~1 µs of switch latency.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		LinkMBs:       160,
		SwitchLatency: 200, // 1 µs at 200 MHz
		PerPacketGap:  40,  // 200 ns
	}
}

// Stats aggregates network-level counters.
type Stats struct {
	Sent       map[PacketType]uint64
	Delivered  map[PacketType]uint64
	Dropped    map[PacketType]uint64
	Duplicated map[PacketType]uint64
	Bytes      uint64
}

// typeCounts is one counter per packet type, indexed by PacketType: the
// per-packet paths bump an array slot instead of hashing into a map.
type typeCounts [Nack + 1]uint64

// addTo adds the nonzero counters into m.
func (c *typeCounts) addTo(m map[PacketType]uint64) {
	for t, v := range c {
		if v != 0 {
			m[PacketType(t)] += v
		}
	}
}

// counts are the Stats counters, one slot per packet type.
type counts struct {
	sent, delivered, dropped, duplicated typeCounts
	bytes                                uint64
}

// Network is the simulated Myrinet fabric.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	handlers []Handler
	// ports serializes each node's injection link. Routes are FIFO
	// because of it: a port grants in order and every grant takes at
	// least PerPacketGap+1 cycles, while SwitchLatency is the same for
	// every packet, so arrivals on a route strictly increase, and a
	// duplicate (one cycle behind its original) lands before the next.
	ports []*sim.Resource
	// seq[src][dst] is the route's next packet Seq. 32 bits per route
	// keep the p×p matrix, the fabric's one per-route structure, at half
	// the set-up bytes; Send panics rather than wrap.
	seq      [][]uint32
	injector Injector
	observer func(Event)
	stats    counts
	// inFlight counts each job's data packets on the wire, indexed by
	// JobID (job IDs are small and dense): +1 when a packet is sent, -1
	// where it lands or dies.
	inFlight []int
	// pool recycles packet objects between their death points (delivery
	// consumption, drops) and the next send: the classic create-at-send,
	// drop-at-delivery free-list workload.
	pool []*Packet
	// linkCost is the per-byte serialization cost at LinkMBs, computed
	// once so txCycles divides nothing per packet.
	linkCost sim.ByteCost

	// deliverFn is the one delivery callback shared by every scheduled
	// arrival, so the per-packet closure allocation disappears from the
	// hot path.
	deliverFn func(any)
}

// New constructs a network on the given engine.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("myrinet: config needs at least one node")
	}
	n := &Network{
		eng:      eng,
		cfg:      cfg,
		handlers: make([]Handler, cfg.Nodes),
		ports:    make([]*sim.Resource, cfg.Nodes),
		linkCost: sim.DefaultClock.CyclesPerByte(cfg.LinkMBs),
	}
	n.seq = make([][]uint32, cfg.Nodes)
	for i := range n.ports {
		n.ports[i] = sim.NewResource(eng)
		n.seq[i] = make([]uint32, cfg.Nodes)
	}
	n.deliverFn = func(a any) { n.deliver(a.(*Packet)) }
	return n
}

// NewPacket returns a zeroed packet from the free list (growing it when
// empty). Senders that build packets through NewPacket get them recycled
// at their death point — consumption, drop, or undeliverable — via
// FreePacket, keeping the steady-state send path allocation-free.
func (n *Network) NewPacket() *Packet {
	if ln := len(n.pool); ln > 0 {
		p := n.pool[ln-1]
		n.pool = n.pool[:ln-1]
		*p = Packet{pooled: true}
		return p
	}
	return &Packet{pooled: true}
}

// FreePacket returns a pool-allocated packet to the free list. Packets
// not from NewPacket (tests build them with struct literals) are left to
// the garbage collector, and freeing twice is a no-op, so every death
// point in the stack can call this unconditionally.
func (n *Network) FreePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	p.pooled = false
	n.pool = append(n.pool, p)
}

// addInFlight adds d to the job's in-flight count, growing the slice the
// first time a job past its end sends.
func (n *Network) addInFlight(job JobID, d int) {
	if int(job) >= len(n.inFlight) {
		n.inFlight = append(n.inFlight, make([]int, int(job)+1-len(n.inFlight))...)
	}
	n.inFlight[job] += d
}

// Nodes returns the number of attached nodes.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	out := Stats{
		Sent:       make(map[PacketType]uint64),
		Delivered:  make(map[PacketType]uint64),
		Dropped:    make(map[PacketType]uint64),
		Duplicated: make(map[PacketType]uint64),
		Bytes:      n.stats.bytes,
	}
	n.stats.sent.addTo(out.Sent)
	n.stats.delivered.addTo(out.Delivered)
	n.stats.dropped.addTo(out.Dropped)
	n.stats.duplicated.addTo(out.Duplicated)
	return out
}

// SetInjector installs the fault layer consulted for every packet; nil
// removes it (the default: a perfectly reliable fabric).
func (n *Network) SetInjector(i Injector) { n.injector = i }

// SetObserver installs the one sink every layer reports its Events to.
// Like the injector it goes in before any traffic.
func (n *Network) SetObserver(fn func(Event)) { n.observer = fn }

// Emit posts e to the observer, if one is installed.
func (n *Network) Emit(e Event) {
	if n.observer != nil {
		n.observer(e)
	}
}

// Attach registers the handler (NIC) for node id.
func (n *Network) Attach(id NodeID, h Handler) {
	n.handlers[id] = h
}

// txCycles returns the serialization time for size bytes at link rate.
func (n *Network) txCycles(size int) sim.Time {
	return n.linkCost.Cycles(size) + n.cfg.PerPacketGap
}

// Send injects the packet at the source's output port. The port serializes
// transmissions; the packet arrives at the destination handler after the
// serialization delay plus switch latency. Send returns the time at which
// the source's link becomes free again (i.e. when the NIC's send engine
// can start the next packet).
//
// Sending to self is delivered locally after the switch latency without
// occupying the injection port (FM short-circuits self sends).
func (n *Network) Send(p *Packet) sim.Time {
	if p.Src < 0 || int(p.Src) >= n.cfg.Nodes || p.Dst < 0 || int(p.Dst) >= n.cfg.Nodes {
		panic(fmt.Sprintf("myrinet: packet with bad endpoints %d->%d", p.Src, p.Dst))
	}
	now := n.eng.Now()
	n.stats.sent[p.Type]++
	n.stats.bytes += uint64(p.WireSize())
	route := &n.seq[p.Src][p.Dst]
	if *route == math.MaxUint32 {
		panic(fmt.Sprintf("myrinet: route %d->%d sent 2^32 packets; its Seq would wrap", p.Src, p.Dst))
	}
	p.Seq = uint64(*route)
	*route++

	if p.Type == Data {
		n.addInFlight(p.Job, 1)
	}
	var v Verdict
	if n.injector != nil {
		// Consulted after the Seq stamp: the injector keys its decision
		// on (Src, Dst, Seq).
		v = n.injector.Packet(now, p)
	}
	if p.Src == p.Dst {
		if v.Drop {
			n.dropInjected(p)
			return now
		}
		n.eng.ScheduleArg(n.cfg.SwitchLatency, n.deliverFn, p)
		if v.Duplicate {
			n.duplicate(p, now+n.cfg.SwitchLatency+1)
		}
		return now
	}

	linkFree := n.ports[p.Src].Use(n.txCycles(p.WireSize()), nil)
	arrival := linkFree + n.cfg.SwitchLatency

	if v.Drop {
		n.dropInjected(p)
		return linkFree
	}
	n.eng.ScheduleArgAt(arrival, n.deliverFn, p)
	if v.Duplicate {
		n.duplicate(p, arrival+1)
	}
	return linkFree
}

// dropInjected accounts a fault-layer loss: the packet leaves the sender's
// counters but never reaches a handler, taking its credits with it.
func (n *Network) dropInjected(p *Packet) {
	n.stats.dropped[p.Type]++
	n.Emit(Event{Kind: Drop, Time: n.eng.Now(), Node: p.Src, Job: p.Job, Pkt: p})
	if p.Type == Data {
		n.addInFlight(p.Job, -1)
	}
	n.FreePacket(p)
}

// duplicate schedules an extra copy of p arriving right behind the
// original on the same route (a shallow copy: the duplicate must be an
// independent packet so receiver-side bookkeeping sees two arrivals).
func (n *Network) duplicate(p *Packet, at sim.Time) {
	n.stats.duplicated[p.Type]++
	if p.Type == Data {
		n.addInFlight(p.Job, 1)
	}
	dup := n.NewPacket()
	*dup = *p
	dup.pooled = true
	n.eng.ScheduleArgAt(at, n.deliverFn, dup)
}

func (n *Network) deliver(p *Packet) {
	if p.Type == Data {
		n.addInFlight(p.Job, -1)
	}
	h := n.handlers[p.Dst]
	if h == nil {
		n.stats.dropped[p.Type]++
		n.Emit(Event{Kind: Drop, Time: n.eng.Now(), Node: p.Dst, Job: p.Job, Pkt: p})
		n.FreePacket(p)
		return
	}
	n.stats.delivered[p.Type]++
	h.HandlePacket(p)
}

// InFlight reports how many of the job's data packets are currently on the
// wire. The flush protocol's guarantee — the invariant the buffer switch
// depends on — is that this is zero for the halted job when every node has
// collected all halts.
func (n *Network) InFlight(job JobID) int {
	if job < 0 || int(job) >= len(n.inFlight) {
		return 0
	}
	return n.inFlight[job]
}

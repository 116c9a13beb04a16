package myrinet

import (
	"fmt"

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
// state and the packet presented — Send stamps its per-route Seq first —
// and safe to call from concurrent shard lanes.
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
// with the clock of the lane that fired it: the node's for Drop,
// Violation and Flushed, the masterd's for Evict and Rejoin.
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

// nodeCounts is one node bucket's share of the Stats counters.
type nodeCounts struct {
	sent, delivered, dropped, duplicated typeCounts
	bytes                                uint64
}

// nodeState holds the per-node slice of the fabric's mutable state. Under
// sharded execution node i's bucket is touched only by events running on
// the engine that owns node i (send-side counters by the source, delivery
// counters by the destination), so concurrent shard windows never contend;
// aggregate views (Stats, InFlight) merge the buckets and are only safe
// where the whole fabric is quiescent (single-engine runs, or the group's
// barrier-serialized global lane).
type nodeState struct {
	stats nodeCounts
	// inFlight is this bucket's contribution to the per-job count of
	// data packets on the wire: +1 at the source when a packet is sent,
	// -1 wherever it lands (destination) or dies (source, for injected
	// drops). Individual buckets may go negative; the sum never does.
	inFlight map[JobID]int
	// pool recycles packet objects between their death points (delivery
	// consumption, drops) and the next send: the classic create-at-send,
	// drop-at-delivery free-list workload.
	pool []*Packet
}

// Network is the simulated Myrinet fabric.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	clock    sim.Clock
	handlers []Handler
	// engs, when non-nil, maps each node to the shard engine that owns
	// it (see SetShardEngines); nil means n.eng owns everything.
	engs []*sim.Engine
	// ports serializes each node's injection link.
	ports []*sim.Resource
	// lastArrival enforces FIFO per (src,dst) route even under unusual
	// latency parameterizations.
	lastArrival [][]sim.Time
	seq         [][]uint64
	injector    Injector
	observer    func(Event)
	perNode     []nodeState

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
		clock:    sim.DefaultClock,
		handlers: make([]Handler, cfg.Nodes),
		ports:    make([]*sim.Resource, cfg.Nodes),
		perNode:  make([]nodeState, cfg.Nodes),
	}
	n.lastArrival = make([][]sim.Time, cfg.Nodes)
	n.seq = make([][]uint64, cfg.Nodes)
	for i := range n.ports {
		n.ports[i] = sim.NewResource(eng, fmt.Sprintf("port%d", i))
		n.lastArrival[i] = make([]sim.Time, cfg.Nodes)
		n.seq[i] = make([]uint64, cfg.Nodes)
		n.perNode[i].inFlight = make(map[JobID]int)
	}
	n.deliverFn = func(a any) { n.deliver(a.(*Packet)) }
	return n
}

// SetShardEngines partitions the fabric across a shard group: engs[i] is
// the engine owning node i (every event touching node i's NIC state runs
// there). Must be called before any traffic; the injection-port resources
// are rebuilt on their owning engines.
func (n *Network) SetShardEngines(engs []*sim.Engine) {
	if len(engs) != n.cfg.Nodes {
		panic(fmt.Sprintf("myrinet: %d shard engines for %d nodes", len(engs), n.cfg.Nodes))
	}
	n.engs = engs
	for i := range n.ports {
		n.ports[i] = sim.NewResource(engs[i], fmt.Sprintf("port%d", i))
	}
}

// engFor returns the engine owning node id.
func (n *Network) engFor(id NodeID) *sim.Engine {
	if n.engs != nil {
		return n.engs[id]
	}
	return n.eng
}

// Lookahead returns the minimum delay between a send on one node and its
// observable effect on any other node: every cross-node arrival lands at
// least CopyCycles(1 byte) + PerPacketGap (serialization) + SwitchLatency
// cycles after Send. This is the conservative bound a sharded execution of
// the fabric may use as its window size (sim.GroupConfig.Lookahead).
func (n *Network) Lookahead() sim.Time {
	return n.cfg.SwitchLatency + n.cfg.PerPacketGap + 1
}

// NewPacket returns a zeroed packet from the free list (growing it when
// empty). Senders that build packets through NewPacket get them recycled
// at their death point — consumption, drop, or undeliverable — via
// FreePacket, keeping the steady-state send path allocation-free.
func (n *Network) NewPacket() *Packet { return n.NewPacketFrom(0) }

// poolIdx maps a node to its free-list bucket. Per-node pools exist so
// concurrent shards never share one; an unsharded run executes on a single
// engine, so every node shares bucket 0 — otherwise unidirectional traffic
// allocates at the source forever while packets pile up in the
// destination's pool.
func (n *Network) poolIdx(id NodeID) NodeID {
	if n.engs == nil {
		return 0
	}
	return id
}

// NewPacketFrom is NewPacket drawing from node src's free list — the form
// NIC send paths use so that concurrent shards never share a pool.
func (n *Network) NewPacketFrom(src NodeID) *Packet {
	pool := &n.perNode[n.poolIdx(src)].pool
	if ln := len(*pool); ln > 0 {
		p := (*pool)[ln-1]
		*pool = (*pool)[:ln-1]
		*p = Packet{pooled: true}
		return p
	}
	return &Packet{pooled: true}
}

// FreePacket returns a pool-allocated packet to the free list of the node
// where it died (its destination — delivery paths own the packet at its
// death point). Packets not from NewPacket (tests build them with struct
// literals) are left to the garbage collector, and freeing twice is a
// no-op, so every death point in the stack can call this unconditionally.
func (n *Network) FreePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	n.freeTo(p.Dst, p)
}

func (n *Network) freeTo(id NodeID, p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	p.pooled = false
	pool := &n.perNode[n.poolIdx(id)].pool
	*pool = append(*pool, p)
}

// Nodes returns the number of attached nodes.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of the counters, merged across nodes. Under
// sharded execution call it only while the fabric is quiescent (between
// runs, or from the group's global lane).
func (n *Network) Stats() Stats {
	out := Stats{
		Sent:       make(map[PacketType]uint64),
		Delivered:  make(map[PacketType]uint64),
		Dropped:    make(map[PacketType]uint64),
		Duplicated: make(map[PacketType]uint64),
	}
	for i := range n.perNode {
		s := &n.perNode[i].stats
		s.sent.addTo(out.Sent)
		s.delivered.addTo(out.Delivered)
		s.dropped.addTo(out.Dropped)
		s.duplicated.addTo(out.Duplicated)
		out.Bytes += s.bytes
	}
	return out
}

// SetInjector installs the fault layer consulted for every packet; nil
// removes it (the default: a perfectly reliable fabric).
func (n *Network) SetInjector(i Injector) { n.injector = i }

// SetObserver installs the one sink every layer reports its Events to.
// Like the injector it goes in before any traffic and must be safe to
// call from concurrent shard lanes.
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
	return n.clock.CopyCycles(size, n.cfg.LinkMBs) + n.cfg.PerPacketGap
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
	src := n.engFor(p.Src)
	b := &n.perNode[p.Src]
	b.stats.sent[p.Type]++
	b.stats.bytes += uint64(p.WireSize())
	p.Seq = n.seq[p.Src][p.Dst]
	n.seq[p.Src][p.Dst]++

	if p.Type == Data {
		b.inFlight[p.Job]++
	}
	var v Verdict
	if n.injector != nil {
		// Consulted after the Seq stamp: the injector keys its decision
		// on (Src, Dst, Seq), which is the same at any sharding.
		v = n.injector.Packet(src.Now(), p)
	}
	if p.Src == p.Dst {
		if v.Drop {
			n.dropInjected(p)
			return src.Now()
		}
		src.ScheduleArg(n.cfg.SwitchLatency, n.deliverFn, p)
		if v.Duplicate {
			n.duplicate(p, src.Now()+n.cfg.SwitchLatency+1)
		}
		return src.Now()
	}

	tx := n.txCycles(p.WireSize())
	var arrival sim.Time
	linkFree := n.ports[p.Src].Use(tx, nil)
	arrival = linkFree + n.cfg.SwitchLatency
	// Per-route FIFO guard: never deliver before an earlier packet on
	// the same route.
	if last := n.lastArrival[p.Src][p.Dst]; arrival <= last {
		arrival = last + 1
	}
	n.lastArrival[p.Src][p.Dst] = arrival

	if v.Drop {
		n.dropInjected(p)
		return linkFree
	}
	// Cross-node arrivals are always >= Lookahead() cycles in the future
	// (serialization of at least one byte plus the inter-packet gap, then
	// the switch), which is exactly what lets a shard group run windows
	// of that width concurrently.
	src.CrossArgAt(n.engFor(p.Dst), arrival, n.deliverFn, p)
	if v.Duplicate {
		n.duplicate(p, arrival+1)
	}
	return linkFree
}

// dropInjected accounts a fault-layer loss: the packet leaves the sender's
// counters but never reaches a handler, taking its credits with it. It
// runs in source context, so the packet dies into the source's bucket.
func (n *Network) dropInjected(p *Packet) {
	b := &n.perNode[p.Src]
	b.stats.dropped[p.Type]++
	n.Emit(Event{Kind: Drop, Time: n.engFor(p.Src).Now(), Node: p.Src, Job: p.Job, Pkt: p})
	if p.Type == Data {
		b.inFlight[p.Job]--
	}
	n.freeTo(p.Src, p)
}

// duplicate schedules an extra copy of p arriving right behind the
// original on the same route (a shallow copy: the duplicate must be an
// independent packet so receiver-side bookkeeping sees two arrivals).
func (n *Network) duplicate(p *Packet, at sim.Time) {
	b := &n.perNode[p.Src]
	b.stats.duplicated[p.Type]++
	if p.Type == Data {
		b.inFlight[p.Job]++
	}
	if last := n.lastArrival[p.Src][p.Dst]; at <= last {
		at = last + 1
	}
	n.lastArrival[p.Src][p.Dst] = at
	dup := n.NewPacketFrom(p.Src)
	*dup = *p
	dup.pooled = true
	n.engFor(p.Src).CrossArgAt(n.engFor(p.Dst), at, n.deliverFn, dup)
}

func (n *Network) deliver(p *Packet) {
	b := &n.perNode[p.Dst]
	if p.Type == Data {
		b.inFlight[p.Job]--
	}
	h := n.handlers[p.Dst]
	if h == nil {
		b.stats.dropped[p.Type]++
		n.Emit(Event{Kind: Drop, Time: n.engFor(p.Dst).Now(), Node: p.Dst, Job: p.Job, Pkt: p})
		n.FreePacket(p)
		return
	}
	b.stats.delivered[p.Type]++
	h.HandlePacket(p)
}

// InFlight reports how many of the job's data packets are currently on the
// wire. The flush protocol's guarantee — the invariant the buffer switch
// depends on — is that this is zero for the halted job when every node has
// collected all halts. The count is summed across node buckets, so under
// sharded execution it is meaningful only at barriers (the audit tick runs
// on the global lane, which satisfies that).
func (n *Network) InFlight(job JobID) int {
	total := 0
	for i := range n.perNode {
		total += n.perNode[i].inFlight[job]
	}
	return total
}

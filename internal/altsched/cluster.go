package altsched

import (
	"fmt"

	"gangfm/internal/chaos"
	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// ClusterConfig parameterizes a scheme-comparison cluster.
type ClusterConfig struct {
	Nodes int
	Jobs  int
	// Scheme is the nodes' stage-1 coordination: core.Discard (SHARE)
	// or core.Quiesce (PM).
	Scheme core.Coordination
	Mode   core.CopyMode
	// Quantum is the synchronized-clock switching period. Both schemes
	// in this package derive switches from synchronized clocks (as SHARE
	// does) rather than a masterd broadcast.
	Quantum sim.Time
	// ClockSkew is the residual per-node clock offset, sampled uniformly
	// in [0, ClockSkew) once per node.
	ClockSkew sim.Time
	// Channel tunes the go-back-N transport.
	Channel RChannelConfig
	// PayloadLen is the fixed per-packet payload of the streams.
	PayloadLen int
	Seed       uint64

	// Chaos, when non-nil, is a fault plan injected into the data network
	// — the same plans internal/parpar accepts, so FM's behavior under a
	// fault and the alternatives' can be compared run for run.
	Chaos *chaos.Plan
}

// DefaultClusterConfig returns a 2-node comparison setup.
func DefaultClusterConfig(jobs int) ClusterConfig {
	return ClusterConfig{
		Nodes:      2,
		Jobs:       jobs,
		Scheme:     core.Discard,
		Mode:       core.ValidOnly,
		Quantum:    4_000_000,
		ClockSkew:  4_000, // 20 us: SHARE relies on tightly synchronized clocks
		Channel:    DefaultRChannelConfig(),
		PayloadLen: myrinet.MaxPayload,
		Seed:       1,
	}
}

// node bundles one compute node's hardware, manager and processes.
type node struct {
	nic  *lanai.NIC
	cpu  *sim.Resource
	mgr  *core.Manager
	skew sim.Time
	eps  map[myrinet.JobID]*Endpoint
}

// Cluster is a self-contained rig comparing the alternative schemes: Jobs
// two-rank jobs stream rank 0 -> rank 1 continuously while synchronized
// clocks rotate the schedule every Quantum.
type Cluster struct {
	Eng *sim.Engine
	Net *myrinet.Network
	cfg ClusterConfig

	nodes []*node
	// eps[job][rank]
	eps   map[myrinet.JobID][]*Endpoint
	epoch uint64
	// rotateFn is the cached rotation callback (a fresh method value per
	// quantum would allocate).
	rotateFn func()
}

// NewCluster assembles the rig and registers all processes.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("altsched: need at least 2 nodes")
	}
	if cfg.Jobs < 1 {
		return nil, fmt.Errorf("altsched: need at least 1 job")
	}
	if cfg.Scheme != core.Discard && cfg.Scheme != core.Quiesce {
		return nil, fmt.Errorf("altsched: scheme %v is not an alternative to the flush", cfg.Scheme)
	}
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(cfg.Nodes))
	if cfg.Chaos != nil && !cfg.Chaos.Empty() {
		net.SetInjector(chaos.NewInjector(eng, *cfg.Chaos))
	}
	mem := memmodel.Default()
	rng := sim.NewRand(cfg.Seed)
	c := &Cluster{Eng: eng, Net: net, cfg: cfg, eps: make(map[myrinet.JobID][]*Endpoint)}
	for i := 0; i < cfg.Nodes; i++ {
		nic := lanai.New(eng, net, mem, lanai.DefaultConfig(myrinet.NodeID(i)))
		cpu := sim.NewResource(eng)
		mgr, err := core.NewManager(eng, nic, cpu, mem, core.Config{
			Policy: fm.Switched, Mode: cfg.Mode, MaxContexts: cfg.Jobs, Processors: cfg.Nodes,
			Coordination: cfg.Scheme,
		})
		if err != nil {
			return nil, fmt.Errorf("altsched: %w", err)
		}
		if err := mgr.InitNode(); err != nil {
			return nil, fmt.Errorf("altsched: %w", err)
		}
		skew := sim.Time(0)
		if cfg.ClockSkew > 0 {
			skew = sim.Time(rng.Uint64() % uint64(cfg.ClockSkew))
		}
		n := &node{nic: nic, cpu: cpu, mgr: mgr, skew: skew, eps: make(map[myrinet.JobID]*Endpoint)}
		n.filter(cfg.Scheme)
		c.nodes = append(c.nodes, n)
	}
	nodeOf := []myrinet.NodeID{0, 1}
	for j := 1; j <= cfg.Jobs; j++ {
		job := myrinet.JobID(j)
		eps := make([]*Endpoint, 2)
		for rank := 0; rank < 2; rank++ {
			n := c.nodes[rank]
			ep, err := NewEndpoint(eng, n.nic, n.cpu, cfg.Channel, job, rank, nodeOf, cfg.PayloadLen)
			if err != nil {
				return nil, err
			}
			ep.quiesce = cfg.Scheme == core.Quiesce
			if err := n.mgr.InitJob(job, ep); err != nil {
				return nil, fmt.Errorf("altsched: %w", err)
			}
			n.eps[job] = ep
			eps[rank] = ep
		}
		c.eps[job] = eps
	}
	c.rotateFn = c.rotate
	return c, nil
}

// filter installs the card's receive-side processing. SHARE's card-level
// ID check discards packets for any job but the scheduled one (no ack is
// produced, so the sender's transport eventually retransmits them); PM
// instead nacks what it cannot receive, which resolves the sender's
// quiescence accounting. Packets for the scheduled job pass the NIC-level
// go-back-N accept/ack before the DMA deposit.
func (n *node) filter(scheme core.Coordination) {
	n.nic.DataFilter = func(p *myrinet.Packet) bool {
		ep := n.eps[p.Job]
		if ep == nil || p.Job != n.mgr.Current() {
			if scheme == core.Quiesce {
				nack := n.nic.NewPacket()
				nack.Type = myrinet.Nack
				nack.Src, nack.Dst = n.nic.Node(), p.Src
				nack.Job, nack.SrcRank, nack.DstRank = p.Job, p.DstRank, p.SrcRank
				nack.MsgID = p.MsgID
				n.nic.SendRaw(nack)
			}
			return false
		}
		return ep.accept(p)
	}
	n.nic.OnControl = func(p *myrinet.Packet) {
		ep := n.eps[p.Job]
		if ep == nil {
			return
		}
		switch p.Type {
		case myrinet.Ack:
			ep.handleAck(p)
		case myrinet.Nack:
			ep.handleNack(p)
		}
	}
}

// Endpoints returns a job's endpoints by rank.
func (c *Cluster) Endpoints(job myrinet.JobID) []*Endpoint { return c.eps[job] }

// Start schedules job 1 everywhere and begins the clock-driven rotation.
func (c *Cluster) Start() {
	c.rotate()
}

// rotate advances the schedule on every node at (skewed) synchronized
// clock ticks — there is no coordinator and no inter-node protocol.
func (c *Cluster) rotate() {
	c.epoch++
	job := myrinet.JobID(int(c.epoch-1)%c.cfg.Jobs + 1)
	for _, n := range c.nodes {
		n := n
		c.Eng.Schedule(n.skew, func() {
			if err := n.mgr.SwitchTo(c.epoch, job, nil); err != nil {
				panic(err)
			}
		})
	}
	c.Eng.Schedule(c.cfg.Quantum, c.rotateFn)
}

// RunFor advances the simulation by d cycles.
func (c *Cluster) RunFor(d sim.Time) {
	c.Eng.RunUntil(c.Eng.Now() + d)
}

// Report aggregates a run's transport and switch statistics.
type Report struct {
	Switches        int
	MeanWait        float64 // cycles of stage 1 (quiescence; zero for discard)
	MeanCopy        float64 // cycles
	Delivered       uint64
	Sent            uint64
	Retransmissions uint64
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

// Collect builds the report from the run so far.
func (c *Cluster) Collect() Report {
	var rep Report
	var wait, copies float64
	for _, n := range c.nodes {
		for _, rec := range n.mgr.History() {
			if rec.From == myrinet.NoJob {
				continue
			}
			rep.Switches++
			wait += float64(rec.Halt)
			copies += float64(rec.Copy)
		}
		rep.Discards += n.nic.Stats().Drops[lanai.DropFiltered]
	}
	if rep.Switches > 0 {
		rep.MeanWait = wait / float64(rep.Switches)
		rep.MeanCopy = copies / float64(rep.Switches)
	}
	for _, eps := range c.eps {
		for _, ep := range eps {
			for _, ch := range ep.chans {
				st := ch.Stats()
				rep.Sent += st.Sent
				rep.Retransmissions += st.Retransmissions
				rep.Delivered += st.Delivered
			}
		}
	}
	return rep
}

package parpar

import (
	"fmt"
	"strings"

	"gangfm/internal/altsched"
	"gangfm/internal/chaos"
	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the number of compute nodes (the paper's ParPar has 16,
	// plus a separate manager host not counted here).
	Nodes int
	// Slots is the gang matrix depth — the fixed maximum number of
	// contexts the buffers must accommodate in partitioned mode.
	Slots int
	// Policy selects Partitioned (original FM) or Switched buffers.
	Policy fm.Policy
	// Mode selects the buffer-switch algorithm (Switched policy).
	Mode core.CopyMode
	// Quantum is the gang-scheduling time slice.
	Quantum sim.Time
	// Packing selects the gang-matrix packing policy; nil means the
	// default DHC buddy scheme.
	Packing gang.Policy
	// Coordination selects stage 1 of every switch (Switched policy
	// only). The zero value, Flush, is the paper's scheme: the masterd
	// notifies each node over the control network, each node acknowledges
	// its switch there, and the cards run the halt/ready flush. Discard
	// (SHARE) and Quiesce (PM/SCore) are the related-work schemes of §5:
	// processes talk over altsched's go-back-N channels instead of FM, and
	// each node switches on its synchronized clock, at the round's tick
	// plus its own fixed skew, with no control message per switch.
	Coordination core.Coordination

	// CtrlBase and CtrlJitter shape control-network message latency:
	// base Ethernet+daemon cost plus uniform [0, jitter) per message.
	CtrlBase   sim.Time
	CtrlJitter sim.Time
	// CtrlSerialGap is the per-destination serialization of the
	// masterd's slot-switch unicasts on the control Ethernet; it sets
	// the notification skew that grows with machine size.
	CtrlSerialGap sim.Time
	// InitJobCost is the noded CPU time for COMM_init_job.
	InitJobCost sim.Time
	// ForkDelay is the time from COMM_init_job to the forked process
	// notifying readiness.
	ForkDelay sim.Time

	// NetConfig optionally overrides the data-network parameters (Nodes
	// is forced to match).
	NetConfig *myrinet.Config
	// Seed drives control-network jitter.
	Seed uint64

	// Chaos, when non-nil, is the fault plan to inject: packet loss and
	// duplication on the data network, control-message loss and delay,
	// per-node CPU pauses, slowdowns and crashes, and backing-store
	// corruption. The plan's seed also becomes the auditor's replay seed.
	// A non-empty plan also arms the self-healing switch path: Halt/Ready
	// retransmission with degraded flush completion in the LANai
	// firmware, re-sent daemon control messages (switch notifications and
	// acks included), and, when the plan can crash a node, heartbeat
	// detection and eviction. Without a plan nothing can be lost, and the
	// cluster runs the base protocol.
	Chaos *chaos.Plan

	// Recovery is the heartbeat budget of the self-healing path; the zero
	// value means DefaultRecovery(Quantum).
	Recovery Recovery

	// Deprecated: Shards and Workers are ignored; every cluster runs on
	// one engine. They remain only until the repository benchmark stops
	// assigning them.
	Shards, Workers int
}

// DefaultConfig returns the paper's setup: 16-ish nodes, 4 slots, the
// switched policy with the improved copy, and a 1 second quantum (the
// quantum used for the overhead percentage in §4.2).
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		Slots:         4,
		Policy:        fm.Switched,
		Mode:          core.ValidOnly,
		Quantum:       sim.DefaultClock.FromDuration(1_000_000_000), // 1 s
		CtrlBase:      20_000,                                       // 100 us
		CtrlJitter:    400_000,                                      // up to 2 ms of daemon skew
		CtrlSerialGap: 100_000,                                      // 500 us per switch-notification unicast
		InitJobCost:   10_000,
		ForkDelay:     1_000_000, // 5 ms
		Seed:          1,
	}
}

// clockSkew bounds a node's clock offset under clock-driven coordination:
// each node draws a fixed skew uniformly in [0, clockSkew) once. 20 us:
// SHARE relies on tightly synchronized clocks.
const clockSkew sim.Time = 4_000

// UseFastCtrlNet shrinks the control network's daemon skew, switch
// serialization and fork delay (200 us jitter, 100 us per unicast, 250 us
// fork) so trace-driven and ablation runs with many short jobs simulate
// quickly. The schedulers and the schemes ablation share this preset.
func (c *Config) UseFastCtrlNet() {
	c.CtrlJitter = 40_000
	c.CtrlSerialGap = 20_000
	c.ForkDelay = 50_000
}

// Node is one compute node: card, host CPU, glueFM manager, and the noded
// state for the processes it hosts.
type Node struct {
	ID  myrinet.NodeID
	NIC *lanai.NIC
	CPU *sim.Resource
	Mgr *core.Manager

	cluster *Cluster
	procs   map[myrinet.JobID]*Proc
	// parked holds job loads that found the card full while a finished
	// job's context was still registered (see initJob); endJob retries
	// them.
	parked []parkedLoad

	// skew is the node's fixed clock offset under Discard or Quiesce
	// coordination: it switches that long after the round's tick.
	skew sim.Time

	// gen is this incarnation's membership generation: the eviction count
	// (len(Masterd.downs[ID])) under which the masterd admits it. Every
	// slot-switch notification carries the generation of the node it was
	// sent to, and switchSlot drops one stamped for another incarnation.
	gen int

	// swEpoch is the newest round this incarnation started. With recovery
	// a round's notification may arrive more than once; only the first
	// switches (the manager rejects non-monotonic epochs and overlapping
	// switches), and the masterd's re-send chain stops once it sees the
	// round reached here.
	swEpoch uint64

	// swDoneFn is the switch completion, bound to the manager of the
	// incarnation that built it (see attach): a retired incarnation's
	// switch that finishes late is recognised and ignored.
	swDoneFn func(core.SwitchStats)
	// msgs pools this node's switchMsg records (notifications and acks).
	msgs []*switchMsg

	// evictSeen[j] is the highest eviction generation of node j this noded
	// has applied (a node's generation is its eviction count; the masterd
	// stamps every membership update with it). The latch makes membership
	// deliveries idempotent and order-free: a stale evict re-delivery after
	// node j rejoined — the resend chain raced the admission — is detected
	// as already-applied instead of pruning the live node, and a join that
	// overtakes its eviction applies the prune first. It deliberately
	// survives reboot: it is resend-dedup state about *peers'* lifecycles,
	// not this incarnation's. It holds only the peers this node has seen
	// evicted, nil until the first eviction; a missing entry reads as
	// generation 0, so a machine without failures pays nothing per peer.
	evictSeen map[myrinet.NodeID]int

	// procScratch backs sortedProcs between audit ticks.
	procScratch []*Proc
}

// switchMsg is one slot-switch message: a notification from the masterd
// (the round and the generation of the incarnation it is addressed to) or
// a node's acknowledgement of the round. The records ride through the
// engine as event arguments, so a switch round allocates no closures.
// The sender holds one record (for its re-send chain, see
// ctrlNet.sendReliable) and each delivery carries a copy of its own.
type switchMsg struct {
	n     *Node
	epoch uint64
	gen   int
	ack   bool
}

// getMsg returns a pooled record for one message of node n.
func (n *Node) getMsg(epoch uint64, gen int, ack bool) *switchMsg {
	var s *switchMsg
	if ln := len(n.msgs); ln > 0 {
		s = n.msgs[ln-1]
		n.msgs = n.msgs[:ln-1]
	} else {
		s = &switchMsg{n: n}
	}
	s.epoch, s.gen, s.ack = epoch, gen, ack
	return s
}

// putMsg returns a record to n's pool. A message the control network
// drops is never returned; the collector takes it.
func (n *Node) putMsg(s *switchMsg) { n.msgs = append(n.msgs, s) }

// send delivers a pooled copy of s after d, the receiver's to recycle: a
// notification to its node, an ack to the masterd.
func (s *switchMsg) send(d sim.Time) {
	c, cp := s.n.cluster.ctrl, s.n.getMsg(s.epoch, s.gen, s.ack)
	if s.ack {
		c.deliverArg(-1, d, ackFireFn, cp)
	} else {
		c.deliverArg(int(s.n.ID), d, switchNoteFn, cp)
	}
}

// received and send make s a reliable message, and retire a pooled one.
// A notification is received once its node started the round, an ack
// once the masterd counted it. Either stops mattering when the round
// closes or the node is declared dead (which a stale generation implies).
func (s *switchMsg) received() bool {
	m, i := s.n.cluster.master, int(s.n.ID)
	if m.epoch != s.epoch || !m.inFlight || m.matrix.ColDead(i) {
		return true
	}
	if s.ack {
		return m.ackedBy[i]
	}
	return s.n.swEpoch >= s.epoch
}

func (s *switchMsg) retire() { s.n.putMsg(s) }

// switchNoteFn delivers a notification to its node; ackFireFn is the
// masterd-side delivery of an acknowledgement.
func switchNoteFn(a any) { s := a.(*switchMsg); s.n.switchSlot(s) }

func ackFireFn(a any) {
	s := a.(*switchMsg)
	n, epoch := s.n, s.epoch
	n.putMsg(s)
	n.cluster.master.switchAcked(int(n.ID), epoch)
}

// attach builds and installs one incarnation of node n — a fresh card
// (attaching it replaces any previous incarnation's network handler) and
// an initialised manager — and wires everything the incarnation needs:
// the switch completion bound to that manager and, when the cluster has a
// fault injector, the injector's store-corruption hook and the card's
// retransmission layer with its first deadline from deadlines.
// Construction and reboot both build through here, and the incarnation
// reports its events through the shared network, so nothing is left to
// re-arm. The first Ready deadline also waits out a peer's copy: the copy
// model's worst case (mgr.MaxCopyCost), capped at one quantum —
// past that a lost Ready would stall the round longer than the recovery
// ladder the liveness auditor budgets for, and at the small quanta of the
// chaos campaigns the uncapped worst case (about 16 M cycles with full
// queues) is dozens of quanta.
func (c *Cluster) attach(n *Node) error {
	nic := lanai.New(c.Eng, c.Net, c.Mem, lanai.DefaultConfig(n.ID))
	mgr, err := core.NewManager(c.Eng, nic, n.CPU, c.Mem, core.Config{
		Policy:       c.cfg.Policy,
		Mode:         c.cfg.Mode,
		MaxContexts:  c.cfg.Slots,
		Processors:   c.cfg.Nodes,
		Coordination: c.cfg.Coordination,
	})
	if err != nil {
		return err
	}
	if err := mgr.InitNode(); err != nil {
		return err
	}
	n.NIC, n.Mgr = nic, mgr
	n.swDoneFn = func(s core.SwitchStats) { n.switchDone(mgr, s) }
	if c.cfg.Coordination != core.Flush {
		// Clock-driven switching: nothing is acknowledged over the
		// control network. The masterd's round bookkeeping counts the
		// completion directly, standing in for the synchronized clocks'
		// promise that a round is over before the next tick.
		n.swDoneFn = func(s core.SwitchStats) {
			if mgr == n.Mgr {
				c.master.switchAcked(int(n.ID), s.Epoch)
			}
		}
		nic.DataFilter, nic.OnControl = n.discard, n.control
		if c.cfg.Coordination == core.Quiesce {
			nic.DataFilter = n.nack
		}
	}
	if c.injector != nil {
		mgr.OnStore = c.injector.StoreHook(int(n.ID))
		_, first := deadlines(c.cfg, nic.Config())
		nic.SetRecovery(lanai.Recovery{Timeout: first, Retries: nicRetries,
			CopyBound: min(mgr.MaxCopyCost(), c.cfg.Quantum)})
	}
	return nil
}

// Cluster is the assembled system.
type Cluster struct {
	// Eng is the cluster's one engine: every node, the masterd, the
	// control network and the audit ticks schedule on it.
	Eng *sim.Engine
	Net *myrinet.Network
	Mem *memmodel.Model

	cfg    Config
	rng    *sim.Rand
	ctrl   *ctrlNet
	nodes  []*Node
	master *Masterd

	auditor  *chaos.Auditor
	injector *chaos.Injector
	// observers is the event list the network's observer fans out to
	// (see Observe); it is fixed before the run starts.
	observers []func(myrinet.Event)

	prevProgress map[progressKey]uint64
	auditTicking bool

	// Audit-loop scratch, reused across ticks: the checks run every
	// quantum for the life of the run, so per-tick maps and slices would
	// dominate the steady-state allocation profile.
	audSrcCount map[int]int
	audSrcs     []int
	audJobIDs   []myrinet.JobID
}

// New assembles a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("parpar: need at least one node")
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("parpar: need at least one slot")
	}
	if cfg.Quantum == 0 {
		return nil, fmt.Errorf("parpar: zero quantum")
	}
	if cfg.Recovery == (Recovery{}) {
		cfg.Recovery = DefaultRecovery(cfg.Quantum)
	}
	if err := cfg.Recovery.validate(); err != nil {
		return nil, err
	}
	ncfg := myrinet.DefaultConfig(cfg.Nodes)
	if cfg.NetConfig != nil {
		ncfg = *cfg.NetConfig
		ncfg.Nodes = cfg.Nodes
	}

	eng := sim.NewEngine()
	c := &Cluster{
		Eng:          eng,
		Net:          myrinet.New(eng, ncfg),
		Mem:          memmodel.Default(),
		cfg:          cfg,
		rng:          sim.NewRand(cfg.Seed ^ 0xABCD),
		prevProgress: make(map[progressKey]uint64),
		audSrcCount:  make(map[int]int),
	}
	c.Net.SetObserver(c.emit)
	c.ctrl = newCtrlNet(eng, cfg.CtrlBase, cfg.CtrlJitter, c.rng)
	c.ctrl.timeout, _ = deadlines(cfg, lanai.DefaultConfig(0))
	c.newChaos()
	// The skews have their own stream, so a Flush run's control-network
	// jitter does not move.
	var skews *sim.Rand
	if cfg.Coordination != core.Flush {
		skews = sim.NewRand(cfg.Seed)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID: myrinet.NodeID(i), CPU: sim.NewResource(eng),
			cluster: c, procs: make(map[myrinet.JobID]*Proc),
		}
		if skews != nil {
			n.skew = sim.Time(skews.Uint64() % uint64(clockSkew))
		}
		if err := c.attach(n); err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	c.master = newMasterd(c)
	c.armChaos()
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the compute nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Master returns the manager daemon.
func (c *Cluster) Master() *Masterd { return c.master }

// Submit places a job in the gang matrix and starts the Figure 2 launch
// protocol. The job runs when its time slot is scheduled.
func (c *Cluster) Submit(spec JobSpec) (*Job, error) {
	job, err := c.master.submit(spec)
	if err == nil {
		c.armAuditTick()
	}
	return job, err
}

// Kill terminates a live job voluntarily (operator kill or scheduler
// resize), as opposed to the recovery layer's eviction kills: the job's
// slots are reclaimed, its processes are stopped and their contexts
// released on every node, and its completion callbacks fire with state
// JobKilled — but no node is marked dead and the survivors keep rotating.
func (c *Cluster) Kill(job *Job) error {
	return c.master.killVoluntary(job)
}

// Resize restarts a job at a new size: kill the old incarnation (its
// processes hold size-dependent state, so gang jobs are rigid within one
// incarnation) and submit the replacement spec. Returns the new job.
func (c *Cluster) Resize(job *Job, spec JobSpec) (*Job, error) {
	if err := c.Kill(job); err != nil {
		return nil, err
	}
	return c.Submit(spec)
}

// Compact runs an explicit slot-unification pass on the gang matrix —
// the migration step an online scheduler wants after a kill or resize
// opens holes — and returns the number of jobs moved. Row moves are pure
// bookkeeping (columns, and therefore processes, never migrate), but a
// move can land a suspended job in the active row, so a real switch is
// forced when anything moved.
func (c *Cluster) Compact() int {
	return c.master.compact()
}

// Run processes events until the cluster goes quiescent (all jobs done and
// the rotation stopped).
func (c *Cluster) Run() { c.Eng.Run() }

// RunUntil processes events up to the given virtual time.
func (c *Cluster) RunUntil(t sim.Time) { c.Eng.RunUntil(t) }

// RunBounded processes events up to virtual time h and returns an error
// naming every job still live there (neither done nor killed), with the
// invariant auditor's summary. While jobs are live the rotation keeps the
// queue non-empty, so a wedged protocol never goes quiescent: callers
// that must finish use this instead of the unbounded Run.
func (c *Cluster) RunBounded(h sim.Time) error {
	c.RunUntil(h)
	if c.master.Jobs() == 0 {
		return nil
	}
	var stuck []string
	for _, id := range c.sortedJobIDs(c.master.jobs) {
		j := c.master.jobs[id]
		stuck = append(stuck, fmt.Sprintf("%s (job %d, %s)", j.Spec.Name, id, j.State()))
	}
	return fmt.Errorf("wedged at the %d-cycle horizon: unfinished %s; auditor: %s",
		h, strings.Join(stuck, ", "), c.Auditor().Summary())
}

// Fired returns the number of events executed so far.
func (c *Cluster) Fired() uint64 { return c.Eng.Fired() }

// SwitchHistory returns every node's recorded switch statistics.
func (c *Cluster) SwitchHistory() [][]core.SwitchStats {
	out := make([][]core.SwitchStats, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Mgr.History()
	}
	return out
}

// SchemeReport aggregates what compares the coordination schemes: every
// node's job-to-job switches (first binds and idle switches are not
// counted), the cards' ID-filter discards, and the go-back-N channels of
// the live processes (none under Flush).
func (c *Cluster) SchemeReport() altsched.Report {
	var r altsched.Report
	var coord, copies float64
	for _, n := range c.nodes {
		for _, s := range n.Mgr.History() {
			if s.From == myrinet.NoJob || s.To == myrinet.NoJob {
				continue
			}
			r.Switches++
			coord += float64(s.Halt + s.Release)
			copies += float64(s.Copy)
		}
		r.Discards += n.NIC.Stats().Drops[lanai.DropFiltered]
		for _, p := range n.procs {
			if p.Alt != nil {
				st := p.Alt.Stats()
				r.Sent += st.Sent
				r.Retransmissions += st.Retransmissions
				r.Delivered += st.Delivered
			}
		}
	}
	if r.Switches > 0 {
		r.MeanCoord = coord / float64(r.Switches)
		r.MeanCopy = copies / float64(r.Switches)
	}
	return r
}

// reliableSend routes one daemon control message, re-sent until done
// reports its receipt (at most ctrlRetries times) when a fault plan can
// lose it (see ctrlNet.sendReliable). dst < 0 addresses the masterd,
// dst >= 0 a node's noded.
func (c *Cluster) reliableSend(dst int, done func() bool, fn func()) {
	c.ctrl.sendReliable(0, ctrlRetries, &funcMsg{c: c.ctrl, dst: dst, done: done, fn: fn})
}

// node-side daemon actions -------------------------------------------------

// parkedLoad is a job load waiting for a context to be released.
type parkedLoad struct {
	job  *Job
	rank int
}

// loadJob is the noded's handling of the masterd's job-load message: note
// its receipt (which stops the message's re-send chain), then run
// COMM_init_job (context allocated, environment prepared — the process can
// already receive), fork the process, and notify the masterd.
func (n *Node) loadJob(job *Job, rank int) {
	job.loadSeen[rank] = true
	n.CPU.Use(n.cluster.cfg.InitJobCost, func() {
		n.initJob(job, rank)
	})
}

// initJob is loadJob's work once its host cost is paid.
func (n *Node) initJob(job *Job, rank int) {
	if job.ended() {
		// The job was killed (or, with recovery re-sends, finished)
		// while this load message was in flight: allocating a context
		// now would leak it, since the kill's cleanup already ran.
		return
	}
	if _, dup := n.procs[job.ID]; dup {
		// Re-sent load (recovery): the job is already initialized; the
		// readiness notification has its own reliable delivery.
		return
	}
	var (
		ep   *fm.Endpoint
		alt  *altsched.Endpoint
		proc core.Process
		err  error
	)
	if coord := n.cluster.cfg.Coordination; coord == core.Flush {
		ep, err = fm.NewEndpoint(n.cluster.Eng, n.NIC, n.CPU, n.cluster.Mem,
			fm.DefaultConfig(n.Mgr.Alloc().C0), job.ID, rank, job.nodeOf)
		proc = ep
	} else {
		alt, err = altsched.NewEndpoint(n.cluster.Eng, n.NIC, n.CPU, altsched.DefaultRChannelConfig(),
			job.ID, rank, job.nodeOf, myrinet.MaxPayload, coord == core.Quiesce)
		proc = alt
	}
	if err != nil {
		panic(fmt.Sprintf("parpar: endpoint for job %d rank %d: %v", job.ID, rank, err))
	}
	if err := n.Mgr.InitJob(job.ID, proc); err != nil {
		if n.releasePending() {
			// The masterd places a job in a cell the moment the previous
			// occupant leaves the matrix, and the control network does
			// not keep order: this load overtook the end message of a job
			// that still holds its context (partitioned credits leave the
			// card room for exactly one context per slot). Park the load;
			// endJob retries it once the context is released.
			n.parked = append(n.parked, parkedLoad{job, rank})
			return
		}
		panic(fmt.Sprintf("parpar: InitJob: %v", err))
	}
	p := &Proc{
		cluster: n.cluster, node: n, job: job, rank: rank,
		EP:      ep,
		Alt:     alt,
		program: job.Spec.NewProgram(rank),
	}
	n.procs[job.ID] = p
	job.procs[rank] = p
	// Fork; the child notifies readiness through the noded.
	n.cluster.Eng.Schedule(n.cluster.cfg.ForkDelay, func() {
		n.cluster.reliableSend(-1, func() bool { return job.readySeen[rank] || job.ended() },
			func() { n.cluster.master.rankReady(job, rank) })
	})
}

// releasePending reports whether a job that has finished or been killed
// still holds a context on this node, its end message yet to arrive.
func (n *Node) releasePending() bool {
	for _, p := range n.procs {
		if p.job.ended() {
			return true
		}
	}
	return false
}

// startJob is the noded's handling of the masterd's all-up broadcast: it
// writes the sync byte on the pipe; FM_initialize returns and the process
// enters its program. The process only actually runs (SIGCONT) when a slot
// switch binds and resumes it — the masterd forces one after the job
// synchronizes, so resumption is consistent across all of the job's nodes.
func (n *Node) startJob(job *Job, rank int) {
	p := job.procs[rank]
	if p == nil || p.started {
		return
	}
	p.started = true
	p.program.Start(p)
}

// switchSlot is the noded's handling of the masterd's slot-switch
// notification: the three-stage context switch to this node's cell of the
// round's row (or an idle switch when the cell is empty or the job has
// already terminated). The fence comes first: a notification stamped for
// another incarnation — sent to the node before a reboot, or to a fresh
// incarnation the masterd has not admitted yet — is dropped, so only the
// admitted incarnation ever switches, one round at a time.
func (n *Node) switchSlot(s *switchMsg) {
	epoch, gen := s.epoch, s.gen
	n.putMsg(s)
	if gen != n.gen || epoch <= n.swEpoch {
		// Another incarnation's notification, or a re-send of a round
		// this node already started (its ack has a re-send chain of its
		// own).
		return
	}
	n.swEpoch = epoch
	// The masterd rewrites its row snapshot only when the next round
	// starts, after every live node acknowledged this one; only a
	// notification that reaches an evicted node can read a later row.
	if job := n.cluster.master.targets[n.ID]; job != myrinet.NoJob {
		if _, known := n.procs[job]; known {
			if err := n.Mgr.SwitchTo(epoch, job, n.swDoneFn); err != nil {
				panic(fmt.Sprintf("parpar: node %d switch to job %d: %v", n.ID, job, err))
			}
			return
		}
	}
	if err := n.Mgr.SwitchIdle(epoch, n.swDoneFn); err != nil {
		panic(fmt.Sprintf("parpar: node %d idle switch: %v", n.ID, err))
	}
}

// discard is the card's receive-side processing under Discard coordination
// (SHARE): the card-level ID check drops a data packet for any job but the
// bound one, with no ack, so the sender's go-back-N retransmits it later. A
// packet for the bound job passes its channel's go-back-N check before the
// DMA deposit, which acknowledges it.
func (n *Node) discard(p *myrinet.Packet) bool {
	ep := n.bound(p.Job)
	return ep != nil && ep.Accept(p)
}

// nack is the same under Quiesce coordination (PM), except that a packet
// the card cannot receive is nacked, which resolves the sender's
// quiescence wait.
func (n *Node) nack(p *myrinet.Packet) bool {
	if ep := n.bound(p.Job); ep != nil {
		return ep.Accept(p)
	}
	nack := n.NIC.NewPacket()
	nack.Type = myrinet.Nack
	nack.Src, nack.Dst = n.ID, p.Src
	nack.Job, nack.SrcRank, nack.DstRank = p.Job, p.DstRank, p.SrcRank
	nack.MsgID = p.MsgID
	n.NIC.SendRaw(nack)
	return false
}

// bound returns job's go-back-N endpoint if the job is bound to the card.
func (n *Node) bound(job myrinet.JobID) *altsched.Endpoint {
	if p := n.procs[job]; p != nil && job == n.Mgr.Current() {
		return p.Alt
	}
	return nil
}

// control hands an Ack or Nack to its process's channels.
func (n *Node) control(p *myrinet.Packet) {
	if pr := n.procs[p.Job]; pr != nil {
		pr.Alt.Control(p)
	}
}

// switchDone is a switch completion from mgr: record the round as done and
// acknowledge it. A completion from a retired incarnation's manager — a
// switch cut short by a crash, resuming on the host CPU after the repair —
// belongs to no round of the fresh incarnation and is ignored.
func (n *Node) switchDone(mgr *core.Manager, s core.SwitchStats) {
	if mgr != n.Mgr {
		return
	}
	n.cluster.ctrl.sendReliable(0, -1, n.getMsg(s.Epoch, n.gen, true))
}

// endJob is the noded's handling of job termination: release the
// communication context and forget the process.
func (n *Node) endJob(job myrinet.JobID) {
	if _, ok := n.procs[job]; !ok {
		return
	}
	if err := n.Mgr.EndJob(job); err != nil {
		panic(fmt.Sprintf("parpar: EndJob: %v", err))
	}
	if p := n.procs[job]; p.Alt != nil {
		p.Alt.Kill()
	}
	delete(n.procs, job)
	if parked := n.parked; len(parked) > 0 {
		n.parked = nil
		for _, l := range parked {
			n.initJob(l.job, l.rank)
		}
	}
}

// killJob is the noded's handling of a job termination it did not ask
// for: a recovery-layer eviction or a scheduler-initiated kill. Unlike
// endJob the process has not exited on its own, so it is stopped first —
// the endpoint is killed (not merely suspended: a suspended endpoint
// finishes an in-flight send when its host cost completes, and that
// packet would hit the wire after this node's queues were cleared,
// corrupting a still-live peer's fragment stream) and the proc marked
// killed, making any still-scheduled program activity inert — before its
// communication resources are released.
func (n *Node) killJob(job myrinet.JobID) {
	p, ok := n.procs[job]
	if !ok {
		return
	}
	p.killed = true
	if p.EP != nil {
		p.EP.Kill()
	}
	n.endJob(job)
}

// evictPeer is the noded's handling of the masterd's membership update: a
// node was declared failed. The card stops expecting it in flush/release
// phases and COMM_remove_node drops it from the routing-table view. gen is
// the eviction's generation stamp; a delivery at or below the applied
// watermark is a stale retransmission and must not touch the membership —
// without the latch, a resend racing the node's rejoin would prune the
// freshly readmitted incarnation from this card's view for good.
func (n *Node) evictPeer(id myrinet.NodeID, gen int) {
	if gen <= n.evictSeen[id] {
		return
	}
	if n.evictSeen == nil {
		n.evictSeen = make(map[myrinet.NodeID]int)
	}
	n.evictSeen[id] = gen
	n.NIC.EvictPeer(id)
	if n.Mgr.InTopology(id) {
		if err := n.Mgr.RemoveNode(id); err != nil {
			panic(fmt.Sprintf("parpar: RemoveNode: %v", err))
		}
	}
}

// joinPeer is the noded's handling of the masterd's membership grow: a
// repaired node is back. COMM_add_node restores it to the routing-table
// view and the card expects its flush/release reports again; the noded
// then confirms over the reliable path — the masterd admits the joiner
// only after every survivor has confirmed. gen is the generation of the
// eviction this admission heals: applying it first (a no-op when the evict
// broadcast got here before the join, the normal order) collapses the
// out-of-order case where the join overtakes a delayed eviction.
func (n *Node) joinPeer(id myrinet.NodeID, gen int) {
	n.evictPeer(id, gen)
	if !n.Mgr.InTopology(id) {
		if err := n.Mgr.AddNode(id); err != nil {
			panic(fmt.Sprintf("parpar: AddNode: %v", err))
		}
		n.NIC.JoinPeer(id)
	}
	m := n.cluster.master
	i, j := int(id), int(n.ID)
	n.cluster.reliableSend(-1, func() bool { return m.joinAckSeen(i, j) },
		func() { m.joinAcked(i, j) })
}

// heartbeatCost is the noded's host-CPU charge for answering a liveness
// probe: the reply is issued only after the host CPU schedules the
// daemon, so a fail-stopped node — whose CPU is blocked forever — never
// answers. That silence is exactly what the masterd's miss budget turns
// into an eviction; a merely paused or slowed node answers late and the
// budget absorbs it.
const heartbeatCost sim.Time = 2_000

// heartbeat is the noded's handling of the masterd's liveness probe.
func (n *Node) heartbeat(seq uint64) {
	m := n.cluster.master
	i := int(n.ID)
	n.CPU.Use(heartbeatCost, func() {
		n.cluster.reliableSend(-1, func() bool { return m.hbSeenAtLeast(i, seq) },
			func() { m.hbReply(i, seq) })
	})
}

// reboot builds the node's fresh incarnation after a repair (see attach)
// with a full-topology view pruned to the masterd's current membership
// snapshot, empty daemon state, and gen, the membership generation it
// will be admitted under (see repairNode). The injector's CPU faults stay
// armed on the (now unblocked) host CPU, so a later fault in the plan
// still hits the new incarnation.
func (n *Node) reboot(deadPeers []myrinet.NodeID, gen int) {
	if err := n.cluster.attach(n); err != nil {
		panic(fmt.Sprintf("parpar: rebooting node %d: %v", n.ID, err))
	}
	for _, id := range deadPeers {
		n.NIC.EvictPeer(id)
		if err := n.Mgr.RemoveNode(id); err != nil {
			panic(fmt.Sprintf("parpar: rebooting node %d: %v", n.ID, err))
		}
	}
	n.procs = make(map[myrinet.JobID]*Proc)
	n.parked = nil
	n.gen = gen
	n.swEpoch = 0
}

// repairNode runs at a NodeRepair instant, right after the injector
// unblocked the host CPU in the same event cascade. The masterd learns the
// fresh incarnation exists immediately — from here on membership updates
// reach the new card — and the reboot plus the rejoin request follow in
// an event of their own at the same instant.
func (c *Cluster) repairNode(i int) {
	m := c.master
	m.nodeRebooted(i)
	// Snapshot the dead set (minus the rebooting node itself) now: the fresh incarnation's topology must match the survivors'
	// view, and any eviction after this instant is broadcast to rebooted
	// incarnations too.
	var deadPeers []myrinet.NodeID
	for j := range c.nodes {
		if j != i && m.matrix.ColDead(j) {
			deadPeers = append(deadPeers, myrinet.NodeID(j))
		}
	}
	// A node mid-admission is still dead in that snapshot, and its join
	// broadcast went out before this incarnation existed, so nothing else
	// would re-add it here: apply the join as part of the boot, or this
	// card never expects the joiner's flush/release reports and sends into
	// contexts it has not bound yet.
	joining, joinGen := -1, 0
	if j := m.joining; j >= 0 && j != i {
		joining, joinGen = j, len(m.downs[j])
	}
	// The fresh incarnation's generation is the eviction count it will be
	// admitted under. Evictions happen only while a node is live and
	// admissions only while it is dead, so that is the current count when
	// the crash was already detected, and one more when it was not: the
	// rejoin request (or a detector) retires the old incarnation first.
	gen := len(m.downs[i])
	if !m.matrix.ColDead(i) {
		gen++
	}
	node := c.nodes[i]
	c.Eng.Schedule(0, func() {
		node.reboot(deadPeers, gen)
		if joining >= 0 {
			node.joinPeer(myrinet.NodeID(joining), joinGen)
		}
		c.reliableSend(-1, func() bool { return m.rejoinRequested(i) },
			func() { m.rejoinRequest(i) })
	})
}

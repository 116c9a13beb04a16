package parpar

import (
	"fmt"

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
	// FMTweak optionally adjusts each endpoint's fm.Config after the
	// allocation-derived defaults are set.
	FMTweak func(*fm.Config)
	// Seed drives control-network jitter.
	Seed uint64

	// Chaos, when non-nil, is the fault plan to inject: packet loss and
	// duplication on the data network, control-message loss and delay,
	// per-node CPU pauses and slowdowns, and backing-store corruption.
	// The plan's seed also becomes the auditor's replay seed.
	Chaos *chaos.Plan
	// FailFast stops the simulation at the first invariant violation.
	FailFast bool

	// Recovery, when non-nil, enables the self-healing switch path:
	// Halt/Ready retransmission with degraded flush completion in the
	// LANai firmware, reliable daemon control messages, the masterd
	// switch watchdog, and node eviction. Nil (the default) leaves the
	// cluster byte-identical to the base protocol.
	Recovery *Recovery

	// Shards, when > 1, partitions the cluster into that many contiguous
	// node ranges, each with its own event lane (masterd and control
	// network live on an extra global lane). The lanes run under
	// conservative lookahead windows derived from the data network's
	// minimum cross-node latency, concurrently when Workers > 1; results —
	// chaos traces included — are identical to the unsharded simulator at
	// any worker count. Shards <= 1 leaves the classic single-engine path
	// untouched.
	Shards int
	// Workers caps the goroutines running shard windows (see Shards).
	Workers int
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

// Node is one compute node: card, host CPU, glueFM manager, and the noded
// state for the processes it hosts.
type Node struct {
	ID  myrinet.NodeID
	NIC *lanai.NIC
	CPU *sim.Resource
	Mgr *core.Manager
	// Eng is the event lane this node's state lives on: the cluster
	// engine normally, the owning shard's engine under sharded execution.
	// Every event that touches the node's NIC, CPU, manager, or endpoint
	// state runs here.
	Eng *sim.Engine

	cluster *Cluster
	procs   map[myrinet.JobID]*Proc

	// Slot-switch idempotence (recovery only): the watchdog may re-send a
	// round's notification, so the noded remembers the round it is working
	// on and, once done, the stats it acked with — a duplicate re-acks
	// instead of re-switching (the manager rejects non-monotonic epochs).
	swEpoch uint64
	swBusy  bool
	swDone  bool
	swStats core.SwitchStats

	// Clean-path switch plumbing: the masterd issues one switch per node
	// per round, so the pending ack callback and completion stats ride in
	// these fields and the prebuilt swDoneFn/ack trampolines — a
	// steady-state switch allocates no closures on the node side.
	swAck    func(core.SwitchStats)
	swDoneFn func(core.SwitchStats)
	ackFn    func(core.SwitchStats)
	ackStats core.SwitchStats

	// evictSeen[j] is the highest eviction generation of node j this noded
	// has applied (a node's generation is its eviction count; the masterd
	// stamps every membership update with it). The latch makes membership
	// deliveries idempotent and order-free: a stale evict re-delivery after
	// node j rejoined — the resend chain raced the admission — is detected
	// as already-applied instead of pruning the live node, and a join that
	// overtakes its eviction applies the prune first. It deliberately
	// survives reboot: it is resend-dedup state about *peers'* lifecycles,
	// not this incarnation's.
	evictSeen []int

	// procScratch backs sortedProcs between audit ticks.
	procScratch []*Proc
}

// The shared node-side ack callbacks (the Node rides along as the event
// argument): ackHop runs on the control network's lane and samples the
// delivery latency there; ackFire is the masterd-side delivery.
var (
	nodeAckHopFn  = func(a any) { a.(*Node).ackHop() }
	nodeAckFireFn = func(a any) { a.(*Node).ackFire() }
)

// deliverAck routes one switch acknowledgement to the masterd with the
// same latency sampling and lane hops as ctrl.send, but closure-free.
func (n *Node) deliverAck(s core.SwitchStats, ack func(core.SwitchStats)) {
	n.ackStats, n.ackFn = s, ack
	c := n.cluster.ctrl
	if n.Eng == c.eng {
		n.ackHop()
		return
	}
	n.Eng.CrossArgAt(c.eng, n.Eng.Now(), nodeAckHopFn, n)
}

func (n *Node) ackHop() {
	c := n.cluster.ctrl
	c.deliverRoutedArg(-1, -1, c.delay(), nodeAckFireFn, n)
}

func (n *Node) ackFire() {
	ack, s := n.ackFn, n.ackStats
	n.ackFn = nil
	ack(s)
}

// Cluster is the assembled system.
type Cluster struct {
	// Eng is the cluster's control lane: the single engine of an
	// unsharded cluster, or the shard group's global lane (masterd,
	// control network, audit ticks). Use Run/RunUntil/RunFor to drive the
	// simulation — they dispatch to the shard group when one exists.
	Eng *sim.Engine
	Net *myrinet.Network
	Mem *memmodel.Model

	group *sim.Group

	cfg    Config
	rng    *sim.Rand
	ctrl   *ctrlNet
	nodes  []*Node
	master *Masterd

	auditor  *chaos.Auditor
	injector *chaos.Injector
	ledger   *chaos.CreditLedger

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
	if cfg.Recovery != nil {
		if err := cfg.Recovery.validate(); err != nil {
			return nil, err
		}
	}
	ncfg := myrinet.DefaultConfig(cfg.Nodes)
	if cfg.NetConfig != nil {
		ncfg = *cfg.NetConfig
		ncfg.Nodes = cfg.Nodes
	}

	// Sharded execution: partition the nodes into contiguous ranges, one
	// event lane each, with the masterd and control network on the extra
	// global lane. The window size is the data network's minimum
	// cross-node latency; control messages must not undercut it, so
	// sharding requires CtrlBase to cover the lookahead (in practice
	// Ethernet+daemon latency dwarfs a switch traversal).
	shards := cfg.Shards
	if shards > cfg.Nodes {
		shards = cfg.Nodes
	}
	var group *sim.Group
	var eng *sim.Engine
	if shards > 1 {
		lookahead := ncfg.SwitchLatency + ncfg.PerPacketGap + 1
		if cfg.CtrlBase < lookahead {
			return nil, fmt.Errorf(
				"parpar: CtrlBase %d is below the network lookahead %d; sharding needs control latency >= the window size",
				cfg.CtrlBase, lookahead)
		}
		group = sim.NewGroup(sim.GroupConfig{
			Shards:    shards,
			Lookahead: lookahead,
			Workers:   cfg.Workers,
		})
		eng = group.Global()
	} else {
		eng = sim.NewEngine()
	}

	c := &Cluster{
		Eng:          eng,
		Net:          myrinet.New(eng, ncfg),
		Mem:          memmodel.Default(),
		group:        group,
		cfg:          cfg,
		rng:          sim.NewRand(cfg.Seed ^ 0xABCD),
		prevProgress: make(map[progressKey]uint64),
		audSrcCount:  make(map[int]int),
	}
	if group != nil {
		engs := make([]*sim.Engine, cfg.Nodes)
		for i := range engs {
			engs[i] = group.Shard(i * shards / cfg.Nodes)
		}
		c.Net.SetShardEngines(engs)
	}
	c.ctrl = newCtrlNet(eng, cfg.CtrlBase, cfg.CtrlJitter, c.rng)
	for i := 0; i < cfg.Nodes; i++ {
		nodeEng := eng
		if group != nil {
			nodeEng = group.Shard(i * shards / cfg.Nodes)
		}
		nic := lanai.New(nodeEng, c.Net, c.Mem, lanai.DefaultConfig(myrinet.NodeID(i)))
		if r := cfg.Recovery; r != nil {
			nic.SetRecovery(lanai.Recovery{Timeout: r.NICTimeout, Retries: r.NICRetries})
		}
		cpu := sim.NewResource(nodeEng, fmt.Sprintf("host%d", i))
		mgr, err := core.NewManager(nodeEng, nic, cpu, c.Mem, core.Config{
			Policy:      cfg.Policy,
			Mode:        cfg.Mode,
			MaxContexts: cfg.Slots,
			Processors:  cfg.Nodes,
		})
		if err != nil {
			return nil, err
		}
		if err := mgr.InitNode(); err != nil {
			return nil, err
		}
		n := &Node{
			ID: myrinet.NodeID(i), NIC: nic, CPU: cpu, Mgr: mgr, Eng: nodeEng,
			cluster: c, procs: make(map[myrinet.JobID]*Proc),
			evictSeen: make([]int, cfg.Nodes),
		}
		n.swDoneFn = func(s core.SwitchStats) {
			ack := n.swAck
			n.swAck = nil
			n.deliverAck(s, ack)
		}
		c.nodes = append(c.nodes, n)
	}
	if group != nil {
		c.ctrl.engOf = func(node int) *sim.Engine { return c.nodes[node].Eng }
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
func (c *Cluster) Run() {
	if c.group != nil {
		c.group.Run()
		return
	}
	c.Eng.Run()
}

// RunUntil processes events up to the given virtual time.
func (c *Cluster) RunUntil(t sim.Time) {
	if c.group != nil {
		c.group.RunUntil(t)
		return
	}
	c.Eng.RunUntil(t)
}

// RunFor processes events for d more cycles.
func (c *Cluster) RunFor(d sim.Time) { c.RunUntil(c.Eng.Now() + d) }

// Fired returns the total number of events executed across every lane.
func (c *Cluster) Fired() uint64 {
	if c.group != nil {
		return c.group.Fired()
	}
	return c.Eng.Fired()
}

// SwitchHistory returns every node's recorded switch statistics.
func (c *Cluster) SwitchHistory() [][]core.SwitchStats {
	out := make([][]core.SwitchStats, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Mgr.History()
	}
	return out
}

// reliableSend routes one daemon control message: a plain send with
// recovery disabled, a re-sent-until-done send with it enabled. dst < 0
// addresses the masterd (or is otherwise unattributed); dst >= 0 names the
// node whose shard the handler runs on. src is the engine the caller is
// executing on.
func (c *Cluster) reliableSend(src *sim.Engine, dst int, done func() bool, fn func()) {
	r := c.cfg.Recovery
	if r == nil {
		// The base protocol presents every daemon message unattributed to
		// the fault layer; keeping that here (rather than exposing dst)
		// preserves the injector's decision sequence byte-for-byte with
		// recovery off. The handler still runs on dst's lane.
		c.ctrl.sendRouted(src, dst, fn)
		return
	}
	c.ctrl.sendReliable(src, dst, r.CtrlTimeout, r.CtrlRetries, done, fn)
}

// node-side daemon actions -------------------------------------------------

// loadJob is the noded's handling of the masterd's job-load message: run
// COMM_init_job (context allocated, environment prepared — the process can
// already receive), fork the process, and notify the masterd.
func (n *Node) loadJob(job *Job, rank int) {
	n.CPU.Use(n.cluster.cfg.InitJobCost, func() {
		if job.state == JobDone || job.state == JobKilled {
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
		alloc := n.Mgr.Alloc()
		fmCfg := fm.DefaultConfig(alloc.C0)
		if n.cluster.cfg.FMTweak != nil {
			n.cluster.cfg.FMTweak(&fmCfg)
		}
		ep, err := fm.NewEndpoint(n.Eng, n.NIC, n.CPU, n.cluster.Mem,
			fmCfg, job.ID, rank, job.nodeOf)
		if err != nil {
			panic(fmt.Sprintf("parpar: endpoint for job %d rank %d: %v", job.ID, rank, err))
		}
		p := &Proc{
			cluster: n.cluster, node: n, job: job, rank: rank,
			EP:      ep,
			program: job.Spec.NewProgram(rank),
		}
		if err := n.Mgr.InitJob(job.ID, rank, ep); err != nil {
			panic(fmt.Sprintf("parpar: InitJob: %v", err))
		}
		n.procs[job.ID] = p
		job.procs[rank] = p
		// Fork; the child notifies readiness through the noded.
		n.Eng.Schedule(n.cluster.cfg.ForkDelay, func() {
			n.cluster.reliableSend(n.Eng, -1, func() bool { return job.readySeen[rank] },
				func() { n.cluster.master.rankReady(job, rank) })
		})
	})
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
// broadcast: the three-stage context switch to this node's cell of the
// new row (or an idle switch when the cell is empty or the job has
// already terminated).
func (n *Node) switchSlot(epoch uint64, job myrinet.JobID, ack func(core.SwitchStats)) {
	if n.cluster.cfg.Recovery != nil {
		switch {
		case epoch < n.swEpoch:
			return // straggler from a closed round
		case epoch == n.swEpoch && n.swDone:
			// Watchdog re-send after completion: the ack was lost, not the
			// switch. Re-ack with the recorded stats.
			s := n.swStats
			n.cluster.ctrl.send(n.Eng, func() { ack(s) })
			return
		case epoch == n.swEpoch && n.swBusy:
			return // re-send overtook the switch in progress; ack follows
		}
		n.swEpoch, n.swBusy, n.swDone = epoch, true, false
	}
	var done func(core.SwitchStats)
	if n.cluster.cfg.Recovery == nil && n.swAck == nil {
		// Clean path: one switch per node per round, so the ack rides in
		// the node's prebuilt completion chain — no closures per round.
		n.swAck = ack
		done = n.swDoneFn
	} else {
		done = func(s core.SwitchStats) {
			if n.cluster.cfg.Recovery != nil {
				n.swBusy, n.swDone, n.swStats = false, true, s
			}
			n.cluster.ctrl.send(n.Eng, func() { ack(s) })
		}
	}
	if job != myrinet.NoJob {
		if _, known := n.procs[job]; known {
			if err := n.Mgr.SwitchTo(epoch, job, done); err != nil {
				panic(fmt.Sprintf("parpar: node %d switch to job %d: %v", n.ID, job, err))
			}
			return
		}
	}
	if err := n.Mgr.SwitchIdle(epoch, done); err != nil {
		panic(fmt.Sprintf("parpar: node %d idle switch: %v", n.ID, err))
	}
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
	delete(n.procs, job)
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
	p.EP.Kill()
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
	n.cluster.reliableSend(n.Eng, -1, func() bool { return m.joinAckSeen(i, j) },
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
		n.cluster.reliableSend(n.Eng, -1, func() bool { return m.hbSeenAtLeast(i, seq) },
			func() { m.hbReply(i, seq) })
	})
}

// reboot builds the node's fresh incarnation after a repair: a new card
// (attaching it replaces the dead incarnation's network handler), a new
// manager whose full-topology view is pruned to the masterd's current
// membership snapshot, and empty daemon state. The chaos observers are
// re-wired exactly as construction did for the first incarnation; the
// injector's CPU faults stay armed on the (now unblocked) host CPU, so a
// later fault in the plan still hits the new incarnation.
func (n *Node) reboot(deadPeers []myrinet.NodeID) {
	c := n.cluster
	nic := lanai.New(n.Eng, c.Net, c.Mem, lanai.DefaultConfig(n.ID))
	if r := c.cfg.Recovery; r != nil {
		nic.SetRecovery(lanai.Recovery{Timeout: r.NICTimeout, Retries: r.NICRetries})
	}
	mgr, err := core.NewManager(n.Eng, nic, n.CPU, c.Mem, core.Config{
		Policy:      c.cfg.Policy,
		Mode:        c.cfg.Mode,
		MaxContexts: c.cfg.Slots,
		Processors:  c.cfg.Nodes,
	})
	if err != nil {
		panic(fmt.Sprintf("parpar: rebooting node %d: %v", n.ID, err))
	}
	if err := mgr.InitNode(); err != nil {
		panic(fmt.Sprintf("parpar: rebooting node %d: %v", n.ID, err))
	}
	n.NIC, n.Mgr = nic, mgr
	for _, id := range deadPeers {
		nic.EvictPeer(id)
		if err := mgr.RemoveNode(id); err != nil {
			panic(fmt.Sprintf("parpar: rebooting node %d: %v", n.ID, err))
		}
	}
	n.procs = make(map[myrinet.JobID]*Proc)
	n.swEpoch, n.swBusy, n.swDone = 0, false, false
	n.swAck = nil
	c.armNodeObservers(n)
}

// repairNode runs at a NodeRepair instant, right after the injector
// unblocked the host CPU in the same event cascade. The masterd learns the
// fresh incarnation exists immediately — from here on membership updates
// reach the new card — and the reboot plus the rejoin request follow on
// the node's own lane and the ctrl network.
func (c *Cluster) repairNode(i int) {
	m := c.master
	m.nodeRebooted(i)
	// Snapshot the dead set (minus the rebooting node itself) on the global
	// lane: the fresh incarnation's topology must match the survivors'
	// view, and any eviction after this instant is broadcast to rebooted
	// incarnations too.
	var deadPeers []myrinet.NodeID
	for j, d := range m.dead {
		if d && j != i {
			deadPeers = append(deadPeers, myrinet.NodeID(j))
		}
	}
	node := c.nodes[i]
	c.Eng.CrossAt(node.Eng, c.Eng.Now(), func() {
		node.reboot(deadPeers)
		c.reliableSend(node.Eng, -1, func() bool { return m.rejoinRequested(i) },
			func() { m.rejoinRequest(i) })
	})
}

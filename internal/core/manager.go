// Package core implements the paper's contribution: the "glueFM" network
// management library (Table 1) that integrates the FM communication system
// with the ParPar cluster's gang scheduler, and the buffer-switching
// context switch (§3.2).
//
// The API mirrors Table 1 of the paper:
//
//	Initialization:   InitNode, AddNode, RemoveNode
//	Process control:  InitJob, EndJob
//	Context switch:   SwitchTo, SwitchIdle
//
// A context switch runs Table 1's three calls in order as one chain and
// reports per-stage timings — the quantity Figures 7 and 9 measure:
// COMM_halt_network is haltStage (suspend, then the NIC flush),
// COMM_context_switch is copyWork (the stage-2 buffer copy on the host
// CPU), and COMM_release_network ends in releaseDone (the NIC's ready
// protocol, then resume).
package core

import (
	"fmt"

	"gangfm/internal/fm"
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// CopyMode selects the buffer-switch algorithm of §4.2.
type CopyMode int

const (
	// FullCopy copies the entire send and receive buffer regions,
	// regardless of occupancy (the paper's first implementation;
	// ≤85 ms / 17M cycles).
	FullCopy CopyMode = iota
	// ValidOnly scans the queues and copies only the valid packets (the
	// paper's improved algorithm; ≤12.5 ms / 2.5M cycles).
	ValidOnly
)

// String names the copy mode.
func (m CopyMode) String() string {
	switch m {
	case FullCopy:
		return "full-copy"
	case ValidOnly:
		return "valid-only"
	default:
		return fmt.Sprintf("CopyMode(%d)", int(m))
	}
}

// Process is the per-job process the manager schedules: the glueFM layer
// needs to stop/start it around switches and to bind it to the hardware
// context that will carry its traffic. fm.Endpoint satisfies it.
type Process interface {
	// Attach binds the process's library state to a hardware context
	// (FM_initialize's queue mapping, or a switch-in rebinding).
	Attach(ctx *lanai.Context)
	Suspend()
	Resume()
}

// SwitchStats records one context switch's three stage durations and the
// buffer occupancy found at the switch (Figures 7, 8, 9).
type SwitchStats struct {
	Epoch   uint64
	From    myrinet.JobID
	To      myrinet.JobID
	Halt    sim.Time // stage 1: network flush
	Copy    sim.Time // stage 2: buffer switch
	Release sim.Time // stage 3: refill/ready protocol

	// ValidSend and ValidRecv are the valid packet counts found in the
	// outgoing process's queues (Figure 8).
	ValidSend int
	ValidRecv int
	// RestoredSend/RestoredRecv are the packet counts loaded from the
	// incoming process's backing store.
	RestoredSend int
	RestoredRecv int
}

// Total returns the switch's end-to-end duration.
func (s SwitchStats) Total() sim.Time { return s.Halt + s.Copy + s.Release }

// backingStore holds a descheduled process's queue contents in pageable
// virtual memory (Figure 4). The digest is taken at save time and verified
// at restore: the store sits in pageable RAM across an arbitrary number of
// scheduling rounds, exactly where silent corruption would be invisible to
// the protocol itself.
type backingStore struct {
	send   []*myrinet.Packet
	recv   []*myrinet.Packet
	digest uint64
	stored bool
}

// queueDigest hashes every protocol-visible field of the parked packets
// (FNV-1a). Any bit that changes between save and restore changes the sum.
func queueDigest(send, recv []*myrinet.Packet) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	hash := func(pkts []*myrinet.Packet) {
		mix(uint64(len(pkts)))
		for _, p := range pkts {
			mix(uint64(p.Type))
			mix(uint64(p.Src))
			mix(uint64(p.Dst))
			mix(uint64(p.Job))
			mix(uint64(p.SrcRank))
			mix(uint64(p.DstRank))
			mix(p.MsgID)
			mix(uint64(p.Frag))
			mix(uint64(p.NFrags))
			mix(uint64(p.PayloadLen))
			mix(uint64(p.Credits))
			mix(p.Epoch)
			mix(p.Seq)
			for _, b := range p.Payload {
				h ^= uint64(b)
				h *= prime
			}
		}
	}
	hash(send)
	hash(recv)
	return h
}

// proc is the manager's record of one job's process on this node.
type proc struct {
	job   myrinet.JobID
	rank  int
	p     Process
	store backingStore
	// ctx is the process's dedicated hardware context in Partitioned
	// mode; nil in Switched mode (where the single hwCtx is shared).
	ctx *lanai.Context
}

// swState is the one in-flight three-stage switch. The scheduler issues at
// most one switch per manager at a time, so SwitchTo/SwitchIdle stash their
// stage state here and drive the chain through callbacks prebuilt in
// NewManager — a switch allocates nothing. A second switch requested while
// one is in flight is an error: only a scheduler bug can produce it.
type swState struct {
	busy       bool
	stats      SwitchStats
	next       *proc
	done       func(SwitchStats)
	t0, t1, t2 sim.Time
}

// Config parameterizes a node's manager.
type Config struct {
	// Policy selects Partitioned (original FM) or Switched (the paper).
	Policy fm.Policy
	// Mode selects the buffer-switch algorithm (Switched policy only).
	Mode CopyMode
	// MaxContexts is the gang matrix depth: the fixed maximum number of
	// processes per host the buffers must accommodate.
	MaxContexts int
	// Processors is the machine size p used in the credit formulas.
	Processors int
}

// Manager is the per-node glueFM instance, linked with the noded.
type Manager struct {
	eng *sim.Engine
	nic *lanai.NIC
	cpu *sim.Resource
	mem *memmodel.Model
	cfg Config

	alloc fm.Allocation

	// Switched-mode state: the one hardware context and the process it
	// is currently bound to.
	hwCtx   *lanai.Context
	current *proc

	procs map[myrinet.JobID]*proc

	topology map[myrinet.NodeID]bool

	lastEpoch uint64
	history   []SwitchStats
	inited    bool

	// sw and the *Fn fields implement the closure-free switch chain; the
	// functions are bound once in NewManager (a method value used as an
	// expression allocates at every evaluation).
	sw            swState
	haltDoneFn    func()
	copyWorkFn    func()
	copyDoneFn    func()
	releaseDoneFn func()

	// OnStore, when set, observes a job's queues right after they are
	// saved to the backing store (and after the integrity digest is
	// taken). The chaos layer's StoreCorrupt fault mutates them here.
	OnStore func(job myrinet.JobID, send, recv []*myrinet.Packet)
}

// NewManager builds a manager; call InitNode before use (the split mirrors
// the paper's COMM_init_node, which loads the LANai control program when
// the noded starts).
func NewManager(eng *sim.Engine, nic *lanai.NIC, cpu *sim.Resource, mem *memmodel.Model, cfg Config) (*Manager, error) {
	nicCfg := nic.Config()
	alloc, err := fm.Allocate(cfg.Policy, nicCfg.SendSlots, nicCfg.RecvSlots, cfg.MaxContexts, cfg.Processors)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Manager{
		eng: eng, nic: nic, cpu: cpu, mem: mem, cfg: cfg,
		alloc:    alloc,
		procs:    make(map[myrinet.JobID]*proc),
		topology: make(map[myrinet.NodeID]bool),
	}
	m.haltDoneFn = m.haltDone
	m.copyWorkFn = m.copyWork
	m.copyDoneFn = m.copyDone
	m.releaseDoneFn = m.releaseDone
	return m, nil
}

// Alloc returns the per-process buffer/credit allocation the policy
// produced — the value the FM library's flow control must be configured
// with (paper §3.3).
func (m *Manager) Alloc() fm.Allocation { return m.alloc }

// History returns the recorded switch statistics.
func (m *Manager) History() []SwitchStats { return m.history }

// ReserveHistory pre-grows the switch-history buffer to absorb at least n
// further switches without reallocating. Per-switch history retention is
// the one amortized allocator left in the steady-state rotation (a slice
// doubling every 2^k switches); a measurement that needs a strictly
// allocation-free window reserves its switch budget up front.
func (m *Manager) ReserveHistory(n int) {
	if need := len(m.history) + n; cap(m.history) < need {
		h := make([]SwitchStats, len(m.history), need)
		copy(h, m.history)
		m.history = h
	}
}

// Contexts returns the number of communication contexts currently
// allocated on this node (live InitJob minus EndJob) — the node's
// resident-process count, and the leak detector for kill-during-load
// races.
func (m *Manager) Contexts() int { return len(m.procs) }

// Current returns the job currently bound to the buffers, or NoJob.
func (m *Manager) Current() myrinet.JobID {
	if m.current == nil {
		return myrinet.NoJob
	}
	return m.current.job
}

// InitNode initializes the LANai control program, the routing table and —
// in Switched mode — the single full-size hardware context
// (COMM_init_node).
func (m *Manager) InitNode() error {
	if m.inited {
		return fmt.Errorf("core: node %d already initialized", m.nic.Node())
	}
	for i := 0; i < m.nic.NetworkNodes(); i++ {
		m.topology[myrinet.NodeID(i)] = true
	}
	if m.cfg.Policy == fm.Switched {
		ctx, err := m.nic.Register(myrinet.NoJob, -1, m.alloc.SendSlots, m.alloc.RecvSlots, lanai.Hooks{})
		if err != nil {
			return fmt.Errorf("core: allocating the full-size context: %w", err)
		}
		m.hwCtx = ctx
	}
	m.inited = true
	return nil
}

// AddNode records a node joining the topology (COMM_add_node). The
// simulated fabric is fixed-size, so this is routing-table bookkeeping
// with validation, as in the paper's implementation.
func (m *Manager) AddNode(id myrinet.NodeID) error {
	if m.topology[id] {
		return fmt.Errorf("core: node %d already in topology", id)
	}
	m.topology[id] = true
	return nil
}

// RemoveNode records a node leaving the topology (COMM_remove_node).
func (m *Manager) RemoveNode(id myrinet.NodeID) error {
	if !m.topology[id] {
		return fmt.Errorf("core: node %d not in topology", id)
	}
	delete(m.topology, id)
	return nil
}

// Nodes returns the current topology size.
func (m *Manager) Nodes() int { return len(m.topology) }

// InTopology reports whether a node is in the routing-table view.
func (m *Manager) InTopology(id myrinet.NodeID) bool { return m.topology[id] }

// InitJob allocates a communication context for a process about to be
// forked (COMM_init_job). In Partitioned mode this registers a dedicated
// hardware context with the divided buffer sizes. In Switched mode it
// creates the pageable backing store; the shared hardware context is bound
// only by the scheduler's SwitchTo, so that every node of the machine
// agrees — through the flush/release barrier — on which job owns the
// buffers before any process can send. Early packets (peers running before
// this job's process has mapped its queues, Fig 2) are still received,
// because binding precedes any peer's release, which precedes any send.
func (m *Manager) InitJob(job myrinet.JobID, rank int, p Process) error {
	if !m.inited {
		return fmt.Errorf("core: InitJob before InitNode")
	}
	if _, dup := m.procs[job]; dup {
		return fmt.Errorf("core: job %d already initialized on node %d", job, m.nic.Node())
	}
	pr := &proc{job: job, rank: rank, p: p}
	if m.cfg.Policy == fm.Partitioned {
		ctx, err := m.nic.Register(job, rank, m.alloc.SendSlots, m.alloc.RecvSlots, lanai.Hooks{})
		if err != nil {
			return fmt.Errorf("core: job %d context: %w", job, err)
		}
		p.Attach(ctx)
		pr.ctx = ctx
	}
	m.procs[job] = pr
	return nil
}

// EndJob releases a job's communication resources (COMM_end_job).
func (m *Manager) EndJob(job myrinet.JobID) error {
	pr, ok := m.procs[job]
	if !ok {
		return fmt.Errorf("core: EndJob for unknown job %d", job)
	}
	delete(m.procs, job)
	if pr.ctx != nil {
		m.nic.Unregister(pr.ctx)
	}
	if m.current == pr {
		if m.hwCtx != nil {
			m.nic.SetIdentity(m.hwCtx, myrinet.NoJob, -1, lanai.Hooks{})
			m.hwCtx.SendQ.Clear()
			m.hwCtx.RecvQ.Clear()
		}
		m.current = nil
	}
	// A kill can land while a buffer switch is in flight (the masterd's
	// kill ctrl races the rotation it triggered). If the dying proc is
	// the switch's incoming side, detach it: binding it after its
	// resources were released would re-register the dead job's identity
	// and inject its stored packets post-mortem. The switch completes as
	// an idle switch instead.
	if m.sw.busy && m.sw.next == pr {
		m.sw.next = nil
	}
	return nil
}

// bind points the shared hardware context at pr and loads its stored
// queue contents, verifying the save-time integrity digest first.
func (m *Manager) bind(pr *proc) {
	if pr.store.stored {
		if got := queueDigest(pr.store.send, pr.store.recv); got != pr.store.digest {
			m.nic.Emit(myrinet.Event{Kind: myrinet.Violation, Job: pr.job, Invariant: "store-integrity",
				Detail: fmt.Sprintf("node %d job %d backing store digest %#x, saved %#x — queues corrupted while paged out",
					m.nic.Node(), pr.job, got, pr.store.digest)})
		}
		pr.store.stored = false
	}
	m.nic.SetIdentity(m.hwCtx, pr.job, pr.rank, lanai.Hooks{})
	pr.p.Attach(m.hwCtx)
	m.hwCtx.SendQ.Load(pr.store.send)
	m.hwCtx.RecvQ.Load(pr.store.recv)
	// Truncate rather than nil the store slices: the backing arrays are
	// reused by DrainTo at the next switch-out, so the steady-state save
	// allocates nothing.
	pr.store.send = pr.store.send[:0]
	pr.store.recv = pr.store.recv[:0]
	m.current = pr
}

// SwitchTo performs the complete three-stage context switch to job and
// reports the per-stage timings. All nodes of the cluster must call it
// with the same epoch (the masterd includes the round number in its
// broadcast). In Partitioned mode there is nothing to flush or copy: the
// switch is a plain SIGSTOP/SIGCONT pair.
func (m *Manager) SwitchTo(epoch uint64, job myrinet.JobID, done func(SwitchStats)) error {
	next, ok := m.procs[job]
	if !ok {
		return fmt.Errorf("core: switch to unknown job %d on node %d", job, m.nic.Node())
	}
	if m.cfg.Policy == fm.Partitioned {
		if m.current != nil && m.current != next {
			m.current.p.Suspend()
		}
		m.current = next
		next.p.Resume()
		if done != nil {
			done(SwitchStats{Epoch: epoch, To: job})
		}
		return nil
	}

	return m.haltStage(epoch, SwitchStats{Epoch: epoch, From: m.Current(), To: job}, next, done)
}

// SwitchIdle performs a context switch on a node that has no process in
// the incoming time slot: the node still participates in the network
// flush and release protocols (every LANai counts halts from every other
// node), and the outgoing process's buffers are saved, but nothing is
// restored.
func (m *Manager) SwitchIdle(epoch uint64, done func(SwitchStats)) error {
	if m.cfg.Policy == fm.Partitioned {
		if m.current != nil {
			m.current.p.Suspend()
			m.current = nil
		}
		if done != nil {
			done(SwitchStats{Epoch: epoch, To: myrinet.NoJob})
		}
		return nil
	}
	return m.haltStage(epoch, SwitchStats{Epoch: epoch, From: m.Current(), To: myrinet.NoJob}, nil, done)
}

// haltStage is stage 1 (COMM_halt_network): suspend the running process
// and flush the network for the epoch. It takes stats by value and copies
// it into the prebuilt m.sw record, so nothing escapes.
func (m *Manager) haltStage(epoch uint64, stats SwitchStats, next *proc, done func(SwitchStats)) error {
	if m.sw.busy {
		return fmt.Errorf("core: node %d switch for epoch %d while epoch %d is in flight",
			m.nic.Node(), epoch, m.sw.stats.Epoch)
	}
	if epoch <= m.lastEpoch && m.lastEpoch != 0 {
		return fmt.Errorf("core: epoch %d not after %d", epoch, m.lastEpoch)
	}
	m.lastEpoch = epoch
	m.sw.busy = true
	m.sw.stats = stats
	m.sw.next = next
	m.sw.done = done
	m.sw.t0 = m.eng.Now()
	if m.current != nil {
		m.current.p.Suspend()
	}
	m.nic.HaltNetwork(epoch, m.haltDoneFn)
	return nil
}

func (m *Manager) haltDone() {
	m.sw.stats.Halt = m.eng.Now() - m.sw.t0
	m.sw.t1 = m.eng.Now()
	st := &m.sw.stats
	m.nic.Emit(myrinet.Event{Kind: myrinet.Flushed, Job: st.From})
	st.ValidSend = m.hwCtx.SendQ.Len()
	st.ValidRecv = m.hwCtx.RecvQ.Len()
	if m.current == m.sw.next {
		m.eng.Schedule(0, m.copyDoneFn)
		return
	}
	if m.sw.next != nil {
		st.RestoredSend = len(m.sw.next.store.send)
		st.RestoredRecv = len(m.sw.next.store.recv)
	}
	m.cpu.Use(m.copyCost(st, m.current != nil, m.sw.next != nil), m.copyWorkFn)
}

// copyWork is stage 2 (COMM_context_switch), run once the host CPU has
// paid the copy cost: save the outgoing process's queues to its backing
// store, then restore the incoming process's (Figure 4). A nil next
// unbinds the context (idle switch).
func (m *Manager) copyWork() {
	if m.current != nil {
		m.current.store.send = m.hwCtx.SendQ.DrainTo(m.current.store.send)
		m.current.store.recv = m.hwCtx.RecvQ.DrainTo(m.current.store.recv)
		m.current.store.digest = queueDigest(m.current.store.send, m.current.store.recv)
		m.current.store.stored = true
		if m.OnStore != nil {
			m.OnStore(m.current.job, m.current.store.send, m.current.store.recv)
		}
	} else {
		m.hwCtx.SendQ.Clear()
		m.hwCtx.RecvQ.Clear()
	}
	if m.sw.next != nil {
		m.bind(m.sw.next)
	} else {
		m.nic.SetIdentity(m.hwCtx, myrinet.NoJob, -1, lanai.Hooks{})
		m.current = nil
	}
	m.copyDone()
}

func (m *Manager) copyDone() {
	m.sw.stats.Copy = m.eng.Now() - m.sw.t1
	m.sw.t2 = m.eng.Now()
	m.nic.ReleaseNetwork(m.sw.stats.Epoch, m.releaseDoneFn)
}

// releaseDone ends stage 3 (COMM_release_network): every peer reported
// ready, so the incoming process resumes and the switch is recorded.
func (m *Manager) releaseDone() {
	m.sw.stats.Release = m.eng.Now() - m.sw.t2
	if m.current != nil {
		m.current.p.Resume()
	}
	st := m.sw.stats
	done := m.sw.done
	m.sw.busy, m.sw.next, m.sw.done = false, nil, nil
	m.history = append(m.history, st)
	if done != nil {
		done(st)
	}
}

// copyCost computes the host cycles of the stage-2 copy. save and restore
// indicate which halves of the switch actually happen (an idle switch
// restores nothing; a first bind saves nothing).
func (m *Manager) copyCost(stats *SwitchStats, save, restore bool) sim.Time {
	return BufferCopyCost(m.mem, m.cfg.Mode,
		m.alloc.SendSlots, m.alloc.RecvSlots,
		stats.ValidSend, stats.ValidRecv,
		stats.RestoredSend, stats.RestoredRecv,
		save, restore)
}

// MaxCopyCost is the longest stage-2 copy this manager can charge: a
// switch that saves full queues and restores full ones. Partitioned
// credits never copy.
func (m *Manager) MaxCopyCost() sim.Time {
	if m.cfg.Policy == fm.Partitioned {
		return 0
	}
	s, r := m.alloc.SendSlots, m.alloc.RecvSlots
	return BufferCopyCost(m.mem, m.cfg.Mode, s, r, s, r, s, r, true, true)
}

// BufferCopyCost computes the host cycles of one buffer switch (Figure 4)
// under the given algorithm: the full send-queue region lives on the card
// behind the write-combined mapping, the receive queue in pinned host
// memory. It is exported so the alternative schemes (internal/altsched)
// charge exactly the same copy costs as the paper's scheme.
func BufferCopyCost(mem *memmodel.Model, mode CopyMode,
	sendSlots, recvSlots, validSend, validRecv, restoredSend, restoredRecv int,
	save, restore bool) sim.Time {
	sendRegion := sendSlots * myrinet.PacketSize
	recvRegion := recvSlots * myrinet.PacketSize
	var cost sim.Time
	switch mode {
	case FullCopy:
		// Entire regions, irrespective of occupancy.
		if save {
			cost += mem.CopyCycles(sendRegion, memmodel.NICWC, memmodel.HostRAM) +
				mem.CopyCycles(recvRegion, memmodel.PinnedRAM, memmodel.HostRAM)
		}
		if restore {
			cost += mem.CopyCycles(sendRegion, memmodel.HostRAM, memmodel.NICWC) +
				mem.CopyCycles(recvRegion, memmodel.HostRAM, memmodel.PinnedRAM)
		}
	case ValidOnly:
		// Scan the queues' slot headers, then copy only valid packets,
		// per-packet (the measured linear growth of Figure 9).
		cost = mem.ScanCycles(sendSlots, memmodel.NICWC) +
			mem.ScanCycles(recvSlots, memmodel.PinnedRAM)
		if save {
			cost += sim.Time(validSend)*mem.CopyCycles(myrinet.PacketSize, memmodel.NICWC, memmodel.HostRAM) +
				sim.Time(validRecv)*mem.CopyCycles(myrinet.PacketSize, memmodel.PinnedRAM, memmodel.HostRAM)
		}
		if restore {
			cost += sim.Time(restoredSend)*mem.CopyCycles(myrinet.PacketSize, memmodel.HostRAM, memmodel.NICWC) +
				sim.Time(restoredRecv)*mem.CopyCycles(myrinet.PacketSize, memmodel.HostRAM, memmodel.PinnedRAM)
		}
	default:
		panic("core: unknown copy mode")
	}
	return cost
}

package parpar

// chaos.go wires the chaos harness into the assembled cluster: the fault
// injector (when a plan is configured) and the always-on invariant auditor.
// The auditor runs its registered checks once per quantum while jobs are
// live, and the stack's hook points (NIC drops, manager digests, flush
// ordering) report violations as they happen.

import (
	"fmt"
	"sort"

	"gangfm/internal/chaos"
	"gangfm/internal/lanai"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// progressKey identifies one process's progress snapshot between audit
// ticks.
type progressKey struct {
	node int
	job  myrinet.JobID
}

// Auditor returns the cluster's invariant auditor (always present).
func (c *Cluster) Auditor() *chaos.Auditor { return c.auditor }

// Ledger returns the destroyed-credit ledger.
func (c *Cluster) Ledger() *chaos.CreditLedger { return c.ledger }

// ChaosTrace returns the injector's firing trace, or nil when no fault plan
// is installed.
func (c *Cluster) ChaosTrace() []string {
	if c.injector == nil {
		return nil
	}
	return c.injector.Trace()
}

// armChaos installs the fault injector (if a plan is configured) and the
// invariant auditor's hook points. Called once from New.
func (c *Cluster) armChaos() {
	seed := c.cfg.Seed
	if c.cfg.Chaos != nil {
		seed = c.cfg.Chaos.Seed
	}
	c.auditor = chaos.NewAuditor(c.Eng, seed)
	c.auditor.SetFailFast(c.cfg.FailFast)
	c.ledger = chaos.NewCreditLedger()

	if c.cfg.Chaos != nil && !c.cfg.Chaos.Empty() {
		c.injector = chaos.NewInjector(c.Eng, *c.cfg.Chaos)
		c.Net.SetInjector(c.injector)
		c.ctrl.intercept = c.injector.CtrlMessage
	}
	c.Net.OnDrop = c.ledger.RecordDrop
	for _, n := range c.nodes {
		if c.injector != nil {
			c.injector.ArmNode(int(n.ID), n.CPU)
		}
		c.armNodeObservers(n)
	}
	// Repair events: the injector unblocks the host CPU at the fault time
	// (armed above); the cluster schedules the fresh incarnation's boot and
	// rejoin at the same instant, after the unblock in FIFO order. Without
	// the recovery layer there is no membership to rejoin — the repair is
	// then hardware-only and the stale incarnation simply stops being
	// excused by the CPU-fault auditor.
	if c.injector != nil && c.cfg.Recovery != nil {
		for _, f := range c.cfg.Chaos.Faults {
			if f.Kind != chaos.NodeRepair {
				continue
			}
			node := f.Node
			c.Eng.ScheduleAt(f.From, func() { c.repairNode(node) })
		}
	}

	c.auditor.Register(c.checkEndpoints)
	c.auditor.Register(c.checkJobDelivery)
	c.auditor.Register(c.checkGangMatrix)
	c.auditor.Register(c.checkMasterProgress)
	if c.cfg.Recovery != nil {
		c.auditor.Register(c.checkRecovery)
	}
}

// armNodeObservers wires one node incarnation's observer hooks: the
// injector's store-corruption hook plus drop and violation reporting on
// the card and manager. Called per node at construction and again at
// every reboot — a fresh incarnation's card and manager start with nil
// hooks. The injector's CPU faults are NOT re-armed: they bind to the
// host CPU resource, which survives the reboot.
func (c *Cluster) armNodeObservers(n *Node) {
	if c.injector != nil {
		n.Mgr.OnStore = c.injector.StoreHook(int(n.ID), n.Eng)
	}
	n.NIC.OnDrop = func(p *myrinet.Packet, _ lanai.DropReason) { c.ledger.RecordDrop(p) }
	report := c.auditor.Reporter(int(n.ID), n.Eng)
	n.NIC.OnViolation = report
	n.Mgr.Audit = report
}

// armAuditTick starts the per-quantum audit loop. The loop keeps itself
// alive only while jobs are live, so a quiescent cluster still lets
// Engine.Run return.
func (c *Cluster) armAuditTick() {
	if c.auditTicking {
		return
	}
	c.auditTicking = true
	var tick func()
	tick = func() {
		c.auditor.RunChecks()
		if c.master.Jobs() == 0 {
			c.auditTicking = false
			return
		}
		c.Eng.Schedule(c.cfg.Quantum, tick)
	}
	c.Eng.Schedule(c.cfg.Quantum, tick)
}

// sortedProcs returns a node's processes in job-ID order, so audit reports
// are emitted deterministically. The returned slice is the node's reusable
// scratch (valid until the next call); insertion sort keeps the audit loop
// free of sort.Slice's reflection allocations — a node holds at most Slots
// processes.
func (n *Node) sortedProcs() []*Proc {
	out := n.procScratch[:0]
	for _, p := range n.procs {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].job.ID < out[j-1].job.ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	n.procScratch = out
	return out
}

// sortedJobIDs fills the cluster's scratch slice with the map's keys in
// ascending order — the audit loop's allocation-free substitute for a
// per-tick make + sort.Slice.
func (c *Cluster) sortedJobIDs(jobs map[myrinet.JobID]*Job) []myrinet.JobID {
	ids := c.audJobIDs[:0]
	for id := range jobs {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	c.audJobIDs = ids
	return ids
}

// checkEndpoints runs the FM-level invariants on every live endpoint:
// endpoint-local credit and byte accounting, receive-queue occupancy
// against the credit window, and the loss-induced permanent stall the
// paper's §2.2 predicts for a protocol with no retransmission.
func (c *Cluster) checkEndpoints(now sim.Time, report func(invariant, detail string)) {
	for _, n := range c.nodes {
		for _, p := range n.sortedProcs() {
			ep := p.EP
			jobID := p.job.ID
			ep.AuditInvariants(report)

			// Receive-queue occupancy: flow control promises no source
			// ever has more than C0 packets parked at a destination.
			if ctx := ep.Context(); ctx != nil && ctx.Job == jobID && ep.C0() > 0 {
				perSrc := c.audSrcCount
				clear(perSrc)
				for i := 0; i < ctx.RecvQ.Len(); i++ {
					perSrc[ctx.RecvQ.At(i).SrcRank]++
				}
				srcs := c.audSrcs[:0]
				for s := range perSrc {
					srcs = append(srcs, s)
				}
				sort.Ints(srcs)
				c.audSrcs = srcs
				for _, s := range srcs {
					if perSrc[s] > ep.C0() {
						report("recv-occupancy", fmt.Sprintf(
							"node %d job %d rank %d holds %d packets from rank %d (C0=%d)",
							n.ID, jobID, p.rank, perSrc[s], s, ep.C0()))
					}
				}
			}

			// Credit-conservation stall: the sender is head-of-line blocked
			// with zero credits, the network destroyed credits for this job,
			// nothing of the job's is in flight, and no progress happened
			// since the previous tick. A legitimately closed window always
			// reopens (the credits exist somewhere); a loss-starved one
			// cannot.
			key := progressKey{node: int(n.ID), job: jobID}
			st := ep.Stats()
			progress := st.PacketsSent + st.PacketsRecvd + st.RefillsRecvd
			prev, seen := c.prevProgress[key]
			c.prevProgress[key] = progress
			dst, wedged := ep.Stalled()
			if wedged && seen && prev == progress &&
				p.job.state == JobRunning && ep.Running() &&
				c.ledger.Destroyed(jobID) > 0 && c.Net.InFlight(jobID) == 0 {
				report("credit-conservation", fmt.Sprintf(
					"node %d job %d rank %d wedged toward rank %d: %d credits destroyed by %d drops, no retransmission",
					n.ID, jobID, p.rank, dst, c.ledger.Destroyed(jobID), c.ledger.Drops(jobID)))
			}
		}
	}
}

// checkJobDelivery audits end-to-end liveness. FM has no retransmission,
// so a lost packet can wedge a job even when no credit window is exhausted:
// the receiver waits forever for data that no longer exists, with every
// endpoint idle. The check reports a job that is scheduled and runnable,
// has suffered drops, has nothing in flight, and made no communication
// progress over a whole quantum. CPU-fault windows (and the quantum right
// after one, while the backlog drains) are excused: a paused host explains
// a frozen job without any protocol violation.
func (c *Cluster) checkJobDelivery(now sim.Time, report func(invariant, detail string)) {
	for _, id := range c.sortedJobIDs(c.master.jobs) {
		job := c.master.jobs[id]
		if job.state != JobRunning {
			continue
		}
		var progress uint64
		runnable := true
		for _, p := range job.procs {
			if p == nil || p.EP == nil || !p.EP.Running() || c.cpuFaultNear(int(p.node.ID), now) {
				runnable = false
				break
			}
			st := p.EP.Stats()
			progress += st.PacketsSent + st.PacketsRecvd + st.RefillsRecvd
		}
		key := progressKey{node: -1, job: id}
		prev, seen := c.prevProgress[key]
		c.prevProgress[key] = progress
		if !runnable || !seen || prev != progress || progress == 0 {
			continue
		}
		if c.ledger.Drops(id) == 0 || c.Net.InFlight(id) != 0 {
			continue
		}
		report("delivery-stall", fmt.Sprintf(
			"job %d wedged after %d drop(s): nothing in flight, no endpoint progress for a quantum, %d credits destroyed",
			id, c.ledger.Drops(id), c.ledger.Destroyed(id)))
	}
}

// cpuFaultNear reports whether a CPU fault window covers the node now or
// did within the last quantum.
func (c *Cluster) cpuFaultNear(node int, now sim.Time) bool {
	if c.injector == nil {
		return false
	}
	prev := now - c.cfg.Quantum
	if prev < 0 {
		prev = 0
	}
	return c.injector.CPUFaultActive(node, now) || c.injector.CPUFaultActive(node, prev)
}

// checkRecovery audits the self-healing layer itself (registered only with
// recovery enabled).
//
// retransmit-bounded: the retransmission traffic of every card stays under
// the budget implied by its timer configuration — a card exceeding it is
// retransmitting outside its state machine (for example, an echo loop).
//
// eviction-consistency: once a node is evicted, no live job spans it, its
// matrix column is empty, and — after the membership-update grace period —
// every survivor has pruned it from its routing table.
func (c *Cluster) checkRecovery(now sim.Time, report func(invariant, detail string)) {
	m := c.master
	rec := c.cfg.Recovery

	// Per epoch and phase a card re-sends at most NICRetries times to each
	// peer and echoes at most once per marked packet received (itself
	// bounded by the peers' budgets); 4·(NICRetries+1)·peers per epoch
	// covers both phases with slack.
	if peers := len(c.nodes) - 1; peers > 0 {
		limit := uint64(4*(rec.NICRetries+1)*peers) * (m.epoch + 1)
		for _, n := range c.nodes {
			st := n.NIC.Stats()
			if total := st.HaltRetransmits + st.ReadyRetransmits; total > limit {
				report("retransmit-bounded", fmt.Sprintf(
					"node %d re-sent %d control packets over %d epochs (budget %d)",
					n.ID, total, m.epoch, limit))
			}
		}
	}

	evicted := make([]int, 0, len(m.evictedAt))
	for i := range m.evictedAt {
		evicted = append(evicted, i)
	}
	sort.Ints(evicted)
	for _, i := range evicted {
		id := myrinet.NodeID(i)
		for _, jid := range c.sortedJobIDs(m.jobs) {
			for _, col := range m.jobs[jid].Placement.Cols {
				if col == i {
					report("eviction-consistency", fmt.Sprintf(
						"job %d still live across evicted node %d", jid, i))
				}
			}
		}
		for r := 0; r < c.cfg.Slots; r++ {
			if jid := m.matrix.JobAt(r, i); jid != myrinet.NoJob {
				report("eviction-consistency", fmt.Sprintf(
					"matrix slot %d still assigns job %d to evicted node %d", r, jid, i))
			}
		}
		if now-m.evictedAt[i] > c.stallBudget() {
			for j, node := range c.nodes {
				if !m.dead[j] && node.Mgr.InTopology(id) {
					report("eviction-consistency", fmt.Sprintf(
						"node %d still has evicted node %d in its topology", j, i))
				}
			}
		}
	}
}

// checkGangMatrix audits the scheduling matrix's structural invariants.
func (c *Cluster) checkGangMatrix(now sim.Time, report func(invariant, detail string)) {
	for _, msg := range c.master.matrix.Audit() {
		report("gang-matrix", msg)
	}
}

// stallRounds is how many quanta a switch round or job launch may take
// before the auditor calls it stuck. Generous: a healthy round completes
// well within one quantum.
const stallRounds = 4

// recoveryStallRounds is the liveness budget with recovery enabled: the
// layered timers (NIC force-complete ~3.75 quanta, watchdog eviction ~14)
// legitimately stretch a round, so the alarm threshold sits above the
// whole cascade. A round still stuck past it means recovery itself failed.
const recoveryStallRounds = 20

// stallBudget returns the masterd-protocol stall threshold in cycles.
func (c *Cluster) stallBudget() sim.Time {
	if c.cfg.Recovery != nil {
		return recoveryStallRounds * c.cfg.Quantum
	}
	return stallRounds * c.cfg.Quantum
}

// checkMasterProgress audits the masterd's protocols: a switch round that
// never collects all acknowledgements (a lost or starved control message,
// a node that cannot finish its flush) and a job stuck in the Figure 2
// launch protocol. With recovery enabled the round alarm is named for what
// it means there — the recovery cascade itself failed to restore liveness.
func (c *Cluster) checkMasterProgress(now sim.Time, report func(invariant, detail string)) {
	m := c.master
	budget := c.stallBudget()
	if m.inFlight && now-m.roundStart > budget {
		invariant := "flush-stall"
		if c.cfg.Recovery != nil {
			invariant = "recovery-liveness"
		}
		report(invariant, fmt.Sprintf(
			"switch round %d stuck: %d/%d acks after %d cycles",
			m.epoch, m.acks, m.needAcks, now-m.roundStart))
	}
	for _, id := range c.sortedJobIDs(m.jobs) {
		job := m.jobs[id]
		if job.state == JobLoading && now-job.SubmitTime > budget {
			report("launch-stall", fmt.Sprintf(
				"job %d stuck loading: %d/%d ranks ready after %d cycles",
				id, job.readyRanks, job.Spec.Size, now-job.SubmitTime))
		}
		// Completion stall: every rank's program has locally finished
		// (p.done is node-side ground truth) yet the job never reaches
		// JobDone — its rankDone control messages are gone. The condition
		// must persist across consecutive audit ticks: without recovery a
		// ctrl round trip is far shorter than a quantum, so one full
		// quantum of "all done but not done" is already conclusive; with
		// recovery the completions are re-sent with backoff, so the alarm
		// waits out the whole retry budget.
		if job.state == JobRunning {
			allDone := true
			for _, p := range job.procs {
				if p == nil || !p.done {
					allDone = false
					break
				}
			}
			key := progressKey{node: -2, job: id}
			prev := c.prevProgress[key]
			val := uint64(0)
			if allDone {
				val = prev + 1
			}
			c.prevProgress[key] = val
			persist := uint64(2)
			if c.cfg.Recovery != nil {
				persist = recoveryStallRounds
			}
			if val >= persist {
				report("completion-stall", fmt.Sprintf(
					"job %d: all %d ranks finished locally but only %d/%d completions reached the masterd",
					id, job.Spec.Size, job.doneRanks, job.Spec.Size))
			}
		}
	}
}

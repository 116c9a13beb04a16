package parpar

// chaos.go wires the chaos harness into the assembled cluster: the fault
// injector (when a plan is configured) and the always-on invariant auditor.
// The auditor runs its registered checks once per quantum while jobs are
// live, and subscribes to the cluster's event list, where the stack's
// node-side checks (flush ordering, backing-store digests) report
// violations as they happen and every packet death feeds its credit
// ledger.

import (
	"fmt"
	"sort"

	"gangfm/internal/chaos"
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

// ChaosTrace returns the injector's firing trace, or nil when no fault plan
// is installed.
func (c *Cluster) ChaosTrace() []string {
	if c.injector == nil {
		return nil
	}
	return c.injector.Trace()
}

// Resends returns how many daemon control messages the recovery layer
// re-sent. A lossless run arms no re-send chain, so it reads zero there.
func (c *Cluster) Resends() uint64 { return c.ctrl.resent }

// Observe subscribes fn to the cluster's event list: packet drops, node
// violations and flush points from every node incarnation, and the
// masterd's evictions and rejoins (see myrinet.Event). Subscribers
// register before the run starts — the list is fixed from then on — and
// are called in registration order.
func (c *Cluster) Observe(fn func(myrinet.Event)) {
	if c.Fired() > 0 {
		panic("parpar: Observe after the run started")
	}
	c.observers = append(c.observers, fn)
}

// emit is the network's observer: it fans each event out to the list.
func (c *Cluster) emit(e myrinet.Event) {
	for _, fn := range c.observers {
		fn(e)
	}
}

// newChaos builds the invariant auditor, subscribed first to the event
// list, and the fault injector when a non-empty plan is configured. The
// injector is the cluster's one recovery switch: only an injected fault
// can lose or stall anything, so the self-healing layer is armed exactly
// when the injector exists (the card layer in attach, the daemons'
// re-send chains through the control network's intercept, the repairs and
// the auditor's recovery budgets in armChaos). Called from New before the
// nodes are built, so their incarnations attach both.
func (c *Cluster) newChaos() {
	seed := c.cfg.Seed
	if c.cfg.Chaos != nil {
		seed = c.cfg.Chaos.Seed
	}
	c.auditor = chaos.NewAuditor(c.Eng, seed)
	c.Observe(c.auditor.Observe)
	if c.cfg.Chaos != nil && !c.cfg.Chaos.Empty() {
		c.injector = chaos.NewInjector(c.Eng, *c.cfg.Chaos)
		c.Net.SetInjector(c.injector)
		c.ctrl.intercept = c.injector.CtrlMessage
	}
}

// armChaos schedules the injector's CPU faults and the repairs, and
// registers the auditor's periodic checks. Called once from New, after
// the masterd exists.
func (c *Cluster) armChaos() {
	c.auditor.Register(c.checkEndpoints)
	c.auditor.Register(c.checkJobDelivery)
	c.auditor.Register(c.checkGangMatrix)
	c.auditor.Register(c.checkMasterProgress)
	if c.injector == nil {
		return
	}
	c.auditor.Register(c.checkRecovery)
	for _, n := range c.nodes {
		c.injector.ArmNode(int(n.ID), n.CPU)
	}
	// Repair events: the injector unblocks the host CPU at the fault time
	// (armed above); the cluster schedules the fresh incarnation's boot and
	// rejoin at the same instant, after the unblock in FIFO order.
	for _, f := range c.cfg.Chaos.Faults {
		if f.Kind != chaos.NodeRepair {
			continue
		}
		node := f.Node
		c.Eng.ScheduleAt(f.From, func() { c.repairNode(node) })
	}
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
// paper's §2.2 predicts for a protocol with no retransmission. It holds
// under Flush only, where processes have FM endpoints: under Discard the
// card drops data by design, and go-back-N has no credits to conserve.
func (c *Cluster) checkEndpoints(now sim.Time, report func(invariant, detail string)) {
	for _, n := range c.nodes {
		for _, p := range n.sortedProcs() {
			ep := p.EP
			if ep == nil {
				continue
			}
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
				c.auditor.Destroyed(jobID) > 0 && c.Net.InFlight(jobID) == 0 {
				report("credit-conservation", fmt.Sprintf(
					"node %d job %d rank %d wedged toward rank %d: %d credits destroyed by %d drops, no retransmission",
					n.ID, jobID, p.rank, dst, c.auditor.Destroyed(jobID), c.auditor.Drops(jobID)))
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
// a frozen job without any protocol violation. Like checkEndpoints it holds
// under Flush only: a job whose processes have no FM endpoint is skipped,
// since go-back-N retransmits what is lost.
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
		if c.auditor.Drops(id) == 0 || c.Net.InFlight(id) != 0 {
			continue
		}
		report("delivery-stall", fmt.Sprintf(
			"job %d wedged after %d drop(s): nothing in flight, no endpoint progress for a quantum, %d credits destroyed",
			id, c.auditor.Drops(id), c.auditor.Destroyed(id)))
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

// checkRecovery audits the self-healing layer itself (registered only when
// it is armed). It holds in every coordination mode; the cards of the
// clock-driven ones never run the halt protocol, so they re-send nothing.
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

	// Per epoch and phase a card re-sends at most nicRetries times to each
	// peer and echoes at most once per marked packet received (itself
	// bounded by the peers' budgets); 4·(nicRetries+1)·peers per epoch
	// covers both phases with slack.
	if peers := len(c.nodes) - 1; peers > 0 {
		limit := uint64(4*(nicRetries+1)*peers) * (m.epoch + 1)
		for _, n := range c.nodes {
			st := n.NIC.Stats()
			if total := st.HaltRetransmits + st.ReadyRetransmits; total > limit {
				report("retransmit-bounded", fmt.Sprintf(
					"node %d re-sent %d control packets over %d epochs (budget %d)",
					n.ID, total, m.epoch, limit))
			}
		}
	}

	for i := range c.nodes {
		w := m.downs[i]
		if len(w) == 0 || w[len(w)-1].To != 0 {
			continue // live: never evicted, or the last eviction healed
		}
		evictedAt := w[len(w)-1].From
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
		if now-evictedAt > c.stallBudget() {
			for j, node := range c.nodes {
				if !m.matrix.ColDead(j) && node.Mgr.InTopology(id) {
					report("eviction-consistency", fmt.Sprintf(
						"node %d still has evicted node %d in its topology", j, i))
				}
			}
		}
	}
}

// checkGangMatrix audits the scheduling matrix's structural invariants, in
// every coordination mode.
func (c *Cluster) checkGangMatrix(now sim.Time, report func(invariant, detail string)) {
	for _, msg := range c.master.matrix.Audit() {
		report("gang-matrix", msg)
	}
}

// stallRounds is how many quanta a switch round or job launch may take
// before the auditor calls it stuck. Generous: a healthy round completes
// well within one quantum.
const stallRounds = 4

// recoveryStallRounds is the liveness budget with recovery armed: the
// layered timers (NIC force-complete ~7 control deadlines, heartbeat
// eviction ~9 quanta at the default budget; see recovery.go) legitimately
// stretch a round, so the alarm threshold
// sits above the whole cascade. A round still stuck past it means recovery
// itself failed.
const recoveryStallRounds = 20

// stallBudget returns the masterd-protocol stall threshold in cycles.
func (c *Cluster) stallBudget() sim.Time {
	if c.injector != nil {
		return recoveryStallRounds * c.cfg.Quantum
	}
	return stallRounds * c.cfg.Quantum
}

// checkMasterProgress audits the masterd's protocols: a switch round that
// never collects all acknowledgements (a lost or starved control message,
// a node that cannot finish its flush) and a job stuck in the Figure 2
// launch protocol. With recovery armed the round alarm is named for what
// it means there — the recovery cascade itself failed to restore liveness.
// It holds in every coordination mode: a clock-driven round is in flight
// until every node has finished its switch.
func (c *Cluster) checkMasterProgress(now sim.Time, report func(invariant, detail string)) {
	m := c.master
	budget := c.stallBudget()
	if m.inFlight && now-m.roundStart > budget {
		invariant := "flush-stall"
		if c.injector != nil {
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
		// must persist across consecutive audit ticks: on a lossless run a
		// ctrl round trip is far shorter than a quantum, so one full
		// quantum of "all done but not done" is already conclusive; with
		// recovery armed the completions are re-sent with backoff, so the
		// alarm waits out the whole retry budget.
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
			if c.injector != nil {
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

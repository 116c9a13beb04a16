package parpar

import (
	"fmt"
	"sort"

	"gangfm/internal/chaos"
	"gangfm/internal/gang"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Masterd is the cluster manager daemon: it owns the gang matrix, loads
// jobs (Figure 2), and drives the round-robin slot rotation whose switch
// broadcast triggers the three-stage buffer switch on every node.
type Masterd struct {
	c      *Cluster
	matrix *gang.Matrix
	jobs   map[myrinet.JobID]*Job
	nextID myrinet.JobID

	epoch     uint64
	ticking   bool
	lastRow   int
	activated bool

	// in-flight rotation bookkeeping
	inFlight   bool
	acks       int
	quantumUp  bool
	roundStart sim.Time
	// kickASAP requests the next rotation as soon as the in-flight round
	// completes, without waiting for the quantum — set when a job
	// finishes its Figure 2 synchronization so it starts promptly.
	kickASAP bool
	// skipEv is the pending no-switch-needed re-check, cancelable when a
	// job-ready event wants an immediate rotation.
	skipEv sim.Event

	// Per round: targets is the row's per-node switch decision snapshot,
	// needAcks the live-node count the round waits for, and ackedBy dedups
	// the per-node acknowledgements (with recovery an ack is re-sent until
	// counted, so one node can ack more than once). Membership lives in
	// the matrix: a node is evicted exactly while its column is dead
	// (matrix.ColDead), and downs below dates each eviction.
	targets  []myrinet.JobID
	needAcks int
	ackedBy  []bool

	// Heartbeat state (armed when the chaos plan can fail-stop a node,
	// see armHeartbeat): every interval the masterd pings each live node
	// on the ctrl network and the noded answers over the reliable path.
	// hbPending marks nodes whose latest ping is unanswered, hbMiss counts
	// consecutive silent intervals, hbSeen is the newest sequence each
	// node replied to.
	hbArmed   bool
	hbTicking bool
	hbSeq     uint64
	hbPending []bool
	hbMiss    []int
	hbSeen    []uint64
	hbFn      func()

	// Rejoin protocol state. rebooted marks dead nodes whose fresh
	// incarnation exists (set synchronously at the repair instant, so
	// membership broadcasts reach the new card from then on); rejoinAsked
	// marks nodes whose rejoin request has reached the masterd (the
	// request's reliable-send done predicate). Nodes settle one at a time:
	// joining is the index mid-admission (-1 when idle), and
	// joinAckFrom/joinNeed track which survivors have confirmed re-adding
	// it. While joining >= 0 the rotation cannot start a round, so no
	// flush/release epoch is open anywhere when memberships grow.
	rebooted    []bool
	rejoinAsked []bool
	rejoinQueue []int
	joining     int
	joinAckFrom []bool
	joinNeed    int

	// downs records every eviction as a [From,To) downtime window per node
	// (To == 0 while the node is still down); a closed window is a
	// completed rejoin. Entries survive the rejoin, so availability
	// accounting sees the full history.
	downs map[int][]DownWindow

	// Pooled round records and prebuilt callbacks, so the steady-state
	// scheduler loop allocates nothing (switch notifications and acks ride
	// in the nodes' switchMsg pools).
	qPool  []*quantumMsg
	tickFn func()
}

// quantumMsg carries a round's quantum-elapsed check. Pooled per masterd.
type quantumMsg struct {
	m     *Masterd
	epoch uint64
}

func quantumFn(a any) {
	q := a.(*quantumMsg)
	m, epoch := q.m, q.epoch
	m.qPool = append(m.qPool, q)
	// A later round (started early by a job-ready kick) owns the pacing
	// now; this round's timer is stale.
	if m.epoch != epoch {
		return
	}
	m.quantumUp = true
	m.advance()
}

func newMasterd(c *Cluster) *Masterd {
	m := &Masterd{
		c:           c,
		matrix:      gang.NewMatrixPolicy(c.cfg.Nodes, c.cfg.Slots, c.cfg.Packing),
		jobs:        make(map[myrinet.JobID]*Job),
		nextID:      1,
		lastRow:     -1,
		needAcks:    c.cfg.Nodes,
		ackedBy:     make([]bool, c.cfg.Nodes),
		rebooted:    make([]bool, c.cfg.Nodes),
		rejoinAsked: make([]bool, c.cfg.Nodes),
		joining:     -1,
		downs:       make(map[int][]DownWindow),
		targets:     make([]myrinet.JobID, c.cfg.Nodes),
		hbArmed:     c.cfg.Chaos != nil && c.cfg.Chaos.Has(chaos.NodeCrash),
	}
	m.tickFn = m.tick
	return m
}

// Matrix exposes the gang matrix (read-only use).
func (m *Masterd) Matrix() *gang.Matrix { return m.matrix }

// Epoch returns the current switch round number.
func (m *Masterd) Epoch() uint64 { return m.epoch }

// Jobs returns the number of live jobs.
func (m *Masterd) Jobs() int { return len(m.jobs) }

// EvictedNodes returns the evicted node indices in ascending order.
func (m *Masterd) EvictedNodes() []int {
	var out []int
	for i := range m.c.nodes {
		if m.matrix.ColDead(i) {
			out = append(out, i)
		}
	}
	return out
}

func (m *Masterd) submit(spec JobSpec) (*Job, error) {
	if spec.Size <= 0 {
		return nil, fmt.Errorf("parpar: job %q has size %d", spec.Name, spec.Size)
	}
	if spec.NewProgram == nil {
		return nil, fmt.Errorf("parpar: job %q has no program", spec.Name)
	}
	id := m.nextID
	placement, err := m.matrix.Place(id, spec.Size)
	if err != nil {
		return nil, err
	}
	m.nextID++
	job := &Job{
		ID: id, Spec: spec, Placement: placement,
		nodeOf:     make([]myrinet.NodeID, spec.Size),
		procs:      make([]*Proc, spec.Size),
		loadSeen:   make([]bool, spec.Size),
		readySeen:  make([]bool, spec.Size),
		doneSeen:   make([]bool, spec.Size),
		Results:    make([]any, spec.Size),
		SubmitTime: m.c.Eng.Now(),
	}
	for rank, col := range placement.Cols {
		job.nodeOf[rank] = myrinet.NodeID(col)
	}
	m.jobs[id] = job

	// Figure 2: notify each allocated node to load the job.
	for rank, col := range placement.Cols {
		rank, col := rank, col
		m.c.reliableSend(col, func() bool { return job.loadSeen[rank] || job.ended() },
			func() { m.c.nodes[col].loadJob(job, rank) })
	}
	m.maybeTick()
	m.armHeartbeat()
	return job, nil
}

// rankReady collects the per-node process-created notifications; once all
// arrive, the all-up synchronization is broadcast (Figure 2).
func (m *Masterd) rankReady(job *Job, rank int) {
	if job.state != JobLoading || job.readySeen[rank] {
		return
	}
	job.readySeen[rank] = true
	job.readyRanks++
	if job.readyRanks < job.Spec.Size {
		return
	}
	job.state = JobRunning
	job.SyncTime = m.c.Eng.Now()
	for rank, col := range job.Placement.Cols {
		rank, col := rank, col
		m.c.reliableSend(col, func() bool { p := job.procs[rank]; return p == nil || p.started || job.ended() },
			func() { m.c.nodes[col].startJob(job, rank) })
	}
	// Force the next rotation to perform a real slot switch even if it
	// lands on the already-active row — the new job's processes are
	// resumed only through a switch — and request it promptly rather
	// than waiting out the quantum.
	m.activated = false
	m.kickASAP = true
	m.advance()
}

// rankDone collects per-rank completions; when a job finishes it leaves
// the matrix and its contexts are released cluster-wide.
func (m *Masterd) rankDone(job *Job, rank int, result any) {
	if job.ended() || job.doneSeen[rank] {
		return
	}
	job.doneSeen[rank] = true
	job.Results[rank] = result
	job.doneRanks++
	if job.doneRanks < job.Spec.Size {
		return
	}
	job.state = JobDone
	job.DoneTime = m.c.Eng.Now()
	if err := m.matrix.Remove(job.ID); err != nil {
		panic(fmt.Sprintf("parpar: removing done job: %v", err))
	}
	if m.matrix.Policy().UnifyOnExit() {
		// Slot unification may have migrated a suspended job into the
		// active row, so the row is no longer fully bound and the
		// same-row skip in tick must not elide the next switch. Force a
		// real switch, promptly, exactly as rankReady does.
		m.activated = false
		m.kickASAP = true
	}
	delete(m.jobs, job.ID)
	for _, col := range job.Placement.Cols {
		col := col
		node := m.c.nodes[col]
		m.c.reliableSend(col, func() bool { _, ok := node.procs[job.ID]; return !ok },
			func() { node.endJob(job.ID) })
	}
	for _, fn := range job.onDone {
		fn(job)
	}
	m.advance()
}

// maybeTick starts the rotation loop if it is not running.
func (m *Masterd) maybeTick() {
	if m.ticking {
		return
	}
	m.ticking = true
	m.tick()
}

// advance starts the next rotation when permitted: never while a switch
// round is in flight, and otherwise once the quantum has elapsed — or
// immediately when a job-ready kick is pending.
func (m *Masterd) advance() {
	if m.inFlight {
		return
	}
	if m.quantumUp || m.kickASAP {
		m.tick()
	}
}

// tick rotates to the next time slot. The switch broadcast goes to every
// node (all LANais participate in the flush protocol); the next tick fires
// once the quantum has elapsed AND every node has acknowledged switch
// completion — the masterd never overlaps rotations.
func (m *Masterd) tick() {
	if m.inFlight || m.joining >= 0 {
		// A round in flight paces itself; a settling rejoin bars new rounds
		// (growing the flush membership mid-epoch could stall an epoch that
		// was already satisfied) and admitNode re-kicks the rotation.
		return
	}
	m.kickASAP = false
	m.skipEv.Cancel()
	row := m.matrix.Rotate()
	if row == -1 {
		m.ticking = false
		m.activated = false
		m.lastRow = -1
		return
	}
	if m.activated && row == m.lastRow {
		// Single populated slot: nothing to switch; check again next
		// quantum (or sooner, if a job-ready kick cancels the wait).
		m.skipEv = m.c.Eng.Schedule(m.c.cfg.Quantum, m.tickFn)
		return
	}
	m.lastRow = row
	m.activated = true
	m.epoch++
	epoch := m.epoch

	m.inFlight = true
	m.acks = 0
	m.quantumUp = false
	m.roundStart = m.c.Eng.Now()
	m.needAcks = m.matrix.LiveCols()
	// Snapshot the row's per-node targets now, so every node of the
	// round sees the same decision regardless of delivery jitter. A job
	// becomes a switch target only once its Figure 2 synchronization
	// completed: before that, some nodes may not even have allocated its
	// context, and binding it on a subset would let senders race ahead
	// of receivers — exactly the packet loss the sync exists to prevent.
	for i := range m.targets {
		m.ackedBy[i] = false
		m.targets[i] = myrinet.NoJob
		if id := m.matrix.JobAt(row, i); id != myrinet.NoJob {
			if job, ok := m.jobs[id]; ok && job.state == JobRunning {
				m.targets[i] = id
			}
		}
	}
	// Serial broadcast: consecutive unicasts on the control Ethernet, so
	// node i hears one latency plus i+1 gaps in; that skew grows with the
	// machine and drives Figures 7 and 8. Evicted nodes are skipped,
	// keeping each survivor's slot. A notification carries the node's
	// generation (its eviction count), so only that incarnation acts on it.
	for i, n := range m.c.nodes {
		if !m.matrix.ColDead(i) {
			m.c.ctrl.sendReliable(sim.Time(i+1)*m.c.cfg.CtrlSerialGap, -1, n.getMsg(epoch, len(m.downs[i]), false))
		}
	}
	var q *quantumMsg
	if ln := len(m.qPool); ln > 0 {
		q = m.qPool[ln-1]
		m.qPool = m.qPool[:ln-1]
	} else {
		q = &quantumMsg{m: m}
	}
	q.epoch = epoch
	m.c.Eng.ScheduleArg(m.c.cfg.Quantum, quantumFn, q)
}

// switchAcked counts node i's acknowledgement of a round, once per node and
// only for the round in flight.
func (m *Masterd) switchAcked(i int, epoch uint64) {
	if m.epoch != epoch || m.ackedBy[i] || m.matrix.ColDead(i) {
		return
	}
	m.ackedBy[i] = true
	m.acks++
	if m.acks >= m.needAcks {
		m.closeRound()
	}
	m.advance()
}

// closeRound ends the in-flight rotation. The round boundary is where
// queued rejoiners get their chance: the next rotation cannot start until
// the admission barrier completes.
func (m *Masterd) closeRound() {
	m.inFlight = false
	m.tryRejoin()
}

// evictNode declares a node failed: it leaves the round's quorum, every
// survivor prunes it from its card membership and routing table, and every
// job that spanned it is killed so its slots are reclaimed and its
// surviving processes released. The rotation then continues on the
// remaining nodes.
func (m *Masterd) evictNode(i int) {
	if m.matrix.ColDead(i) {
		return
	}
	m.downs[i] = append(m.downs[i], DownWindow{From: m.c.Eng.Now()})
	// Shrink the matrix first: killing the column is the eviction itself,
	// and its free cells leave the capacity caches now, so any placement
	// triggered from the kill callbacks below can no longer land on the
	// dead node.
	if err := m.matrix.KillColumn(i); err != nil {
		panic(fmt.Sprintf("parpar: evicting node %d: %v", i, err))
	}
	id := myrinet.NodeID(i)
	if m.inFlight {
		if m.ackedBy[i] {
			m.acks--
		}
		m.ackedBy[i] = true // a late ack from the dead node must not count
		m.needAcks--
	}
	if m.joining >= 0 && !m.joinAckFrom[i] {
		// A dying survivor leaves the join quorum too: the admission must
		// not wait on a confirmation that will never come.
		m.joinAckFrom[i] = true
		m.joinNeed--
	}
	// Membership update: every survivor — and every rebooted-but-unadmitted
	// incarnation, whose topology view must stay current for its own
	// admission — prunes the dead node. The broadcast carries the eviction's
	// generation (this node's eviction count), and the re-send chain stops
	// once the receiver has applied that generation — NOT when the node
	// leaves the receiver's topology, which un-latches the moment a rejoin
	// re-adds it and would let a stale resend prune the live incarnation.
	gen := len(m.downs[i])
	for j, node := range m.c.nodes {
		if j == i || (m.matrix.ColDead(j) && !m.rebooted[j]) {
			continue
		}
		node := node
		m.c.reliableSend(j, func() bool { return node.evictSeen[id] >= gen },
			func() { node.evictPeer(id, gen) })
	}
	// The Evict event fires between the column kill and the spanning
	// kills, so a scheduler sees the shrunken machine before kill
	// callbacks cascade into fresh placement decisions.
	m.c.Net.Emit(myrinet.Event{Kind: myrinet.Evict, Time: m.c.Eng.Now(), Node: id})
	// Kill spanning jobs in ascending ID order for determinism.
	ids := make([]myrinet.JobID, 0, len(m.jobs))
	for jid, job := range m.jobs {
		for _, col := range job.Placement.Cols {
			if col == i {
				ids = append(ids, jid)
				break
			}
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, jid := range ids {
		m.killJob(m.jobs[jid])
	}
	if m.inFlight && m.acks >= m.needAcks {
		m.closeRound()
	}
	if m.joining >= 0 && m.joinNeed <= 0 {
		m.admitNode()
	}
	m.advance()
}

// killVoluntary terminates a live job on request (operator kill, scheduler
// resize). It reuses the eviction machinery's killJob — matrix removal,
// per-node process stop and context release, JobKilled completion
// callbacks — without declaring any node dead, then lets the rotation
// continue on the remaining jobs.
func (m *Masterd) killVoluntary(job *Job) error {
	if job == nil {
		return fmt.Errorf("parpar: killing nil job")
	}
	if _, live := m.jobs[job.ID]; !live || job.ended() {
		return fmt.Errorf("parpar: job %d is not live", job.ID)
	}
	m.killJob(job)
	m.advance()
	return nil
}

// compact runs a slot-unification pass regardless of the packing policy's
// UnifyOnExit preference and returns the number of jobs moved. A move can
// put a suspended job into the active row, so the same forced-switch
// pattern as rankDone applies when anything moved.
func (m *Masterd) compact() int {
	moved := m.matrix.Unify()
	if moved > 0 {
		m.activated = false
		m.kickASAP = true
		m.advance()
	}
	return moved
}

// killJob terminates a job that spanned an evicted node: it leaves the
// matrix (reclaiming its slots), its surviving processes are stopped and
// their contexts released, and its completion callbacks fire with state
// JobKilled.
func (m *Masterd) killJob(job *Job) {
	if job.ended() {
		return
	}
	job.state = JobKilled
	job.DoneTime = m.c.Eng.Now()
	if err := m.matrix.Remove(job.ID); err != nil {
		panic(fmt.Sprintf("parpar: removing killed job: %v", err))
	}
	if m.matrix.Policy().UnifyOnExit() {
		m.activated = false
		m.kickASAP = true
	}
	delete(m.jobs, job.ID)
	for _, col := range job.Placement.Cols {
		if m.matrix.ColDead(col) {
			continue
		}
		col := col
		node := m.c.nodes[col]
		m.c.reliableSend(col, func() bool { _, ok := node.procs[job.ID]; return !ok },
			func() { node.killJob(job.ID) })
	}
	for _, fn := range job.onDone {
		fn(job)
	}
}

package parpar

// repair.go closes the failure loop the eviction path opened: detection of
// fail-stop crashes, and the admission of a repaired node's fresh
// incarnation back into the gang.
//
// Heartbeat. The heartbeat is the recovery layer's only failure
// detector: every Recovery.HeartbeatEvery cycles the masterd pings each
// live node on the ctrl network and the noded answers over the reliable
// path after a small host-CPU charge; a node silent for HeartbeatMisses
// consecutive intervals is evicted. Switch acknowledgements cannot stand
// in for it — an idle rotation (no jobs, no rounds) and a single populated
// slot (the same-row skip means no switch is ever broadcast; batch mode
// lives there permanently) owe no acknowledgement at all, and a crashed
// idle node keeps acking — so every mode is detected the same way. The
// probe runs whenever recovery is on and the chaos plan contains a
// NodeCrash: without one nothing can fail-stop, and the probe stays off
// so fault-free and crash-free runs keep their exact timing. Its jitter
// draws ride the ctrl network's RNG like every other control message.
//
// Rejoin. A repaired node boots as a fresh incarnation (new card, new
// manager, empty daemon state — see Node.reboot) and asks the masterd to
// rejoin. Admission is a barrier at a rotation boundary: while a node is
// settling, no switch round may start, so no flush/release epoch is open
// anywhere and the card memberships can grow without stalling a satisfied
// epoch. Every survivor confirms re-adding the joiner (COMM_add_node plus
// the card's membership) before the masterd revives the node's matrix
// column, emits the Rejoin event, and resumes the rotation.

import (
	"fmt"
	"slices"

	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// DownWindow is one [From,To) downtime interval of a node; To == 0 while
// the node is still down.
type DownWindow struct {
	From, To sim.Time
}

// heartbeat ------------------------------------------------------------

// armHeartbeat starts the liveness-probe loop when the run can lose a
// node (see hbArmed). Self-terminating like the audit tick: the loop stops
// once the cluster is quiescent and the next submit re-arms it.
func (m *Masterd) armHeartbeat() {
	if !m.hbArmed || m.hbTicking {
		return
	}
	if m.hbPending == nil {
		m.hbPending = make([]bool, len(m.c.nodes))
		m.hbMiss = make([]int, len(m.c.nodes))
		m.hbSeen = make([]uint64, len(m.c.nodes))
		m.hbFn = m.hbTick
	}
	m.hbTicking = true
	m.c.Eng.Schedule(m.c.cfg.Recovery.HeartbeatEvery, m.hbFn)
}

// hbTick is one heartbeat interval: score the previous round's silence,
// evict the nodes past the miss budget (ascending order), then ping the
// survivors. Eviction happens on the probe cadence rather than per missing
// reply because a reply is not an ack with a deadline — only the prober
// can observe its absence.
func (m *Masterd) hbTick() {
	if len(m.jobs) == 0 && m.joining < 0 && len(m.rejoinQueue) == 0 {
		// Quiescent cluster: stop probing. The rejoin clauses keep the
		// loop alive mid-admission, where a dying survivor would otherwise
		// wedge the join quorum forever.
		m.hbTicking = false
		return
	}
	var evict []int
	for i := range m.c.nodes {
		if m.matrix.ColDead(i) {
			continue
		}
		if m.hbPending[i] {
			m.hbMiss[i]++
			if m.hbMiss[i] >= m.c.cfg.Recovery.HeartbeatMisses {
				evict = append(evict, i)
			}
		} else {
			m.hbMiss[i] = 0
		}
	}
	for _, i := range evict {
		m.evictNode(i)
	}
	m.hbSeq++
	seq := m.hbSeq
	for i := range m.c.nodes {
		if m.matrix.ColDead(i) {
			continue
		}
		i := i
		m.hbPending[i] = true
		m.c.ctrl.deliver(i, m.c.ctrl.delay(), func() { m.c.nodes[i].heartbeat(seq) })
	}
	m.c.Eng.Schedule(m.c.cfg.Recovery.HeartbeatEvery, m.hbFn)
}

// hbReply records one node's heartbeat answer. An answer to the current
// probe clears the pending mark; a stale one (the node was slow, the next
// probe already went out) still advances hbSeen so the reliable reply's
// re-send chain stops.
func (m *Masterd) hbReply(i int, seq uint64) {
	if m.matrix.ColDead(i) {
		return
	}
	if seq > m.hbSeen[i] {
		m.hbSeen[i] = seq
	}
	if m.hbSeen[i] >= m.hbSeq {
		m.hbPending[i] = false
		m.hbMiss[i] = 0
	}
}

// hbSeenAtLeast is the heartbeat reply's done predicate: the masterd heard
// this probe (or the node died and the answer no longer matters).
func (m *Masterd) hbSeenAtLeast(i int, seq uint64) bool {
	return m.matrix.ColDead(i) || m.hbSeen[i] >= seq
}

// rejoin ---------------------------------------------------------------

// nodeRebooted marks a dead node's fresh incarnation as existing: from now
// on membership broadcasts (evictions of other nodes) must reach it, so
// its topology view is current when it is admitted. Called synchronously
// at the repair instant, before the rejoin request is even sent.
func (m *Masterd) nodeRebooted(i int) { m.rebooted[i] = true }

// rejoinRequested is the rejoin request's reliable-send done predicate:
// the ask reached the masterd, or the incarnation that sent it has since
// been admitted. Admission clears both flags, so the predicate must latch
// on !rebooted — a late resend after admission would otherwise read as a
// fresh reboot and evict the live node all over again.
func (m *Masterd) rejoinRequested(i int) bool {
	return m.rejoinAsked[i] || !m.rebooted[i]
}

// rejoinRequest is the masterd's handling of a repaired node's rejoin
// message: requests queue, and one at a time the masterd pauses the
// rotation, has every survivor re-add the joiner, and revives its matrix
// column.
func (m *Masterd) rejoinRequest(i int) {
	if m.rejoinAsked[i] {
		return
	}
	if !m.matrix.ColDead(i) {
		// The node rebooted before its crash was even detected (the miss
		// budget had not run out): retire the old incarnation first — the
		// survivors must drop it from their flush membership before the
		// fresh one can be added back.
		m.evictNode(i)
	}
	m.rejoinAsked[i] = true
	m.rejoinQueue = append(m.rejoinQueue, i)
	m.tryRejoin()
}

// tryRejoin starts settling the next queued rejoiner when no switch round
// is in flight and no other admission is settling. Called from the request
// itself, from a closing round, and from a completed admission.
func (m *Masterd) tryRejoin() {
	if m.joining >= 0 || m.inFlight || len(m.rejoinQueue) == 0 {
		return
	}
	i := m.rejoinQueue[0]
	copy(m.rejoinQueue, m.rejoinQueue[1:])
	m.rejoinQueue = m.rejoinQueue[:len(m.rejoinQueue)-1]
	m.joining = i
	if m.joinAckFrom == nil {
		m.joinAckFrom = make([]bool, len(m.c.nodes))
	}
	m.joinNeed = 0
	for j := range m.c.nodes {
		m.joinAckFrom[j] = false
		if !m.matrix.ColDead(j) {
			m.joinNeed++
		}
	}
	if m.joinNeed == 0 {
		// Whole machine was down: nobody to confirm, admit outright.
		m.admitNode()
		return
	}
	id := myrinet.NodeID(i)
	gen := len(m.downs[i])
	for j := range m.c.nodes {
		if j == i || (m.matrix.ColDead(j) && !m.rebooted[j]) {
			// Rebooted-but-unadmitted incarnations get the join too (their
			// boot snapshot pruned the joiner and nothing else would re-add
			// it), but only live survivors count toward the quorum — a
			// settling incarnation's ack is ignored by joinAcked.
			continue
		}
		i, j := i, j
		node := m.c.nodes[j]
		m.c.reliableSend(j, func() bool { return m.joinAckSeen(i, j) },
			func() { node.joinPeer(id, gen) })
	}
}

// joinAcked records one survivor's confirmation that it re-added the
// joining node; when the quorum completes, the node is admitted.
func (m *Masterd) joinAcked(i, j int) {
	if m.joining != i || m.joinAckFrom[j] || m.matrix.ColDead(j) {
		return
	}
	m.joinAckFrom[j] = true
	m.joinNeed--
	if m.joinNeed <= 0 {
		m.admitNode()
	}
}

// joinAckSeen is the join broadcast's (and its ack's) done predicate: the
// admission moved on, or this survivor's confirmation is in.
func (m *Masterd) joinAckSeen(i, j int) bool {
	return m.joining != i || m.joinAckFrom[j]
}

// admitNode completes the rejoin barrier: every survivor has re-added the
// node and no rotation round is in flight (tick is gated while settling),
// so no flush/release epoch is open anywhere — the memberships have grown
// safely, the matrix column revives, and the rotation resumes with the
// node back in the gang. Event ordering mirrors eviction: the column is
// revived first, then the Rejoin event fires, so capacity queries from
// inside a subscriber (and the placements they trigger) already see the
// regrown machine.
func (m *Masterd) admitNode() {
	i := m.joining
	m.joining = -1
	if w := m.downs[i]; len(w) > 0 && w[len(w)-1].To == 0 {
		w[len(w)-1].To = m.c.Eng.Now()
	}
	m.rebooted[i] = false
	m.rejoinAsked[i] = false
	if m.hbPending != nil {
		// Fresh incarnation, fresh liveness record: it owes nothing before
		// the next probe round.
		m.hbPending[i] = false
		m.hbMiss[i] = 0
		m.hbSeen[i] = m.hbSeq
	}
	if err := m.matrix.ReviveColumn(i); err != nil {
		panic(fmt.Sprintf("parpar: admitting node %d: %v", i, err))
	}
	m.c.Net.Emit(myrinet.Event{Kind: myrinet.Rejoin, Time: m.c.Eng.Now(), Node: myrinet.NodeID(i)})
	m.tryRejoin()
	if m.joining < 0 && m.ticking && !m.inFlight {
		// The rotation may have idled against the barrier (quantum expiry
		// and skip checks return early while settling): rotate now — the
		// slot boundary the rejoiner was promised.
		m.quantumUp = true
	}
	m.advance()
}

// accessors ------------------------------------------------------------

// Downtime returns node i's downtime windows, one per eviction in order:
// each runs from the eviction to the node's readmission, and the last is
// open (To == 0) while the node is still down. The slice is a copy.
func (m *Masterd) Downtime(i int) []DownWindow {
	return slices.Clone(m.downs[i])
}

package parpar

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/lanai"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// rejoinCount counts the readmissions in a node's downtime windows: every
// closed window is one.
func rejoinCount(downs []DownWindow) int {
	n := 0
	for _, w := range downs {
		if w.To != 0 {
			n++
		}
	}
	return n
}

// hbConfig is testConfig with a faster heartbeat than the default
// (two misses of two quanta instead of eight of one). The interval is still
// coarse relative to testConfig's small quantum: the reply charges the host
// CPU, so the silence budget (misses × interval) must exceed the longest
// contiguous CPU busy stretch — program loads and switch copies — or a
// merely busy node reads as dead. The schedd daemon gets the same margin
// for free from its 4M-cycle quantum.
func hbConfig(nodes int) Config {
	cfg := testConfig(nodes)
	cfg.Recovery = Recovery{HeartbeatEvery: 2 * cfg.Quantum, HeartbeatMisses: 2}
	return cfg
}

// TestHeartbeatDetectsIdleCrash: a single populated slot never broadcasts
// a switch, so no acknowledgement is owed by a node no job runs on — the
// regime batch mode lives in permanently. The heartbeat must detect its
// fail-stop crash anyway, within its miss budget, without disturbing the
// running job.
func TestHeartbeatDetectsIdleCrash(t *testing.T) {
	const crashed, crashAt = 3, 50_000
	cfg := hbConfig(4)
	cfg.Slots = 1
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.NodeCrash, Node: crashed, From: crashAt},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Long enough to outlive the miss budget: the probe loop self-terminates
	// on a quiescent cluster, so a drained machine detects nothing (by design
	// — there is nothing left to protect).
	job, err := c.Submit(JobSpec{Name: "bystander", Size: 2, NewProgram: pingPong(2000)})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range job.Placement.Cols {
		if col == crashed {
			t.Fatalf("placement assumption broken: job on %v spans node %d", job.Placement.Cols, crashed)
		}
	}
	c.RunUntil(chaosHorizon)
	if !c.master.matrix.ColDead(crashed) {
		t.Fatal("heartbeat never declared the idle crashed node dead")
	}
	downs := c.master.Downtime(crashed)
	if len(downs) == 0 {
		t.Fatal("no eviction recorded")
	}
	at := downs[0].From
	budget := sim.Time(cfg.Recovery.HeartbeatMisses+3) * cfg.Recovery.HeartbeatEvery
	if at < crashAt || at > crashAt+budget {
		t.Fatalf("detected at %d, want within (%d, %d]", at, crashAt, crashAt+budget)
	}
	if job.State() != JobDone {
		t.Fatalf("bystander job is %v, want done; auditor: %s", job.State(), c.Auditor().Summary())
	}
	if !c.Auditor().Ok() {
		t.Fatalf("heartbeat run reported violations: %s", c.Auditor().Summary())
	}
}

// TestRepairRejoinsAndRestoresCapacity: the full loop — a crash kills the
// spanning job and shrinks the machine; the repair boots a fresh
// incarnation that rejoins at a rotation boundary; afterwards every
// survivor lists the node again, the matrix is back to full width, and a
// machine-wide job (impossible on the degraded cluster) places and runs.
func TestRepairRejoinsAndRestoresCapacity(t *testing.T) {
	const crashed, repairAt = 0, 6_000_000
	cfg := hbConfig(4)
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.NodeCrash, Node: crashed, From: 50_000},
		{Kind: chaos.NodeRepair, Node: crashed, From: repairAt},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := c.Submit(JobSpec{Name: "doomed", Size: 2, NewProgram: pingPong(400)})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := c.Submit(JobSpec{Name: "survivor", Size: 2, NewProgram: pingPong(2000)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(chaosHorizon)

	if doomed.State() != JobKilled {
		t.Fatalf("job spanning the crashed node is %v, want killed", doomed.State())
	}
	if survivor.State() != JobDone {
		t.Fatalf("surviving job is %v, want done; auditor: %s", survivor.State(), c.Auditor().Summary())
	}
	m := c.master
	if m.matrix.ColDead(crashed) {
		t.Fatal("repaired node still marked dead after the horizon")
	}
	downs := m.Downtime(crashed)
	if got := rejoinCount(downs); got != 1 {
		t.Fatalf("node %d rejoined %d times, want 1", crashed, got)
	}
	if rj := downs[0].To; rj < repairAt {
		t.Fatalf("first rejoin at %d, want after the repair instant %d", rj, repairAt)
	}
	for i, n := range c.Nodes() {
		if !n.Mgr.InTopology(myrinet.NodeID(crashed)) {
			t.Fatalf("node %d does not list the rejoined node in its topology", i)
		}
	}
	if got := m.matrix.LiveCols(); got != 4 {
		t.Fatalf("live columns = %d after rejoin, want 4", got)
	}
	// The regrown capacity must be real: a job needing every node — which
	// the 3-wide degraded machine rejected structurally — now places and
	// completes, with ranks running on the fresh incarnation. A ring
	// exchange makes every rank both send and receive, so the rejoined
	// card's data path is exercised in both directions.
	ring := func(size int) func(rank int) Program {
		return func(rank int) Program {
			return ProgramFunc(func(p *Proc) {
				p.EP.SetHandler(func(_, _ int, _ []byte) { p.Done(1) })
				p.EP.Send((rank+1)%size, 64, nil)
			})
		}
	}
	wide, err := c.Submit(JobSpec{Name: "wide", Size: 4, NewProgram: ring(4)})
	if err != nil {
		t.Fatalf("machine-wide job rejected after rejoin: %v", err)
	}
	c.RunUntil(2 * chaosHorizon)
	if wide.State() != JobDone {
		t.Fatalf("machine-wide job is %v, want done; auditor: %s", wide.State(), c.Auditor().Summary())
	}
	if !c.Auditor().Ok() {
		t.Fatalf("repair run reported violations: %s", c.Auditor().Summary())
	}
}

// TestRebootBeforeDetectionEvictsStaleIncarnation: when the repair lands
// before the heartbeat's miss budget runs out (or with no heartbeat at
// all), the rejoin request itself is the first sign of the crash. The
// masterd must retire the stale incarnation — kill the spanning job,
// shrink and regrow the column — before admitting the fresh one.
func TestRebootBeforeDetectionEvictsStaleIncarnation(t *testing.T) {
	const crashed = 0
	cfg := testConfig(4) // no heartbeat: detection only via the rejoin request
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.NodeCrash, Node: crashed, From: 50_000},
		{Kind: chaos.NodeRepair, Node: crashed, From: 300_000},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := c.Submit(JobSpec{Name: "doomed", Size: 2, NewProgram: pingPong(400)})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := c.Submit(JobSpec{Name: "survivor", Size: 2, NewProgram: pingPong(400)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(chaosHorizon)
	if doomed.State() != JobKilled {
		t.Fatalf("job spanning the crashed node is %v, want killed", doomed.State())
	}
	if survivor.State() != JobDone {
		t.Fatalf("surviving job is %v, want done; auditor: %s", survivor.State(), c.Auditor().Summary())
	}
	m := c.master
	downs := m.Downtime(crashed)
	if len(downs) != 1 || rejoinCount(downs) != 1 {
		t.Fatalf("downs=%d rejoins=%d, want one eviction and one rejoin", len(downs), rejoinCount(downs))
	}
	if at := downs[0].From; at < 300_000 {
		t.Fatalf("evicted at %d, want at/after the repair instant (the rejoin request is the detector)", at)
	}
	if !c.Auditor().Ok() {
		t.Fatalf("run reported violations: %s", c.Auditor().Summary())
	}
}

// TestRebootDuringRejoinLearnsJoiner: a second node reboots while the
// first node's rejoin is settling. The joiner is still dead in the
// masterd's membership snapshot, so the fresh incarnation boots without
// it, and the join broadcast went out before that incarnation existed.
// Unless the boot applies the pending join, the second card never waits
// for the joiner's Halt/Ready and sends into contexts the joiner has not
// bound yet. After both admissions every live card must expect every live
// peer in both phases.
func TestRebootDuringRejoinLearnsJoiner(t *testing.T) {
	const first, second = 2, 3
	const repairFirst, repairSecond = 6_000_000, 6_080_000
	cfg := hbConfig(4)
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.NodeCrash, Node: first, From: 50_000},
		{Kind: chaos.NodeCrash, Node: second, From: 100_000},
		{Kind: chaos.NodeRepair, Node: first, From: repairFirst},
		{Kind: chaos.NodeRepair, Node: second, From: repairSecond},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The keeper on nodes 0-1 keeps the heartbeat probing until both
	// crashes are detected; the doomed job spans the crashed pair.
	if _, err := c.Submit(JobSpec{Name: "keeper", Size: 2, NewProgram: pingPong(4000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Name: "doomed", Size: 2, NewProgram: pingPong(400)}); err != nil {
		t.Fatal(err)
	}
	m := c.master
	joiningAtReboot := -1
	c.Eng.ScheduleAt(repairSecond, func() { joiningAtReboot = m.joining })
	c.RunUntil(chaosHorizon)
	if joiningAtReboot != first {
		t.Fatalf("node %d rebooted with joining=%d, want node %d mid-admission (timing assumption broken)",
			second, joiningAtReboot, first)
	}
	if r1, r2 := rejoinCount(m.Downtime(first)), rejoinCount(m.Downtime(second)); r1 != 1 || r2 != 1 {
		t.Fatalf("rejoins = %d/%d, want both nodes admitted once", r1, r2)
	}
	for i, n := range c.Nodes() {
		for j := range c.Nodes() {
			if i == j {
				continue
			}
			peer := myrinet.NodeID(j)
			if flush, release := n.NIC.Expects(peer); !flush || !release {
				t.Errorf("node %d card expects node %d: flush=%t release=%t, want both", i, j, flush, release)
			}
			if !n.Mgr.InTopology(peer) {
				t.Errorf("node %d does not list node %d in its topology", i, j)
			}
		}
	}
	if !c.Auditor().Ok() {
		t.Fatalf("run reported violations: %s", c.Auditor().Summary())
	}
}

// TestEvictAndRejoinHookOrdering pins the event contracts the scheduler
// daemon builds on. Evict fires after KillColumn but before the spanning
// jobs are killed: capacity queries inside the subscriber see the shrunken
// machine while the doomed job is still inspectable. Rejoin mirrors it
// after ReviveColumn: the subscriber sees the node live again and the
// matrix at full width, so a backlog drain triggered from inside it can
// place onto the recovered capacity immediately.
func TestEvictAndRejoinHookOrdering(t *testing.T) {
	const crashed = 0
	cfg := hbConfig(4)
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.NodeCrash, Node: crashed, From: 50_000},
		{Kind: chaos.NodeRepair, Node: crashed, From: 6_000_000},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := c.Submit(JobSpec{Name: "doomed", Size: 2, NewProgram: pingPong(400)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Name: "survivor", Size: 2, NewProgram: pingPong(400)}); err != nil {
		t.Fatal(err)
	}
	m := c.master
	var evicts, rejoins []int
	c.Observe(func(e myrinet.Event) {
		node := int(e.Node)
		switch e.Kind {
		case myrinet.Evict:
			evicts = append(evicts, node)
			if got := m.matrix.LiveCols(); got != 3 {
				t.Errorf("Evict(%d): live columns = %d, want 3 (KillColumn must precede the event)", node, got)
			}
			if doomed.State() == JobKilled {
				t.Errorf("Evict(%d): spanning job already killed (kills must follow the event)", node)
			}
			if _, live := m.jobs[doomed.ID]; !live {
				t.Errorf("Evict(%d): spanning job already gone from the job table", node)
			}
		case myrinet.Rejoin:
			rejoins = append(rejoins, node)
			if m.matrix.ColDead(node) {
				t.Errorf("Rejoin(%d): node still marked dead inside the subscriber", node)
			}
			if got := m.matrix.LiveCols(); got != 4 {
				t.Errorf("Rejoin(%d): live columns = %d, want 4 (ReviveColumn must precede the event)", node, got)
			}
		}
	})
	c.RunUntil(chaosHorizon)
	if len(evicts) != 1 || evicts[0] != crashed {
		t.Fatalf("Evict fired for %v, want [%d]", evicts, crashed)
	}
	if len(rejoins) != 1 || rejoins[0] != crashed {
		t.Fatalf("Rejoin fired for %v, want [%d]", rejoins, crashed)
	}
	if doomed.State() != JobKilled {
		t.Fatalf("spanning job is %v after the run, want killed", doomed.State())
	}
}

// TestRepairDeterminism extends the recovery replay contract through the
// repair loop: two runs of the same crash-plus-repair-plus-loss plan (with
// the heartbeat armed) produce byte-identical injection traces, identical
// verdicts, and identical rejoin instants.
func TestRepairDeterminism(t *testing.T) {
	run := func() ([]string, []chaos.Violation, []DownWindow) {
		cfg := hbConfig(4)
		cfg.Chaos = &chaos.Plan{Seed: 31, Faults: []chaos.Fault{
			{Kind: chaos.NodeCrash, Node: 0, From: 50_000},
			{Kind: chaos.NodeRepair, Node: 0, From: 6_000_000},
			{Kind: chaos.HaltLoss, Prob: 0.4, Node: -1},
		}}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(JobSpec{Name: "doomed", Size: 2, NewProgram: pingPong(400)}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(JobSpec{Name: "survivor", Size: 2, NewProgram: pingPong(400)}); err != nil {
			t.Fatal(err)
		}
		c.RunUntil(chaosHorizon)
		return c.ChaosTrace(), c.Auditor().Violations(), c.master.Downtime(0)
	}
	t1, v1, w1 := run()
	t2, v2, w2 := run()
	if strings.Join(t1, "\n") != strings.Join(t2, "\n") {
		t.Fatal("identical repair runs produced different injection traces")
	}
	if len(v1) != len(v2) {
		t.Fatalf("violation counts differ: %d vs %d", len(v1), len(v2))
	}
	if !slices.Equal(w1, w2) {
		t.Fatalf("downtime timelines differ: %v vs %v", w1, w2)
	}
	if n := rejoinCount(w1); n != 1 {
		t.Fatalf("rejoins = %d, want 1", n)
	}
}

// TestStaleSwitchCompletionFenced: a node crashes mid-switch and is
// repaired before the crash is detected. The dead incarnation's switch
// chain runs on to completion on its detached card and the unblocked host
// CPU.
// That completion belongs to no round of the fresh incarnation: it must
// leave the node's switch state untouched and send the masterd no ack.
func TestStaleSwitchCompletionFenced(t *testing.T) {
	const node = 1
	build := func(crashAt, repairAt sim.Time) *Cluster {
		cfg := testConfig(4)
		cfg.Slots = 2
		cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
			{Kind: chaos.NodeCrash, Node: node, From: crashAt},
			{Kind: chaos.NodeRepair, Node: node, From: repairAt},
		}}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b"} {
			if _, err := c.Submit(idleLoopSpec(name, 4)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	// Dry run, faults out of reach: find an instant a few rounds in where
	// the node has just accepted a round. The crash and the repair both land
	// in its halt stage, while the later-notified peers' halts are still on
	// their way, so the dead incarnation's flush can only finish degraded,
	// on its detached card, after the fresh incarnation booted.
	q := testConfig(4).Quantum
	dry := build(1<<40, 1<<41)
	n := dry.nodes[node]
	// A node is mid-switch once it accepted a round its manager has not
	// recorded as done.
	midSwitch := func(n *Node) bool {
		h := n.Mgr.History()
		return n.swEpoch > 0 && (len(h) == 0 || h[len(h)-1].Epoch < n.swEpoch)
	}
	for dry.Eng.Now() < 4*q || !midSwitch(n) {
		if !dry.Eng.Step() {
			t.Fatal("dry run went quiescent")
		}
	}
	crashAt := dry.Eng.Now() + 1
	repairAt := crashAt + 10_000

	c := build(crashAt, repairAt)
	n = c.nodes[node]
	old := n.Mgr
	c.RunUntil(crashAt)
	if !midSwitch(n) {
		t.Fatalf("node %d not mid-switch at the crash (epoch %d)", node, n.swEpoch)
	}
	crashedIn := n.swEpoch
	toMaster := 0
	intercept := c.ctrl.intercept
	c.ctrl.intercept = func(now sim.Time, dst int) (sim.Time, bool) {
		if dst < 0 {
			toMaster++
		}
		return intercept(now, dst)
	}
	// Step event by event until the dead incarnation's manager records its
	// round: that event is the stale completion. Its flush and release
	// both complete degraded, each after the card's whole retransmission
	// ladder (about seven NIC deadlines, ten quanta here), so the round
	// ends some 21 quanta after the repair; 40 bounds the wait.
	for switches := len(old.History()); len(old.History()) == switches; {
		if c.Eng.Now() > repairAt+40*q {
			t.Fatalf("the dead incarnation's round-%d switch never completed (now %d crash %d repair %d)", crashedIn, c.Eng.Now(), crashAt, repairAt)
		}
		epoch, sent := n.swEpoch, toMaster
		if !c.Eng.Step() {
			t.Fatal("cluster went quiescent")
		}
		if len(old.History()) == switches {
			continue
		}
		if n.Mgr == old {
			t.Fatal("the switch completed before the repair; the case no longer exercises the fence")
		}
		if n.swEpoch != epoch {
			t.Errorf("stale completion of round %d changed the fresh incarnation's switch state: epoch %d->%d",
				crashedIn, epoch, n.swEpoch)
		}
		if toMaster != sent {
			t.Errorf("stale completion of round %d sent %d messages to the masterd", crashedIn, toMaster-sent)
		}
	}
}

// TestRebootedIncarnationReports: the events of a repaired node's fresh
// card and manager reach the auditor with no re-arm step, because every
// incarnation reports through the one network. After the crash and the
// repair, a store corruption on the fresh manager must show up as a
// store-integrity violation and a discard on the fresh card in the credit
// ledger.
func TestRebootedIncarnationReports(t *testing.T) {
	const crashed, repairAt = 0, 6_000_000
	cfg := hbConfig(4)
	cfg.Chaos = &chaos.Plan{Seed: 9, Faults: []chaos.Fault{
		{Kind: chaos.NodeCrash, Node: crashed, From: 50_000},
		{Kind: chaos.NodeRepair, Node: crashed, From: repairAt},
		{Kind: chaos.StoreCorrupt, Node: crashed, From: repairAt, Prob: 1},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := c.nodes[crashed].NIC
	c.RunUntil(repairAt + 20*cfg.Quantum)
	n := c.nodes[crashed]
	if n.NIC == first || c.master.matrix.ColDead(crashed) {
		t.Fatalf("node %d not rebooted and readmitted by %d", crashed, c.Eng.Now())
	}

	// Two gangs alternating on the whole machine: node 0's fresh manager
	// saves its queues at every switch-out, and the plan corrupts them.
	for _, name := range []string{"a", "b"} {
		if _, err := c.Submit(JobSpec{Name: name, Size: 4, NewProgram: oneWay(400, 1536)}); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(20 * cfg.Quantum)
	found := false
	for _, v := range c.Auditor().Violations() {
		if v.Invariant == "store-integrity" && strings.HasPrefix(v.Detail, fmt.Sprintf("node %d ", crashed)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no store-integrity violation from the fresh incarnation; auditor: %s", c.Auditor().Summary())
	}

	// A data packet for a job the fresh card holds no context for is
	// discarded there, destroying its credit.
	const orphan myrinet.JobID = 99
	p := c.Net.NewPacket()
	p.Type, p.Src, p.Dst, p.Job = myrinet.Data, 1, crashed, orphan
	c.Net.Send(p)
	c.RunFor(cfg.Quantum)
	if got := n.NIC.Stats().Drops[lanai.DropNoContext]; got == 0 {
		t.Fatal("fresh card did not discard the orphan packet")
	}
	if c.Auditor().Drops(orphan) != 1 || c.Auditor().Destroyed(orphan) != 1 {
		t.Fatalf("ledger: %d drops, %d credits destroyed for the orphan, want 1 and 1",
			c.Auditor().Drops(orphan), c.Auditor().Destroyed(orphan))
	}
}

// TestEvictLatchIgnoresStaleGeneration: a node's eviction latch applies
// each generation of a peer's eviction once. After an eviction and the
// rejoin that heals it, a stale re-delivery of the same generation (a
// resend chain racing the admission) leaves the peer in the topology; the
// next eviction, one generation higher, prunes it again. The latch holds
// entries only for peers seen evicted.
func TestEvictLatchIgnoresStaleGeneration(t *testing.T) {
	c, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	n, peer := c.nodes[0], myrinet.NodeID(2)
	if n.evictSeen != nil {
		t.Fatal("eviction latch allocated before any eviction")
	}
	n.evictPeer(peer, 1)
	if n.Mgr.InTopology(peer) {
		t.Fatal("eviction of generation 1 left the peer in the topology")
	}
	n.joinPeer(peer, 1)
	if !n.Mgr.InTopology(peer) {
		t.Fatal("rejoin did not restore the peer")
	}
	n.evictPeer(peer, 1)
	if !n.Mgr.InTopology(peer) {
		t.Fatal("stale re-delivery of generation 1 pruned the rejoined peer")
	}
	n.evictPeer(peer, 2)
	if n.Mgr.InTopology(peer) {
		t.Fatal("eviction of generation 2 left the peer in the topology")
	}
	if len(n.evictSeen) != 1 || n.evictSeen[peer] != 2 {
		t.Fatalf("latch = %v, want only peer %d at generation 2", n.evictSeen, peer)
	}
}

package parpar

import (
	"strings"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// recoveredConfig is testConfig plus the self-healing switch layer at its
// default budgets.
func recoveredConfig(nodes int) Config {
	cfg := testConfig(nodes)
	r := DefaultRecovery(cfg.Quantum)
	cfg.Recovery = &r
	return cfg
}

// nicTotals sums the recovery-relevant NIC counters across the cluster.
func nicTotals(c *Cluster) (halt, ready, stale, forced uint64) {
	for _, n := range c.Nodes() {
		st := n.NIC.Stats()
		halt += st.HaltRetransmits
		ready += st.ReadyRetransmits
		stale += st.StaleCtrl
		forced += st.ForcedPhases
	}
	return
}

// TestHaltLossRecovered: the exact plan of TestHaltLossStallsSwitch — every
// halt packet lost, forever — wedges the bare protocol; with recovery the
// NIC re-broadcasts halts and ultimately force-completes the flush phase,
// so the same workload finishes with a clean auditor. Permanent 100% halt
// loss means even retransmitted halts die, so this pins the force-complete
// backstop, not just the retransmission.
func TestHaltLossRecovered(t *testing.T) {
	cfg := recoveredConfig(2)
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.HaltLoss, Prob: 1.0, Node: -1},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(JobSpec{Name: "pp", Size: 2, NewProgram: pingPong(5)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(chaosHorizon)
	if job.State() != JobDone {
		t.Fatalf("job state %v under recovery; auditor: %s", job.State(), c.Auditor().Summary())
	}
	if !c.Auditor().Ok() {
		t.Fatalf("recovery run reported violations: %s", c.Auditor().Summary())
	}
	halt, _, _, forced := nicTotals(c)
	if halt == 0 {
		t.Fatal("no halt retransmissions under permanent halt loss")
	}
	if forced == 0 {
		t.Fatal("no forced phases: permanent halt loss is only survivable by force-complete")
	}
}

// TestReadyLossRecovered: the stage-3 mirror of TestHaltLossRecovered —
// permanent ready loss, absorbed by ready retransmission + force-complete.
func TestReadyLossRecovered(t *testing.T) {
	cfg := recoveredConfig(2)
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.ReadyLoss, Prob: 1.0, Node: -1},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(JobSpec{Name: "pp", Size: 2, NewProgram: pingPong(5)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(chaosHorizon)
	if job.State() != JobDone {
		t.Fatalf("job state %v under recovery; auditor: %s", job.State(), c.Auditor().Summary())
	}
	if !c.Auditor().Ok() {
		t.Fatalf("recovery run reported violations: %s", c.Auditor().Summary())
	}
	_, ready, _, _ := nicTotals(c)
	if ready == 0 {
		t.Fatal("no ready retransmissions under permanent ready loss")
	}
}

// TestPartialHaltLossCountsStaleCtrl: with half the halts lost, the
// re-broadcasts reach peers that already heard the original — those
// duplicates must be dropped idempotently and counted, and (being marked
// retransmissions) answered with an echo that fills the sender's own gap.
func TestPartialHaltLossCountsStaleCtrl(t *testing.T) {
	cfg := recoveredConfig(3)
	cfg.Chaos = &chaos.Plan{Seed: 21, Faults: []chaos.Fault{
		{Kind: chaos.HaltLoss, Prob: 0.5, Node: -1},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(JobSpec{Name: "stream", Size: 2, NewProgram: oneWay(100, 512)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(chaosHorizon)
	if job.State() != JobDone {
		t.Fatalf("job state %v under recovery; auditor: %s", job.State(), c.Auditor().Summary())
	}
	if !c.Auditor().Ok() {
		t.Fatalf("recovery run reported violations: %s", c.Auditor().Summary())
	}
	halt, _, stale, _ := nicTotals(c)
	if halt == 0 {
		t.Fatal("no halt retransmissions under 50% halt loss")
	}
	if stale == 0 {
		t.Fatal("no stale control packets counted: duplicates should have reached already-heard peers")
	}
}

// TestCtrlLossRecoveredWithinWindow: a 3-quantum blackout of the control
// Ethernet (100% loss) — every masterd/noded message in flight is dropped.
// The reliable-send retry chain (re-sends at 0.25q, 0.75q, 1.75q, 3.75q …
// cumulative) punches through after the window closes; the bare protocol
// wedges on the first lost message. Permanent 100% ctrl loss is excluded
// by design: retransmission needs some delivery.
func TestCtrlLossRecoveredWithinWindow(t *testing.T) {
	cfg := recoveredConfig(2)
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.CtrlLoss, Prob: 1.0, Node: -1, From: 0, Until: 3 * 400_000},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(JobSpec{Name: "pp", Size: 2, NewProgram: pingPong(5)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(chaosHorizon)
	if job.State() != JobDone {
		t.Fatalf("job state %v under recovery; auditor: %s", job.State(), c.Auditor().Summary())
	}
	if !c.Auditor().Ok() {
		t.Fatalf("recovery run reported violations: %s", c.Auditor().Summary())
	}
}

// TestNodeCrashEvictsAndSurvives: a node crashes before its rank of job A
// ever forks. The crashed node is idle, so it still acknowledges switch
// rounds — only the heartbeat can see it: the node stops answering probes,
// and after the miss budget the masterd evicts it and kills job A. Job B,
// placed on the surviving nodes, must load, run and complete normally on
// the degraded cluster, and every survivor must have pruned the dead node
// from its membership.
func TestNodeCrashEvictsAndSurvives(t *testing.T) {
	const crashed = 0
	cfg := recoveredConfig(4)
	cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.NodeCrash, Node: crashed, From: 10_000},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobA, err := c.Submit(JobSpec{Name: "doomed", Size: 2, NewProgram: pingPong(5)})
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := c.Submit(JobSpec{Name: "survivor", Size: 2, NewProgram: pingPong(400)})
	if err != nil {
		t.Fatal(err)
	}
	spans := func(j *Job, col int) bool {
		for _, jc := range j.Placement.Cols {
			if jc == col {
				return true
			}
		}
		return false
	}
	if !spans(jobA, crashed) || spans(jobB, crashed) {
		t.Fatalf("placement assumption broken: A on %v, B on %v", jobA.Placement.Cols, jobB.Placement.Cols)
	}
	c.RunUntil(chaosHorizon)

	if jobA.State() != JobKilled {
		t.Fatalf("job spanning the crashed node is %v, want killed; auditor: %s",
			jobA.State(), c.Auditor().Summary())
	}
	if jobB.State() != JobDone {
		t.Fatalf("surviving job is %v, want done; auditor: %s", jobB.State(), c.Auditor().Summary())
	}
	if !c.master.matrix.ColDead(crashed) {
		t.Fatal("masterd never declared the crashed node dead")
	}
	// The eviction comes from the heartbeat: no earlier than the miss
	// budget allows, and within one more probe interval (plus the reply's
	// delivery) of it.
	rec := cfg.Recovery
	at := c.master.Downtime(crashed)[0].From
	earliest := 10_000 + sim.Time(rec.HeartbeatMisses)*rec.HeartbeatEvery
	if at < earliest || at > earliest+2*rec.HeartbeatEvery {
		t.Fatalf("crashed node evicted at %d, want the heartbeat's deadline in [%d, %d]",
			at, earliest, earliest+2*rec.HeartbeatEvery)
	}
	for i, n := range c.Nodes() {
		if i == crashed {
			continue
		}
		if n.Mgr.InTopology(myrinet.NodeID(crashed)) {
			t.Fatalf("survivor %d still lists the dead node in its topology", i)
		}
	}
	if !c.Auditor().Ok() {
		t.Fatalf("crash recovery reported violations: %s", c.Auditor().Summary())
	}
}

// TestRecoveryDeterminism: the recovery layer preserves the replay
// contract — two runs of the same seeded crash-plus-loss plan produce
// byte-identical injection traces, identical violations (none), and
// identical job timelines.
func TestRecoveryDeterminism(t *testing.T) {
	run := func() ([]string, []chaos.Violation, sim.Time, sim.Time) {
		cfg := recoveredConfig(4)
		cfg.Chaos = &chaos.Plan{Seed: 31, Faults: []chaos.Fault{
			{Kind: chaos.NodeCrash, Node: 0, From: 10_000},
			{Kind: chaos.HaltLoss, Prob: 0.4, Node: -1},
		}}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Submit(JobSpec{Name: "doomed", Size: 2, NewProgram: pingPong(5)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Submit(JobSpec{Name: "survivor", Size: 2, NewProgram: pingPong(100)})
		if err != nil {
			t.Fatal(err)
		}
		c.RunUntil(chaosHorizon)
		return c.ChaosTrace(), c.Auditor().Violations(), a.DoneTime, b.DoneTime
	}
	t1, v1, a1, b1 := run()
	t2, v2, a2, b2 := run()
	if strings.Join(t1, "\n") != strings.Join(t2, "\n") {
		t.Fatal("identical recovery runs produced different injection traces")
	}
	if len(v1) != len(v2) {
		t.Fatalf("violation counts differ: %d vs %d", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("violation %d differs:\n  %s\n  %s", i, v1[i], v2[i])
		}
	}
	if a1 != a2 || b1 != b2 {
		t.Fatalf("job timelines differ: %d/%d vs %d/%d", a1, b1, a2, b2)
	}
	if len(t1) == 0 {
		t.Fatal("plan produced no injections")
	}
}

// allToAll returns a program in which every one of ranks ranks sends
// perPeer messages of size bytes to each peer, destinations rotating from
// the next rank up, and calls Done once it has sent and received them all.
func allToAll(ranks, perPeer, size int) func(rank int) Program {
	return func(rank int) Program {
		return ProgramFunc(func(p *Proc) {
			total := perPeer * (ranks - 1)
			sent, got := 0, 0
			maybeDone := func() {
				if sent == total && got == total {
					p.Done(sent)
				}
			}
			p.EP.SetHandler(func(_, _ int, _ []byte) {
				got++
				maybeDone()
			})
			fill := func() {
				for sent < total && p.EP.Send((rank+1+sent%(ranks-1))%ranks, size, nil) {
					sent++
					maybeDone()
				}
			}
			p.EP.SetOnCanSend(fill)
			fill()
		})
	}
}

// TestRecoveryCleanPathFree: on a fault-free run the recovery layer is
// pure bookkeeping — each job's completion time and the mean steady-state
// switch cost are cycle-identical to the recovery-off run, and no phase is
// force-completed. The "stream" case cancels every timer before it fires,
// so no control packet is re-sent at all. The "switching" case is two
// all-to-all jobs alternating in two slots on 16 nodes, so the three-stage
// switch itself runs under the recovery timers.
//
// In that case a valid-only copy takes up to ~2.1M cycles, more than the
// half-quantum (2M) NIC timeout, so a peer's Ready can trail a fast node's
// by more than the timeout; the first Ready deadline waits out a
// worst-case copy on top of it, so no node re-sends Ready to a peer that is
// still copying.
func TestRecoveryCleanPathFree(t *testing.T) {
	cases := []struct {
		name      string
		cfg       func() Config
		jobs      []JobSpec
		switching bool // steady-state switches must occur
	}{
		{
			name: "stream",
			cfg:  func() Config { return testConfig(2) },
			jobs: []JobSpec{{Name: "stream", Size: 2, NewProgram: oneWay(100, 512)}},
		},
		{
			name: "switching",
			cfg: func() Config {
				cfg := DefaultConfig(16)
				cfg.Slots = 2
				cfg.Quantum = 4_000_000
				return cfg
			},
			jobs: []JobSpec{
				{Name: "a", Size: 16, NewProgram: allToAll(16, 40, 1536)},
				{Name: "b", Size: 16, NewProgram: allToAll(16, 40, 1536)},
			},
			switching: true,
		},
	}
	type outcome struct {
		done       []sim.Time
		switchSum  sim.Time
		switchRuns int
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(recovery bool) outcome {
				cfg := tc.cfg()
				if recovery {
					r := DefaultRecovery(cfg.Quantum)
					cfg.Recovery = &r
				}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var jobs []*Job
				for _, spec := range tc.jobs {
					job, err := c.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					jobs = append(jobs, job)
				}
				c.RunUntil(50 * cfg.Quantum) // chaosHorizon for testConfig
				var o outcome
				for i, job := range jobs {
					if job.State() != JobDone {
						t.Fatalf("recovery=%v: job %s did not finish", recovery, tc.jobs[i].Name)
					}
					o.done = append(o.done, job.DoneTime)
				}
				for _, hist := range c.SwitchHistory() {
					for _, s := range hist {
						if s.From >= 0 && s.To >= 0 { // steady-state switches only
							o.switchSum += s.Total()
							o.switchRuns++
						}
					}
				}
				if recovery {
					halt, ready, stale, forced := nicTotals(c)
					if halt+ready+stale+forced != 0 {
						t.Fatalf("clean run exercised recovery: halt=%d ready=%d stale=%d forced=%d",
							halt, ready, stale, forced)
					}
				}
				return o
			}
			off := run(false)
			on := run(true)
			for i := range off.done {
				if off.done[i] != on.done[i] {
					t.Fatalf("recovery changed the clean path: job %d done at %d with, %d without",
						i, on.done[i], off.done[i])
				}
			}
			if off.switchRuns != on.switchRuns || off.switchSum != on.switchSum {
				t.Fatalf("recovery changed the clean-path switch cost: %d switches / %d cycles with, %d / %d without",
					on.switchRuns, on.switchSum, off.switchRuns, off.switchSum)
			}
			if tc.switching && off.switchRuns == 0 {
				t.Fatal("switching case recorded no steady-state switches")
			}
		})
	}
}

// TestRecoveryConfigValidation: broken recovery budgets are rejected at
// cluster construction, not discovered as silent timer misbehaviour.
func TestRecoveryConfigValidation(t *testing.T) {
	cfg := testConfig(2)
	cfg.Recovery = &Recovery{} // zero timeouts
	if _, err := New(cfg); err == nil {
		t.Fatal("zero-valued Recovery accepted")
	}
	cfg = testConfig(2)
	r := DefaultRecovery(cfg.Quantum)
	r.NICRetries = -1
	cfg.Recovery = &r
	if _, err := New(cfg); err == nil {
		t.Fatal("negative retry budget accepted")
	}
	// The heartbeat is the only failure detector: it cannot be switched
	// off, and it needs a miss budget.
	for _, mutate := range []func(*Recovery){
		func(r *Recovery) { r.HeartbeatEvery = 0 },
		func(r *Recovery) { r.HeartbeatMisses = 0 },
	} {
		cfg = testConfig(2)
		r := DefaultRecovery(cfg.Quantum)
		mutate(&r)
		cfg.Recovery = &r
		if _, err := New(cfg); err == nil {
			t.Fatalf("heartbeat budget %d×%d accepted", r.HeartbeatMisses, r.HeartbeatEvery)
		}
	}
}

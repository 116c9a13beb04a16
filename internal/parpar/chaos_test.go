package parpar

import (
	"strings"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/fm"
	"gangfm/internal/sim"
)

// chaosHorizon is how long the chaos tests simulate: wedged runs never go
// quiescent (the rotation and audit loops keep ticking), so they are driven
// by time, not by Run().
const chaosHorizon = 50 * 400_000 // 50 quanta of testConfig

// TestLossTriggersCreditStallViolation is the harness's flagship detection:
// under Partitioned FM with data-packet loss, the no-retransmission stall of
// paper §2.2 is reported as a credit-conservation violation, with the
// destroyed-credit ledger as evidence.
func TestLossTriggersCreditStallViolation(t *testing.T) {
	cfg := testConfig(2)
	cfg.Policy = fm.Partitioned
	plan := chaos.Loss(77, 0.2)
	cfg.Chaos = &plan
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Name: "stream", Size: 2, NewProgram: oneWay(200, 512)}); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(chaosHorizon)

	found := false
	for _, v := range c.Auditor().Violations() {
		if v.Invariant == "credit-conservation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no credit-conservation violation under 20%% loss; auditor: %s", c.Auditor().Summary())
	}
	if c.Auditor().Destroyed(1) == 0 {
		t.Fatal("ledger recorded no destroyed credits")
	}
	if !strings.Contains(c.Auditor().Summary(), "seed 77") {
		t.Fatalf("summary lacks the replay seed: %s", c.Auditor().Summary())
	}
}

// TestLossTriggersDeliveryStall: with few slots the partitioned credit
// window is wide (C0 ≈ 83), so 20% loss doesn't exhaust the sender's
// credits — instead the receiver starves waiting for packets that no
// longer exist. The delivery-stall check catches this second face of the
// no-retransmission fragility.
func TestLossTriggersDeliveryStall(t *testing.T) {
	cfg := testConfig(2)
	cfg.Slots = 2
	cfg.Policy = fm.Partitioned
	plan := chaos.Loss(99, 0.2)
	cfg.Chaos = &plan
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Name: "stream", Size: 2, NewProgram: oneWay(200, 512)}); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(chaosHorizon)
	found := false
	for _, v := range c.Auditor().Violations() {
		if v.Invariant == "delivery-stall" {
			found = true
		}
	}
	if !found {
		t.Fatalf("receiver starvation not detected: %s", c.Auditor().Summary())
	}
}

// TestCleanRunAuditsClean: the same workload with no fault plan completes
// with a silent auditor — the checks themselves do not false-positive.
func TestCleanRunAuditsClean(t *testing.T) {
	for _, policy := range []fm.Policy{fm.Partitioned, fm.Switched} {
		cfg := testConfig(2)
		cfg.Policy = policy
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
			t.Fatalf("%v: clean job did not finish", policy)
		}
		if !c.Auditor().Ok() {
			t.Fatalf("%v: clean run reported violations: %s", policy, c.Auditor().Summary())
		}
	}
}

// TestChaosDeterminism: two clusters built from the same config and plan
// produce byte-identical injection traces and identical verdicts — the
// replay contract a seed-reporting fuzzer depends on.
func TestChaosDeterminism(t *testing.T) {
	run := func() ([]string, []chaos.Violation) {
		cfg := testConfig(3)
		plan := chaos.Loss(1234, 0.15)
		cfg.Chaos = &plan
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(JobSpec{Name: "stream", Size: 2, NewProgram: oneWay(150, 768)}); err != nil {
			t.Fatal(err)
		}
		c.RunUntil(chaosHorizon)
		return c.ChaosTrace(), c.Auditor().Violations()
	}
	t1, v1 := run()
	t2, v2 := run()
	if strings.Join(t1, "\n") != strings.Join(t2, "\n") {
		t.Fatal("identical seed+plan produced different injection traces")
	}
	if len(v1) != len(v2) {
		t.Fatalf("verdicts differ: %d vs %d violations", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("violation %d differs:\n  %s\n  %s", i, v1[i], v2[i])
		}
	}
	if len(t1) == 0 {
		t.Fatal("15% loss produced no injections")
	}
}

// TestNodePauseDelaysJob: a NodePause fault freezes one host CPU; the run
// still completes once the window ends, later than the unfaulted run — the
// CPU fault mechanism visibly perturbs the simulation without breaking it.
func TestNodePauseDelaysJob(t *testing.T) {
	elapsed := func(pause bool) sim.Time {
		cfg := testConfig(2)
		if pause {
			cfg.Chaos = &chaos.Plan{Seed: 9, Faults: []chaos.Fault{
				{Kind: chaos.NodePause, Node: 1, From: 100_000, Until: 3_000_000},
			}}
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		job, err := c.Submit(JobSpec{Name: "pp", Size: 2, NewProgram: pingPong(3)})
		if err != nil {
			t.Fatal(err)
		}
		c.RunUntil(chaosHorizon)
		if job.State() != JobDone {
			t.Fatalf("pause=%v: job did not finish", pause)
		}
		return job.DoneTime
	}
	clean := elapsed(false)
	paused := elapsed(true)
	if paused <= clean {
		t.Fatalf("NodePause did not delay completion: %d vs %d", paused, clean)
	}
}

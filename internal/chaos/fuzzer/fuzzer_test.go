package fuzzer

import (
	"strings"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/fm"
	"gangfm/internal/parpar"
	"gangfm/internal/workload"
)

// TestSampleDeterministic: the scenario generator is a pure function of the
// seed, and its plans always validate.
func TestSampleDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := Sample(seed), Sample(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d sampled two different scenarios", seed)
		}
		if err := a.Plan.Validate(); err != nil {
			t.Fatalf("seed %d sampled an invalid plan: %v", seed, err)
		}
		if a.Nodes < 2 || a.Nodes > 4 || len(a.Jobs) == 0 || len(a.Plan.Faults) == 0 {
			t.Fatalf("seed %d sampled out-of-range scenario: %s", seed, a)
		}
	}
}

// TestFuzzOneDeterministic: executing the same seed twice yields identical
// verdicts, traces and job outcomes — the replay contract.
func TestFuzzOneDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		r1 := FuzzOne(seed, 0)
		r2 := FuzzOne(seed, 0)
		if r1.String() != r2.String() {
			t.Fatalf("seed %d: verdicts differ:\n%s\n---\n%s", seed, r1, r2)
		}
		if strings.Join(r1.Trace, "\n") != strings.Join(r2.Trace, "\n") {
			t.Fatalf("seed %d: injection traces differ", seed)
		}
	}
}

// TestCampaignFindsViolations: a modest campaign over the default generator
// surfaces at least one invariant violation — the harness actually detects
// the fragilities it was built for — and every run's verdict line renders.
func TestCampaignFindsViolations(t *testing.T) {
	rep := Fuzz(Config{Seed: 1, Runs: 20}, nil)
	if len(rep.Runs) != 20 {
		t.Fatalf("campaign ran %d/20", len(rep.Runs))
	}
	if rep.Failures == 0 {
		t.Fatal("20 fuzz runs with 1-3 faults each found no violations at all")
	}
	for _, r := range rep.Runs {
		if r.String() == "" {
			t.Fatal("empty verdict line")
		}
	}
}

// TestRecoveryCampaign: the recovery campaign over a fixed seed range must
// find scenarios in which the recovery layer acts (coverage), must come
// back clean from every one (the layer's guarantee over its restricted
// fault classes), and must be deterministic run to run.
func TestRecoveryCampaign(t *testing.T) {
	campaign := func() RecoveryReport { return FuzzRecovery(Config{Seed: 1, Runs: 15}, nil) }
	rep := campaign()
	if len(rep.Runs) != 15 {
		t.Fatalf("campaign ran %d/15", len(rep.Runs))
	}
	if rep.Absorbed < 1 {
		t.Fatal("the recovery layer never acted: the campaign proves nothing")
	}
	if rep.Unrecovered != 0 {
		for _, r := range rep.Runs {
			if r.Failed() {
				t.Errorf("unrecovered: %s", r)
			}
		}
		t.Fatalf("%d scenario(s) failed with recovery armed", rep.Unrecovered)
	}
	rep2 := campaign()
	for i := range rep.Runs {
		if rep.Runs[i].String() != rep2.Runs[i].String() {
			t.Fatalf("run %d verdict differs between identical campaigns:\n%s\n---\n%s",
				i, rep.Runs[i], rep2.Runs[i])
		}
	}
}

// TestSampleRecoveryRestricted: the recovery sampler never draws the fault
// classes the layer does not guarantee against (data-plane loss and
// corruption), keeps loss windows bounded, and crashes at most one node.
func TestSampleRecoveryRestricted(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := SampleRecovery(seed)
		if err := s.Plan.Validate(); err != nil {
			t.Fatalf("seed %d: invalid recovery plan: %v", seed, err)
		}
		crashes := 0
		crashAt := map[int]chaos.Fault{}
		for _, f := range s.Plan.Faults {
			switch f.Kind {
			case chaos.DataLoss, chaos.DataDup, chaos.RefillLoss, chaos.StoreCorrupt:
				t.Fatalf("seed %d: recovery sampler drew unguaranteed fault %s", seed, f.Kind)
			case chaos.NodeCrash:
				crashes++
				crashAt[f.Node] = f
			case chaos.NodeRepair:
				// Instant event, like the crash it undoes — checked below
				// against the crash list, once the whole plan is scanned.
			default:
				if f.Until == 0 {
					t.Fatalf("seed %d: open-ended %s in a recovery plan", seed, f.Kind)
				}
			}
		}
		if crashes > 1 {
			t.Fatalf("seed %d: %d node crashes in one plan", seed, crashes)
		}
		for _, f := range s.Plan.Faults {
			if f.Kind != chaos.NodeRepair {
				continue
			}
			c, ok := crashAt[f.Node]
			if !ok {
				t.Fatalf("seed %d: repair of node %d with no crash of that node", seed, f.Node)
			}
			if f.From <= c.From {
				t.Fatalf("seed %d: repair of node %d at %d precedes its crash at %d", seed, f.Node, f.From, c.From)
			}
		}
	}
}

// TestShrinkIsolatesCausalFault: a plan mixing the causal data-loss fault
// with two irrelevant ones shrinks to the data-loss fault alone, and the
// shrunk plan still reproduces the failure.
func TestShrinkIsolatesCausalFault(t *testing.T) {
	s := Scenario{
		Seed:   99,
		Nodes:  2,
		Slots:  2,
		Policy: fm.Partitioned,
		Jobs:   []parpar.JobSpec{workload.Bandwidth("stream", 200, 512)},
		Plan: chaos.Plan{Seed: 99, Faults: []chaos.Fault{
			{Kind: chaos.CtrlDelay, Prob: 0.2, Delay: 50_000, Node: -1},
			{Kind: chaos.DataLoss, Prob: 0.2, Node: -1},
			{Kind: chaos.NodeSlow, Node: 0, From: 0, Until: 800_000, Factor: 0.5},
		}},
	}
	if !Execute(s, 0).Failed() {
		t.Fatal("seed scenario does not fail; shrink test is vacuous")
	}
	min := Shrink(s, 0)
	if len(min.Faults) != 1 || min.Faults[0].Kind != chaos.DataLoss {
		t.Fatalf("shrink kept %d fault(s): %s", len(min.Faults), min)
	}
	t2 := s
	t2.Plan = min
	if !Execute(t2, 0).Failed() {
		t.Fatal("shrunk plan no longer reproduces the failure")
	}
}

// TestCompareLossKnownAnswer is the fuzzer's differential known-answer
// test, the paper's §2.2 contrast: identical loss wedges FM permanently
// (credit-conservation violation, destroyed credits on the ledger) while
// the go-back-N alternative delivers everything via retransmission with a
// clean audit.
func TestCompareLossKnownAnswer(t *testing.T) {
	cmp := CompareLoss(77, 0.2)
	if !cmp.FMStalled {
		t.Fatalf("FM did not stall under 20%% loss: %+v", cmp)
	}
	if cmp.FMDestroyed == 0 {
		t.Fatal("ledger recorded no destroyed credits")
	}
	if !cmp.AltRecovered {
		t.Fatalf("go-back-N did not recover: delivered %d", cmp.AltDelivered)
	}
	if cmp.AltRetransmissions == 0 || cmp.AltDropped == 0 {
		t.Fatalf("alternative run saw no loss to recover from: %+v", cmp)
	}
	if !strings.Contains(cmp.String(), "recovered=true") {
		t.Fatalf("verdict rendering: %s", cmp)
	}
}

// TestRecoveryCampaignChurnAtScale is the wide net behind the failure-aware
// scheduling work: ≥100 recovery scenarios — now with live churn commands
// (kills and resizes) layered over the fault plans — and none may end
// unrecovered. The layer acting is expected (that is the campaign's
// coverage); a scenario that stays wedged with the layer armed is the bug
// this test exists to catch.
func TestRecoveryCampaignChurnAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("120-seed recovery campaign is not short")
	}
	const runs = 120
	rep := FuzzRecovery(Config{Seed: 1, Runs: runs}, nil)
	if len(rep.Runs) != runs {
		t.Fatalf("campaign ran %d/%d", len(rep.Runs), runs)
	}
	if rep.Absorbed < 1 {
		t.Fatal("the recovery layer never acted across the whole campaign")
	}
	if rep.Unrecovered != 0 {
		for _, r := range rep.Runs {
			if r.Failed() {
				t.Errorf("unrecovered: %s", r)
			}
		}
		t.Fatalf("%d of %d scenarios stayed wedged with recovery armed", rep.Unrecovered, runs)
	}
	// The campaign must actually exercise churn: a healthy share of the
	// sampled scenarios carries kill/resize commands.
	churned := 0
	for seed := uint64(1); seed <= runs; seed++ {
		if len(SampleRecovery(seed).Churn) > 0 {
			churned++
		}
	}
	if churned < runs/10 {
		t.Fatalf("only %d of %d recovery scenarios sampled churn commands", churned, runs)
	}
}

// TestRecoveryVerdict pins the recovery campaign's log text: a clean run,
// one the layer absorbed, and an unrecovered one with its violations or
// its crash.
func TestRecoveryVerdict(t *testing.T) {
	sc := Scenario{Seed: 9, Nodes: 2, Slots: 2, Policy: fm.Switched,
		Jobs: []parpar.JobSpec{{Name: "a", Size: 2}},
		Plan: chaos.Plan{Seed: 9, Faults: []chaos.Fault{{Kind: chaos.DataLoss, Prob: 0.1, Node: -1}}}}
	head := sc.String() + "\n  "
	v := chaos.Violation{Time: 1234, Invariant: "delivery-stall", Detail: "job 1 stalled"}
	for _, c := range []struct {
		r    RunResult
		want string
	}{
		{RunResult{Scenario: sc, DoneJobs: 1, TotalJobs: 1}, head + "clean, layer idle (1/1 jobs done)"},
		{RunResult{Scenario: sc, DoneJobs: 1, TotalJobs: 1, Healed: true}, head + "absorbed (1/1 jobs done)"},
		{RunResult{Scenario: sc, TotalJobs: 1, Healed: true, Violations: []chaos.Violation{v}},
			head + "UNRECOVERED (0/1 jobs done)\n    " + v.String()},
		{RunResult{Scenario: sc, TotalJobs: 1, Crash: "fm: boom"},
			head + "UNRECOVERED (0/1 jobs done)\n  CRASH: fm: boom"},
	} {
		if got := recoveryVerdict(c.r); got != c.want {
			t.Errorf("verdict:\n%s\nwant:\n%s", got, c.want)
		}
	}
}

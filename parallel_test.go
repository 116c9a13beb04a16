package gangfm

// Parallel-sweep equivalence harness. Sweeps run their points on up to
// Params.Parallel goroutines, each point a cluster on its own engine, and
// promise byte-identical output per seed at any -par. These tests hold
// them to it against the same golden files the figure tables are frozen
// to, and run clusters side by side so that, under -race (make race), any
// state two clusters share shows up as a race.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/experiments"
	"gangfm/internal/parpar"
)

// TestParallelEquivalenceFigures re-renders figure, sched and churn tables
// one point at a time and two at once, and compares each against the
// golden bytes TestGoldenFigures renders at four.
func TestParallelEquivalenceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel equivalence sweep is not short")
	}
	tables := []struct {
		golden string
		render func(p experiments.Params) string
	}{
		{"fig5.txt", func(p experiments.Params) string {
			return fmt.Sprint(experiments.Fig5Table(experiments.Fig5(p)))
		}},
		{"fig6.txt", func(p experiments.Params) string {
			return fmt.Sprint(experiments.Fig6Table(experiments.Fig6(p)))
		}},
		{"sched.txt", func(p experiments.Params) string {
			return fmt.Sprint(experiments.SchedTable(experiments.Sched(p)))
		}},
		// The crash and repair showdowns arm chaos plans, whose draws are
		// keyed by simulation state: eviction order, requeue backoff, the
		// rejoin barrier and the availability table must not depend on
		// which points run beside each other.
		{"churn_crash.txt", func(p experiments.Params) string {
			return renderChurn(experiments.ChurnCrash(p), true)
		}},
		{"churn_repair.txt", func(p experiments.Params) string {
			return renderChurn(experiments.ChurnRepair(p), true)
		}},
	}
	for _, tb := range tables {
		for _, par := range []int{1, 2} {
			name := fmt.Sprintf("%s/par=%d", strings.TrimSuffix(tb.golden, ".txt"), par)
			t.Run(name, func(t *testing.T) {
				goldenCompare(t, tb.golden, tb.render(experiments.Params{Quick: true, Parallel: par}))
			})
		}
	}
}

// TestParallelEquivalenceChaos replays fault plans on two clusters at
// once. Each cluster owns its injector and auditor, so the two runs must
// agree with each other, trace and violations (times included), and the
// golden plan's trace must match its frozen golden. The store plan
// corrupts backing stores, so the manager's digest check reports
// store-integrity violations and the comparison is not vacuous.
//
// The shards=N legs replay each plan with parpar.Config's deprecated
// Shards and Workers hint set to the counts the sharded engine once ran
// at. The hint is ignored, so each run must match the unhinted one
// exactly; the legs go with the two fields.
func TestParallelEquivalenceChaos(t *testing.T) {
	plans := []struct {
		name    string
		plan    chaos.Plan
		perPeer int
		golden  string
	}{
		{"golden", goldenChaosPlan(), 30, "chaos_trace.txt"},
		{"store", chaos.Plan{Seed: 7, Faults: []chaos.Fault{
			{Kind: chaos.StoreCorrupt, Prob: 0.5, Node: -1},
			{Kind: chaos.CtrlDelay, Prob: 0.2, Delay: 50_000},
		}}, 400, ""},
	}
	refs := make([]*parpar.Cluster, len(plans))
	for i, pl := range plans {
		t.Run(pl.name, func(t *testing.T) {
			runs := [2]*parpar.Cluster{
				chaosCluster(t, pl.plan, pl.perPeer),
				chaosCluster(t, pl.plan, pl.perPeer),
			}
			var wg sync.WaitGroup
			for _, c := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.RunUntil(goldenHorizon)
				}()
			}
			wg.Wait()
			if pl.golden != "" {
				goldenCompare(t, pl.golden, strings.Join(runs[0].ChaosTrace(), "\n")+"\n")
			} else if len(runs[0].Auditor().Violations()) == 0 {
				t.Fatalf("%s plan reported no violations; the comparison is vacuous", pl.name)
			}
			sameChaos(t, runs[0], runs[1])
			refs[i] = runs[0]
		})
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for i, pl := range plans {
				for _, w := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/workers=%d", pl.name, w), func(t *testing.T) {
						if refs[i] == nil {
							t.Fatalf("no unhinted %s run to compare with", pl.name)
						}
						hinted := chaosCluster(t, pl.plan, pl.perPeer, func(cfg *parpar.Config) {
							cfg.Shards, cfg.Workers = shards, w
						})
						hinted.RunUntil(goldenHorizon)
						sameChaos(t, refs[i], hinted)
					})
				}
			}
		})
	}
}

// sameChaos fails t unless two chaos runs fired the same trace and
// reported the same violations, times included.
func sameChaos(t *testing.T, want, got *parpar.Cluster) {
	t.Helper()
	wantTrace := strings.Join(want.ChaosTrace(), "\n") + "\n"
	if gotTrace := strings.Join(got.ChaosTrace(), "\n") + "\n"; gotTrace != wantTrace {
		t.Errorf("trace diverged\n--- want ---\n%s--- got ---\n%s", wantTrace, gotTrace)
	}
	wantV, gotV := want.Auditor().Violations(), got.Auditor().Violations()
	if len(gotV) != len(wantV) {
		t.Fatalf("violation count diverged: got %d, want %d\n%s", len(gotV), len(wantV), got.Auditor().Summary())
	}
	for i := range gotV {
		if gotV[i] != wantV[i] {
			t.Errorf("violation %d diverged: got %v, want %v", i, gotV[i], wantV[i])
		}
	}
}

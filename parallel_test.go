package gangfm

// Sharded-engine equivalence harness. The parallel DES (internal/sim.Group)
// promises that sharding a cluster across event lanes — at any worker
// count — leaves every observable result identical to the single-engine
// run. These tests hold it to that promise against the same golden files
// the serial simulator is frozen to: the figure tables and the chaos
// injector trace must come out byte-for-byte the same whether the engine
// runs unsharded or sharded across windows on one or many workers. Run
// them under -race (make race) to check the window synchronization as well
// as its semantics.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/experiments"
)

// workerCounts is the sweep of worker pools: windows run on the coordinator
// alone (1), small pools (2, 4), and whatever this machine offers.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestParallelEquivalenceFigures re-renders the figure tables with the
// cluster sharded, at every worker count, and compares each against the
// golden bytes the unsharded runs are frozen to (golden_test.go). A
// lookahead bug, a mis-merged per-shard counter, or a reordered RNG draw
// all surface here as a table diff.
func TestParallelEquivalenceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence sweep is not short")
	}
	tables := []struct {
		golden string
		shards int
		render func(p experiments.Params) string
	}{
		{"fig5.txt", 4, func(p experiments.Params) string {
			return fmt.Sprint(experiments.Fig5Table(experiments.Fig5(p)))
		}},
		{"fig6.txt", 2, func(p experiments.Params) string {
			return fmt.Sprint(experiments.Fig6Table(experiments.Fig6(p)))
		}},
		{"sched.txt", 4, func(p experiments.Params) string {
			return fmt.Sprint(experiments.SchedTable(experiments.Sched(p)))
		}},
		// The crash showdown arms chaos plans, whose draws are keyed by
		// simulation state — this row checks that promise end to end:
		// eviction order, requeue backoff, and the availability table
		// must be byte-identical at any worker count.
		{"churn_crash.txt", 4, func(p experiments.Params) string {
			return renderChurn(experiments.ChurnCrash(p), true)
		}},
		// The repair showdown adds the rejoin barrier, heartbeat probes, and
		// revived columns on top of the crash machinery; the same promise
		// must hold through all of it.
		{"churn_repair.txt", 4, func(p experiments.Params) string {
			return renderChurn(experiments.ChurnRepair(p), true)
		}},
	}
	for _, tb := range tables {
		tb := tb
		for _, w := range workerCounts() {
			w := w
			name := fmt.Sprintf("%s/shards=%d/workers=%d",
				strings.TrimSuffix(tb.golden, ".txt"), tb.shards, w)
			t.Run(name, func(t *testing.T) {
				p := experiments.Params{Quick: true, Parallel: 2, Shards: tb.shards, Workers: w}
				goldenCompare(t, tb.golden, tb.render(p))
			})
		}
	}
}

// TestParallelEquivalenceChaos replays fault plans on sharded clusters at
// every worker count. Every chaos decision is keyed by simulation state,
// not by the order lanes present events, so the injector trace must match
// the frozen golden trace exactly and the auditor's violations — times
// included — must match the unsharded run's. The second plan corrupts
// backing stores, so the manager's digest check reports store-integrity
// violations from the shard lanes and the time comparison is not vacuous.
func TestParallelEquivalenceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence sweep is not short")
	}
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
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, pl := range plans {
				serial := chaosCluster(t, pl.plan, pl.perPeer, 1, 1)
				wantTrace := strings.Join(serial.ChaosTrace(), "\n") + "\n"
				wantV := serial.Auditor().Violations()
				if pl.golden == "" && len(wantV) == 0 {
					t.Fatalf("%s plan reported no violations; the time comparison is vacuous", pl.name)
				}
				for _, w := range workerCounts() {
					pl, w := pl, w
					t.Run(fmt.Sprintf("%s/workers=%d", pl.name, w), func(t *testing.T) {
						sharded := chaosCluster(t, pl.plan, pl.perPeer, shards, w)
						trace := strings.Join(sharded.ChaosTrace(), "\n") + "\n"
						if pl.golden != "" {
							goldenCompare(t, pl.golden, trace)
						} else if trace != wantTrace {
							t.Errorf("trace diverged\n--- serial ---\n%s--- sharded ---\n%s", wantTrace, trace)
						}
						gotV := sharded.Auditor().Violations()
						if len(gotV) != len(wantV) {
							t.Fatalf("violation count diverged: sharded %d, serial %d\n%s", len(gotV), len(wantV),
								sharded.Auditor().Summary())
						}
						for i := range gotV {
							if gotV[i] != wantV[i] {
								t.Errorf("violation %d diverged: sharded %v, serial %v", i, gotV[i], wantV[i])
							}
						}
					})
				}
			}
		})
	}
}

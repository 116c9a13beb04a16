package schedd

import (
	"fmt"
	"strings"
	"testing"

	"gangfm/internal/core"
	"gangfm/internal/gang"
	"gangfm/internal/myrinet"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// quickChurnConfig is the configuration `gangsim churn -quick -seed seed
// -crash crash -repair repair -crash-seed crashSeed -policy policy
// -adaptive` serves: 12 generated arrivals on 8 nodes, sampled crashes and
// repairs with the default repair seed and MTTR.
func quickChurnConfig(t *testing.T, seed, crashSeed uint64, crash, repair float64, policy string) Config {
	t.Helper()
	g := schedeval.DefaultGenConfig(8)
	g.Seed = seed
	g.Jobs = 12
	g.CommIntensity = 0.7
	g.KillFraction = 0.15
	g.ResizeFraction = 0.15
	g.DeadlineFraction = 0.25
	trace, err := schedeval.Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	for _, tj := range trace {
		if tj.Arrive > last {
			last = tj.Arrive
		}
	}
	packing, ok := gang.PolicyByName(policy)
	if !ok {
		t.Fatalf("unknown policy %q", policy)
	}
	cfg := DefaultConfig(8)
	cfg.Trace = trace
	cfg.Packing = packing
	cfg.AdaptiveEstimate = true
	if cfg.Crashes, err = schedeval.GenCrashes(crashSeed, 8, crash, last); err != nil {
		t.Fatal(err)
	}
	if repair > 0 {
		if cfg.Repairs, err = schedeval.GenRepairs(13, cfg.Crashes, repair, last/4); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// incarnation is one node incarnation the masterd admitted: its manager,
// the last round the masterd had started when it evicted the
// incarnation's predecessor (0 for the first incarnations), and the halts
// its card had broadcast by its admission.
type incarnation struct {
	node  int
	mgr   *core.Manager
	epoch uint64
	halts uint64
}

// watchIncarnations records every incarnation of d's cluster: the first
// ones at construction, each repaired one at its admission, stamped with
// the round in flight at its predecessor's eviction.
func watchIncarnations(d *Daemon) *[]incarnation {
	var incs []incarnation
	c := d.Cluster()
	m := c.Master()
	for i, n := range c.Nodes() {
		incs = append(incs, incarnation{node: i, mgr: n.Mgr})
	}
	evictedIn := make([]uint64, len(c.Nodes()))
	c.Observe(func(e myrinet.Event) {
		i := int(e.Node)
		switch e.Kind {
		case myrinet.Evict:
			evictedIn[i] = m.Epoch()
		case myrinet.Rejoin:
			n := c.Nodes()[i]
			incs = append(incs, incarnation{node: i, mgr: n.Mgr, epoch: evictedIn[i], halts: n.NIC.Stats().HaltsSent})
		}
	})
	return &incs
}

// fenceViolations checks the switch-round fence on every recorded
// incarnation: it started no switch before its admission (its card
// broadcast no halt), and its manager switched one round at a time, in
// increasing rounds, only in rounds started after its predecessor's
// eviction. The rounds up to that eviction were addressed to the
// predecessor, and a dead node is sent nothing until it is admitted again,
// so either failure means the fresh incarnation acted on a notification
// meant for another one: one sent before a reboot, or one that reached an
// incarnation booted before its crash was detected.
func fenceViolations(incs []incarnation) []string {
	var bad []string
	for _, inc := range incs {
		if inc.halts != 0 {
			bad = append(bad, fmt.Sprintf("node %d incarnation broadcast %d halts before its admission", inc.node, inc.halts))
		}
		last := inc.epoch
		for _, s := range inc.mgr.History() {
			if s.Epoch <= last {
				bad = append(bad, fmt.Sprintf("node %d incarnation fenced at round %d switched in round %d after round %d",
					inc.node, inc.epoch, s.Epoch, last))
			}
			if s.Epoch > last {
				last = s.Epoch
			}
		}
	}
	return bad
}

// TestRebootBeforeDetectionFenced pins the two shapes in which a rebooted
// node's fresh incarnation used to act on a switch notification the
// masterd had not sent it, then received the next round with that switch
// still in flight:
//   - seed 3 (batch half): node 0 reboots while the masterd still counts it
//     live, so round 8 goes to the fresh incarnation; the rejoin request
//     then evicts and readmits the node, and round 9 arrives while the
//     round-8 switch is still flushing;
//   - seed 8: a round-11 notification sent to node 2's dead incarnation
//     reaches the fresh one.
//
// Stamping each notification with the node's membership generation drops
// both before the fresh incarnation is admitted.
func TestRebootBeforeDetectionFenced(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		cfg := quickChurnConfig(t, seed, 7, 0.35, 0.75, "buddy")
		var watched []*[]incarnation
		if _, err := showdown(cfg, func(d *Daemon) { watched = append(watched, watchIncarnations(d)) }); err != nil {
			t.Fatal(err)
		}
		rejoins := 0
		for half, incs := range watched {
			rejoins += len(*incs) - 8
			for _, v := range fenceViolations(*incs) {
				t.Errorf("seed %d %s half: %s", seed, []string{"gang", "batch"}[half], v)
			}
		}
		if rejoins == 0 {
			t.Fatalf("seed %d: no node was readmitted; the case no longer exercises the fence", seed)
		}
	}
}

// endsOnce checks that every job of a run ends exactly once: at most one
// terminal decision (done, kill or gaveup) per job, and the jobs without
// one are exactly the ones censored at the horizon.
func endsOnce(r *Result) error {
	ends := make(map[string]int)
	for _, line := range r.Log.Lines() {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[2], "job=") {
			continue
		}
		switch f[1] {
		case "done", "kill", "gaveup":
			ends[f[2]]++
			if ends[f[2]] > 1 {
				return fmt.Errorf("%s ends twice: %q", f[2], line)
			}
		}
	}
	if open := r.Jobs - len(ends); open != r.Censored {
		return fmt.Errorf("%d jobs never end but %d are censored", open, r.Censored)
	}
	return nil
}

// sweepShape is one crash/repair configuration family of the sweep,
// instantiated per seed by quickChurnConfig.
type sweepShape struct {
	name          string
	crash, repair float64
	crashSeed     func(seed uint64) uint64
	policy        string
}

func (sh sweepShape) config(t *testing.T, seed uint64) Config {
	return quickChurnConfig(t, seed, sh.crashSeed(seed), sh.crash, sh.repair, sh.policy)
}

var sweepShapes = []sweepShape{
	{"crash0.35-repair0.75", 0.35, 0.75, func(uint64) uint64 { return 7 }, "buddy"},
	{"crash0.5-repair0.9-first-fit", 0.5, 0.9, func(s uint64) uint64 { return s + 100 }, "first-fit"},
	{"crash0.35", 0.35, 0, func(uint64) uint64 { return 7 }, "buddy"},
	{"crash0.35-crash-seed", 0.35, 0, func(s uint64) uint64 { return s }, "buddy"},
}

// TestCrashRepairSweepSwitchesOncePerRound runs 300 seeded churn streams
// through the showdown, at quick size, seeds 1–75 in each of four shapes:
// `-crash 0.35 -repair 0.75 -adaptive`, `-crash 0.5 -repair 0.9
// -crash-seed seed+100 -policy first-fit -adaptive`, and the crash-only
// `-crash 0.35 -adaptive` with the default crash seed and with
// `-crash-seed seed`. The crash-only shapes are where a late failure
// detector shows: a crash that is not detected promptly wedges the jobs
// talking to the dead node (credit-conservation). In every run and both
// daemon halves:
//   - no node is asked for a second switch while one is in flight (the
//     manager rejects it, and the noded panics);
//   - the switch-round fence holds (see fenceViolations), so no
//     incarnation acts on, or completes, another incarnation's round;
//   - the chaos auditor and the task-table audit are clean;
//   - every job ends exactly once.
func TestCrashRepairSweepSwitchesOncePerRound(t *testing.T) {
	for _, sh := range sweepShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			runs, rejoins := 0, 0
			for seed := uint64(1); seed <= 75; seed++ {
				cfg := sh.config(t, seed)
				var daemons []*Daemon
				var watched []*[]incarnation
				var results []*Result
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					results, err = showdown(cfg, func(d *Daemon) {
						daemons = append(daemons, d)
						watched = append(watched, watchIncarnations(d))
					})
				}()
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
					continue
				}
				runs++
				for half, d := range daemons {
					where := fmt.Sprintf("seed %d %s", seed, results[half].Mode)
					rejoins += len(*watched[half]) - 8
					for _, v := range fenceViolations(*watched[half]) {
						t.Errorf("%s: %s", where, v)
					}
					if a := d.Cluster().Auditor(); !a.Ok() {
						t.Errorf("%s: auditor: %s", where, a.Summary())
					}
					if bad := d.Audit(); len(bad) != 0 {
						t.Errorf("%s: task-table audit: %v", where, bad)
					}
					if err := endsOnce(results[half]); err != nil {
						t.Errorf("%s: %v", where, err)
					}
				}
			}
			if runs != 75 {
				t.Fatalf("%d of 75 runs completed", runs)
			}
			if sh.repair > 0 && rejoins == 0 {
				t.Fatal("no node was readmitted in this shape")
			}
		})
	}
}

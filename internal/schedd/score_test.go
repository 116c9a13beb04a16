package schedd

import (
	"math"
	"testing"

	"gangfm/internal/parpar"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// scoreJob is a compute-only trace job (BSP with no messages) whose
// Nominal is units × 100k cycles plus the 100k launch charge.
func scoreJob(arrive sim.Time, units int) schedeval.TraceJob {
	return schedeval.TraceJob{Arrive: arrive, Size: 1, Kernel: schedeval.KernelBSP,
		Units: units, Compute: 100_000}
}

// TestScoreAccounting pins the showdown's arithmetic on hand-built
// outcomes and downtime windows, with every expected value worked out by
// hand in the comments.
func TestScoreAccounting(t *testing.T) {
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %.15g, want %.15g", name, got, want)
		}
	}

	t.Run("repairs", func(t *testing.T) {
		cfg := Config{Nodes: 4, SlowdownBound: 100_000, Horizon: 10_000_000,
			Repairs: make([]schedeval.Repair, 2)}
		// a: nominal 1M, response 1.8M (bsld 1.8), done before the first
		// rejoin. b: size 2, nominal 2M, response 6M (bsld 3), done after
		// it, late, backfilled, resized, requeued once. c: killed. d: gave
		// up after three requeues. The last end is b's, 7M; the span is
		// 7M from the first arrival at 0, so the machine is 4 × 7M = 28M
		// node-cycles.
		b := scoreJob(1_000_000, 19)
		b.Deadline = 5_000_000
		jobs := []*outcome{
			{tj: scoreJob(0, 9), size: 1, done: 1_800_000, finished: true},
			{tj: b, size: 2, done: 7_000_000, finished: true, dlMiss: true,
				backfill: true, resized: true, retries: 1},
			{tj: scoreJob(500_000, 9), size: 1, done: 2_000_000, killed: true},
			{tj: scoreJob(600_000, 9), size: 1, done: 4_000_000, gaveup: true, retries: 3},
		}
		downs := [][]parpar.DownWindow{
			// Two windows on one node: [1M, 2M) closed by the first rejoin
			// (2M), then [5M, open), clipped at the last end: 1M + 2M.
			{{From: 1_000_000, To: 2_000_000}, {From: 5_000_000}},
			// A window straddling the first rejoin, closed after the last
			// end: [1.5M, 7M) counts, 5.5M; 5M of it after the rejoin.
			{{From: 1_500_000, To: 8_000_000}},
			nil, nil,
		}
		r := score(cfg, jobs, downs)
		if r.Jobs != 4 || r.Finished != 2 || r.Killed != 1 || r.Evicted != 1 || r.GaveUp != 1 ||
			r.Censored != 0 || r.Resized != 1 || r.DlMiss != 1 || r.Backfills != 1 {
			t.Errorf("fates: %+v", *r)
		}
		if r.Requeues != 4 || r.RequeuedJobs != 2 || r.NodesLost != 2 || r.NodesRepaired != 2 || r.Repairs != 2 {
			t.Errorf("requeue/node counts: %+v", *r)
		}
		near("MeanResponse", r.MeanResponse, 3_900_000) // (1.8M + 6M) / 2
		near("MeanSlowdown", r.MeanSlowdown, 2.4)       // (1.8 + 3) / 2
		near("MaxSlowdown", r.MaxSlowdown, 3)
		// Useful work: 1 × 1M + 2 × 2M = 5M; lost: 3M + 5.5M = 8.5M.
		near("Utilization", r.Utilization, 5e6/28e6)
		near("CapacityLost", r.CapacityLost, 8.5e6/28e6)
		near("Goodput", r.Goodput, 5e6/(28e6-8.5e6))
		// Without repair both nodes stay down from their first eviction to
		// the last end: 6M + 5.5M = 11.5M, of which 3M were recovered.
		near("CapacityRepaired", r.CapacityRepaired, 3/11.5)
		// After the first rejoin (2M to 7M): 4 × 5M = 20M node-cycles less
		// 2M + 5M of downtime; only b's 4M of work finished in there.
		near("PostRepairGoodput", r.PostRepairGoodput, 4e6/13e6)
	})

	t.Run("censored", func(t *testing.T) {
		cfg := Config{Nodes: 4, SlowdownBound: 100_000, Horizon: 10_000_000}
		// a finishes (nominal 1M, response 2M); e and f are still running
		// at the horizon, which passed e's deadline but not f's. The
		// censored jobs stretch the span to the horizon: 10M − 1M = 9M
		// from the first arrival, 4 × 9M = 36M node-cycles.
		e := scoreJob(2_000_000, 9)
		e.Deadline = 9_000_000
		f := scoreJob(3_000_000, 9)
		f.Deadline = 12_000_000
		jobs := []*outcome{
			{tj: scoreJob(1_000_000, 9), size: 1, done: 3_000_000, finished: true},
			{tj: e, size: 1, retries: 1},
			{tj: f, size: 1},
		}
		// Never repaired: [4M, open) runs to the horizon, 6M.
		downs := [][]parpar.DownWindow{nil, nil, nil, {{From: 4_000_000}}}
		r := score(cfg, jobs, downs)
		if r.Finished != 1 || r.Censored != 2 || r.DlMiss != 1 || r.Evicted != 0 || r.GaveUp != 0 ||
			r.NodesLost != 1 || r.NodesRepaired != 0 || r.RequeuedJobs != 1 {
			t.Errorf("counts: %+v", *r)
		}
		near("MeanResponse", r.MeanResponse, 2_000_000)
		near("MeanSlowdown", r.MeanSlowdown, 2)
		near("Utilization", r.Utilization, 1e6/36e6)
		near("CapacityLost", r.CapacityLost, 6e6/36e6)
		near("Goodput", r.Goodput, 1e6/30e6)
		near("CapacityRepaired", r.CapacityRepaired, 0)
		near("PostRepairGoodput", r.PostRepairGoodput, 0)
	})
}

// TestConfigDefaults: the retry budget and the horizon are defaulted in one
// place each.
func TestConfigDefaults(t *testing.T) {
	for budget, want := range map[int]int{0: 3, -1: 0, 5: 5} {
		if got := (Config{RetryBudget: budget}).retryBudget(); got != want {
			t.Errorf("retryBudget(%d) = %d, want %d", budget, got, want)
		}
	}
	trace := []schedeval.TraceJob{scoreJob(7, 1), scoreJob(3, 1)}
	if got := (Config{Trace: trace}).horizon(); got != 7+10_000*4_000_000 {
		t.Errorf("default horizon = %d", got)
	}
	if got := (Config{Trace: trace, Quantum: 10}).horizon(); got != 7+10_000*10 {
		t.Errorf("horizon at quantum 10 = %d", got)
	}
	if got := (Config{Trace: trace, Horizon: 99}).horizon(); got != 99 {
		t.Errorf("explicit horizon = %d", got)
	}
}

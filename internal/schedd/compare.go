package schedd

import (
	"fmt"

	"gangfm/internal/metrics"
	"gangfm/internal/sim"
)

// Showdown runs the Casanova–Stillwell–Vivien comparison on one churn
// trace: gang scheduling (the configured slot depth, real time slicing on
// the full parpar stack), batch (Slots=1, run-to-completion), and
// dynamic fractional sharing (analytic processor sharing). All three see
// the same arrivals, kills, resizes, and deadlines.
func Showdown(cfg Config) ([]*Result, error) { return showdown(cfg, nil) }

// showdown is Showdown with observe, when non-nil, called on each daemon
// before it runs.
func showdown(cfg Config, observe func(*Daemon)) ([]*Result, error) {
	gangd, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("schedd: gang: %w", err)
	}
	if observe != nil {
		observe(gangd)
	}
	if err := gangd.Run(); err != nil {
		return nil, err
	}
	batchCfg := cfg
	batchCfg.Slots = 1
	batchd, err := New(batchCfg)
	if err != nil {
		return nil, fmt.Errorf("schedd: batch: %w", err)
	}
	if observe != nil {
		observe(batchd)
	}
	if err := batchd.Run(); err != nil {
		return nil, err
	}
	return []*Result{
		gangd.Result("gang"),
		batchd.Result("batch"),
		Fractional(cfg),
	}, nil
}

// ms renders cycles as milliseconds on the default clock.
func ms(t float64) float64 {
	return sim.DefaultClock.ToDuration(sim.Time(t)).Seconds() * 1e3
}

// AvailabilityTable renders the failure-aware half of the showdown: per
// mode, the goodput (useful work over the node-cycles that survived the
// crashes), the requeue/gaveup activity, the mean time from crash-kill to
// re-placement, how much of the machine the dead nodes took with them,
// and the chaos auditor's verdict (viol, the violation count: the numbers
// of a row with violations are the protocol's, not the scheduler's).
// When any run armed repairs, three more columns report the repair side of
// the loop: nodes admitted back, the fraction of the would-be-lost
// node-cycles the repairs recovered, and the goodput after the first
// rejoin.
func AvailabilityTable(rs []*Result) *metrics.Table {
	withRepairs := false
	for _, r := range rs {
		if r.Repairs > 0 {
			withRepairs = true
			break
		}
	}
	cols := []string{
		"mode", "goodput", "done", "requeues", "rq_jobs", "gaveup", "cens",
		"mean_ttr_ms", "nodes_lost", "cap_lost", "viol",
	}
	if withRepairs {
		cols = append(cols, "nodes_rep", "cap_rep", "post_gp")
	}
	t := metrics.NewTable("Availability under node crashes", cols...)
	for _, r := range rs {
		row := []any{
			r.Mode, r.Goodput, r.Finished, r.Requeues, r.RequeuedJobs,
			r.GaveUp, r.Censored, ms(r.MeanRequeue), r.NodesLost, r.CapacityLost,
			r.Violations,
		}
		if withRepairs {
			row = append(row, r.NodesRepaired, r.CapacityRepaired, r.PostRepairGoodput)
		}
		t.AddRow(row...)
	}
	return t
}

// GridTable renders the per-mode comparison grid: job fates, backfill and
// migration activity, and the response/bounded-slowdown/utilization
// numbers the showdown is about.
func GridTable(rs []*Result) *metrics.Table {
	t := metrics.NewTable(
		"Gang vs batch vs fractional under churn",
		"mode", "jobs", "done", "kill", "evict", "resz", "cens", "dlmiss",
		"bfill", "migr", "mean_resp_ms", "mean_bsld", "max_bsld", "util",
	)
	for _, r := range rs {
		t.AddRow(
			r.Mode, r.Jobs, r.Finished, r.Killed, r.Evicted, r.Resized,
			r.Censored, r.DlMiss, r.Backfills, r.Migrations,
			ms(r.MeanResponse), r.MeanSlowdown, r.MaxSlowdown, r.Utilization,
		)
	}
	return t
}

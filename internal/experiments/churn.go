package experiments

import (
	"gangfm/internal/metrics"
	"gangfm/internal/schedd"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// Churn runs the online-scheduling showdown: one seeded churn trace —
// arrivals plus mid-run kill, resize, and deadline directives — served by
// the schedd daemon in gang and batch mode and by the analytic fractional
// model (the Casanova–Stillwell–Vivien comparison). The three runs share
// one trace, so the grid isolates the serving discipline.
func Churn(p Params) []*schedd.Result {
	gen := schedeval.DefaultGenConfig(8)
	gen.Seed = 11
	gen.Jobs = 28
	gen.KillFraction = 0.15
	gen.ResizeFraction = 0.15
	gen.DeadlineFraction = 0.25
	if p.Quick {
		gen.Jobs = 12
	}
	trace, err := schedeval.Generate(gen)
	if err != nil {
		panic(err)
	}
	cfg := schedd.DefaultConfig(8)
	cfg.Trace = trace
	cfg.Shards = p.Shards
	cfg.Workers = p.Workers
	rs, err := schedd.Showdown(cfg)
	if err != nil {
		panic(err)
	}
	return rs
}

// ChurnCrash reruns the churn showdown with fail-stop node crashes armed
// on top of the live kill/resize/deadline churn: the same seeded trace as
// Churn, plus seeded crashes that take nodes out mid-run for good. All
// three modes pay the failures — the gang and batch daemons through the
// chaos-driven eviction path (requeue with backoff under a retry budget,
// matrix columns shrunk), the fractional model analytically — so the
// availability grid isolates how each discipline degrades. The gang and
// batch daemons also run with the adaptive (EWMA-stretch) backfill
// estimator, which the crash recovery stresses: post-crash the machine is
// smaller and everything runs slower than the static estimate assumes.
func ChurnCrash(p Params) []*schedd.Result {
	gen := schedeval.DefaultGenConfig(8)
	gen.Seed = 11
	gen.Jobs = 28
	gen.KillFraction = 0.15
	gen.ResizeFraction = 0.15
	gen.DeadlineFraction = 0.25
	if p.Quick {
		gen.Jobs = 12
	}
	trace, err := schedeval.Generate(gen)
	if err != nil {
		panic(err)
	}
	var lastArrive sim.Time
	for _, tj := range trace {
		if tj.Arrive > lastArrive {
			lastArrive = tj.Arrive
		}
	}
	// Crashes land in [span/4, span) with span = the last arrival: well
	// inside the run, while the backlog still holds live jobs to kill and
	// requeue. The crash stream has its own seed — it is sampled
	// independently of the job trace, so the jobs here are exactly Churn's.
	crashes, err := schedeval.GenCrashes(7, gen.Nodes, 0.35, lastArrive)
	if err != nil {
		panic(err)
	}
	cfg := schedd.DefaultConfig(8)
	cfg.Trace = trace
	cfg.Crashes = crashes
	cfg.AdaptiveEstimate = true
	cfg.Shards = p.Shards
	cfg.Workers = p.Workers
	rs, err := schedd.Showdown(cfg)
	if err != nil {
		panic(err)
	}
	return rs
}

// ChurnRepair closes the failure loop ChurnCrash opened: the same seeded
// trace and the same seeded crashes, plus seeded repairs — most crashed
// nodes come back after a sampled MTTR as fresh incarnations and rejoin the
// gang at a rotation boundary. Arming repairs also arms the heartbeat (the
// masterd pings every node each quantum), so batch mode — whose single
// populated slot never broadcasts a switch and therefore never misses an
// ack — finally detects its dead nodes instead of running blind. The
// availability grid grows the repair columns: nodes readmitted, the
// fraction of lost node-cycles the repairs recovered, and the goodput after
// the first rejoin.
func ChurnRepair(p Params) []*schedd.Result {
	gen := schedeval.DefaultGenConfig(8)
	gen.Seed = 11
	gen.Jobs = 28
	gen.KillFraction = 0.15
	gen.ResizeFraction = 0.15
	gen.DeadlineFraction = 0.25
	if p.Quick {
		gen.Jobs = 12
	}
	trace, err := schedeval.Generate(gen)
	if err != nil {
		panic(err)
	}
	var lastArrive sim.Time
	for _, tj := range trace {
		if tj.Arrive > lastArrive {
			lastArrive = tj.Arrive
		}
	}
	crashes, err := schedeval.GenCrashes(7, gen.Nodes, 0.35, lastArrive)
	if err != nil {
		panic(err)
	}
	// Repairs ride their own seed on top of the crash stream (the same
	// crashes as ChurnCrash, so the two goldens differ only by the repair
	// loop): 3 in 4 crashed nodes come back, after half to one-and-a-half
	// times the quarter-span MTTR.
	repairs, err := schedeval.GenRepairs(13, crashes, 0.75, lastArrive/4)
	if err != nil {
		panic(err)
	}
	cfg := schedd.DefaultConfig(8)
	cfg.Trace = trace
	cfg.Crashes = crashes
	cfg.Repairs = repairs
	cfg.AdaptiveEstimate = true
	cfg.Shards = p.Shards
	cfg.Workers = p.Workers
	rs, err := schedd.Showdown(cfg)
	if err != nil {
		panic(err)
	}
	return rs
}

// ChurnGrid renders the per-mode response/slowdown/utilization grid.
func ChurnGrid(rs []*schedd.Result) *metrics.Table { return schedd.GridTable(rs) }

// ChurnStats renders the per-verb decision-log statistics.
func ChurnStats(rs []*schedd.Result) *metrics.Table { return schedd.StatsTable(rs) }

// ChurnAvailability renders the failure half of the crash showdown:
// goodput, requeue and gaveup activity, mean time-to-requeue, and the
// capacity the dead nodes took with them.
func ChurnAvailability(rs []*schedd.Result) *metrics.Table { return schedd.AvailabilityTable(rs) }

package experiments

import (
	"gangfm/internal/schedd"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// Churn runs the online-scheduling showdown: one seeded churn trace —
// arrivals plus mid-run kill, resize, and deadline directives — served by
// the schedd daemon in gang and batch mode and by the analytic fractional
// model (the Casanova–Stillwell–Vivien comparison). The three runs share
// one trace, so the grid isolates the serving discipline.
func Churn(p Params) []*schedd.Result { return churn(p, 0, 0) }

// ChurnCrash reruns the churn showdown with fail-stop node crashes armed
// on top of the live kill/resize/deadline churn: the same seeded trace as
// Churn, plus seeded crashes that take nodes out mid-run for good. All
// three modes pay the failures — the gang and batch daemons through the
// heartbeat-driven eviction path (requeue with backoff under a retry
// budget, matrix columns shrunk), the fractional model analytically — and
// both daemons detect their crashes the same way, so the availability grid
// isolates how each discipline degrades. The daemons also run with the
// adaptive (EWMA-stretch) backfill estimator, which the crash recovery
// stresses: post-crash the machine is smaller and everything runs slower
// than the static estimate assumes.
func ChurnCrash(p Params) []*schedd.Result { return churn(p, 0.35, 0) }

// ChurnRepair closes the failure loop ChurnCrash opened: the same seeded
// trace and the same seeded crashes, plus seeded repairs — most crashed
// nodes come back after a sampled MTTR as fresh incarnations and rejoin the
// gang at a rotation boundary. The availability grid grows the repair
// columns: nodes readmitted, the fraction of lost node-cycles the repairs
// recovered, and the goodput after the first rejoin.
func ChurnRepair(p Params) []*schedd.Result { return churn(p, 0.35, 0.75) }

// churn runs the showdown on the seeded 28-job churn trace (12 in quick
// mode). A positive crash rate samples fail-stop crashes at that per-node
// probability and turns on the adaptive backfill estimator; a positive
// repair rate then samples repairs of those crashes.
func churn(p Params, crash, repair float64) []*schedd.Result {
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
	cfg.Chaos = testChaos
	if crash > 0 {
		var lastArrive sim.Time
		for _, tj := range trace {
			if tj.Arrive > lastArrive {
				lastArrive = tj.Arrive
			}
		}
		// Crashes land in [span/4, span) with span = the last arrival: well
		// inside the run, while the backlog still holds live jobs to kill
		// and requeue. The crash stream has its own seed — it is sampled
		// independently of the job trace, so the jobs are exactly Churn's.
		if cfg.Crashes, err = schedeval.GenCrashes(7, gen.Nodes, crash, lastArrive); err != nil {
			panic(err)
		}
		// Repairs ride their own seed on top of the crash stream (the same
		// crashes as ChurnCrash, so the two differ only by the repair loop):
		// after half to one-and-a-half times the quarter-span MTTR.
		if repair > 0 {
			if cfg.Repairs, err = schedeval.GenRepairs(13, cfg.Crashes, repair, lastArrive/4); err != nil {
				panic(err)
			}
		}
		cfg.AdaptiveEstimate = true
	}
	rs, err := schedd.Showdown(cfg)
	if err != nil {
		panic(err)
	}
	return rs
}

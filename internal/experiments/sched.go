package experiments

import (
	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/metrics"
	"gangfm/internal/schedeval"
)

// Sched runs the trace-driven scheduler evaluation: one generated job
// stream replayed under every (packing policy, credit scheme) pair on an
// 8-node machine with a deep 8-row gang matrix — the regime where the
// partitioned scheme's C0 = Br/(n²p) credits collapse to 1 while the
// switched scheme keeps Br/p. Runs in the grid are independent clusters,
// so they parallelize like any other sweep.
func Sched(p Params) []*schedeval.Result {
	gen := schedeval.DefaultGenConfig(8)
	gen.Seed = 7
	gen.Jobs = 36
	if p.Quick {
		gen.Jobs = 12
	}
	trace, err := schedeval.Generate(gen)
	if err != nil {
		panic(err)
	}
	base := schedeval.DefaultConfig(8)
	base.Trace = trace

	schemes := []fm.Policy{fm.Partitioned, fm.Switched}
	packings := gang.Policies()
	results := make([]*schedeval.Result, len(packings)*len(schemes))
	forEach(p.parallel(), len(results), func(i int) {
		cfg := base
		cfg.Packing = packings[i/len(schemes)]
		cfg.Scheme = schemes[i%len(schemes)]
		r, err := schedeval.Run(cfg)
		if err != nil {
			panic(err)
		}
		results[i] = r
	})
	return results
}

// SchedTable renders the evaluation's summary table.
func SchedTable(rs []*schedeval.Result) *metrics.Table {
	return schedeval.SummaryTable(rs)
}

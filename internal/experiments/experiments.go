// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the bandwidth surfaces of Figures 5 and 6, the context
// switch stage timings of Figures 7 and 9, the buffer-occupancy counts of
// Figure 8, the §4.2 overhead summary, the §2.2/§3.3 credit formulas, and
// the two §5 ablations (switch schemes, dynamic coscheduling). Figures
// lists them, in order, as gangsim prints them.
//
// Absolute message counts and quanta are scaled down from the paper's
// (500,000-message, 3-second-quantum) runs so a full reproduction finishes
// in seconds of real time; EXPERIMENTS.md records the scaling and the
// paper-vs-measured comparison. Every run is a deterministic simulation,
// so repeated invocations produce identical numbers.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gangfm/internal/chaos"
	"gangfm/internal/metrics"
	"gangfm/internal/parpar"
)

// Figure is one table of the paper's evaluation.
type Figure struct {
	Name string // the gangsim subcommand, and the golden file's base name
	Desc string // one line for gangsim's usage and subcommand listing
	// Render runs the experiment and returns what `gangsim <Name>` prints:
	// the table, a blank line and any note line. Rendered with Quick set,
	// it is testdata/golden/<Name>.txt.
	Render func(Params) string
}

// Figures is the paper's evaluation in the order `gangsim all` prints it.
var Figures = []Figure{
	{"credits", "credit formulas C0 = Br/(n^2 p) vs Br/p (paper 2.2, 3.3)", func(Params) string {
		return render(CreditsTable(Credits()), "")
	}},
	{"fig5", "bandwidth vs msg size x #contexts, partitioned buffers", func(p Params) string {
		return render(Fig5Table(Fig5(p)), "(zero rows are the credit cliff: C0 = Br/(n^2 p) hits 0 at 7-8 contexts)")
	}},
	{"fig6", "total bandwidth vs msg size x #jobs, buffer switching", func(p Params) string {
		return render(Fig6Table(Fig6(p)), "(aggregate = mean per-job bandwidth x #jobs; flat rows are the paper's claim)")
	}},
	{"fig7", "switch stage times, full buffer copy, 2..16 nodes", func(p Params) string {
		return render(StageTable("Figure 7: buffer switch stage times, full copy [cycles of a 200 MHz P6]", Fig7(p)), "")
	}},
	{"fig8", "valid packets in the buffers at switch time, 2..16 nodes", func(p Params) string {
		return render(Fig8FromSweep(Fig9(p)), "")
	}},
	{"fig9", "switch stage times, improved (valid-only) copy, 2..16 nodes", func(p Params) string {
		return render(StageTable("Figure 9: buffer switch stage times, improved (valid-only) copy [cycles]", Fig9(p)), "")
	}},
	{"overhead", "single-switch cost vs the paper's 85 ms / 12.5 ms bounds", func(p Params) string {
		return render(OverheadTable(Overhead(p)), "")
	}},
	{"schemes", "ablation: paper scheme vs SHARE discard vs PM quiescence (5)", func(p Params) string {
		return render(SchemesTable(Schemes(p)), "")
	}},
	{"dyncos", "ablation: gang vs dynamic coscheduling responsiveness (5)", func(p Params) string {
		return render(ResponsivenessTable(Responsiveness(p)), "")
	}},
}

// render formats a table as gangsim prints it: the table, a blank line,
// then the note line if there is one.
func render(t *metrics.Table, note string) string {
	s := t.String() + "\n"
	if note != "" {
		s += note + "\n"
	}
	return s
}

// Params tunes an experiment run.
type Params struct {
	// Quick shrinks the sweep (fewer sizes, fewer node counts, fewer
	// messages) for smoke tests and -short benchmarks.
	Quick bool
	// Parallel bounds the number of concurrently simulated points;
	// 0 means one per available CPU (GOMAXPROCS). Each point owns an
	// independent engine, so sweeps are embarrassingly parallel, and
	// every table is byte-identical at any Parallel.
	Parallel int
}

func (p Params) parallel() int {
	if p.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Parallel
}

// forEach runs fn(i) for i in [0,n) on up to `parallel` goroutines. Work
// is claimed one index at a time off a shared atomic counter, so uneven
// point costs (the large-node-count, large-message corners of a sweep
// dominate) never leave a worker idle while another holds a backlog.
func forEach(parallel, n int, fn func(i int)) {
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// testChaos, set only by tests, installs a fault plan on every parpar
// cluster the figure sweeps build (Figures 5–9, overhead, schemes and the
// gang row of dyncos), which arms the recovery layer there: with an inert
// plan it must leave every figure byte-identical. The dynamic row of
// dyncos runs on a bare two-card engine with no cluster and no plan, so
// it is not covered. The churn showdown, which gangsim renders, gets the
// same check in schedd's TestRecoveryCleanChurn.
var testChaos *chaos.Plan

// runHorizon bounds the virtual runtime of a figure point that runs its
// jobs to completion (Figures 6–9 and the paper's scheme row). The longest
// such point, the full-size Figure 7/9 sweep at its largest node count,
// goes quiescent at 2.48 G cycles (12.4 virtual seconds); the horizon is
// almost five times that.
const runHorizon = 60 * 200_000_000 // 60 virtual seconds

// runJobs runs cluster to runHorizon and panics, naming the unfinished
// jobs and carrying the invariant auditor's summary, if any job is still
// live there: a wedged point would otherwise run forever.
func runJobs(cluster *parpar.Cluster) {
	if err := cluster.RunBounded(runHorizon); err != nil {
		panic("experiments: " + err.Error())
	}
}

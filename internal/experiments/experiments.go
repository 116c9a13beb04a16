// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the bandwidth surfaces of Figures 5 and 6, the context
// switch stage timings of Figures 7 and 9, the buffer-occupancy counts of
// Figure 8, the §4.2 overhead summary, and the §2.2/§3.3 credit formulas.
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
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

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

// mbs converts (bytes, cycles) to MB/s on the default clock.
func mbs(bytes uint64, elapsed sim.Time) float64 {
	secs := sim.DefaultClock.ToDuration(elapsed).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(bytes) / secs / 1e6
}

// testChaos, set only by tests, installs a fault plan on every cluster the
// experiments build, which arms the recovery layer there: with an inert
// plan it must leave every figure byte-identical.
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

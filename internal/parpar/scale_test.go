package parpar_test

import (
	"slices"
	"testing"

	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// pairsPoint builds and runs one large-machine point, the shape of the
// repository benchmark's scale_pairs256 workload at seed 1: nodes/2
// bandwidth pairs (msgs messages of 1,536 B each) in one slot with a
// 2,000-cycle switch latency, on shards × workers lanes (0 × 0 for the
// plain engine). It returns the cluster and its jobs, run to completion.
func pairsPoint(tb testing.TB, nodes, msgs, shards, workers int) (*parpar.Cluster, []*parpar.Job) {
	cfg := parpar.DefaultConfig(nodes)
	cfg.Slots = 1
	cfg.Quantum = 100_000_000
	ncfg := myrinet.DefaultConfig(nodes)
	ncfg.SwitchLatency = 2000
	cfg.NetConfig = &ncfg
	cfg.Shards, cfg.Workers = shards, workers
	cfg.Seed = 1
	c, err := parpar.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]*parpar.Job, nodes/2)
	for i := range jobs {
		if jobs[i], err = c.Submit(workload.Bandwidth("pair", msgs, 1536)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.RunBounded(parpar.TestHorizon); err != nil {
		tb.Fatal(err)
	}
	return c, jobs
}

// TestShardedPairsParallelAgrees runs the benchmark's small large-machine
// shape (32 nodes, 4 shards, 4 messages a pair) at 1, 2 and 4 workers.
// Its switch rounds fire enough events per window for the dispatch rule
// to hand some windows to helpers, unlike the figure workloads', so this
// is the test that runs the parallel path on the model's own code under
// the race detector. Every pair's result, the events fired and the window
// counts must not depend on the worker count; only 1 worker runs no
// parallel window.
func TestShardedPairsParallelAgrees(t *testing.T) {
	var refRes []workload.BandwidthResult
	var refStats sim.GroupStats
	for _, w := range []int{1, 2, 4} {
		c, jobs := pairsPoint(t, 32, 4, 4, w)
		res := make([]workload.BandwidthResult, len(jobs))
		for i, j := range jobs {
			var err error
			if res[i], err = workload.ExtractBandwidth(j); err != nil {
				t.Fatal(err)
			}
		}
		st := parpar.GroupStats(c)
		if w == 1 {
			if st.Parallel != 0 {
				t.Fatalf("workers=1: %d parallel windows, want 0", st.Parallel)
			}
			refRes, refStats = res, st
			continue
		}
		if st.Parallel == 0 {
			t.Fatalf("workers=%d: no parallel window (%+v)", w, st)
		}
		if !slices.Equal(res, refRes) {
			t.Fatalf("workers=%d: pair results differ from the 1-worker run", w)
		}
		st.Parallel = 0
		if st != refStats {
			t.Fatalf("workers=%d: stats %+v, 1-worker run %+v", w, st, refStats)
		}
	}
}

// BenchmarkShardedScale256 runs one scale_pairs256-shaped point per op
// (256 nodes, 24 messages a pair),
// set-up included, on the plain engine and on 16 shards with 1 and 2
// workers. It reports the events, windows and parallel windows (those
// handed to helper goroutines) per point, so the sharded engine's cost
// can be compared with the plain one's without the repository benchmark.
func BenchmarkShardedScale256(b *testing.B) {
	for _, tc := range []struct {
		name            string
		shards, workers int
	}{
		{"unsharded", 0, 0},
		{"16x1", 16, 1},
		{"16x2", 16, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var events uint64
			var st sim.GroupStats
			for i := 0; i < b.N; i++ {
				c, _ := pairsPoint(b, 256, 24, tc.shards, tc.workers)
				events, st = c.Fired(), parpar.GroupStats(c)
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(st.Windows), "windows/op")
			b.ReportMetric(float64(st.Parallel), "parallel/op")
		})
	}
}

package parpar

import (
	"runtime"
	"testing"

	"gangfm/internal/myrinet"
)

// pairsCluster builds the large-machine shape: one slot, nodes/2 two-rank
// jobs, 16 shards on 2 workers. The jobs' programs never run; only the
// set-up is measured.
func pairsCluster(tb testing.TB, nodes int) *Cluster {
	cfg := DefaultConfig(nodes)
	cfg.Slots = 1
	cfg.Quantum = 100_000_000
	ncfg := myrinet.DefaultConfig(nodes)
	ncfg.SwitchLatency = 2000
	cfg.NetConfig = &ncfg
	cfg.Shards, cfg.Workers = 16, 2
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	spec := JobSpec{
		Name: "pair",
		Size: 2,
		NewProgram: func(int) Program {
			return ProgramFunc(func(p *Proc) { p.Done(nil) })
		},
	}
	for i := 0; i < nodes/2; i++ {
		if _, err := c.Submit(spec); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// setupBytesPerNode returns the bytes New and the Submits allocate per
// node of a pairsCluster, the least of three builds.
func setupBytesPerNode(t *testing.T, nodes int) float64 {
	best := -1.0
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pairsCluster(t, nodes)
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes); best < 0 || b < best {
			best = b
		}
	}
	return best
}

// TestSetupLinearInNodes: building a cluster costs about the same bytes
// per node at 256 nodes as at 64. A per-node structure sized by the
// machine (a p-entry routing map on every node) makes the cost per node
// grow with p: it measured 1.96x from 64 to 256 nodes, against 1.21x
// with each node's dense membership view.
func TestSetupLinearInNodes(t *testing.T) {
	const bound = 1.5
	small, large := setupBytesPerNode(t, 64), setupBytesPerNode(t, 256)
	ratio := large / small
	t.Logf("%.0f B/node at 64 nodes, %.0f at 256: %.2fx", small, large, ratio)
	if ratio > bound {
		t.Fatalf("set-up allocates %.0f B/node at 256 nodes, %.0f at 64: %.2fx, want <= %.1fx",
			large, small, ratio, bound)
	}
}

// setupSink keeps each benchmarked cluster reachable, so the build cannot
// be optimized away.
var setupSink *Cluster

// BenchmarkClusterSetup256 builds the 256-node, 16-shard cluster with 128
// pair jobs; B/op is the whole set-up's allocation.
func BenchmarkClusterSetup256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setupSink = pairsCluster(b, 256)
	}
}

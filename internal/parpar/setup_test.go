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
// per node at 256 nodes as at 64, and little in absolute terms. A
// per-node structure sized by the machine (a p-entry routing map on every
// node) makes the cost per node grow with p: it measured 1.96x from 64 to
// 256 nodes, against 1.21x with each node's dense membership view. A
// structure sized by capacity rather than occupancy shows in the absolute
// bound: slot arrays for every queue slot of every context and a p-entry
// eviction latch on every node cost 15,646 B/node at 256 nodes, against
// 6,190 with rings that grow on demand and a sparse latch.
func TestSetupLinearInNodes(t *testing.T) {
	const (
		bound    = 1.5
		maxBytes = 8000 // per node at 256 nodes
	)
	small, large := setupBytesPerNode(t, 64), setupBytesPerNode(t, 256)
	ratio := large / small
	t.Logf("%.0f B/node at 64 nodes, %.0f at 256: %.2fx", small, large, ratio)
	if ratio > bound {
		t.Fatalf("set-up allocates %.0f B/node at 256 nodes, %.0f at 64: %.2fx, want <= %.1fx",
			large, small, ratio, bound)
	}
	if large > maxBytes {
		t.Fatalf("set-up allocates %.0f B/node at 256 nodes, want <= %d", large, maxBytes)
	}
}

// setupSink keeps each benchmarked cluster reachable, so the build cannot
// be optimized away.
var setupSink *Cluster

// benchmarkSetup builds the nodes-node, 16-shard cluster with nodes/2
// pair jobs; B/op is the whole set-up's allocation, and B/node the same
// per node.
func benchmarkSetup(b *testing.B, nodes int) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		setupSink = pairsCluster(b, nodes)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(nodes), "B/node")
}

// BenchmarkClusterSetup256 builds the 256-node cluster with 128 pair jobs.
func BenchmarkClusterSetup256(b *testing.B) { benchmarkSetup(b, 256) }

// BenchmarkClusterSetup512 builds the 512-node cluster with 256 pair jobs.
func BenchmarkClusterSetup512(b *testing.B) { benchmarkSetup(b, 512) }

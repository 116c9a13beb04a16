package parpar_test

import (
	"testing"

	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/workload"
)

// pairsPoint builds and runs one large-machine point, the shape of the
// repository benchmark's scale_pairs256 workload at seed 1: nodes/2
// bandwidth pairs (msgs messages of 1,536 B each) in one slot with a
// 2,000-cycle switch latency. It returns the cluster, run to completion.
func pairsPoint(tb testing.TB, nodes, msgs int) *parpar.Cluster {
	cfg := parpar.DefaultConfig(nodes)
	cfg.Slots = 1
	cfg.Quantum = 100_000_000
	ncfg := myrinet.DefaultConfig(nodes)
	ncfg.SwitchLatency = 2000
	cfg.NetConfig = &ncfg
	cfg.Seed = 1
	c, err := parpar.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < nodes/2; i++ {
		if _, err := c.Submit(workload.Bandwidth("pair", msgs, 1536)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.RunBounded(parpar.TestHorizon); err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkScale256 runs one scale_pairs256-shaped point per op (256
// nodes, 24 messages a pair), set-up included, and reports the events
// fired per point.
func BenchmarkScale256(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		events = pairsPoint(b, 256, 24).Fired()
	}
	b.ReportMetric(float64(events), "events/op")
}

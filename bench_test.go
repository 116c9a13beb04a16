package gangfm

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus micro-benchmarks of the underlying machinery.
// Each figure benchmark runs its sweep in Quick mode (use cmd/gangsim for
// the full sweeps) and reports the headline quantity as a custom metric,
// so `go test -bench=. -benchmem` doubles as a regression check on the
// reproduced results.

import (
	"runtime"
	"testing"

	"gangfm/internal/core"
	"gangfm/internal/experiments"
	"gangfm/internal/fm"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

func benchParams() experiments.Params {
	return experiments.Params{Quick: true, Parallel: runtime.NumCPU()}
}

// BenchmarkFig5 regenerates the partitioned-buffer bandwidth surface and
// reports the single-context 64 KB peak (paper Figure 5).
func BenchmarkFig5(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		points := experiments.Fig5(benchParams())
		for _, pt := range points {
			if pt.Contexts == 1 && pt.MBs > peak {
				peak = pt.MBs
			}
		}
	}
	b.ReportMetric(peak, "peak-MB/s")
}

// BenchmarkFig6 regenerates the buffer-switching aggregate-bandwidth
// surface and reports the worst-case sag of the 8-job aggregate relative
// to the single-job baseline (paper Figure 6: ~flat).
func BenchmarkFig6(b *testing.B) {
	var sag float64 = 1
	for i := 0; i < b.N; i++ {
		points := experiments.Fig6(benchParams())
		base := map[int]float64{}
		for _, pt := range points {
			if pt.Jobs == 1 {
				base[pt.MsgSize] = pt.AggregateMBs
			}
		}
		for _, pt := range points {
			if pt.Jobs == 8 && base[pt.MsgSize] > 0 {
				if r := pt.AggregateMBs / base[pt.MsgSize]; r < sag {
					sag = r
				}
			}
		}
	}
	b.ReportMetric(sag, "8job/1job-ratio")
}

// BenchmarkFig7 regenerates the full-copy switch-stage sweep and reports
// the 16-node buffer-switch stage cost in cycles (paper Figure 7: ~14M,
// node-count independent).
func BenchmarkFig7(b *testing.B) {
	var copyCycles float64
	for i := 0; i < b.N; i++ {
		points := experiments.Fig7(benchParams())
		copyCycles = points[len(points)-1].CopyCycles
	}
	b.ReportMetric(copyCycles, "copy-cycles")
}

// BenchmarkFig8 regenerates the buffer-occupancy sweep and reports the
// 16-node mean receive-buffer occupancy at switch time (paper Figure 8:
// grows with node count).
func BenchmarkFig8(b *testing.B) {
	var occ float64
	for i := 0; i < b.N; i++ {
		points := experiments.Fig9(benchParams())
		occ = points[len(points)-1].ValidRecv
	}
	b.ReportMetric(occ, "recv-packets")
}

// BenchmarkFig9 regenerates the improved-copy switch-stage sweep and
// reports the 16-node buffer-switch stage cost (paper Figure 9: <2.5M
// cycles, linear in the valid packet count).
func BenchmarkFig9(b *testing.B) {
	var copyCycles float64
	for i := 0; i < b.N; i++ {
		points := experiments.Fig9(benchParams())
		copyCycles = points[len(points)-1].CopyCycles
	}
	b.ReportMetric(copyCycles, "copy-cycles")
}

// BenchmarkOverhead reproduces the §4.2 overhead summary and reports the
// improved buffer switch as a percentage of a 1-second quantum (paper:
// <1.25%).
func BenchmarkOverhead(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		rep := experiments.Overhead(benchParams())
		pct = experiments.PercentOfQuantum(rep.Improved.CopyCycles)
	}
	b.ReportMetric(pct, "%quantum")
}

// BenchmarkCreditsTable regenerates the §2.2/§3.3 credit comparison.
func BenchmarkCreditsTable(b *testing.B) {
	var c0 int
	for i := 0; i < b.N; i++ {
		rows := experiments.Credits()
		c0 = rows[0].SwitchedC0
	}
	b.ReportMetric(float64(c0), "C0-switched")
}

// --- micro-benchmarks of the machinery -------------------------------------

// BenchmarkBandwidthPoint measures the cost of simulating one bandwidth
// benchmark end to end (cluster build, Fig 2 launch, 500 x 16 KB, teardown)
// and reports the virtual bandwidth it produced.
func BenchmarkBandwidthPoint(b *testing.B) {
	b.ReportAllocs()
	var mbs float64
	for i := 0; i < b.N; i++ {
		cluster, err := NewCluster(DefaultClusterConfig(2))
		if err != nil {
			b.Fatal(err)
		}
		job, err := cluster.Submit(Bandwidth("bench", 500, 16384))
		if err != nil {
			b.Fatal(err)
		}
		cluster.Run()
		res, err := ExtractBandwidth(job)
		if err != nil {
			b.Fatal(err)
		}
		mbs = res.MBs(Clock())
	}
	b.ReportMetric(mbs, "virtual-MB/s")
}

// BenchmarkSwitchFullCopy measures one three-stage switch with the full
// buffer copy on a 16-node cluster (virtual cost ~16M cycles).
func BenchmarkSwitchFullCopy(b *testing.B) { benchSwitch(b, core.FullCopy) }

// BenchmarkSwitchValidOnly measures one three-stage switch with the
// improved copy.
func BenchmarkSwitchValidOnly(b *testing.B) { benchSwitch(b, core.ValidOnly) }

func benchSwitch(b *testing.B, mode core.CopyMode) {
	b.ReportAllocs()
	cfg := parpar.DefaultConfig(16)
	cfg.Mode = mode
	cfg.Slots = 2
	cfg.Quantum = 4_000_000
	var total sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster, err := parpar.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cluster.Submit(workload.AllToAll("a", 16, 40, 1536))
		cluster.Submit(workload.AllToAll("b", 16, 40, 1536))
		b.StartTimer()
		cluster.Run()
		b.StopTimer()
		var sum sim.Time
		n := 0
		for _, hist := range cluster.SwitchHistory() {
			for _, s := range hist {
				if s.From >= 0 && s.To >= 0 { // steady-state switches only
					sum += s.Halt + s.Copy + s.Release
					n++
				}
			}
		}
		if n > 0 {
			total = sum / sim.Time(n)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(total), "virtual-cycles/switch")
}

// BenchmarkEngineThroughput measures raw simulator event throughput. The
// hot path is allocation-free (see internal/sim): allocs/op must stay 0.
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			eng.Schedule(1, step)
		}
	}
	b.ResetTimer()
	eng.Schedule(1, step)
	eng.Run()
}

// BenchmarkEngineHeap64 measures event throughput with 64 events pending,
// about a busy cluster's queue depth (BenchmarkEngineThroughput keeps one),
// with delays of 1..101 cycles: all within the engine's near ring.
func BenchmarkEngineHeap64(b *testing.B) { benchEngine64(b, 37, 101) }

// BenchmarkEngineWide is BenchmarkEngineHeap64 with delays from 1 to
// about 65,000 cycles: four times the 16,384 cycles the engine's near ring
// covers, so most reschedules queue in the far heap and migrate into the
// ring as time advances.
func BenchmarkEngineWide(b *testing.B) { benchEngine64(b, 40503, 65521) }

// benchEngine64 keeps 64 events pending. Event i first waits
// 1+(i*mult)%mod cycles; each firing reschedules its event with the next
// delay of that fixed spread, so the order keeps shuffling. allocs/op must
// stay 0.
func benchEngine64(b *testing.B, mult, mod int) {
	const pending = 64
	b.ReportAllocs()
	eng := sim.NewEngine()
	var delays [pending]sim.Time
	for i := range delays {
		delays[i] = sim.Time(1 + i*mult%mod)
	}
	var ids [pending]int
	n := 0
	var fire func(any)
	fire = func(a any) {
		n++
		if n+pending <= b.N {
			id := a.(*int)
			eng.ScheduleArg(delays[(*id+n)%pending], fire, id)
		}
	}
	b.ResetTimer()
	for i := range min(pending, b.N) {
		ids[i] = i
		eng.ScheduleArg(delays[i], fire, &ids[i])
	}
	eng.Run()
}

// BenchmarkAllocate measures the credit-policy computation.
func BenchmarkAllocate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fm.Allocate(fm.Partitioned, 252, 668, 1+i%8, 16); err != nil && i%8 < 6 {
			b.Fatal(err)
		}
	}
}

// BenchmarkPingPongLatency reports the simulated 64-byte round-trip time.
func BenchmarkPingPongLatency(b *testing.B) {
	var rtt sim.Time
	for i := 0; i < b.N; i++ {
		cluster, err := NewCluster(DefaultClusterConfig(2))
		if err != nil {
			b.Fatal(err)
		}
		job, err := cluster.Submit(PingPong("bench", 200, 64))
		if err != nil {
			b.Fatal(err)
		}
		cluster.Run()
		rtt = job.Results[0].(PingPongResult).RoundTrip()
	}
	b.ReportMetric(float64(rtt), "virtual-cycles/rt")
}

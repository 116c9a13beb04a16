package experiments

import (
	"gangfm/internal/core"
	"gangfm/internal/metrics"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/workload"
)

// SwitchPoint aggregates the per-stage context-switch costs and buffer
// occupancies observed at one cluster size — one x-position of Figures 7,
// 8 and 9.
type SwitchPoint struct {
	Nodes int
	// Stage means, in cycles (Figures 7 and 9).
	HaltCycles    float64
	CopyCycles    float64
	ReleaseCycles float64
	// Mean valid packets found in the outgoing queues (Figure 8).
	ValidSend float64
	ValidRecv float64
	// Switches is the number of real (non-idle) switches sampled.
	Switches int
}

// Total returns the mean end-to-end switch cost in cycles.
func (s SwitchPoint) Total() float64 { return s.HaltCycles + s.CopyCycles + s.ReleaseCycles }

func sweepNodes(quick bool) []int {
	if quick {
		return []int{2, 8, 16}
	}
	return []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
}

// SwitchSweep measures switch-stage costs under an all-to-all stress load
// (paper §4.2): two identical all-to-all jobs alternate in two time slots
// while every switch's stage durations and queue occupancies are recorded.
// mode selects the full (Figure 7) or improved (Figure 9) copy algorithm;
// Figure 8's occupancy counts come from the same runs.
func SwitchSweep(p Params, mode core.CopyMode) []SwitchPoint {
	nodes := sweepNodes(p.Quick)
	points := make([]SwitchPoint, len(nodes))
	forEach(p.parallel(), len(nodes), func(i int) {
		points[i] = switchPoint(nodes[i], mode, p.Quick)
	})
	return points
}

func switchPoint(nodes int, mode core.CopyMode, quick bool) SwitchPoint {
	cfg := parpar.DefaultConfig(nodes)
	cfg.Slots = 2
	cfg.Mode = mode
	// 50 ms quantum, scaled from the paper's 1 s; each job's all-to-all
	// work is sized to span several quanta so the sampled switches are
	// mid-stream (buffers loaded), not start/finish artifacts.
	cfg.Quantum = 10_000_000
	cfg.ForkDelay = 100_000
	perPeer := clamp(10_000/(nodes-1), 80, 10_000)
	if quick {
		perPeer = clamp(perPeer/4, 40, 2500)
		cfg.Quantum = 2_500_000
	}
	cfg.Chaos = testChaos
	cluster, err := parpar.New(cfg)
	if err != nil {
		panic(err)
	}
	jobs := make([]*parpar.Job, 2)
	for i := range jobs {
		if jobs[i], err = cluster.Submit(workload.AllToAll("a2a", nodes, perPeer, 1536)); err != nil {
			panic(err)
		}
	}
	runJobs(cluster)

	pt := SwitchPoint{Nodes: nodes}
	var halt, cp, rel, vs, vr []float64
	for _, hist := range cluster.SwitchHistory() {
		for _, s := range hist {
			// Only steady-state switches between the two jobs count;
			// activation switches (From == NoJob) see empty buffers.
			if s.To == myrinet.NoJob || s.From == myrinet.NoJob {
				continue
			}
			halt = append(halt, float64(s.Halt))
			cp = append(cp, float64(s.Copy))
			rel = append(rel, float64(s.Release))
			vs = append(vs, float64(s.ValidSend))
			vr = append(vr, float64(s.ValidRecv))
		}
	}
	pt.Switches = len(halt)
	pt.HaltCycles = metrics.Mean(halt)
	pt.CopyCycles = metrics.Mean(cp)
	pt.ReleaseCycles = metrics.Mean(rel)
	pt.ValidSend = metrics.Mean(vs)
	pt.ValidRecv = metrics.Mean(vr)
	return pt
}

// Fig7 measures the full-copy switch stages (paper Figure 7).
func Fig7(p Params) []SwitchPoint { return SwitchSweep(p, core.FullCopy) }

// Fig9 measures the improved (valid-only) switch stages (paper Figure 9).
func Fig9(p Params) []SwitchPoint { return SwitchSweep(p, core.ValidOnly) }

// Fig8FromSweep extracts the Figure 8 view (valid packets at switch time)
// from a sweep's points.
func Fig8FromSweep(points []SwitchPoint) *metrics.Table {
	t := metrics.NewTable(
		"Figure 8: valid packets in the buffers during buffer switching",
		"nodes", "recv buffer", "send buffer", "switches sampled")
	for _, pt := range points {
		t.AddRow(pt.Nodes, pt.ValidRecv, pt.ValidSend, pt.Switches)
	}
	return t
}

// StageTable renders a sweep as the stacked-stage table of Figures 7/9.
func StageTable(title string, points []SwitchPoint) *metrics.Table {
	t := metrics.NewTable(title,
		"nodes", "halt [cyc]", "buffer switch [cyc]", "release [cyc]", "total [cyc]", "switches")
	for _, pt := range points {
		t.AddRow(pt.Nodes, pt.HaltCycles, pt.CopyCycles, pt.ReleaseCycles, pt.Total(), pt.Switches)
	}
	return t
}

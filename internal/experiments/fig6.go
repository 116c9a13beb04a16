package experiments

import (
	"gangfm/internal/core"
	"gangfm/internal/metrics"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// Fig6Point is one cell of the Figure 6 surface: total system bandwidth
// under the buffer-switching scheme, as a function of message size and the
// number of gang-scheduled jobs.
type Fig6Point struct {
	Jobs    int
	MsgSize int
	// PerJobMBs is the mean bandwidth each application measured over its
	// own wall time (including descheduled periods).
	PerJobMBs float64
	// AggregateMBs is PerJobMBs multiplied by the number of applications
	// — the paper's methodology for total system bandwidth.
	AggregateMBs float64
	Switches     int
}

// fig6Sizes approximates the paper's axis (96 B .. 96 KB).
func fig6Sizes(quick bool) []int {
	if quick {
		return []int{384, 6144, 98304}
	}
	return []int{96, 384, 1536, 6144, 24576, 98304}
}

func fig6JobCounts(quick bool) []int {
	if quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8}
}

// fig6Quantum is the gang-scheduling quantum for the Figure 6 runs. The
// paper used 3 s; we scale to 20 ms so eight-job sweeps stay fast, and
// scale the daemon jitter down with it so switch overhead remains a
// comparable (small) fraction of the quantum.
const fig6Quantum = 4_000_000

// estMsgCycles estimates the sender-side cost of one message, which is the
// bandwidth bottleneck: per fragment, the FM_send overhead plus the
// write-combined copy into the card (~2.5 cycles/byte).
func estMsgCycles(size int) int {
	frags := (size + 1535) / 1536
	cycles := 0
	rem := size
	for i := 0; i < frags; i++ {
		frag := rem
		if frag > 1536 {
			frag = 1536
		}
		rem -= frag
		cycles += 300 + 200 + (frag+24)*5/2
	}
	return cycles
}

// fig6Messages sizes each job so its active sending time spans ~10 quanta:
// the paper's aggregate-bandwidth methodology (per-job bandwidth over wall
// time × #jobs) is only meaningful when every job's run covers many full
// rotations.
func fig6Messages(size int, quick bool) int {
	target := 10 * fig6Quantum
	if quick {
		target = 3 * fig6Quantum
	}
	return clamp(target/estMsgCycles(size), 100, 60_000)
}

// Fig6 measures the buffer-switching bandwidth surface: k identical
// 2-process benchmark jobs stacked in k time slots of a 2-node ParPar
// (stacking forces the alternation the paper measures; on the full
// machine the DHC packer would spread small jobs across disjoint columns
// instead of time-slicing them).
func Fig6(p Params) []Fig6Point {
	sizes := fig6Sizes(p.Quick)
	jobCounts := fig6JobCounts(p.Quick)
	points := make([]Fig6Point, len(sizes)*len(jobCounts))
	forEach(p.parallel(), len(points), func(i int) {
		k := jobCounts[i/len(sizes)]
		size := sizes[i%len(sizes)]
		points[i] = fig6Point(k, size, p)
	})
	return points
}

func fig6Point(k, size int, p Params) Fig6Point {
	cfg := parpar.DefaultConfig(2)
	cfg.Slots = 8
	cfg.Mode = core.ValidOnly
	cfg.Quantum = fig6Quantum
	cfg.CtrlJitter = 40_000
	cfg.ForkDelay = 100_000
	cfg.Chaos = testChaos
	cluster, err := parpar.New(cfg)
	if err != nil {
		panic(err)
	}
	msgs := fig6Messages(size, p.Quick)
	jobs := make([]*parpar.Job, k)
	for i := range jobs {
		jobs[i], err = cluster.Submit(workload.Bandwidth("fig6", msgs, size))
		if err != nil {
			panic(err)
		}
	}
	runJobs(cluster)

	var per []float64
	for _, job := range jobs {
		res, err := workload.ExtractBandwidth(job)
		if err != nil {
			panic(err)
		}
		per = append(per, res.MBs(sim.DefaultClock))
	}
	switches := 0
	for _, hist := range cluster.SwitchHistory() {
		switches += len(hist)
	}
	mean := metrics.Mean(per)
	return Fig6Point{
		Jobs: k, MsgSize: size,
		PerJobMBs:    mean,
		AggregateMBs: mean * float64(k),
		Switches:     switches,
	}
}

// Fig6Table renders the points as a size × jobs aggregate-bandwidth matrix.
func Fig6Table(points []Fig6Point) *metrics.Table {
	cells := make([]surfaceCell, len(points))
	for i, pt := range points {
		cells[i] = surfaceCell{x: pt.Jobs, y: pt.MsgSize, v: pt.AggregateMBs}
	}
	return surfaceTable(
		"Figure 6: total bandwidth [MB/s] vs message size and #jobs (buffer switching)",
		"msg size \\ jobs",
		cells,
	)
}

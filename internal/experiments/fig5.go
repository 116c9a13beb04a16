package experiments

import (
	"strconv"

	"gangfm/internal/fm"
	"gangfm/internal/metrics"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// Fig5Point is one cell of the Figure 5 surface: point-to-point bandwidth
// under the original FM buffer division, as a function of message size and
// the number of contexts the buffers are divided among.
type Fig5Point struct {
	Contexts int
	MsgSize  int
	MBs      float64
	// Completed is false when the transfer wedged (zero credits): the
	// paper's "no communication is even possible" regime.
	Completed bool
	// C0 is the per-peer credit count the partitioned policy produced.
	C0 int
}

// fig5Sizes approximates the paper's message-size axis (64 B .. 64 KB).
func fig5Sizes(quick bool) []int {
	if quick {
		return []int{256, 4096, 65536}
	}
	return []int{64, 256, 1024, 4096, 16384, 65536}
}

func fig5Contexts(quick bool) []int {
	if quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8}
}

// fig5Messages picks the message count for a size: enough volume for a
// stable measurement, bounded to keep the sweep fast (the paper used
// 500,000 for small and 100,000 for large messages).
func fig5Messages(size int, quick bool) int {
	n := clamp(16_000_000/size, 500, 8000)
	if quick {
		n = clamp(n/8, 100, 1000)
	}
	return n
}

// fig5Deadline bounds each point's virtual runtime; a transfer that has
// not finished by then is reported as wedged. Slow-but-alive points (one
// credit, stop-and-wait) complete well inside it.
const fig5Deadline = 10 * 200_000_000 // 10 virtual seconds

// Fig5 measures the partitioned-buffer bandwidth surface: a 16-node
// ParPar with the original FM buffer division, the slot-table depth set to
// the context count (paper §4.1), one 2-process benchmark job, and no
// context switching.
func Fig5(p Params) []Fig5Point {
	sizes := fig5Sizes(p.Quick)
	contexts := fig5Contexts(p.Quick)
	points := make([]Fig5Point, len(sizes)*len(contexts))
	forEach(p.parallel(), len(points), func(i int) {
		n := contexts[i/len(sizes)]
		size := sizes[i%len(sizes)]
		points[i] = fig5Point(n, size, p)
	})
	return points
}

func fig5Point(nContexts, size int, p Params) Fig5Point {
	cfg := parpar.DefaultConfig(16)
	cfg.Policy = fm.Partitioned
	cfg.Slots = nContexts
	cfg.Quantum = 40_000_000 // irrelevant: a single job never rotates
	cfg.CtrlJitter = 50_000
	cfg.ForkDelay = 100_000
	cfg.Chaos = testChaos
	cluster, err := parpar.New(cfg)
	if err != nil {
		panic(err)
	}
	alloc, aerr := fm.Allocate(fm.Partitioned, 252, 668, nContexts, 16)
	c0 := 0
	if aerr == nil {
		c0 = alloc.C0
	}
	msgs := fig5Messages(size, p.Quick)
	job, err := cluster.Submit(workload.Bandwidth("fig5", msgs, size))
	if err != nil {
		panic(err)
	}
	cluster.RunUntil(fig5Deadline)
	pt := Fig5Point{Contexts: nContexts, MsgSize: size, C0: c0}
	res, err := workload.ExtractBandwidth(job)
	if err != nil {
		return pt // wedged: MBs stays 0
	}
	pt.Completed = true
	pt.MBs = res.MBs(sim.DefaultClock)
	return pt
}

// Fig5Table renders the points as a size × contexts bandwidth matrix.
func Fig5Table(points []Fig5Point) *metrics.Table {
	return surfaceTable(
		"Figure 5: bandwidth [MB/s] vs message size and #contexts (original FM buffer division)",
		"msg size \\ contexts",
		fig5Key(points),
	)
}

// surface rendering shared with Figure 6 ------------------------------------

type surfaceCell struct {
	x, y int // y = msg size, x = contexts/jobs
	v    float64
}

func fig5Key(points []Fig5Point) []surfaceCell {
	cells := make([]surfaceCell, len(points))
	for i, pt := range points {
		cells[i] = surfaceCell{x: pt.Contexts, y: pt.MsgSize, v: pt.MBs}
	}
	return cells
}

func surfaceTable(title, corner string, cells []surfaceCell) *metrics.Table {
	xs, ys := axisValues(cells)
	headers := make([]string, 0, len(xs)+1)
	headers = append(headers, corner)
	for _, x := range xs {
		headers = append(headers, itoa(x))
	}
	t := metrics.NewTable(title, headers...)
	byKey := make(map[[2]int]float64, len(cells))
	for _, c := range cells {
		byKey[[2]int{c.x, c.y}] = c.v
	}
	for _, y := range ys {
		row := make([]any, 0, len(xs)+1)
		row = append(row, itoa(y))
		for _, x := range xs {
			row = append(row, byKey[[2]int{x, y}])
		}
		t.AddRow(row...)
	}
	return t
}

func axisValues(cells []surfaceCell) (xs, ys []int) {
	seenX := map[int]bool{}
	seenY := map[int]bool{}
	for _, c := range cells {
		if !seenX[c.x] {
			seenX[c.x] = true
			xs = insertSorted(xs, c.x)
		}
		if !seenY[c.y] {
			seenY[c.y] = true
			ys = insertSorted(ys, c.y)
		}
	}
	return xs, ys
}

func insertSorted(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// itoa formats axis labels, abbreviating whole kilobytes as in the
// paper's axes (1024 -> "1K").
func itoa(v int) string {
	if v >= 1024 && v%1024 == 0 {
		return strconv.Itoa(v/1024) + "K"
	}
	return strconv.Itoa(v)
}

package experiments

import (
	"gangfm/internal/altsched"
	"gangfm/internal/memmodel"
	"gangfm/internal/metrics"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// ResponsivenessRow compares request/reply latency for sparse interactive
// traffic under gang scheduling versus dynamic coscheduling (paper §5:
// Sobalvarro et al.). Gang scheduling co-schedules communicating peers —
// ideal for bulk synchronized traffic — but an interactive request issued
// while the job is descheduled waits for its next quantum; dynamic
// coscheduling wakes the destination in ~dispatch time.
type ResponsivenessRow struct {
	Scheme        string
	Requests      int
	MeanRTTCycles float64
	MaxRTTCycles  float64
}

// Responsiveness measures both schemes on the same sparse request/reply
// pattern (one request every ~37 ms against a 20 ms quantum).
func Responsiveness(p Params) []ResponsivenessRow {
	rows := make([]ResponsivenessRow, 2)
	forEach(p.parallel(), 2, func(i int) {
		if i == 0 {
			rows[0] = gangResponsiveness(p)
		} else {
			rows[1] = dyncosResponsiveness(p)
		}
	})
	return rows
}

func respRequests(p Params) int {
	if p.Quick {
		return 8
	}
	return 30
}

const respInterval = 7_400_000 // 37 ms: deliberately off-phase with the quantum

func gangResponsiveness(p Params) ResponsivenessRow {
	cfg := parpar.DefaultConfig(2)
	cfg.Slots = 2
	cfg.Quantum = 4_000_000 // 20 ms
	cfg.CtrlJitter = 40_000
	cfg.ForkDelay = 50_000
	cfg.Chaos = testChaos
	cluster, err := parpar.New(cfg)
	if err != nil {
		panic(err)
	}
	requests := respRequests(p)
	var rtts []float64

	// The interactive job: rank 0 issues a request every respInterval
	// (the issue event fires regardless of scheduling; the send waits in
	// the library until the process runs); rank 1 echoes.
	spec := parpar.JobSpec{
		Name: "interactive",
		Size: 2,
		NewProgram: func(rank int) parpar.Program {
			return parpar.ProgramFunc(func(pr *parpar.Proc) {
				if rank == 1 {
					pr.EP.SetHandler(func(_, _ int, _ []byte) { pr.EP.Send(0, 64, nil) })
					// The echo server retires with the cluster run.
					pr.Done(nil)
					return
				}
				issued := sim.Time(0)
				got := 0
				pr.EP.SetHandler(func(_, _ int, _ []byte) {
					rtts = append(rtts, float64(pr.Now()-issued))
					got++
					if got == requests {
						pr.Done(got)
					}
				})
				var tick func()
				n := 0
				tick = func() {
					if n >= requests {
						return
					}
					n++
					issued = pr.Now()
					pr.EP.Send(1, 64, nil)
					pr.Schedule(respInterval, tick)
				}
				tick()
			})
		},
	}
	if _, err := cluster.Submit(spec); err != nil {
		panic(err)
	}
	// The competing slot: a long-running compute job forcing rotation.
	computeSpec := workload.Compute("rival", 2, sim.Time(requests+4)*respInterval)
	if _, err := cluster.Submit(computeSpec); err != nil {
		panic(err)
	}
	cluster.RunUntil(sim.Time(requests+8) * respInterval * 2)
	return ResponsivenessRow{
		Scheme:        "gang scheduling (20 ms quantum)",
		Requests:      len(rtts),
		MeanRTTCycles: metrics.Mean(rtts),
		MaxRTTCycles:  metrics.Max(rtts),
	}
}

func dyncosResponsiveness(p Params) ResponsivenessRow {
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(2))
	mem := memmodel.Default()
	cfg := altsched.DefaultDynCosConfig()
	a, err := altsched.NewDynCosNode(eng, net, mem, 0, 0, cfg)
	if err != nil {
		panic(err)
	}
	b, err := altsched.NewDynCosNode(eng, net, mem, 1, 1, cfg)
	if err != nil {
		panic(err)
	}
	requests := respRequests(p)
	var rtts []float64
	var issued sim.Time
	b.EP.Channel(0).SetOnDeliver(func(uint64) { b.EP.Channel(0).Send(1) })
	n := 0
	var tick func()
	a.EP.Channel(1).SetOnDeliver(func(uint64) {
		rtts = append(rtts, float64(eng.Now()-issued))
	})
	tick = func() {
		if n >= requests {
			return
		}
		n++
		issued = eng.Now()
		a.Wake()
		a.EP.Channel(1).Send(1)
		eng.Schedule(respInterval, tick)
	}
	tick()
	eng.RunUntil(sim.Time(requests+8) * respInterval * 2)
	return ResponsivenessRow{
		Scheme:        "dynamic coscheduling (100 us dispatch)",
		Requests:      len(rtts),
		MeanRTTCycles: metrics.Mean(rtts),
		MaxRTTCycles:  metrics.Max(rtts),
	}
}

// ResponsivenessTable renders the comparison.
func ResponsivenessTable(rows []ResponsivenessRow) *metrics.Table {
	t := metrics.NewTable(
		"Sparse request/reply responsiveness: gang scheduling vs dynamic coscheduling (paper §5)",
		"scheme", "requests", "mean RTT [ms]", "max RTT [ms]")
	for _, r := range rows {
		t.AddRow(r.Scheme, r.Requests, MsOf(r.MeanRTTCycles), MsOf(r.MaxRTTCycles))
	}
	return t
}

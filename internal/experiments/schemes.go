package experiments

import (
	"gangfm/internal/altsched"
	"gangfm/internal/core"
	"gangfm/internal/metrics"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/workload"
)

// SchemeRow compares one scheduling/communication coordination scheme
// (paper §5 related work) on the same two-job, two-node rotation workload.
type SchemeRow struct {
	Name string
	// CoordCycles is the mean per-switch coordination cost: the network
	// flush + release protocol for the paper's scheme, zero for
	// SHARE-style discard, the quiescence wait for PM-style.
	CoordCycles float64
	// CopyCycles is the mean buffer-switch cost (identical cost model
	// for all schemes).
	CopyCycles float64
	Switches   int
	// Discards counts packets the card dropped because their process was
	// not scheduled (only possible without a flush).
	Discards uint64
	// Retransmissions counts recovery traffic (zero for the paper's
	// scheme: the flush guarantees no loss, so FM needs no retries).
	Retransmissions uint64
	// Efficiency is delivered / transmitted packets.
	Efficiency float64
}

// Schemes runs the three coordination schemes over comparable rotating
// two-job workloads and tabulates switch cost vs recovery cost: the
// paper's flush trades a small coordination protocol for zero discards
// and zero retransmissions.
func Schemes(p Params) []SchemeRow {
	rows := make([]SchemeRow, 3)
	forEach(p.parallel(), 3, func(i int) {
		switch i {
		case 0:
			rows[0] = paperSchemeRow(p)
		case 1:
			rows[1] = altSchemeRow(p, altsched.ShareDiscard)
		case 2:
			rows[2] = altSchemeRow(p, altsched.PMQuiescence)
		}
	})
	return rows
}

func paperSchemeRow(p Params) SchemeRow {
	cfg := parpar.DefaultConfig(2)
	cfg.Slots = 2
	cfg.Mode = core.ValidOnly
	cfg.Quantum = 2_000_000
	cfg.UseFastCtrlNet()
	cluster, err := parpar.New(cfg)
	if err != nil {
		panic(err)
	}
	msgs := 6000
	if p.Quick {
		msgs = 2500
	}
	for i := 0; i < 2; i++ {
		if _, err := cluster.Submit(workload.Bandwidth("sch", msgs, myrinet.MaxPayload)); err != nil {
			panic(err)
		}
	}
	cluster.Run()

	row := SchemeRow{Name: "gang + flush + switch (paper)", Efficiency: 1}
	var coord, copies float64
	for _, hist := range cluster.SwitchHistory() {
		for _, s := range hist {
			if s.From == myrinet.NoJob || s.To == myrinet.NoJob {
				continue
			}
			row.Switches++
			coord += float64(s.Halt + s.Release)
			copies += float64(s.Copy)
		}
	}
	if row.Switches > 0 {
		row.CoordCycles = coord / float64(row.Switches)
		row.CopyCycles = copies / float64(row.Switches)
	}
	return row
}

func altSchemeRow(p Params, scheme altsched.Scheme) SchemeRow {
	cfg := altsched.DefaultClusterConfig(2)
	cfg.Scheme = scheme
	cfg.Quantum = 2_000_000
	cluster, err := altsched.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	cluster.Start()
	msgs := 6000
	if p.Quick {
		msgs = 2500
	}
	for j := 1; j <= 2; j++ {
		cluster.Endpoints(myrinet.JobID(j))[0].Channel(1).Send(msgs)
	}
	dur := 30 * cfg.Quantum
	if p.Quick {
		dur = 15 * cfg.Quantum
	}
	cluster.RunFor(dur)
	rep := cluster.Collect()
	name := "discard + retransmit (SHARE)"
	if scheme == altsched.PMQuiescence {
		name = "quiescence flush (PM/SCore)"
	}
	return SchemeRow{
		Name:            name,
		CoordCycles:     rep.MeanWait,
		CopyCycles:      rep.MeanCopy,
		Switches:        rep.Switches,
		Discards:        rep.Discards,
		Retransmissions: rep.Retransmissions,
		Efficiency:      rep.Efficiency(),
	}
}

// SchemesTable renders the comparison.
func SchemesTable(rows []SchemeRow) *metrics.Table {
	t := metrics.NewTable(
		"Coordination schemes compared (two jobs rotating; related work, paper §5)",
		"scheme", "coordination [cyc]", "copy [cyc]", "switches", "discards", "retransmissions", "efficiency")
	for _, r := range rows {
		t.AddRow(r.Name, r.CoordCycles, r.CopyCycles, r.Switches, r.Discards, r.Retransmissions, r.Efficiency)
	}
	return t
}

package experiments

import (
	"gangfm/internal/core"
	"gangfm/internal/metrics"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// SchemeRow compares one scheduling/communication coordination scheme
// (paper §5 related work) on the same two-job, two-node rotation.
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

// Schemes runs the three coordination schemes on the same machine, two
// two-rank jobs rotating on a two-node cluster, and tabulates switch cost
// vs recovery cost: the paper's flush trades a small coordination protocol
// for zero discards and zero retransmissions.
func Schemes(p Params) []SchemeRow {
	rows := make([]SchemeRow, 3)
	forEach(p.parallel(), 3, func(i int) { rows[i] = schemeRow(p, core.Coordination(i)) })
	return rows
}

var schemeNames = [...]string{
	core.Flush:   "gang + flush + switch (paper)",
	core.Discard: "discard + retransmit (SHARE)",
	core.Quiesce: "quiescence flush (PM/SCore)",
}

// schemeRow runs one scheme. The paper's jobs run FM's bandwidth benchmark
// to completion; the alternatives' go-back-N streams of as many packets
// never finish, so their run stops after 30 quanta (15 quick).
func schemeRow(p Params, coord core.Coordination) SchemeRow {
	cfg := parpar.DefaultConfig(2)
	cfg.Slots = 2
	cfg.Mode = core.ValidOnly
	cfg.Quantum = 2_000_000
	cfg.UseFastCtrlNet()
	cfg.Chaos = testChaos
	cfg.Coordination = coord
	cluster, err := parpar.New(cfg)
	if err != nil {
		panic(err)
	}
	msgs, quanta := 6000, sim.Time(30)
	if p.Quick {
		msgs, quanta = 2500, 15
	}
	spec := workload.Bandwidth("sch", msgs, myrinet.MaxPayload)
	if coord != core.Flush {
		spec = workload.Stream("sch", msgs)
	}
	for range 2 {
		if _, err := cluster.Submit(spec); err != nil {
			panic(err)
		}
	}
	if coord == core.Flush {
		runJobs(cluster)
	} else {
		cluster.RunUntil(quanta * cfg.Quantum)
	}
	rep := cluster.SchemeReport()
	row := SchemeRow{
		Name:            schemeNames[coord],
		CoordCycles:     rep.MeanCoord,
		CopyCycles:      rep.MeanCopy,
		Switches:        rep.Switches,
		Discards:        rep.Discards,
		Retransmissions: rep.Retransmissions,
		Efficiency:      rep.Efficiency(),
	}
	if coord == core.Flush {
		row.Efficiency = 1 // FM never retransmits: every packet sent is delivered
	}
	return row
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

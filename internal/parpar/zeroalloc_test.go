package parpar

import (
	"testing"

	"gangfm/internal/core"
	"gangfm/internal/sim"
)

// TestCtrlNetRoutedDeliveryZeroAlloc pins the allocation-free contract of
// the control network's hot delivery path: deliverArg with a
// long-lived callback and a pointer (or nil) argument must not allocate
// once the engine arena has warmed — it is what the masterd's per-round
// switch broadcast and the nodes' ack returns ride on.
func TestCtrlNetRoutedDeliveryZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	c := newCtrlNet(eng, 10_000, 5_000, sim.NewRand(1))
	fired := 0
	fn := func(any) { fired++ }
	allocs := testing.AllocsPerRun(100, func() {
		c.deliverArg(-1, c.delay(), fn, nil)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("routed delivery allocates %.2f objects per message, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no deliveries fired")
	}
}

// TestMasterdRoundZeroAlloc measures a full steady-state rotation loop —
// quantum timer, switch broadcast, three-stage switch on every node, ack
// collection — on a warmed two-job cluster. The round must be entirely
// closure-free: pooled switchMsg/quantumMsg records, prebuilt node
// completion chains, pooled halt/ready control ops. The armed case installs
// a fault plan that never fires, so the same round also runs every
// recovery timer: the daemons' re-send chains and the cards' deadline
// chains, which ride pooled records too.
func TestMasterdRoundZeroAlloc(t *testing.T) {
	for _, armed := range []bool{false, true} {
		cfg := DefaultConfig(4)
		cfg.Slots = 2
		cfg.Quantum = 2_000_000
		if armed {
			cfg.Chaos = inertPlan()
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b"} {
			if _, err := c.Submit(idleLoopSpec(name, 4)); err != nil {
				t.Fatal(err)
			}
		}
		// Warm: launch both jobs and run several rotations so every pool
		// reaches its high-water mark. Switch-history retention is
		// inherently an amortized allocator (the record slice doubles every
		// 2^k switches), so the measurement window's switch budget is
		// reserved up front — everything else must be allocation-free on
		// its own.
		c.RunUntil(50_000_000)
		for _, n := range c.nodes {
			n.Mgr.ReserveHistory(256)
		}
		epoch := c.master.epoch
		allocs := testing.AllocsPerRun(10, func() { c.RunUntil(c.Eng.Now() + 4*cfg.Quantum) })
		if c.master.epoch == epoch {
			t.Fatalf("armed=%v: no rounds ran during measurement", armed)
		}
		if allocs != 0 {
			t.Fatalf("armed=%v: steady-state rotation allocates %.2f objects per window, want 0", armed, allocs)
		}
	}
}

// idleLoopSpec is a minimal never-finishing program: each rank re-arms a
// compute timer forever, so rotations keep switching between live jobs
// without any communication traffic muddying the measurement.
func idleLoopSpec(name string, ranks int) JobSpec {
	return JobSpec{
		Name: name,
		Size: ranks,
		NewProgram: func(rank int) Program {
			return ProgramFunc(func(p *Proc) {
				var loop func()
				loop = func() { p.Schedule(500_000, loop) }
				loop()
			})
		},
	}
}

// BenchmarkSwitchRound256 measures one warm switch round on a 256-node,
// 1-slot cluster: every node's halt, buffer copy and release, each stage
// with its serial broadcast of 255 control packets and the receipt of
// 255 from its peers. It reports the whole round's ns/op and allocs/op.
func BenchmarkSwitchRound256(b *testing.B) {
	cfg := DefaultConfig(256)
	cfg.Slots = 1
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var epoch uint64
	switched := 0
	done := func(core.SwitchStats) { switched++ }
	round := func() {
		epoch++
		for _, n := range c.nodes {
			if err := n.Mgr.SwitchIdle(epoch, done); err != nil {
				b.Fatal(err)
			}
		}
		c.Run()
	}
	round() // warm every pool to its high-water mark
	for _, n := range c.nodes {
		n.Mgr.ReserveHistory(b.N)
	}
	switched = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if switched != b.N*len(c.nodes) {
		b.Fatalf("%d switches completed, want %d", switched, b.N*len(c.nodes))
	}
}

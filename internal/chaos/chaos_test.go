package chaos

import (
	"slices"
	"strings"
	"testing"

	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// TestPlanValidate pins the structural rules: empty windows, node faults
// without an Until, out-of-range probabilities and factors.
func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero plan", Plan{}, true},
		{"classic loss", Loss(1, 0.05), true},
		{"windowed loss", Plan{Faults: []Fault{{Kind: DataLoss, Prob: 0.5, From: 10, Until: 20, Node: -1}}}, true},
		{"empty window", Plan{Faults: []Fault{{Kind: DataLoss, Prob: 0.5, From: 20, Until: 10}}}, false},
		{"prob > 1", Plan{Faults: []Fault{{Kind: RefillLoss, Prob: 1.5}}}, false},
		{"pause needs until", Plan{Faults: []Fault{{Kind: NodePause, Node: 0}}}, false},
		{"pause needs node", Plan{Faults: []Fault{{Kind: NodePause, Node: -1, From: 0, Until: 100}}}, false},
		{"slow factor out of range", Plan{Faults: []Fault{{Kind: NodeSlow, Node: 0, From: 0, Until: 100, Factor: 1.0}}}, false},
		{"delay must be positive", Plan{Faults: []Fault{{Kind: CtrlDelay, Prob: 0.1}}}, false},
		{"crash ok", Plan{Faults: []Fault{{Kind: NodeCrash, Node: 2, From: 100}}}, true},
		{"crash needs node", Plan{Faults: []Fault{{Kind: NodeCrash, Node: -1, From: 100}}}, false},
		{"crash is permanent", Plan{Faults: []Fault{{Kind: NodeCrash, Node: 2, From: 100, Until: 500}}}, false},
		{"unknown kind", Plan{Faults: []Fault{{Kind: FaultKind(99)}}}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

// TestInjectorTraceDeterminism: the core replay contract at the unit level.
// Two injectors built from the same plan, fed the same packet sequence,
// emit byte-identical traces and identical verdicts. Packets carry the
// per-route Seq the network stamps before consulting the injector.
func TestInjectorTraceDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Faults: []Fault{
		{Kind: DataLoss, Prob: 0.3, Node: -1},
		{Kind: DataDup, Prob: 0.3, Node: -1},
		{Kind: RefillLoss, Prob: 0.5, Node: -1},
	}}
	feed := func() (string, []myrinet.Verdict) {
		in := NewInjector(sim.NewEngine(), plan)
		var verdicts []myrinet.Verdict
		for i := 0; i < 200; i++ {
			typ := myrinet.Data
			if i%5 == 0 {
				typ = myrinet.Refill
			}
			p := &myrinet.Packet{Type: typ, Src: myrinet.NodeID(i % 3), Dst: myrinet.NodeID((i + 1) % 3),
				Job: 1, Seq: uint64(i / 3)}
			verdicts = append(verdicts, in.Packet(sim.Time(i*100), p))
		}
		return in.TraceString(), verdicts
	}
	trA, vA := feed()
	trB, vB := feed()
	if trA != trB {
		t.Fatalf("same plan produced different traces:\n--- a ---\n%s\n--- b ---\n%s", trA, trB)
	}
	for i := range vA {
		if vA[i] != vB[i] {
			t.Fatalf("verdict %d differs: %+v vs %+v", i, vA[i], vB[i])
		}
	}
	drops, dups := 0, 0
	for _, v := range vA {
		if v.Drop {
			drops++
		}
		if v.Duplicate {
			dups++
		}
	}
	if drops == 0 || dups == 0 {
		t.Fatalf("plan with p=0.3/0.3/0.5 over 200 packets fired nothing: drops=%d dups=%d", drops, dups)
	}
}

// TestInjectorOrderIndependent: verdicts are keyed by the packet, not by
// the order packets arrive in. Two injectors fed the same packets — one in
// send order, one reversed, as two shard lanes might present them — return
// the same verdict for every packet and the same canonical trace.
func TestInjectorOrderIndependent(t *testing.T) {
	plan := Plan{Seed: 9, Faults: []Fault{
		{Kind: DataLoss, Prob: 0.2, Node: -1},
		{Kind: DataDup, Prob: 0.2, Node: -1},
	}}
	type sent struct {
		at sim.Time
		p  myrinet.Packet
	}
	var pkts []sent
	for i := 0; i < 300; i++ {
		pkts = append(pkts, sent{sim.Time(i * 10), myrinet.Packet{Type: myrinet.Data,
			Src: myrinet.NodeID(i % 4), Dst: myrinet.NodeID((i + 1 + i/4) % 4), Job: 1, Seq: uint64(i / 4)}})
	}
	fwd, rev := NewInjector(sim.NewEngine(), plan), NewInjector(sim.NewEngine(), plan)
	want := make([]myrinet.Verdict, len(pkts))
	for i := range pkts {
		p := pkts[i].p
		want[i] = fwd.Packet(pkts[i].at, &p)
	}
	fired := 0
	for i := len(pkts) - 1; i >= 0; i-- {
		p := pkts[i].p
		if got := rev.Packet(pkts[i].at, &p); got != want[i] {
			t.Fatalf("packet %d: verdict %+v in reverse order, %+v in send order", i, got, want[i])
		}
		if want[i].Drop || want[i].Duplicate {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("p=0.2 loss and duplication over 300 packets fired nothing")
	}
	if a, b := fwd.TraceString(), rev.TraceString(); a != b {
		t.Fatalf("trace depends on presentation order:\n--- send order ---\n%s\n--- reversed ---\n%s", a, b)
	}
}

// TestInjectorWindows: a fault outside its [From, Until) window never fires.
func TestInjectorWindows(t *testing.T) {
	plan := Plan{Seed: 7, Faults: []Fault{
		{Kind: DataLoss, Prob: 1.0, From: 1000, Until: 2000, Node: -1},
	}}
	in := NewInjector(sim.NewEngine(), plan)
	p := func() *myrinet.Packet { return &myrinet.Packet{Type: myrinet.Data, Src: 0, Dst: 1, Job: 1} }
	if v := in.Packet(999, p()); v.Drop {
		t.Fatal("fired before From")
	}
	if v := in.Packet(1000, p()); !v.Drop {
		t.Fatal("p=1.0 fault inside its window did not fire")
	}
	if v := in.Packet(2000, p()); v.Drop {
		t.Fatal("fired at Until (window is half-open)")
	}
}

// TestNodeCrash: a crash is a permanent CPU fault — it blocks the host CPU
// from From onward, records a trace line, prints as an open-ended window,
// and CPUFaultActive reports it forever after.
func TestNodeCrash(t *testing.T) {
	f := Fault{Kind: NodeCrash, Node: 1, From: 1000}
	if s := f.String(); !strings.Contains(s, "node-crash[1000,∞)") || !strings.Contains(s, "node=1") {
		t.Fatalf("crash fault formats as %q", s)
	}
	eng := sim.NewEngine()
	in := NewInjector(eng, Plan{Seed: 3, Faults: []Fault{f}})
	cpu := sim.NewResource(eng, "cpu")
	in.ArmNode(1, cpu)
	in.ArmNode(0, cpu) // wrong node: must not arm anything
	ran := false
	eng.ScheduleAt(500, func() {
		cpu.Use(1, func() { ran = true }) // before the crash the CPU works
	})
	eng.RunUntil(5000)
	if !ran {
		t.Fatal("CPU unusable before the crash point")
	}
	if got := in.Counts()[NodeCrash]; got != 1 {
		t.Fatalf("crash fired %d times, want 1", got)
	}
	if !strings.Contains(in.TraceString(), "node 1 crashed") {
		t.Fatalf("trace lacks the crash line:\n%s", in.TraceString())
	}
	if in.CPUFaultActive(1, 999) {
		t.Fatal("crash active before From")
	}
	for _, at := range []sim.Time{1000, 5000, 1 << 40} {
		if !in.CPUFaultActive(1, at) {
			t.Fatalf("crash not active at %d", at)
		}
	}
	if in.CPUFaultActive(0, 2000) {
		t.Fatal("crash active on the wrong node")
	}
}

// TestAuditorDedupeAndSummary: identical reports collapse to one violation,
// the summary carries the replay seed, and Ok flips on the first report.
func TestAuditorDedupeAndSummary(t *testing.T) {
	a := NewAuditor(sim.NewEngine(), 1234)
	if !a.Ok() {
		t.Fatal("fresh auditor not Ok")
	}
	a.Report("credit-bounds", "node 0 job 1: credits 9 > C0 5")
	a.Report("credit-bounds", "node 0 job 1: credits 9 > C0 5") // duplicate
	a.Report("flush-stall", "round 3 stuck")
	if a.Ok() {
		t.Fatal("auditor Ok after violations")
	}
	if got := len(a.Violations()); got != 2 {
		t.Fatalf("dedupe failed: %d violations, want 2", got)
	}
	sum := a.Summary()
	if !strings.Contains(sum, "seed 1234") {
		t.Fatalf("summary lacks the replay seed:\n%s", sum)
	}
	if !strings.Contains(sum, "credit-bounds") || !strings.Contains(sum, "flush-stall") {
		t.Fatalf("summary lacks the invariants:\n%s", sum)
	}
}

// TestAuditorOrderIndependent: violations are stamped with the reporting
// lane's clock and returned in (time, source, per-source) order, and a
// duplicate keeps its earliest report — so the list does not depend on how
// concurrent lanes interleaved their reports.
func TestAuditorOrderIndependent(t *testing.T) {
	run := func(lanesFirst bool) []Violation {
		global, lane0, lane1 := sim.NewEngine(), sim.NewEngine(), sim.NewEngine()
		global.RunUntil(100)
		lane0.RunUntil(100)
		lane1.RunUntil(50)
		a := NewAuditor(global, 1)
		r0, r1 := a.Reporter(0, lane0), a.Reporter(1, lane1)
		sources := []func(){
			func() { a.Report("flush-stall", "round 3 stuck") },
			func() { r0("store-integrity", "job 1 digest mismatch") },
			func() {
				r1("flush-order", "node 1 released early")
				r1("store-integrity", "job 1 digest mismatch")
			},
		}
		if lanesFirst {
			slices.Reverse(sources)
		}
		for _, report := range sources {
			report()
		}
		return a.Violations()
	}
	a, b := run(false), run(true)
	if !slices.Equal(a, b) {
		t.Fatalf("violations depend on report interleaving:\n%v\n%v", a, b)
	}
	want := []Violation{
		{50, "flush-order", "node 1 released early"},
		{50, "store-integrity", "job 1 digest mismatch"},
		{100, "flush-stall", "round 3 stuck"},
	}
	if !slices.Equal(a, want) {
		t.Fatalf("got %v, want %v", a, want)
	}
}

// TestAuditorFailFast: with fail-fast set, the first violation stops the
// engine so a wedged run ends at the point of corruption.
func TestAuditorFailFast(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAuditor(eng, 1)
	a.SetFailFast(true)
	a.Register(func(now sim.Time, report func(invariant, detail string)) {
		report("test-invariant", "boom")
	})
	fired := false
	eng.Schedule(100, func() { a.RunChecks() })
	eng.Schedule(200, func() { fired = true })
	eng.Run()
	if fired {
		t.Fatal("engine kept running after a fail-fast violation")
	}
	if a.Ok() {
		t.Fatal("violation not recorded")
	}
}

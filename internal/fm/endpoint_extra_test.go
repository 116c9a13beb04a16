package fm

import (
	"testing"
	"testing/quick"

	"gangfm/internal/chaos"
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

func TestFlushImmediateWhenIdle(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	fired := false
	r.eps[0].Flush(func() { fired = true })
	r.eng.Run()
	if !fired {
		t.Fatal("Flush on idle endpoint never fired")
	}
}

func TestFlushWaitsForOutbox(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	order := make([]string, 0, 4)
	r.eps[1].SetHandler(func(_, _ int, _ []byte) { order = append(order, "delivered") })
	r.eps[0].Send(1, 3000, nil) // 2 fragments
	injected := r.eps[0].Stats().PacketsSent
	if injected != 0 {
		t.Fatal("send should be asynchronous")
	}
	r.eps[0].Flush(func() { order = append(order, "flushed") })
	r.eng.Run()
	if len(order) < 2 || order[len(order)-1] != "delivered" {
		// flush fires at injection, which precedes delivery
		t.Fatalf("order = %v", order)
	}
	if order[0] != "flushed" {
		t.Fatalf("flush did not fire at injection time: %v", order)
	}
	if got := r.eps[0].Stats().PacketsSent; got != 2 {
		t.Fatalf("packets sent = %d, want 2", got)
	}
}

func TestFlushAcrossSuspension(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	r.eps[0].Suspend()
	r.eps[0].Send(1, 100, nil)
	fired := false
	r.eps[0].Flush(func() { fired = true })
	r.eng.Run()
	if fired {
		t.Fatal("flush fired while the message was stuck in the outbox")
	}
	r.eps[0].Resume()
	r.eng.Run()
	if !fired {
		t.Fatal("flush did not fire after resume drained the outbox")
	}
}

func TestDrainBatching(t *testing.T) {
	// A suspended receiver accumulates a backlog; on resume the batched
	// drain must clear it in far fewer CPU grants than packets.
	r := newJobRig(t, 2, nil, nil)
	r.eps[1].Suspend()
	sent := 0
	var fill func()
	fill = func() {
		for sent < 40 && r.eps[0].Send(1, 256, nil) {
			sent++
		}
	}
	r.eps[0].SetOnCanSend(fill)
	fill()
	r.eng.Run()
	backlog := r.eps[1].Context().RecvQ.Len()
	if backlog != 40 {
		t.Fatalf("backlog = %d", backlog)
	}
	delivered := 0
	r.eps[1].SetHandler(func(_, _ int, _ []byte) { delivered++ })
	r.eps[1].Resume()
	r.eng.Run()
	if delivered != 40 {
		t.Fatalf("delivered %d/40 after resume", delivered)
	}
}

func TestStatsAccounting(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	got := 0
	r.eps[1].SetHandler(func(_, _ int, _ []byte) { got++ })
	r.eps[0].Send(1, 5000, nil) // 4 fragments
	r.eng.Run()
	tx, rx := r.eps[0].Stats(), r.eps[1].Stats()
	if tx.MessagesSent != 1 || tx.PacketsSent != 4 {
		t.Fatalf("tx stats: %+v", tx)
	}
	if got != 1 || rx.PacketsRecvd != 4 || rx.PayloadBytesRecv != 5000 {
		t.Fatalf("rx stats: %+v after %d deliveries", rx, got)
	}
}

func TestNewEndpointValidation(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	nodeOf := []myrinet.NodeID{0, 1}
	if _, err := NewEndpoint(r.eng, r.nics[0], r.cpus[0], nil, Config{C0: -1}, 1, 0, nodeOf); err == nil {
		t.Error("negative C0 should fail")
	}
	if _, err := NewEndpoint(r.eng, r.nics[0], r.cpus[0], nil, Config{}, 1, 5, nodeOf); err == nil {
		t.Error("rank out of range should fail")
	}
}

func TestResumeIdempotent(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	r.eps[0].Resume()
	r.eps[0].Resume() // second resume is a no-op
	if !r.eps[0].Running() {
		t.Fatal("endpoint should be running")
	}
	r.eps[0].Suspend()
	if r.eps[0].Running() {
		t.Fatal("endpoint should be suspended")
	}
}

// TestCreditConservationProperty: after any traffic pattern completes and
// the system is quiescent, the credits for every ordered pair (a->b) are
// fully accounted: a's available credits plus the credits b is holding
// back (owed) equal C0. A lost packet breaks exactly this invariant.
func TestCreditConservationProperty(t *testing.T) {
	prop := func(plan []uint16, c0seed uint8) bool {
		if len(plan) > 30 {
			plan = plan[:30]
		}
		c0 := int(c0seed%8) + 2
		r := newJobRigCustom(3, func(c *Config) { c.C0 = c0 })
		for _, ep := range r.eps {
			ep.SetHandler(func(_, _ int, _ []byte) {})
		}
		// Issue sends per plan; each entry picks (src, dst, size).
		for _, v := range plan {
			src := int(v) % 3
			dst := (src + 1 + int(v>>2)%2) % 3
			size := int(v>>4)%3000 + 1
			r.eps[src].Send(dst, size, nil)
		}
		r.eng.Run()
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				if a == b {
					continue
				}
				if got := r.eps[a].sendCredits[b] + r.eps[b].consumed[a]; got != c0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// newJobRigCustom is newJobRigQuiet with a config mutator.
func newJobRigCustom(nodes int, mutate func(*Config)) *jobRig {
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(nodes))
	mem := memmodel.Default()
	r := &jobRig{eng: eng, net: net}
	alloc, _ := Allocate(Switched, 252, 668, 1, nodes)
	nodeOf := make([]myrinet.NodeID, nodes)
	for i := range nodeOf {
		nodeOf[i] = myrinet.NodeID(i)
	}
	for i := 0; i < nodes; i++ {
		nic := lanai.New(eng, net, mem, lanai.DefaultConfig(myrinet.NodeID(i)))
		cpu := sim.NewResource(eng)
		cfg := DefaultConfig(alloc.C0)
		if mutate != nil {
			mutate(&cfg)
		}
		ep, _ := NewEndpoint(eng, nic, cpu, mem, cfg, 1, i, nodeOf)
		ctx, _ := nic.Register(1, alloc.SendSlots, alloc.RecvSlots, lanai.Hooks{})
		ep.Attach(ctx)
		ep.Resume()
		r.nics = append(r.nics, nic)
		r.cpus = append(r.cpus, cpu)
		r.eps = append(r.eps, ep)
	}
	return r
}

// TestCreditConservationBrokenByLoss: the same invariant fails under loss
// — the paper's justification for requiring a reliable SAN.
func TestCreditConservationBrokenByLoss(t *testing.T) {
	plan := chaos.Loss(21, 0.3)
	r := newJobRig(t, 2, func(c *Config) { c.C0 = 6 }, &plan)
	r.eps[1].SetHandler(func(_, _ int, _ []byte) {})
	sent := 0
	var fill func()
	fill = func() {
		for sent < 60 && r.eps[0].Send(1, 512, nil) {
			sent++
		}
	}
	r.eps[0].SetOnCanSend(fill)
	fill()
	r.eng.Run()
	if got := r.eps[0].sendCredits[1] + r.eps[1].consumed[0]; got == 6 {
		t.Fatal("credit conservation survived 30% loss — loss accounting is broken")
	}
}

// TestAuditInvariantsCleanRun: after loss-free traffic, the endpoint-local
// audit reports nothing.
func TestAuditInvariantsCleanRun(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	r.eps[1].SetHandler(func(_, _ int, _ []byte) {})
	r.eps[0].Send(1, 5000, nil)
	r.eng.Run()
	for _, ep := range r.eps {
		ep.AuditInvariants(func(inv, detail string) {
			t.Errorf("unexpected violation %s: %s", inv, detail)
		})
	}
}

// TestAuditInvariantsByteAccounting: a vanished payload byte (manufactured
// by tampering with the delivered counter, standing in for a reassembly bug)
// is caught by the byte-accounting check.
func TestAuditInvariantsByteAccounting(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	r.eps[1].SetHandler(func(_, _ int, _ []byte) {})
	r.eps[0].Send(1, 3000, nil)
	r.eng.Run()
	r.eps[1].deliveredBytes -= 1
	var got []string
	r.eps[1].AuditInvariants(func(inv, _ string) { got = append(got, inv) })
	if len(got) != 1 || got[0] != "byte-accounting" {
		t.Fatalf("violations = %v, want [byte-accounting]", got)
	}
}

// TestStalledDetectsLossWedge: with heavy loss and no retransmission the
// sender ends up head-of-line blocked with zero credits — the condition
// Stalled exposes to the chaos auditor.
func TestStalledDetectsLossWedge(t *testing.T) {
	plan := chaos.Loss(12345, 0.2)
	r := newJobRig(t, 2, func(c *Config) { c.C0 = 4 }, &plan)
	r.eps[1].SetHandler(func(_, _ int, _ []byte) {})
	sent := 0
	var fill func()
	fill = func() {
		for sent < 100 && r.eps[0].Send(1, 512, nil) {
			sent++
		}
	}
	r.eps[0].SetOnCanSend(fill)
	fill()
	r.eng.Run()
	dst, wedged := r.eps[0].Stalled()
	if !wedged || dst != 1 {
		t.Fatalf("Stalled() = (%d, %v), want (1, true) after lossy run", dst, wedged)
	}
	if _, ok := r.eps[1].Stalled(); ok {
		t.Fatal("idle receiver reported a stall")
	}
}

// TestAuditInvariantsCountsPartialReassembly: between the two fragments
// of a message the receiver has counted the first fragment's bytes as
// received but delivered none; the byte-accounting audit must find them
// parked in the in-progress reassembly and report nothing.
func TestAuditInvariantsCountsPartialReassembly(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	rx := r.eps[1]
	delivered := 0
	rx.SetHandler(func(_, _ int, _ []byte) { delivered++ })
	r.eps[0].Send(1, 3000, nil)
	for rx.Stats().PacketsRecvd == 0 && r.eng.Step() {
	}
	if st := rx.Stats(); st.PacketsRecvd != 1 || delivered != 0 {
		t.Fatalf("receiver consumed %d packets and %d messages, want the first fragment only",
			st.PacketsRecvd, delivered)
	}
	if rx.Stats().PayloadBytesRecv != myrinet.MaxPayload {
		t.Fatalf("received %d payload bytes, want one full fragment (%d)",
			rx.Stats().PayloadBytesRecv, myrinet.MaxPayload)
	}
	rx.AuditInvariants(func(inv, detail string) {
		t.Errorf("mid-message violation %s: %s", inv, detail)
	})
	r.eng.Run()
	if delivered != 1 {
		t.Fatal("message not completed")
	}
}

// TestLostFragmentResynchronises: a message whose fragment was lost on the
// wire is discarded with one fragment-order violation, and reassembly
// resumes clean at the next message. Whether the gap shows as a fragment
// out of order or as a new message arriving mid-message, the following
// whole message is delivered and the byte audit stays exact.
func TestLostFragmentResynchronises(t *testing.T) {
	frag := func(msg uint64, i, n, size int) *myrinet.Packet {
		return &myrinet.Packet{Type: myrinet.Data, Job: 1, SrcRank: 0, DstRank: 1,
			MsgID: msg, Frag: i, NFrags: n, PayloadLen: size}
	}
	for _, tc := range []struct {
		name string
		pkts []*myrinet.Packet
	}{
		{"out of order", []*myrinet.Packet{
			frag(1, 0, 3, myrinet.MaxPayload), frag(1, 2, 3, 100), frag(2, 0, 1, 500)}},
		{"tail lost", []*myrinet.Packet{
			frag(1, 0, 3, myrinet.MaxPayload), frag(1, 1, 3, myrinet.MaxPayload), frag(2, 0, 1, 500)}},
		{"head lost", []*myrinet.Packet{
			frag(1, 1, 4, myrinet.MaxPayload), frag(1, 2, 4, myrinet.MaxPayload), frag(1, 3, 4, 100),
			frag(2, 0, 1, 500)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newJobRig(t, 2, nil, nil)
			var violations []string
			r.net.SetObserver(func(e myrinet.Event) {
				if e.Kind == myrinet.Violation {
					violations = append(violations, e.Invariant)
				}
			})
			rx := r.eps[1]
			var delivered []int
			rx.SetHandler(func(_, size int, _ []byte) { delivered = append(delivered, size) })
			for _, p := range tc.pkts {
				rx.consumePacket(p)
			}
			if len(violations) != 1 || violations[0] != "fragment-order" {
				t.Fatalf("violations = %v, want one fragment-order", violations)
			}
			if len(delivered) != 1 || delivered[0] != 500 {
				t.Fatalf("delivered sizes %v, want the 500-byte message only", delivered)
			}
			rx.AuditInvariants(func(inv, detail string) {
				t.Errorf("audit after a discarded message: %s: %s", inv, detail)
			})
		})
	}
}

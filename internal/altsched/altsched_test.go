package altsched_test

// The related-work schemes run on parpar's cluster (its Discard and Quiesce
// coordination modes), so these tests live outside the package: parpar
// imports altsched.

import (
	"testing"

	"gangfm/internal/altsched"
	"gangfm/internal/chaos"
	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

// newCluster builds a cluster under coordination coord with the fast
// control network; a nil plan injects no fault.
func newCluster(t *testing.T, coord core.Coordination, nodes, slots int, quantum sim.Time, plan *chaos.Plan) *parpar.Cluster {
	t.Helper()
	cfg := parpar.DefaultConfig(nodes)
	cfg.Slots = slots
	cfg.Quantum = quantum
	cfg.UseFastCtrlNet()
	cfg.Coordination = coord
	cfg.Chaos = plan
	c, err := parpar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stream is a job of go-back-N streams: rank r sends msgs packets to rank
// r+1 and, in a ring, the last rank sends to rank 0. Traffic starts once
// every rank has started, so each receiver records from its first
// delivery on. eps holds the endpoints by rank, got each rank's delivered
// sequence numbers in delivery order.
type stream struct {
	eps []*altsched.Endpoint
	got [][]uint64
}

func submitStream(t *testing.T, c *parpar.Cluster, size, msgs int, ring bool) *stream {
	t.Helper()
	s := &stream{eps: make([]*altsched.Endpoint, size), got: make([][]uint64, size)}
	started := 0
	spec := parpar.JobSpec{Name: "stream", Size: size, NewProgram: func(rank int) parpar.Program {
		return parpar.ProgramFunc(func(p *parpar.Proc) {
			s.eps[rank] = p.Alt
			if rank > 0 || ring {
				p.Alt.Channel((rank + size - 1) % size).SetOnDeliver(func(seq uint64) { s.got[rank] = append(s.got[rank], seq) })
			}
			if started++; started < size {
				return
			}
			for r, ep := range s.eps {
				if r+1 < size || ring {
					ep.Channel((r + 1) % size).Send(msgs)
				}
			}
		})
	}}
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	return s
}

// deliveredOnce fails unless rank got seq 0..msgs-1 exactly once each.
func (s *stream) deliveredOnce(t *testing.T, rank, msgs int) {
	t.Helper()
	seen := make(map[uint64]int)
	for _, seq := range s.got[rank] {
		seen[seq]++
	}
	if len(seen) != msgs {
		t.Fatalf("rank %d: delivered %d distinct/%d", rank, len(seen), msgs)
	}
	for seq, n := range seen {
		if n != 1 || seq >= uint64(msgs) {
			t.Fatalf("rank %d: seq %d delivered %d times", rank, seq, n)
		}
	}
}

// rotating builds the two-node, two-job rotation of the scheme tests: each
// job's rank 0 streams msgs packets to its rank 1.
func rotating(t *testing.T, coord core.Coordination, quantum sim.Time, plan *chaos.Plan, msgs int) (*parpar.Cluster, []*stream) {
	t.Helper()
	c := newCluster(t, coord, 2, 2, quantum, plan)
	return c, []*stream{submitStream(t, c, 2, msgs, false), submitStream(t, c, 2, msgs, false)}
}

func TestReliableDeliveryInOrder(t *testing.T) {
	c := newCluster(t, core.Discard, 2, 1, 100_000_000, nil)
	s := submitStream(t, c, 2, 100, false)
	c.RunUntil(50_000_000)
	got := s.got[1]
	if len(got) != 100 {
		t.Fatalf("delivered %d/100", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, seq)
		}
	}
	st := s.eps[0].Channel(1).Stats()
	if st.Retransmissions != 0 {
		t.Fatalf("retransmissions on a clean run: %d", st.Retransmissions)
	}
}

// TestWindowLimitsOutstanding drives a bare two-card pair, wired as the
// dynamic-coscheduling nodes are, with a short window and a long RTO.
func TestWindowLimitsOutstanding(t *testing.T) {
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(2))
	cfg := altsched.DefaultDynCosConfig()
	cfg.Channel.Window = 4
	cfg.Channel.RTO = 10_000_000 // long, so no timeouts interfere
	tx, err := altsched.NewDynCosNode(eng, net, memmodel.Default(), 0, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := altsched.NewDynCosNode(eng, net, memmodel.Default(), 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx.Wake()
	tx.EP.Channel(1).Send(50)
	// Sample while running: the window bound must hold throughout.
	for i := 0; i < 40; i++ {
		eng.RunUntil(eng.Now() + 50_000)
		if o := tx.EP.Channel(1).Outstanding(); o > 4 {
			t.Fatalf("outstanding %d exceeds window 4", o)
		}
	}
	eng.RunUntil(eng.Now() + 100_000_000)
	if d := rx.EP.Channel(0).Stats().Delivered; d != 50 {
		t.Fatalf("delivered %d/50", d)
	}
}

func TestLossRecoveryByRetransmission(t *testing.T) {
	// Unlike FM's credits (which wedge permanently), go-back-N recovers
	// from loss — the property SHARE's discard approach depends on. The
	// fault plan is the same kind an FM cluster accepts, so the two
	// stacks' responses to identical loss are directly comparable.
	plan := chaos.Loss(7, 0.05)
	c := newCluster(t, core.Discard, 2, 1, 100_000_000, &plan)
	s := submitStream(t, c, 2, 300, false)
	c.RunUntil(400_000_000)
	if d := s.eps[1].Channel(0).Stats().Delivered; d != 300 {
		t.Fatalf("delivered %d/300 under 5%% loss", d)
	}
	if s.eps[0].Channel(1).Stats().Retransmissions == 0 {
		t.Fatal("expected retransmissions under loss")
	}
	if dropped := c.Net.Stats().Dropped[myrinet.Data]; dropped == 0 {
		t.Fatal("injector dropped nothing")
	}
}

func TestShareDiscardSwitchSkipsFlush(t *testing.T) {
	c, _ := rotating(t, core.Discard, 2_000_000, nil, 4000)
	c.RunUntil(40_000_000)
	rep := c.SchemeReport()
	if rep.Switches == 0 {
		t.Fatal("no switches recorded")
	}
	if rep.MeanCoord != 0 {
		t.Fatalf("discard switching should have zero flush wait, got %.0f", rep.MeanCoord)
	}
	// The defining cost: packets racing the unflushed switch are
	// discarded and must be retransmitted.
	if rep.Discards == 0 {
		t.Fatal("expected card-level discards without a flush")
	}
	if rep.Retransmissions == 0 {
		t.Fatal("expected retransmissions to recover the discards")
	}
	// No halt protocol: the cards never exchanged Halt messages.
	if c.Net.Stats().Sent[myrinet.Halt] != 0 {
		t.Fatal("discard scheme must not use the halt protocol")
	}
}

func TestPMQuiescenceResolvesWithoutControlBroadcast(t *testing.T) {
	c, _ := rotating(t, core.Quiesce, 2_000_000, nil, 4000)
	c.RunUntil(40_000_000)
	rep := c.SchemeReport()
	if rep.Switches == 0 {
		t.Fatal("no switches recorded")
	}
	if c.Net.Stats().Sent[myrinet.Halt] != 0 || c.Net.Stats().Sent[myrinet.Ready] != 0 {
		t.Fatal("quiescence scheme must not use halt/ready broadcasts")
	}
	// Progress under rotation.
	if rep.Delivered == 0 {
		t.Fatal("no traffic delivered")
	}
}

// TestPMQuiescenceUnderLoss: a packet lost while its sender waits out a
// PM quiescence is resolved by the sender's retransmission timer, which
// keeps running until the window is quiesced, so the rotation keeps
// switching on schedule. SHARE's discard scheme rides the same plan.
func TestPMQuiescenceUnderLoss(t *testing.T) {
	for _, scheme := range []core.Coordination{core.Discard, core.Quiesce} {
		t.Run(scheme.String(), func(t *testing.T) {
			plan := chaos.Loss(3, 0.05)
			c, _ := rotating(t, scheme, 2_000_000, &plan, 4000)
			c.RunUntil(100_000_000)
			rep := c.SchemeReport()
			if want := 2 * 49; rep.Switches < want {
				t.Fatalf("%d job-to-job switches in 50 quanta on 2 nodes, want at least %d", rep.Switches, want)
			}
			if c.Net.Stats().Dropped[myrinet.Data] == 0 || rep.Retransmissions == 0 {
				t.Fatal("the loss plan dropped nothing or nothing was retransmitted")
			}
			if rep.Delivered == 0 {
				t.Fatal("no traffic delivered")
			}
		})
	}
}

func TestSchemesMakeProgressAcrossManyRotations(t *testing.T) {
	for _, scheme := range []core.Coordination{core.Discard, core.Quiesce} {
		t.Run(scheme.String(), func(t *testing.T) {
			c, jobs := rotating(t, scheme, 1_000_000, nil, 2000)
			c.RunUntil(100_000_000)
			for j, s := range jobs {
				if d := s.eps[1].Channel(0).Stats().Delivered; d != 2000 {
					t.Fatalf("job %d delivered %d/2000", j+1, d)
				}
			}
		})
	}
}

func TestDeliveryExactlyOnceUnderDiscard(t *testing.T) {
	// Retransmissions must not cause duplicate deliveries.
	c, jobs := rotating(t, core.Discard, 800_000, nil, 1500)
	c.RunUntil(120_000_000)
	jobs[0].deliveredOnce(t, 1, 1500)
}

func TestPMQuiescenceWaitRecorded(t *testing.T) {
	c, _ := rotating(t, core.Quiesce, 2_000_000, nil, 4000)
	c.RunUntil(30_000_000)
	if c.SchemeReport().MeanCoord == 0 {
		t.Fatal("quiescence flush should record nonzero wait on the sending node")
	}
}

// TestSchemesPlaceAcrossFourNodes: the jobs' ranks live where the gang
// matrix put them. Two 4-rank rings on 4 nodes under loss: every stream
// delivers each message exactly once, every card sends data, and the
// auditor's checks that hold in the mode find nothing.
func TestSchemesPlaceAcrossFourNodes(t *testing.T) {
	for _, scheme := range []core.Coordination{core.Discard, core.Quiesce} {
		t.Run(scheme.String(), func(t *testing.T) {
			plan := chaos.Loss(3, 0.05)
			c := newCluster(t, scheme, 4, 2, 2_000_000, &plan)
			const msgs = 500
			jobs := []*stream{submitStream(t, c, 4, msgs, true), submitStream(t, c, 4, msgs, true)}
			c.RunUntil(200_000_000)
			for _, s := range jobs {
				for rank := range s.got {
					s.deliveredOnce(t, rank, msgs)
				}
			}
			for _, n := range c.Nodes() {
				if n.NIC.Stats().Injected == 0 {
					t.Errorf("node %d sent no data", n.ID)
				}
			}
			if !c.Auditor().Ok() {
				t.Fatal(c.Auditor().Summary())
			}
		})
	}
}

// TestSchemeJobRunsToDone: a go-back-N job can finish. The sender calls
// Done as soon as its stream is queued and keeps retransmitting until the
// receiver has it all; the job then ends and releases its contexts.
func TestSchemeJobRunsToDone(t *testing.T) {
	plan := chaos.Loss(5, 0.05)
	c := newCluster(t, core.Quiesce, 2, 1, 2_000_000, &plan)
	const msgs = 200
	job, err := c.Submit(parpar.JobSpec{Name: "finite", Size: 2, NewProgram: func(rank int) parpar.Program {
		return parpar.ProgramFunc(func(p *parpar.Proc) {
			if rank == 0 {
				p.Alt.Channel(1).Send(msgs)
				p.Done(nil)
				return
			}
			got := 0
			p.Alt.Channel(0).SetOnDeliver(func(uint64) {
				if got++; got == msgs {
					p.Done(got)
				}
			})
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunBounded(400_000_000); err != nil {
		t.Fatal(err)
	}
	if job.State() != parpar.JobDone || job.Results[1] != msgs {
		t.Fatalf("job %v with results %v", job.State(), job.Results)
	}
	for _, n := range c.Nodes() {
		if k := n.Mgr.Contexts(); k != 0 {
			t.Fatalf("node %d holds %d contexts after the job ended", n.ID, k)
		}
	}
}

func TestEfficiencyMetric(t *testing.T) {
	r := altsched.Report{Sent: 90, Retransmissions: 10, Delivered: 90}
	if e := r.Efficiency(); e != 0.9 {
		t.Fatalf("efficiency = %v", e)
	}
	if (altsched.Report{}).Efficiency() != 0 {
		t.Fatal("empty report efficiency should be 0")
	}
}

// TestClusterValidation: the alternative schemes switch one shared
// context, so they need switched credits; and only the three schemes
// exist.
func TestClusterValidation(t *testing.T) {
	for _, scheme := range []core.Coordination{core.Discard, core.Quiesce} {
		cfg := parpar.DefaultConfig(2)
		cfg.Policy = fm.Partitioned
		cfg.Coordination = scheme
		if _, err := parpar.New(cfg); err == nil {
			t.Fatalf("%v under partitioned credits should fail", scheme)
		}
	}
	cfg := parpar.DefaultConfig(2)
	cfg.Coordination = core.Quiesce + 1
	if _, err := parpar.New(cfg); err == nil {
		t.Fatal("an unknown coordination should fail")
	}
}

func TestRChannelValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(2))
	nic := lanai.New(eng, net, memmodel.Default(), lanai.DefaultConfig(0))
	cpu := sim.NewResource(eng)
	bad := altsched.DefaultRChannelConfig()
	bad.Window = 0
	if _, err := altsched.NewRChannel(eng, nic, nil, cpu, bad, 1, 0, 1, 1, 100); err == nil {
		t.Fatal("zero window should fail")
	}
	bad = altsched.DefaultRChannelConfig()
	if _, err := altsched.NewRChannel(eng, nic, nil, cpu, bad, 1, 0, 1, 1, 0); err == nil {
		t.Fatal("zero payload should fail")
	}
	if _, err := altsched.NewRChannel(eng, nic, nil, cpu, bad, 1, 0, 1, 1, myrinet.MaxPayload+1); err == nil {
		t.Fatal("oversized payload should fail")
	}
}

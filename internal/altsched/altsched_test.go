package altsched

import (
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/core"
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// pairRig wires two nodes with one job and reliable channels both ways,
// scheduled from the start.
func pairRig(t *testing.T, scheme core.Coordination) (*Cluster, *Endpoint, *Endpoint) {
	t.Helper()
	cfg := DefaultClusterConfig(1)
	cfg.Scheme = scheme
	cfg.Quantum = 100_000_000 // effectively no rotation during short tests
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	eps := c.Endpoints(1)
	return c, eps[0], eps[1]
}

func TestReliableDeliveryInOrder(t *testing.T) {
	c, tx, rx := pairRig(t, core.Discard)
	var got []uint64
	rx.Channel(0).SetOnDeliver(func(seq uint64) { got = append(got, seq) })
	tx.Channel(1).Send(100)
	c.RunFor(50_000_000)
	if len(got) != 100 {
		t.Fatalf("delivered %d/100", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, seq)
		}
	}
	st := tx.Channel(1).Stats()
	if st.Retransmissions != 0 {
		t.Fatalf("retransmissions on a clean run: %d", st.Retransmissions)
	}
}

func TestWindowLimitsOutstanding(t *testing.T) {
	cfg := DefaultClusterConfig(1)
	cfg.Channel.Window = 4
	cfg.Channel.RTO = 10_000_000 // long, so no timeouts interfere
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	tx := c.Endpoints(1)[0]
	tx.Channel(1).Send(50)
	// Sample while running: the window bound must hold throughout.
	for i := 0; i < 40; i++ {
		c.RunFor(50_000)
		if o := tx.Channel(1).Outstanding(); o > 4 {
			t.Fatalf("outstanding %d exceeds window 4", o)
		}
	}
	c.RunFor(100_000_000)
	if d := c.Endpoints(1)[1].Channel(0).Stats().Delivered; d != 50 {
		t.Fatalf("delivered %d/50", d)
	}
}

func TestLossRecoveryByRetransmission(t *testing.T) {
	// Unlike FM's credits (which wedge permanently), go-back-N recovers
	// from loss — the property SHARE's discard approach depends on. The
	// fault plan is the same kind internal/parpar accepts, so the two
	// stacks' responses to identical loss are directly comparable.
	cfg := DefaultClusterConfig(1)
	cfg.Seed = 7
	cfg.Quantum = 100_000_000 // no rotation during the stream
	plan := chaos.Loss(7, 0.05)
	cfg.Chaos = &plan
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	tx, rx := c.Endpoints(1)[0], c.Endpoints(1)[1]
	tx.Channel(1).Send(300)
	c.RunFor(400_000_000)
	st := rx.Channel(0).Stats()
	if st.Delivered != 300 {
		t.Fatalf("delivered %d/300 under 5%% loss", st.Delivered)
	}
	if tx.Channel(1).Stats().Retransmissions == 0 {
		t.Fatal("expected retransmissions under loss")
	}
	if dropped := c.Net.Stats().Dropped[myrinet.Data]; dropped == 0 {
		t.Fatal("injector dropped nothing")
	}
}

func TestShareDiscardSwitchSkipsFlush(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	cfg.Scheme = core.Discard
	cfg.Quantum = 2_000_000
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Endpoints(1)[0].Channel(1).Send(4000)
	c.Endpoints(2)[0].Channel(1).Send(4000)
	c.RunFor(40_000_000)
	rep := c.Collect()
	if rep.Switches == 0 {
		t.Fatal("no switches recorded")
	}
	if rep.MeanWait != 0 {
		t.Fatalf("discard switching should have zero flush wait, got %.0f", rep.MeanWait)
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
	cfg := DefaultClusterConfig(2)
	cfg.Scheme = core.Quiesce
	cfg.Quantum = 2_000_000
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Endpoints(1)[0].Channel(1).Send(4000)
	c.Endpoints(2)[0].Channel(1).Send(4000)
	c.RunFor(40_000_000)
	rep := c.Collect()
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
			cfg := DefaultClusterConfig(2)
			cfg.Scheme = scheme
			cfg.Quantum = 2_000_000
			plan := chaos.Loss(3, 0.05)
			cfg.Chaos = &plan
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			c.Endpoints(1)[0].Channel(1).Send(4000)
			c.Endpoints(2)[0].Channel(1).Send(4000)
			c.RunFor(100_000_000)
			rep := c.Collect()
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
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultClusterConfig(2)
			cfg.Scheme = scheme
			cfg.Quantum = 1_000_000
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			for j := 1; j <= 2; j++ {
				c.Endpoints(myrinet.JobID(j))[0].Channel(1).Send(2000)
			}
			c.RunFor(100_000_000)
			for j := 1; j <= 2; j++ {
				d := c.Endpoints(myrinet.JobID(j))[1].Channel(0).Stats().Delivered
				if d != 2000 {
					t.Fatalf("job %d delivered %d/2000", j, d)
				}
			}
		})
	}
}

func TestDeliveryExactlyOnceUnderDiscard(t *testing.T) {
	// Retransmissions must not cause duplicate deliveries.
	cfg := DefaultClusterConfig(2)
	cfg.Scheme = core.Discard
	cfg.Quantum = 800_000
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	seen := make(map[uint64]int)
	c.Endpoints(1)[1].Channel(0).SetOnDeliver(func(seq uint64) { seen[seq]++ })
	c.Endpoints(1)[0].Channel(1).Send(1500)
	c.Endpoints(2)[0].Channel(1).Send(1500)
	c.RunFor(120_000_000)
	if len(seen) != 1500 {
		t.Fatalf("delivered %d distinct/1500", len(seen))
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
}

func TestPMQuiescenceWaitRecorded(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	cfg.Scheme = core.Quiesce
	cfg.Quantum = 2_000_000
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Endpoints(1)[0].Channel(1).Send(4000)
	c.Endpoints(2)[0].Channel(1).Send(4000)
	c.RunFor(30_000_000)
	rep := c.Collect()
	if rep.MeanWait == 0 {
		t.Fatal("quiescence flush should record nonzero wait on the sending node")
	}
}

func TestEfficiencyMetric(t *testing.T) {
	r := Report{Sent: 90, Retransmissions: 10, Delivered: 90}
	if e := r.Efficiency(); e != 0.9 {
		t.Fatalf("efficiency = %v", e)
	}
	if (Report{}).Efficiency() != 0 {
		t.Fatal("empty report efficiency should be 0")
	}
}

func TestClusterValidation(t *testing.T) {
	bad := DefaultClusterConfig(0)
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("zero jobs should fail")
	}
	bad = DefaultClusterConfig(1)
	bad.Nodes = 1
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("one node should fail")
	}
	bad = DefaultClusterConfig(1)
	bad.Scheme = core.Flush
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("the paper's flush is not an alternative scheme")
	}
}

func TestRChannelValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(2))
	nic := lanai.New(eng, net, memmodel.Default(), lanai.DefaultConfig(0))
	cpu := sim.NewResource(eng)
	bad := DefaultRChannelConfig()
	bad.Window = 0
	if _, err := NewRChannel(eng, nic, nil, cpu, bad, 1, 0, 1, 1, 100); err == nil {
		t.Fatal("zero window should fail")
	}
	bad = DefaultRChannelConfig()
	if _, err := NewRChannel(eng, nic, nil, cpu, bad, 1, 0, 1, 1, 0); err == nil {
		t.Fatal("zero payload should fail")
	}
	if _, err := NewRChannel(eng, nic, nil, cpu, bad, 1, 0, 1, 1, myrinet.MaxPayload+1); err == nil {
		t.Fatal("oversized payload should fail")
	}
}

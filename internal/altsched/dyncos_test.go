package altsched

import (
	"testing"

	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// dynPair builds two dynamically coscheduled nodes hosting a 2-rank job.
func dynPair(t *testing.T, cfg DynCosConfig) (*sim.Engine, *DynCosNode, *DynCosNode) {
	t.Helper()
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(2))
	mem := memmodel.Default()
	a, err := NewDynCosNode(eng, net, mem, 0, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDynCosNode(eng, net, mem, 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, b
}

func TestDynCosMessageWakesReceiver(t *testing.T) {
	eng, a, b := dynPair(t, DefaultDynCosConfig())
	delivered := 0
	b.EP.Channel(0).SetOnDeliver(func(uint64) { delivered++ })
	// Both start descheduled (computing). The sender wakes itself and
	// sends; the receiver must be woken by the arrival.
	a.Wake()
	a.EP.Channel(1).Send(3)
	eng.RunUntil(10_000_000)
	if delivered != 3 {
		t.Fatalf("delivered %d/3", delivered)
	}
	if b.Wakeups == 0 {
		t.Fatal("receiver was never woken by message arrival")
	}
}

func TestDynCosIdleTimeoutDeschedules(t *testing.T) {
	cfg := DefaultDynCosConfig()
	eng, a, b := dynPair(t, cfg)
	a.Wake()
	a.EP.Channel(1).Send(1)
	eng.RunUntil(1_000_000)
	if b.Wakeups == 0 {
		t.Fatal("receiver was not woken by the message before the idle timeout")
	}
	eng.RunUntil(20_000_000)
	if a.EP.Running() || b.EP.Running() {
		t.Fatal("processes should be descheduled after the idle timeout")
	}
}

func TestDynCosComputeFraction(t *testing.T) {
	// Sparse traffic: local compute should keep the vast majority of the
	// CPU despite the communication wakeups.
	cfg := DefaultDynCosConfig()
	eng, a, b := dynPair(t, cfg)
	requests := 0
	var tick func()
	tick = func() {
		if requests >= 10 {
			return
		}
		requests++
		a.Wake()
		a.EP.Channel(1).Send(1)
		eng.Schedule(20_000_000, tick) // one message every 100 ms
	}
	tick()
	eng.RunUntil(220_000_000)
	if f := computeFraction(a); f < 0.90 {
		t.Fatalf("compute fraction %.2f, want >0.90 under sparse traffic", f)
	}
	if f := computeFraction(b); f < 0.90 {
		t.Fatalf("receiver compute fraction %.2f", f)
	}
	if b.EP.Channel(0).Stats().Delivered != 10 {
		t.Fatalf("delivered %d/10", b.EP.Channel(0).Stats().Delivered)
	}
}

func TestDynCosResponseLatency(t *testing.T) {
	// The headline property: a request arriving at a descheduled process
	// is served after ~dispatch latency, not after waiting for the next
	// gang quantum. Round trip = 2x dispatch + transport.
	cfg := DefaultDynCosConfig()
	eng, a, b := dynPair(t, cfg)
	b.EP.Channel(0).SetOnDeliver(func(uint64) {
		// Echo: the reply wakes node A's process in turn.
		b.EP.Channel(0).Send(1)
	})
	var issued, replied sim.Time
	a.EP.Channel(1).SetOnDeliver(func(uint64) { replied = eng.Now() })
	issued = eng.Now()
	a.Wake()
	a.EP.Channel(1).Send(1)
	eng.RunUntil(50_000_000)
	if replied == 0 {
		t.Fatal("no reply")
	}
	rtt := replied - issued
	// Must be on the order of the dispatch latency (tens of us), far
	// below any gang quantum (>= tens of ms).
	if rtt > 1_000_000 {
		t.Fatalf("round trip %d cycles — dynamic coscheduling should respond in ~dispatch time", rtt)
	}
	if rtt < cfg.Dispatch {
		t.Fatalf("round trip %d cycles below the dispatch latency %d — wakeup not modeled", rtt, cfg.Dispatch)
	}
}

func TestDynCosBulkTrafficStaysAwake(t *testing.T) {
	// A continuous stream must not thrash wakeups: the idle timer keeps
	// the process scheduled while traffic flows.
	cfg := DefaultDynCosConfig()
	eng, a, b := dynPair(t, cfg)
	a.Wake()
	a.EP.Channel(1).Send(2000)
	eng.RunUntil(100_000_000)
	if got := b.EP.Channel(0).Stats().Delivered; got != 2000 {
		t.Fatalf("delivered %d/2000", got)
	}
	if b.Wakeups > 10 {
		t.Fatalf("receiver thrashed: %d wakeups for one continuous stream", b.Wakeups)
	}
}

// computeFraction returns the fraction of elapsed time n's local compute
// job held the CPU.
func computeFraction(n *DynCosNode) float64 {
	total := n.eng.Now()
	if total == 0 {
		return 1
	}
	c := n.ComputeCycles
	if !n.EP.Running() {
		c += n.eng.Now() - n.computeSince
	}
	return float64(c) / float64(total)
}

package fm

import (
	"bytes"
	"testing"
	"testing/quick"

	"gangfm/internal/chaos"
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

func TestAllocatePartitionedFormulas(t *testing.T) {
	// Paper geometry: send 252, recv 668 packets, p=16 processors.
	cases := []struct {
		n                int
		wantRecv, wantC0 int
	}{
		{1, 668, 41}, // 668/16 = 41
		{2, 334, 10}, // 334/(2*16) = 10
		{3, 222, 4},  // 222/48 = 4
		{4, 167, 2},  // 167/64 = 2
		{5, 133, 1},
		{6, 111, 1},
		{7, 95, 0}, // the communication cliff
		{8, 83, 0}, // paper: "no communication is even possible for as few as 8 contexts"
	}
	for _, tc := range cases {
		a, err := Allocate(Partitioned, 252, 668, tc.n, 16)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if a.RecvSlots != tc.wantRecv {
			t.Errorf("n=%d: RecvSlots=%d, want %d", tc.n, a.RecvSlots, tc.wantRecv)
		}
		if a.C0 != tc.wantC0 {
			t.Errorf("n=%d: C0=%d, want %d", tc.n, a.C0, tc.wantC0)
		}
		if a.SendSlots != 252/tc.n {
			t.Errorf("n=%d: SendSlots=%d, want %d", tc.n, a.SendSlots, 252/tc.n)
		}
	}
}

func TestAllocateSwitchedFormulas(t *testing.T) {
	// Switched: full buffers and C0 = Br/p regardless of context count.
	for n := 1; n <= 8; n++ {
		a, err := Allocate(Switched, 252, 668, n, 16)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if a.SendSlots != 252 || a.RecvSlots != 668 || a.C0 != 41 {
			t.Errorf("n=%d: got %+v, want full buffers and C0=41", n, a)
		}
	}
}

func TestAllocateCreditGainIsNSquared(t *testing.T) {
	// Paper §3.3: "these adjustments increased the maximal credit number
	// by a factor of n^2".
	for _, n := range []int{2, 3, 4} {
		recv := 160 * n * n // divisible by n and by n*16, so no floor noise
		part, _ := Allocate(Partitioned, 252, recv, n, 16)
		sw, _ := Allocate(Switched, 252, recv, n, 16)
		if sw.C0 != part.C0*n*n {
			t.Errorf("n=%d: switched C0=%d, partitioned C0=%d, want n^2 ratio", n, sw.C0, part.C0)
		}
	}
}

func TestAllocateErrors(t *testing.T) {
	if _, err := Allocate(Partitioned, 252, 668, 0, 16); err == nil {
		t.Error("zero contexts should fail")
	}
	if _, err := Allocate(Partitioned, 252, 668, 300, 16); err == nil {
		t.Error("more contexts than send slots should fail")
	}
	if _, err := Allocate(Partitioned, 0, 668, 1, 16); err == nil {
		t.Error("zero buffers should fail")
	}
	if _, err := Allocate(Switched, 252, 668, 1, 0); err == nil {
		t.Error("zero processors should fail")
	}
	if _, err := Allocate(Policy(42), 252, 668, 1, 16); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestPolicyString(t *testing.T) {
	if Partitioned.String() != "partitioned" || Switched.String() != "switched" {
		t.Fatal("policy names")
	}
}

// jobRig wires a single job across `nodes` nodes with one endpoint per
// node, using the switched allocation unless cfgFn overrides.
type jobRig struct {
	eng  *sim.Engine
	net  *myrinet.Network
	nics []*lanai.NIC
	cpus []*sim.Resource
	eps  []*Endpoint
}

func newJobRig(t *testing.T, nodes int, mutate func(*Config), plan *chaos.Plan) *jobRig {
	t.Helper()
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(nodes))
	if plan != nil {
		net.SetInjector(chaos.NewInjector(eng, *plan))
	}
	mem := memmodel.Default()
	r := &jobRig{eng: eng, net: net}
	alloc, err := Allocate(Switched, 252, 668, 1, nodes)
	if err != nil {
		t.Fatal(err)
	}
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
		ep, err := NewEndpoint(eng, nic, cpu, mem, cfg, 1, i, nodeOf)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := nic.Register(1, alloc.SendSlots, alloc.RecvSlots, lanai.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		ep.Attach(ctx)
		ep.Resume()
		r.nics = append(r.nics, nic)
		r.cpus = append(r.cpus, cpu)
		r.eps = append(r.eps, ep)
	}
	return r
}

func TestSendReceiveIntegrity(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	payload := make([]byte, 4000) // > 2 fragments
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	gotSize := 0
	r.eps[1].SetHandler(func(src, size int, data []byte) {
		if src != 0 {
			t.Errorf("src = %d, want 0", src)
		}
		gotSize = size
		got = data
	})
	if !r.eps[0].Send(1, len(payload), payload) {
		t.Fatal("send rejected")
	}
	r.eng.Run()
	if gotSize != len(payload) {
		t.Fatalf("received size %d, want %d", gotSize, len(payload))
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted in transit")
	}
	st := r.eps[0].Stats()
	wantFrags := (4000 + myrinet.MaxPayload - 1) / myrinet.MaxPayload
	if st.PacketsSent != uint64(wantFrags) {
		t.Fatalf("sent %d packets, want %d", st.PacketsSent, wantFrags)
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	var order []int
	r.eps[1].SetHandler(func(_, size int, _ []byte) { order = append(order, size) })
	const n = 50
	sent := 0
	var fill func()
	fill = func() {
		for sent < n && r.eps[0].Send(1, sent+1, nil) {
			sent++
		}
	}
	r.eps[0].SetOnCanSend(fill)
	fill()
	r.eng.Run()
	if len(order) != n {
		t.Fatalf("received %d messages, want %d", len(order), n)
	}
	for i, sz := range order {
		if sz != i+1 {
			t.Fatalf("message order violated at %d: size %d", i, sz)
		}
	}
}

func TestOutboxBackpressure(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	accepted := 0
	for i := 0; i < 2*outboxCap; i++ {
		if r.eps[0].Send(1, 100, nil) {
			accepted++
		}
	}
	if accepted != outboxCap {
		t.Fatalf("accepted %d, want outbox cap %d", accepted, outboxCap)
	}
	canSendFired := 0
	r.eps[0].SetOnCanSend(func() { canSendFired++ })
	r.eng.Run()
	if canSendFired == 0 {
		t.Fatal("OnCanSend never fired")
	}
}

func TestZeroCreditsNoCommunication(t *testing.T) {
	// The Figure 5 cliff: C0 = 0 means the sender can never inject.
	r := newJobRig(t, 2, func(c *Config) { c.C0 = 0 }, nil)
	delivered := 0
	r.eps[1].SetHandler(func(_, _ int, _ []byte) { delivered++ })
	r.eps[0].Send(1, 100, nil)
	r.eng.Run()
	if delivered != 0 {
		t.Fatal("message delivered with zero credits")
	}
	if r.eps[0].Stats().CreditStalls == 0 {
		t.Fatal("expected a credit stall")
	}
}

func TestCreditStallAndRefillRecovery(t *testing.T) {
	// C0=2 forces repeated stalls; refills must keep traffic moving.
	r := newJobRig(t, 2, func(c *Config) { c.C0 = 2 }, nil)
	delivered := 0
	r.eps[1].SetHandler(func(_, _ int, _ []byte) { delivered++ })
	const n = 30
	sent := 0
	var fill func()
	fill = func() {
		for sent < n && r.eps[0].Send(1, 512, nil) {
			sent++
		}
	}
	r.eps[0].SetOnCanSend(fill)
	fill()
	r.eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d, want %d", delivered, n)
	}
	if r.eps[0].Stats().CreditStalls == 0 {
		t.Fatal("expected credit stalls with C0=2")
	}
	if r.eps[1].Stats().RefillsSent == 0 {
		t.Fatal("receiver sent no refills")
	}
}

func TestPiggybackReducesExplicitRefills(t *testing.T) {
	// Bidirectional traffic piggybacks credits on data packets; the
	// number of explicit refills should drop well below the one-way case.
	run := func(bidi bool) uint64 {
		r := newJobRig(t, 2, func(c *Config) { c.C0 = 8 }, nil)
		const n = 60
		for _, ep := range r.eps {
			ep := ep
			sent := 0
			send := func() bool {
				if ep.rank == 1 && !bidi {
					return false
				}
				dst := 1 - ep.rank
				for sent < n && ep.Send(dst, 512, nil) {
					sent++
				}
				return true
			}
			ep.SetOnCanSend(func() { send() })
			send()
		}
		r.eng.Run()
		return r.eps[1].Stats().RefillsSent
	}
	oneWay := run(false)
	twoWay := run(true)
	if oneWay == 0 {
		t.Fatal("one-way traffic needs explicit refills")
	}
	if twoWay >= oneWay {
		t.Fatalf("piggybacking did not reduce explicit refills: one-way=%d two-way=%d", oneWay, twoWay)
	}
}

func TestSuspendAccumulatesResumDrains(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	delivered := 0
	r.eps[1].SetHandler(func(_, _ int, _ []byte) { delivered++ })
	r.eps[1].Suspend()
	for i := 0; i < 5; i++ {
		r.eps[0].Send(1, 200, nil)
	}
	r.eng.Run()
	if delivered != 0 {
		t.Fatal("suspended process consumed packets")
	}
	backlog := r.eps[1].Context().RecvQ.Len()
	if backlog != 5 {
		t.Fatalf("receive queue backlog = %d, want 5", backlog)
	}
	r.eps[1].Resume()
	r.eng.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d after resume, want 5", delivered)
	}
}

func TestSuspendedSenderProducesNothing(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	r.eps[0].Suspend()
	r.eps[0].Send(1, 100, nil) // queued in outbox only
	r.eng.Run()
	if r.eps[0].Stats().PacketsSent != 0 {
		t.Fatal("suspended sender injected a packet")
	}
	r.eps[0].Resume()
	r.eng.Run()
	if r.eps[0].Stats().PacketsSent != 1 {
		t.Fatal("resume did not restart the pump")
	}
}

func TestCreditsNeverExceedC0(t *testing.T) {
	// Bidirectional random-ish traffic; the endpoint itself panics if
	// credits exceed C0, so surviving the run is the assertion. Also
	// check non-negativity here.
	r := newJobRig(t, 3, func(c *Config) { c.C0 = 3 }, nil)
	for _, ep := range r.eps {
		ep := ep
		sent := 0
		var fill func()
		fill = func() {
			for sent < 40 {
				dst := (ep.rank + 1 + sent%2) % 3
				if dst == ep.rank {
					dst = (dst + 1) % 3
				}
				if !ep.Send(dst, 100+sent*13, nil) {
					return
				}
				sent++
			}
		}
		ep.SetOnCanSend(fill)
		fill()
	}
	r.eng.Run()
	for _, ep := range r.eps {
		for peer := 0; peer < 3; peer++ {
			if c := ep.sendCredits[peer]; c < 0 || c > 3 {
				t.Fatalf("rank %d credits toward %d = %d, outside [0,3]", ep.rank, peer, c)
			}
		}
	}
}

func TestPacketLossCorruptsFlowControl(t *testing.T) {
	// Paper §2.2: "a single packet loss can mess up the credit counters
	// and the entire flow control algorithm. FM does not have a
	// retransmission mechanism." With loss injected, the transfer stalls
	// and never completes.
	plan := chaos.Loss(12345, 0.2)
	r := newJobRig(t, 2, func(c *Config) { c.C0 = 4 }, &plan)
	delivered := 0
	r.eps[1].SetHandler(func(_, _ int, _ []byte) { delivered++ })
	const n = 100
	sent := 0
	var fill func()
	fill = func() {
		for sent < n && r.eps[0].Send(1, 512, nil) {
			sent++
		}
	}
	r.eps[0].SetOnCanSend(fill)
	fill()
	r.eng.Run()
	if delivered >= n {
		t.Fatalf("all %d messages delivered despite 20%% loss and no retransmission", n)
	}
	// The sender must be wedged: out of credits with messages pending.
	if r.eps[0].sendCredits[1] != 0 {
		t.Logf("credits remaining: %d (loss pattern dependent)", r.eps[0].sendCredits[1])
	}
}

func TestRefillThresholdDefault(t *testing.T) {
	c := Config{C0: 10}
	if c.refillThreshold() != 5 {
		t.Fatalf("default threshold = %d, want C0/2", c.refillThreshold())
	}
	c = Config{C0: 1}
	if c.refillThreshold() != 1 {
		t.Fatalf("threshold floor = %d, want 1", c.refillThreshold())
	}
}

func TestSendValidation(t *testing.T) {
	r := newJobRig(t, 2, nil, nil)
	for _, fn := range []func(){
		func() { r.eps[0].Send(0, 10, nil) },             // self
		func() { r.eps[0].Send(5, 10, nil) },             // out of range
		func() { r.eps[0].Send(1, 0, nil) },              // empty
		func() { r.eps[0].Send(1, 10, make([]byte, 3)) }, // size mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBandwidthApproximatesPaperPeak(t *testing.T) {
	// One context, switched allocation, large messages: the paper's
	// Figures 5 and 6 peak around 70-80 MB/s. Our host cost model should
	// land in that band.
	r := newJobRig(t, 2, nil, nil)
	const msgSize = 64 * 1024
	const nMsgs = 64
	var doneAt sim.Time
	received := 0
	r.eps[1].SetHandler(func(_, size int, _ []byte) {
		received++
		if received == nMsgs {
			doneAt = r.eng.Now()
		}
	})
	sent := 0
	var fill func()
	fill = func() {
		for sent < nMsgs && r.eps[0].Send(1, msgSize, nil) {
			sent++
		}
	}
	r.eps[0].SetOnCanSend(fill)
	fill()
	r.eng.Run()
	if received != nMsgs {
		t.Fatalf("received %d, want %d", received, nMsgs)
	}
	bytes := float64(msgSize) * nMsgs
	secs := sim.DefaultClock.ToDuration(doneAt).Seconds()
	mbs := bytes / secs / 1e6
	if mbs < 55 || mbs > 90 {
		t.Fatalf("peak bandwidth %.1f MB/s, want ~70 (55-90)", mbs)
	}
}

// Property: messages of arbitrary sizes arrive intact and in order.
func TestMessageIntegrityProperty(t *testing.T) {
	prop := func(sizes []uint16, seed uint64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		r := newJobRigQuiet(2)
		rng := sim.NewRand(seed)
		var want [][]byte
		for _, s := range sizes {
			size := int(s)%5000 + 1
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(rng.Uint64())
			}
			want = append(want, buf)
		}
		var got [][]byte
		r.eps[1].SetHandler(func(_, _ int, data []byte) {
			cp := make([]byte, len(data))
			copy(cp, data)
			got = append(got, cp)
		})
		i := 0
		var fill func()
		fill = func() {
			for i < len(want) && r.eps[0].Send(1, len(want[i]), want[i]) {
				i++
			}
		}
		r.eps[0].SetOnCanSend(fill)
		fill()
		r.eng.Run()
		if len(got) != len(want) {
			return false
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// newJobRigQuiet is newJobRig without *testing.T, for quick properties.
func newJobRigQuiet(nodes int) *jobRig {
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
		ep, _ := NewEndpoint(eng, nic, cpu, mem, DefaultConfig(alloc.C0), 1, i, nodeOf)
		ctx, _ := nic.Register(1, alloc.SendSlots, alloc.RecvSlots, lanai.Hooks{})
		ep.Attach(ctx)
		ep.Resume()
		r.nics = append(r.nics, nic)
		r.cpus = append(r.cpus, cpu)
		r.eps = append(r.eps, ep)
	}
	return r
}

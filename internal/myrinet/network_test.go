package myrinet

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gangfm/internal/sim"
)

func collector(got *[]*Packet) Handler {
	return HandlerFunc(func(p *Packet) { *got = append(*got, p) })
}

func TestPacketTypeStrings(t *testing.T) {
	for ty, want := range map[PacketType]string{
		Data: "Data", Refill: "Refill", Halt: "Halt", Ready: "Ready", Ack: "Ack", Nack: "Nack",
	} {
		if ty.String() != want {
			t.Errorf("PacketType %d String = %q, want %q", ty, ty.String(), want)
		}
	}
}

func TestControlClassification(t *testing.T) {
	if Data.IsControl() || Refill.IsControl() {
		t.Error("Data/Refill misclassified as control")
	}
	for _, ty := range []PacketType{Halt, Ready, Ack, Nack} {
		if !ty.IsControl() {
			t.Errorf("%v should be control", ty)
		}
	}
}

func TestWireSize(t *testing.T) {
	d := &Packet{Type: Data, PayloadLen: MaxPayload}
	if d.WireSize() != PacketSize {
		t.Errorf("full data packet wire size = %d, want %d", d.WireSize(), PacketSize)
	}
	h := &Packet{Type: Halt}
	if h.WireSize() != ControlSize {
		t.Errorf("halt wire size = %d, want %d", h.WireSize(), ControlSize)
	}
	r := &Packet{Type: Refill, PayloadLen: 0}
	if r.WireSize() != ControlSize {
		t.Errorf("refill wire size = %d, want %d", r.WireSize(), ControlSize)
	}
}

func TestDelivery(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(4))
	var got []*Packet
	net.Attach(1, collector(&got))
	net.Send(&Packet{Type: Data, Src: 0, Dst: 1, PayloadLen: 100})
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if eng.Now() == 0 {
		t.Fatal("delivery should take nonzero time")
	}
}

func TestFIFOPerRoute(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	var got []*Packet
	net.Attach(1, collector(&got))
	const n = 50
	for i := 0; i < n; i++ {
		net.Send(&Packet{Type: Data, Src: 0, Dst: 1, PayloadLen: 10 + i*7, MsgID: uint64(i)})
	}
	eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, p := range got {
		if p.MsgID != uint64(i) {
			t.Fatalf("FIFO violated at %d: got msg %d", i, p.MsgID)
		}
		if p.Seq != uint64(i) {
			t.Fatalf("sequence stamping wrong at %d: %d", i, p.Seq)
		}
	}
}

// TestControlAfterDataFIFO verifies the property the flush protocol relies
// on: a Halt sent after data on the same route arrives after the data.
func TestControlAfterDataFIFO(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	var got []*Packet
	net.Attach(1, collector(&got))
	for i := 0; i < 10; i++ {
		net.Send(&Packet{Type: Data, Src: 0, Dst: 1, PayloadLen: MaxPayload})
	}
	net.Send(&Packet{Type: Halt, Src: 0, Dst: 1})
	eng.Run()
	if got[len(got)-1].Type != Halt {
		t.Fatal("halt overtook data packets")
	}
}

func TestSerializationShapesBandwidth(t *testing.T) {
	// 100 full packets at 160 MB/s should take ~100 * (1560B/160MBs).
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	net := New(eng, cfg)
	var got []*Packet
	net.Attach(1, collector(&got))
	const n = 100
	for i := 0; i < n; i++ {
		net.Send(&Packet{Type: Data, Src: 0, Dst: 1, PayloadLen: MaxPayload})
	}
	eng.Run()
	perPkt := sim.DefaultClock.CyclesPerByte(cfg.LinkMBs).Cycles(PacketSize) + cfg.PerPacketGap
	want := sim.Time(n)*perPkt + cfg.SwitchLatency
	gotT := eng.Now()
	if gotT < want-10 || gotT > want+10 {
		t.Fatalf("last delivery at %d, want ~%d", gotT, want)
	}
}

func TestIndependentSourcesDontSerialize(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(4))
	var got []*Packet
	net.Attach(3, collector(&got))
	// Two different sources inject simultaneously; both arrive after a
	// single transmission time, not two.
	net.Send(&Packet{Type: Data, Src: 0, Dst: 3, PayloadLen: MaxPayload})
	net.Send(&Packet{Type: Data, Src: 1, Dst: 3, PayloadLen: MaxPayload})
	eng.Run()
	perPkt := sim.DefaultClock.CyclesPerByte(160).Cycles(PacketSize) + 40
	if eng.Now() > perPkt+200+20 {
		t.Fatalf("independent sources appear serialized: done at %d", eng.Now())
	}
}

func TestSelfSend(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	var got []*Packet
	net.Attach(0, collector(&got))
	net.Send(&Packet{Type: Data, Src: 0, Dst: 0, PayloadLen: 5})
	eng.Run()
	if len(got) != 1 {
		t.Fatal("self-send not delivered")
	}
}

// lossInjector is a local stand-in for the chaos layer (which cannot be
// imported here: it depends on this package). It drops matching packets
// with a fixed probability and can duplicate the first data packet.
type lossInjector struct {
	rng     *sim.Rand
	prob    float64
	control bool // also drop control packets
	dupOnce bool
	dupped  bool
}

func (l *lossInjector) Packet(_ sim.Time, p *Packet) Verdict {
	if l.dupOnce && !l.dupped && p.Type == Data {
		l.dupped = true
		return Verdict{Duplicate: true}
	}
	if !l.control && p.Type.IsControl() {
		return Verdict{}
	}
	if l.prob > 0 && l.rng.Bool(l.prob) {
		return Verdict{Drop: true}
	}
	return Verdict{}
}

func TestLossInjection(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	net.SetInjector(&lossInjector{rng: sim.NewRand(99), prob: 0.5})
	var dropped []*Packet
	net.SetObserver(func(e Event) {
		if e.Kind == Drop {
			dropped = append(dropped, e.Pkt)
		}
	})
	var got []*Packet
	net.Attach(1, collector(&got))
	const n = 1000
	for i := 0; i < n; i++ {
		net.Send(&Packet{Type: Data, Src: 0, Dst: 1, PayloadLen: 10})
	}
	eng.Run()
	s := net.Stats()
	if s.Dropped[Data] == 0 {
		t.Fatal("no packets dropped at 50% loss")
	}
	if int(s.Dropped[Data])+len(got) != n {
		t.Fatalf("dropped %d + delivered %d != sent %d", s.Dropped[Data], len(got), n)
	}
	if len(dropped) != int(s.Dropped[Data]) {
		t.Fatalf("observer saw %d drops, stats say %d", len(dropped), s.Dropped[Data])
	}
	// This injector exempts control packets, as the default chaos plans do.
	for i := 0; i < 100; i++ {
		net.Send(&Packet{Type: Halt, Src: 0, Dst: 1})
	}
	eng.Run()
	if net.Stats().Dropped[Halt] != 0 {
		t.Fatal("control packets dropped by a data-only injector")
	}
}

func TestInjectorDropsControl(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	net.SetInjector(&lossInjector{rng: sim.NewRand(5), prob: 0.9, control: true})
	net.Attach(1, HandlerFunc(func(*Packet) {}))
	for i := 0; i < 200; i++ {
		net.Send(&Packet{Type: Halt, Src: 0, Dst: 1})
	}
	eng.Run()
	if net.Stats().Dropped[Halt] == 0 {
		t.Fatal("a control-matching injector should drop control packets")
	}
}

func TestDuplicateInjection(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	net.SetInjector(&lossInjector{rng: sim.NewRand(1), dupOnce: true})
	var got []*Packet
	net.Attach(1, collector(&got))
	net.Send(&Packet{Type: Data, Src: 0, Dst: 1, Job: 4, PayloadLen: 10, MsgID: 9})
	if net.InFlight(4) != 2 {
		t.Fatalf("InFlight = %d with a duplicate on the wire, want 2", net.InFlight(4))
	}
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(got))
	}
	if got[0] == got[1] {
		t.Fatal("duplicate must be an independent packet, not the same pointer")
	}
	if got[1].MsgID != 9 {
		t.Fatal("duplicate lost its header fields")
	}
	if net.Stats().Duplicated[Data] != 1 {
		t.Fatalf("Duplicated[Data] = %d, want 1", net.Stats().Duplicated[Data])
	}
	if net.InFlight(4) != 0 {
		t.Fatalf("InFlight = %d after delivery, want 0", net.InFlight(4))
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(3))
	net.Attach(1, HandlerFunc(func(*Packet) {}))
	net.Send(&Packet{Type: Data, Src: 0, Dst: 1, PayloadLen: 100})
	net.Send(&Packet{Type: Refill, Src: 2, Dst: 1})
	eng.Run()
	s := net.Stats()
	if s.Sent[Data] != 1 || s.Sent[Refill] != 1 {
		t.Fatalf("sent counters wrong: %+v", s.Sent)
	}
	if s.Delivered[Data] != 1 || s.Delivered[Refill] != 1 {
		t.Fatalf("delivered counters wrong: %+v", s.Delivered)
	}
	wantBytes := uint64(100 + HeaderSize + ControlSize)
	if s.Bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", s.Bytes, wantBytes)
	}
	// The maps hold only the packet types that were counted.
	if len(s.Sent) != 2 || len(s.Delivered) != 2 || len(s.Dropped) != 0 || len(s.Duplicated) != 0 {
		t.Fatalf("stats hold zero entries: %+v", s)
	}
}

func TestUnattachedHandlerDrops(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	net.Send(&Packet{Type: Data, Src: 0, Dst: 1, PayloadLen: 1})
	eng.Run()
	if net.Stats().Dropped[Data] != 1 {
		t.Fatal("packet to unattached node should count as dropped")
	}
}

func TestBadEndpointsPanic(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range destination")
		}
	}()
	net.Send(&Packet{Type: Data, Src: 0, Dst: 7})
}

// Property: for any interleaving of sizes, delivery order per route equals
// send order (FIFO), for every pair of nodes used.
func TestFIFOProperty(t *testing.T) {
	prop := func(sizes []uint16, dsts []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		eng := sim.NewEngine()
		net := New(eng, DefaultConfig(4))
		got := make(map[NodeID][]*Packet)
		for i := 0; i < 4; i++ {
			id := NodeID(i)
			net.Attach(id, HandlerFunc(func(p *Packet) { got[id] = append(got[id], p) }))
		}
		next := make(map[[2]NodeID]uint64)
		for i, sz := range sizes {
			dst := NodeID(1)
			if i < len(dsts) {
				dst = NodeID(dsts[i] % 4)
			}
			src := NodeID(0)
			if dst == 0 {
				src = 1
			}
			key := [2]NodeID{src, dst}
			net.Send(&Packet{
				Type: Data, Src: src, Dst: dst,
				PayloadLen: int(sz%MaxPayload) + 1,
				MsgID:      next[key],
			})
			next[key]++
		}
		eng.Run()
		for _, pkts := range got {
			perSrc := make(map[NodeID]uint64)
			for _, p := range pkts {
				if p.MsgID != perSrc[p.Src] {
					return false
				}
				perSrc[p.Src]++
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// dupHalf duplicates each data packet with probability 1/2 and records
// which (route, Seq) it duplicated.
type dupHalf struct {
	rng    *sim.Rand
	dupped map[[3]uint64]bool
}

func (d *dupHalf) Packet(_ sim.Time, p *Packet) Verdict {
	if p.Type != Data || !d.rng.Bool(0.5) {
		return Verdict{}
	}
	d.dupped[[3]uint64{uint64(p.Src), uint64(p.Dst), p.Seq}] = true
	return Verdict{Duplicate: true}
}

// TestRouteOrderProperty is the fabric's FIFO contract under the traffic
// the stack produces: every node sends a seeded stream of data packets of
// mixed sizes, control packets and self-sends, spaced 1–300 cycles apart
// so injection ports queue, while half the data packets are duplicated.
// On every route the deliveries must be exactly the send order, each
// duplicate right behind its original. Nothing but the FIFO port and the
// constant switch latency keeps a route in order.
func TestRouteOrderProperty(t *testing.T) {
	const nodes, sends = 5, 300
	for seed := uint64(1); seed <= 40; seed++ {
		eng := sim.NewEngine()
		net := New(eng, DefaultConfig(nodes))
		inj := &dupHalf{rng: sim.NewRand(seed), dupped: make(map[[3]uint64]bool)}
		net.SetInjector(inj)
		got := make(map[[2]NodeID][]uint64)
		for i := 0; i < nodes; i++ {
			net.Attach(NodeID(i), HandlerFunc(func(p *Packet) {
				r := [2]NodeID{p.Src, p.Dst}
				got[r] = append(got[r], p.Seq)
			}))
		}
		rng := sim.NewRand(seed * 7919)
		var sent [][3]uint64
		for src := 0; src < nodes; src++ {
			at := sim.Time(0)
			for k := 0; k < sends; k++ {
				at += sim.Time(1 + rng.Intn(300))
				dst := NodeID(rng.Intn(nodes))
				p := &Packet{Type: Data, Src: NodeID(src), Dst: dst, PayloadLen: rng.Intn(MaxPayload + 1)}
				if rng.Intn(4) == 0 {
					p.Type = []PacketType{Refill, Halt, Ready}[rng.Intn(3)]
				}
				eng.ScheduleAt(at, func() {
					net.Send(p)
					sent = append(sent, [3]uint64{uint64(p.Src), uint64(p.Dst), p.Seq})
				})
			}
		}
		eng.Run()
		want := make(map[[2]NodeID][]uint64)
		for _, s := range sent {
			r := [2]NodeID{NodeID(s[0]), NodeID(s[1])}
			want[r] = append(want[r], s[2])
			if inj.dupped[s] {
				want[r] = append(want[r], s[2])
			}
		}
		if len(inj.dupped) == 0 {
			t.Fatalf("seed %d: no duplicates injected", seed)
		}
		for r, w := range want {
			if !slices.Equal(got[r], w) {
				t.Fatalf("seed %d: route %d→%d delivered seqs %v, want %v", seed, r[0], r[1], got[r], w)
			}
		}
	}
}

func TestInFlightTracking(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	net.Attach(1, HandlerFunc(func(*Packet) {}))
	for i := 0; i < 5; i++ {
		net.Send(&Packet{Type: Data, Src: 0, Dst: 1, Job: 7, PayloadLen: 100})
	}
	if net.InFlight(7) != 5 {
		t.Fatalf("InFlight = %d after sends, want 5", net.InFlight(7))
	}
	eng.Run()
	if net.InFlight(7) != 0 {
		t.Fatalf("InFlight = %d after delivery, want 0", net.InFlight(7))
	}
	// Control packets are not tracked.
	net.Send(&Packet{Type: Halt, Src: 0, Dst: 1, Job: 7})
	if net.InFlight(7) != 0 {
		t.Fatal("control packets must not count as in-flight data")
	}
	eng.Run()
}

func TestInFlightAccountsDrops(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	net.SetInjector(&lossInjector{rng: sim.NewRand(3), prob: 1.0})
	net.Attach(1, HandlerFunc(func(*Packet) {}))
	net.Send(&Packet{Type: Data, Src: 0, Dst: 1, Job: 3, PayloadLen: 10})
	eng.Run()
	if net.InFlight(3) != 0 {
		t.Fatalf("dropped packet left InFlight = %d", net.InFlight(3))
	}
}

// TestInFlightJobPastSliceEnd: the in-flight counts are a slice indexed
// by JobID. A job past the slice's end grows it on its first packet, and
// InFlight reads 0 for jobs the fabric has not seen, in range or not.
func TestInFlightJobPastSliceEnd(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	net.Attach(1, HandlerFunc(func(*Packet) {}))
	net.Send(&Packet{Type: Data, Src: 0, Dst: 1, Job: 2, PayloadLen: 10})
	if n := len(net.inFlight); n != 3 {
		t.Fatalf("job 2's first packet sized the counts to %d, want 3", n)
	}
	for i := 0; i < 2; i++ {
		net.Send(&Packet{Type: Data, Src: 0, Dst: 1, Job: 40, PayloadLen: 10})
	}
	for job, want := range map[JobID]int{2: 1, 40: 2, 0: 0, 7: 0, 41: 0, 1000: 0, NoJob: 0} {
		if got := net.InFlight(job); got != want {
			t.Errorf("InFlight(%d) = %d with packets on the wire, want %d", job, got, want)
		}
	}
	eng.Run()
	for _, job := range []JobID{2, 40} {
		if got := net.InFlight(job); got != 0 {
			t.Errorf("InFlight(%d) = %d after delivery, want 0", job, got)
		}
	}
}

// TestDataPathZeroAllocAfterFirstPacket: a job's first data packet grows
// the count slice; every later packet of the job (pooled send, link,
// delivery, free) allocates nothing.
func TestDataPathZeroAllocAfterFirstPacket(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(2))
	net.Attach(1, HandlerFunc(net.FreePacket))
	send := func(job JobID) {
		p := net.NewPacket()
		p.Type, p.Src, p.Dst, p.Job, p.PayloadLen = Data, 0, 1, job, 100
		net.Send(p)
		eng.Run()
	}
	send(1) // warm the packet pool and the engine arena
	send(50)
	if len(net.inFlight) != 51 {
		t.Fatalf("job 50's first packet left a count slice of %d, want 51", len(net.inFlight))
	}
	if allocs := testing.AllocsPerRun(100, func() { send(50) }); allocs != 0 {
		t.Fatalf("a later packet of job 50 allocates %.1f objects, want 0", allocs)
	}
}

// TestRecycledPacketIsZero pins the pool's zero-on-alloc contract: a packet
// freed with every field set comes back from NewPacket with every field
// zero except pooled. Send paths set only the fields they need, so a field
// that survived recycling would leak into the next packet.
func TestRecycledPacketIsZero(t *testing.T) {
	net := New(sim.NewEngine(), DefaultConfig(2))
	p := net.NewPacket()
	v := reflect.ValueOf(p).Elem()
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		if !typ.Field(i).IsExported() {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Slice:
			f.SetBytes([]byte{1, 2, 3})
		default:
			t.Fatalf("field %s has kind %s: teach this test to fill it", typ.Field(i).Name, f.Kind())
		}
	}
	p.Dst = 1
	net.FreePacket(p)
	if q := net.NewPacket(); q != p {
		t.Fatal("the pool did not hand back the packet just freed")
	}
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; name != "pooled" && !v.Field(i).IsZero() {
			t.Errorf("recycled packet kept %s = %v", name, v.Field(i))
		}
	}
	if !p.pooled {
		t.Error("recycled packet is not marked pooled")
	}
}

// TestRouteSeqWrapPanics: a route's Seq counter is 32 bits wide, and a
// send that would wrap it panics instead of reusing a Seq.
func TestRouteSeqWrapPanics(t *testing.T) {
	net := New(sim.NewEngine(), DefaultConfig(2))
	net.seq[0][1] = math.MaxUint32 - 1
	net.Send(&Packet{Type: Data, Src: 0, Dst: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("a send past 2^32-1 packets on one route did not panic")
		}
	}()
	net.Send(&Packet{Type: Data, Src: 0, Dst: 1})
}

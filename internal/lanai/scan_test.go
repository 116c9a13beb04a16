package lanai

import (
	"slices"
	"testing"

	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// injLog is an injector that passes every packet and records when each
// data packet left its card: the send scanner's firing times.
type injLog struct{ at []sim.Time }

func (l *injLog) Packet(now sim.Time, p *myrinet.Packet) myrinet.Verdict {
	if p.Type == myrinet.Data {
		l.at = append(l.at, now)
	}
	return myrinet.Verdict{}
}

// scanRig is a card streaming one context's packets to a sink: node 0
// sends, node 1 consumes what arrives for jobs 1 and 2.
type scanRig struct {
	eng  *sim.Engine
	net  *myrinet.Network
	nics []*NIC
	tx   *Context
	log  injLog
}

func newScanRig(t testing.TB) *scanRig {
	t.Helper()
	eng := sim.NewEngine()
	net := myrinet.New(eng, myrinet.DefaultConfig(2))
	r := &scanRig{eng: eng, net: net}
	for i := 0; i < 2; i++ {
		r.nics = append(r.nics, New(eng, net, memmodel.Default(), DefaultConfig(myrinet.NodeID(i))))
	}
	var err error
	if r.tx, err = r.nics[0].Register(1, 16, 16, Hooks{}); err != nil {
		t.Fatal(err)
	}
	sink := r.nics[1]
	for job := myrinet.JobID(1); job <= 2; job++ {
		if _, err := sink.Register(job, 16, 16, Hooks{OnArrive: func(c *Context) { sink.FreePacket(sink.DequeueRecv(c)) }}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// pkt is a one-fragment 1536-byte packet from node 0 to node 1: its
// serialization keeps the link busy for 1,990 cycles.
func (r *scanRig) pkt(job myrinet.JobID) *myrinet.Packet {
	p := dataPkt(0, 1, job, 0)
	p.PayloadLen = 1536
	return p
}

func (r *scanRig) send() { r.nics[0].EnqueueSend(r.tx, r.pkt(r.tx.Job)) }

// sendSmall enqueues a pooled 96-byte packet for job 1, which the sink
// frees on arrival: the allocation-free steady state.
func (r *scanRig) sendSmall() {
	p := r.nics[0].NewPacket()
	p.Type, p.Src, p.Dst, p.Job, p.NFrags, p.PayloadLen = myrinet.Data, 0, 1, 1, 1, 96
	r.nics[0].EnqueueSend(r.tx, p)
}

// halt and release run node 0's switch stages alone: with its peer
// evicted, each completes as soon as it starts.
func (r *scanRig) halt()    { r.nics[0].EvictPeer(1); r.nics[0].HaltNetwork(1, nil) }
func (r *scanRig) release() { r.nics[0].ReleaseNetwork(1, nil) }

// rebind is the buffer switch's bind: a new identity, then a loaded send
// queue, with no enqueue to kick the scanner.
func (r *scanRig) rebind() {
	r.nics[0].SetIdentity(r.tx, 2, Hooks{})
	r.tx.SendQ.Load([]*myrinet.Packet{r.pkt(2)})
}

// TestScanTimes pins the send scanner's firing times, and the clock a
// drained run ends at, in cases that hinge on the re-arm at linkFree: one
// that leaves a packet behind, and touches before linkFree, or at its
// instant just before or just after the re-arm's key, that a scan leaving
// the queues empty must not miss. The times are those of a card that
// queues the re-arm at every injection. The first packet is scanned at
// 400 and frees the link at l1 = 2,390.
func TestScanTimes(t *testing.T) {
	const l1 = 2390
	cases := []struct {
		name  string
		setup func(r *scanRig)
		scans []sim.Time
		end   sim.Time
	}{
		{"leaves a packet behind", func(r *scanRig) {
			r.send()
			r.send()
			r.send()
		}, []sim.Time{400, 2790, 5180}, 11890},
		{"enqueue before linkFree", func(r *scanRig) {
			r.send()
			r.eng.ScheduleAt(500, r.send)
			r.eng.ScheduleAt(600, r.send)
		}, []sim.Time{400, 900, 2790}, 11890},
		{"halt and release before linkFree", func(r *scanRig) {
			r.send()
			r.eng.ScheduleAt(500, r.halt)
			r.eng.ScheduleAt(600, func() { r.send(); r.send() })
			r.eng.ScheduleAt(700, r.release)
		}, []sim.Time{400, 1100, 2790}, 11890},
		{"halt before linkFree, release after", func(r *scanRig) {
			r.send()
			r.eng.ScheduleAt(500, r.halt)
			r.eng.ScheduleAt(600, func() { r.send(); r.send() })
			r.eng.ScheduleAt(3000, r.release)
		}, []sim.Time{400, 3400, 5790}, 11890},
		{"SetIdentity before linkFree", func(r *scanRig) {
			r.send()
			r.eng.ScheduleAt(500, r.rebind)
		}, []sim.Time{400, 2790}, 8790},
		{"touch at linkFree before the key", func(r *scanRig) {
			r.send()
			r.eng.ScheduleAt(l1, r.rebind) // queued before the scan at 400
		}, []sim.Time{400, 2790}, 8790},
		{"touch at linkFree after the key", func(r *scanRig) {
			r.send()
			r.eng.ScheduleAt(401, func() { r.eng.ScheduleAt(l1, r.rebind) })
			r.eng.ScheduleAt(5000, r.send)
		}, []sim.Time{400, 5400, 7790}, 13790},
	}
	for _, c := range cases {
		r := newScanRig(t)
		r.net.SetInjector(&r.log)
		c.setup(r)
		r.eng.Run()
		if !slices.Equal(r.log.at, c.scans) || r.eng.Now() != c.end {
			t.Errorf("%s: scans at %v, run ended at %d; want %v and %d", c.name, r.log.at, r.eng.Now(), c.scans, c.end)
		}
	}
}

// TestDormantKickNoAlloc pins the dormant re-arm's path at zero
// allocations in steady state: an enqueue, the scan that leaves the queue
// empty and reserves the re-arm, a second enqueue before linkFree that
// files it, and a drained run in which the next enqueue drops it.
func TestDormantKickNoAlloc(t *testing.T) {
	r := newScanRig(t)
	step := func() {
		r.sendSmall()
		r.eng.RunUntil(r.eng.Now() + r.nics[0].cfg.SendOverhead + 1) // the scan: dormant
		r.sendSmall()                                                // filed under its key
		r.eng.Run()
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("enqueue, dormant scan and wake allocate %.1f per round, want 0", allocs)
	}
}

// BenchmarkCardStream streams 96-byte packets through one card, one
// enqueue every 1,000 cycles: longer than a scan plus the packet's
// serialization, so every scan leaves the queue empty, and longer than
// the sink's receive cost, so nothing backs up. It reports the engine
// events each packet costs: the enqueue, the scan, the delivery and the
// deposit.
func BenchmarkCardStream(b *testing.B) {
	r := newScanRig(b)
	sent := 0
	var host func(any)
	host = func(any) {
		r.sendSmall()
		if sent++; sent < b.N {
			r.eng.ScheduleArg(1000, host, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	r.eng.ScheduleArg(0, host, nil)
	r.eng.Run()
	b.ReportMetric(float64(r.eng.Fired())/float64(b.N), "events/pkt")
}

package parpar

import (
	"errors"
	"testing"

	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// testHorizon bounds every run in this package's tests: 2 virtual
// seconds, where the longest of them goes quiescent at 148 M cycles. A
// wedged protocol never goes quiescent (the masterd keeps rotating
// around the unfinished jobs), so an unbounded Run would hang the test.
const testHorizon sim.Time = 400_000_000

// runDone runs c to testHorizon and fails the test if any job is still
// live there.
func runDone(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.RunBounded(testHorizon); err != nil {
		t.Fatal(err)
	}
}

// testConfig returns a small-quantum config so tests rotate quickly.
func testConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.Quantum = 400_000 // 2 ms
	cfg.CtrlJitter = 50_000
	cfg.ForkDelay = 50_000
	return cfg
}

// pingPong returns a two-rank program: rank 0 sends, rank 1 echoes, for
// `rounds` exchanges; both call Done with the round count.
func pingPong(rounds int) func(rank int) Program {
	return func(rank int) Program {
		return ProgramFunc(func(p *Proc) {
			count := 0
			if rank == 0 {
				p.EP.SetHandler(func(_, _ int, _ []byte) {
					count++
					if count == rounds {
						p.Done(count)
						return
					}
					p.EP.Send(1, 64, nil)
				})
				p.EP.Send(1, 64, nil)
			} else {
				p.EP.SetHandler(func(_, _ int, _ []byte) {
					count++
					p.EP.Send(0, 64, nil)
					if count == rounds {
						p.Done(count)
					}
				})
			}
		})
	}
}

// oneWay returns a program mirroring the paper's bandwidth benchmark:
// rank 0 streams msgs messages of size to rank 1; rank 1 sends a finish
// message back after the last one; both then call Done.
func oneWay(msgs, size int) func(rank int) Program {
	return func(rank int) Program {
		return ProgramFunc(func(p *Proc) {
			switch rank {
			case 0:
				sent := 0
				p.EP.SetHandler(func(_, _ int, _ []byte) { p.Done(sent) }) // finish message
				var fill func()
				fill = func() {
					for sent < msgs && p.EP.Send(1, size, nil) {
						sent++
					}
					if sent == msgs {
						p.EP.SetOnCanSend(nil)
					}
				}
				p.EP.SetOnCanSend(fill)
				fill()
			case 1:
				got := 0
				p.EP.SetHandler(func(_, _ int, _ []byte) {
					got++
					if got == msgs {
						p.EP.Send(0, 16, nil)
						p.Done(got)
					}
				})
			default:
				p.Done(0) // bystander ranks in larger jobs
			}
		})
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(JobSpec{Name: "pp", Size: 2, NewProgram: pingPong(20)})
	if err != nil {
		t.Fatal(err)
	}
	if job.State() != JobLoading {
		t.Fatalf("state after submit = %v", job.State())
	}
	doneFired := false
	job.OnDone(func(j *Job) { doneFired = true })
	runDone(t, c)
	if job.State() != JobDone {
		t.Fatalf("state after run = %v", job.State())
	}
	if !doneFired {
		t.Fatal("OnDone not fired")
	}
	if job.Results[0] != 20 || job.Results[1] != 20 {
		t.Fatalf("results = %v", job.Results)
	}
	if !(job.SubmitTime < job.SyncTime && job.SyncTime < job.DoneTime) {
		t.Fatalf("timeline inverted: %d %d %d", job.SubmitTime, job.SyncTime, job.DoneTime)
	}
	if c.Master().Jobs() != 0 {
		t.Fatal("job not retired from masterd")
	}
}

func TestJobStateString(t *testing.T) {
	if JobLoading.String() != "loading" || JobRunning.String() != "running" || JobDone.String() != "done" {
		t.Fatal("state names")
	}
}

func TestSubmitValidation(t *testing.T) {
	c, _ := New(testConfig(2))
	if _, err := c.Submit(JobSpec{Size: 0, NewProgram: pingPong(1)}); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := c.Submit(JobSpec{Size: 2}); err == nil {
		t.Error("missing program should fail")
	}
	if _, err := c.Submit(JobSpec{Size: 5, NewProgram: pingPong(1)}); err == nil {
		t.Error("oversized job should fail")
	}
}

func TestSlotTableFull(t *testing.T) {
	cfg := testConfig(2)
	cfg.Slots = 2
	c, _ := New(cfg)
	longJob := func(rank int) Program {
		return ProgramFunc(func(p *Proc) { /* never Done */ })
	}
	if _, err := c.Submit(JobSpec{Size: 2, NewProgram: longJob}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Size: 2, NewProgram: longJob}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Size: 2, NewProgram: longJob}); !errors.Is(err, gang.ErrSlotTableFull) {
		t.Fatalf("third job: got %v, want gang.ErrSlotTableFull", err)
	}
}

func TestTwoJobsGangScheduled(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := c.Submit(JobSpec{Name: "a", Size: 2, NewProgram: oneWay(300, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(JobSpec{Name: "b", Size: 2, NewProgram: oneWay(300, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	runDone(t, c)
	if j1.State() != JobDone || j2.State() != JobDone {
		t.Fatalf("states: %v %v", j1.State(), j2.State())
	}
	if j1.Results[1] != 300 || j2.Results[1] != 300 {
		t.Fatalf("message counts: %v %v", j1.Results[1], j2.Results[1])
	}
	// Rotation must actually have happened: both jobs are in different
	// rows and both finished, so multiple epochs elapsed.
	if c.Master().Epoch() < 3 {
		t.Fatalf("only %d epochs, expected several rotations", c.Master().Epoch())
	}
	// Every node recorded switch history.
	for i, hist := range c.SwitchHistory() {
		if len(hist) == 0 {
			t.Fatalf("node %d has no switch history", i)
		}
	}
}

func TestGangInvariantOneJobPerNode(t *testing.T) {
	// Sample the cluster during a run: on every node, at most one
	// process may be running (endpoint resumed) at any time.
	c, _ := New(testConfig(2))
	c.Submit(JobSpec{Name: "a", Size: 2, NewProgram: oneWay(400, 512)})
	c.Submit(JobSpec{Name: "b", Size: 2, NewProgram: oneWay(400, 512)})
	for probe := 0; probe < 40; probe++ {
		c.RunUntil(c.Eng.Now() + 150_000)
		for _, n := range c.Nodes() {
			running := 0
			for _, p := range n.procs {
				if p.EP.Running() {
					running++
				}
			}
			if running > 1 {
				t.Fatalf("node %d has %d processes running simultaneously", n.ID, running)
			}
		}
	}
	runDone(t, c)
}

func TestJobsOnDisjointNodesShareSlot(t *testing.T) {
	// Two size-2 jobs on a 4-node cluster pack into one row and finish
	// without any rotation beyond the initial activation.
	c, _ := New(testConfig(4))
	j1, _ := c.Submit(JobSpec{Name: "a", Size: 2, NewProgram: oneWay(50, 256)})
	j2, _ := c.Submit(JobSpec{Name: "b", Size: 2, NewProgram: oneWay(50, 256)})
	runDone(t, c)
	if j1.State() != JobDone || j2.State() != JobDone {
		t.Fatal("jobs did not finish")
	}
	if j1.Placement.Row != 0 || j2.Placement.Row != 0 {
		t.Fatalf("rows: %d %d, want both 0", j1.Placement.Row, j2.Placement.Row)
	}
	// Sharing one row means no steady-state rotation: only the initial
	// activation switches (one per job-ready at most) occur.
	if got := c.Master().Epoch(); got < 1 || got > 3 {
		t.Fatalf("epochs = %d, want 1-3 (activation only, no rotation)", got)
	}
}

func TestIdleNodesParticipateInFlush(t *testing.T) {
	// A 3-node cluster with a 2-node job: node 2 is idle but must still
	// take part in every flush (halts counted from all nodes) — two jobs
	// force rotations.
	c, _ := New(testConfig(3))
	c.Submit(JobSpec{Name: "a", Size: 2, NewProgram: oneWay(200, 512)})
	c.Submit(JobSpec{Name: "b", Size: 2, NewProgram: oneWay(200, 512)})
	runDone(t, c)
	idleHist := c.Nodes()[2].Mgr.History()
	if len(idleHist) == 0 {
		t.Fatal("idle node performed no switches")
	}
	for _, s := range idleHist {
		if s.To != myrinet.NoJob {
			t.Fatalf("idle node switched to job %d", s.To)
		}
	}
	if c.Nodes()[2].NIC.Stats().HaltsSent == 0 {
		t.Fatal("idle node sent no halt messages")
	}
}

func TestPartitionedClusterRuns(t *testing.T) {
	cfg := testConfig(2)
	cfg.Policy = fm.Partitioned
	cfg.Slots = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := c.Submit(JobSpec{Name: "a", Size: 2, NewProgram: oneWay(100, 512)})
	j2, _ := c.Submit(JobSpec{Name: "b", Size: 2, NewProgram: oneWay(100, 512)})
	runDone(t, c)
	if j1.State() != JobDone || j2.State() != JobDone {
		t.Fatalf("states: %v %v", j1.State(), j2.State())
	}
	// Partitioned switches never flush.
	for _, n := range c.Nodes() {
		if n.NIC.Stats().HaltsSent != 0 {
			t.Fatal("partitioned cluster should not flush the network")
		}
	}
}

func TestDataIntegrityAcrossManyRotations(t *testing.T) {
	// Payload-verified stream under aggressive rotation: the ultimate
	// "no packet loss" check of §3.2.
	cfg := testConfig(2)
	cfg.Quantum = 200_000 // 1 ms: very aggressive switching
	c, _ := New(cfg)

	mk := func(rank int) Program {
		return ProgramFunc(func(p *Proc) {
			const msgs = 150
			if rank == 0 {
				sent := 0
				p.EP.SetHandler(func(_, _ int, _ []byte) { p.Done(sent) })
				var fill func()
				fill = func() {
					for sent < msgs {
						buf := make([]byte, 100)
						for i := range buf {
							buf[i] = byte(sent + i)
						}
						if !p.EP.Send(1, len(buf), buf) {
							return
						}
						sent++
					}
				}
				p.EP.SetOnCanSend(fill)
				fill()
			} else {
				got := 0
				p.EP.SetHandler(func(_, size int, data []byte) {
					for i := range data {
						if data[i] != byte(got+i) {
							t.Errorf("corrupt byte in message %d", got)
							return
						}
					}
					got++
					if got == msgs {
						p.EP.Send(0, 16, nil)
						p.Done(got)
					}
				})
			}
		})
	}
	c.Submit(JobSpec{Name: "stream", Size: 2, NewProgram: mk})
	c.Submit(JobSpec{Name: "rival", Size: 2, NewProgram: oneWay(150, 700)})
	runDone(t, c)
	// Zero data packets dropped anywhere.
	for _, n := range c.Nodes() {
		for reason, count := range n.NIC.Stats().Drops {
			if count > 0 {
				t.Fatalf("node %d dropped %d packets (%v)", n.ID, count, reason)
			}
		}
	}
}

func TestSwitchStatsPlausible(t *testing.T) {
	cfg := testConfig(4)
	cfg.Mode = core.ValidOnly
	c, _ := New(cfg)
	c.Submit(JobSpec{Name: "a", Size: 4, NewProgram: oneWay(500, 1024)})
	c.Submit(JobSpec{Name: "b", Size: 4, NewProgram: oneWay(500, 1024)})
	runDone(t, c)
	checked := 0
	for _, hist := range c.SwitchHistory() {
		for _, s := range hist {
			if s.To == myrinet.NoJob && s.From == myrinet.NoJob {
				continue
			}
			checked++
			if s.Copy > 2_500_000 {
				t.Fatalf("improved copy took %d cycles, over the paper's 2.5M bound", s.Copy)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no real switches recorded")
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
	if _, err := New(Config{Nodes: 2, Slots: 0, Quantum: 1}); err == nil {
		t.Fatal("zero slots should fail")
	}
	if _, err := New(Config{Nodes: 2, Slots: 2}); err == nil {
		t.Fatal("zero quantum should fail")
	}
}

func TestEndpointStatsAfterRun(t *testing.T) {
	c, _ := New(testConfig(2))
	job, _ := c.Submit(JobSpec{Name: "a", Size: 2, NewProgram: oneWay(100, 2048)})
	runDone(t, c)
	tx := job.procs[0].EP.Stats()
	rx := job.procs[1].EP.Stats()
	if tx.MessagesSent != 100 || rx.PayloadBytesRecv != 100*2048 {
		t.Fatalf("sent %d messages, received %d B", tx.MessagesSent, rx.PayloadBytesRecv)
	}
	wantPkts := uint64(100 * 2) // 2048 B = 2 fragments
	if tx.PacketsSent != wantPkts || rx.PacketsRecvd != wantPkts {
		t.Fatalf("packets sent %d, received %d, want %d", tx.PacketsSent, rx.PacketsRecvd, wantPkts)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		c, _ := New(testConfig(2))
		j, _ := c.Submit(JobSpec{Name: "a", Size: 2, NewProgram: oneWay(200, 777)})
		c.Submit(JobSpec{Name: "b", Size: 2, NewProgram: pingPong(50)})
		runDone(t, c)
		return j.DoneTime, c.Eng.Fired()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", t1, e1, t2, e2)
	}
}

// TestFlushGuaranteesEmptyNetwork asserts the protocol invariant the whole
// paper rests on: when a node's flush completes and its buffer copy is
// about to run, the outgoing job has zero data packets anywhere on the
// wire — so the copy captures the complete communication state.
func TestFlushGuaranteesEmptyNetwork(t *testing.T) {
	cfg := testConfig(4)
	c, _ := New(cfg)
	violations := 0
	flushed := make(map[myrinet.NodeID][]myrinet.JobID)
	c.Observe(func(e myrinet.Event) {
		if e.Kind != myrinet.Flushed {
			return
		}
		// The outgoing job is still bound when the flush completes.
		job := c.Nodes()[e.Node].Mgr.Current()
		flushed[e.Node] = append(flushed[e.Node], job)
		if job != myrinet.NoJob && c.Net.InFlight(job) != 0 {
			violations++
			t.Errorf("node %d: job %d has %d packets in flight at copy time",
				e.Node, job, c.Net.InFlight(job))
		}
	})
	c.Submit(JobSpec{Name: "a", Size: 4, NewProgram: oneWay(400, 1536)})
	c.Submit(JobSpec{Name: "b", Size: 4, NewProgram: oneWay(400, 1536)})
	runDone(t, c)
	if violations > 0 {
		t.Fatalf("%d flush invariant violations", violations)
	}
	// The job read at each flush is the switch's recorded outgoing job —
	// unless that job ended, releasing its context, while the flush ran —
	// and the test must actually have exercised real switches.
	real := 0
	for i, hist := range c.SwitchHistory() {
		got := flushed[myrinet.NodeID(i)]
		if len(got) != len(hist) {
			t.Fatalf("node %d: %d flushes for %d switches", i, len(got), len(hist))
		}
		for k, s := range hist {
			if got[k] != s.From && got[k] != myrinet.NoJob {
				t.Fatalf("node %d switch %d: job %d bound at the flush, From %d", i, k, got[k], s.From)
			}
			if s.From != myrinet.NoJob {
				real++
			}
		}
	}
	if real == 0 {
		t.Fatal("no real switches sampled")
	}

	// Above only rank 0 sends. With every rank sending, a node that
	// copied before hearing every peer's halt would receive that peer's
	// last packets into a context switched away: on a lossless run no
	// data packet may be dropped.
	c, _ = New(cfg)
	drops := 0
	c.Observe(func(e myrinet.Event) {
		if e.Kind == myrinet.Drop && e.Pkt.Type == myrinet.Data {
			drops++
		}
	})
	c.Submit(JobSpec{Name: "a", Size: 4, NewProgram: allToAll(4, 200, 1536)})
	c.Submit(JobSpec{Name: "b", Size: 4, NewProgram: allToAll(4, 200, 1536)})
	runDone(t, c)
	if drops > 0 {
		t.Fatalf("%d data packets dropped on a lossless run", drops)
	}
}

func TestSerialBroadcastSkew(t *testing.T) {
	// The masterd's switch notifications are serialized unicasts: later
	// destinations hear strictly later (modulo jitter bounded by the
	// configured maximum). Every node's flush ends within a few control
	// packets of the others', so a node's halt stage — notification to
	// last peer halt — is strictly shorter the later it heard.
	const nodes, gap = 8, 10_000
	cfg := DefaultConfig(nodes)
	cfg.Slots = 2
	cfg.Quantum = 2_000_000
	cfg.CtrlBase, cfg.CtrlJitter, cfg.CtrlSerialGap = 1000, 500, gap
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := c.Submit(idleLoopSpec(name, nodes)); err != nil {
			t.Fatal(err)
		}
	}
	c.RunUntil(20 * cfg.Quantum)
	hists := c.SwitchHistory()
	last := hists[0][len(hists[0])-1].Epoch
	halt := make([]sim.Time, nodes)
	for i, hist := range hists {
		s := hist[len(hist)-1]
		if s.Epoch != last {
			t.Fatalf("node %d's last switch is epoch %d, node 0's %d", i, s.Epoch, last)
		}
		halt[i] = s.Halt
	}
	for i := 1; i < nodes; i++ {
		// gap 10_000 >> jitter 500, so ordering is strict.
		if halt[i] >= halt[i-1] {
			t.Fatalf("serial broadcast not ordered: halt stages %v", halt)
		}
	}
	if span := halt[0] - halt[nodes-1]; span < 6*gap { // 7 gaps, less jitter and the halt loops
		t.Fatalf("skew span %d below the serialization floor", span)
	}
}

func TestCtrlNetJitterBounds(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRand(9)
	ctrl := newCtrlNet(eng, 2000, 1000, rng)
	for i := 0; i < 200; i++ {
		d := ctrl.delay()
		if d < 2000 || d >= 3000 {
			t.Fatalf("delay %d outside [base, base+jitter)", d)
		}
	}
}

func TestJobRepAccessors(t *testing.T) {
	c, _ := New(testConfig(2))
	job, _ := c.Submit(JobSpec{Name: "acc", Size: 2, NewProgram: pingPong(3)})
	runDone(t, c)
	p := job.procs[0]
	if p.rank != 0 || p.job != job || p.job.Spec.Size != 2 {
		t.Fatal("proc wired to the wrong job or rank")
	}
	if p.node.ID != job.nodeOf[0] {
		t.Fatal("proc on the wrong node")
	}
}

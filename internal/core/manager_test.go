package core

import (
	"reflect"
	"testing"

	"gangfm/internal/fm"
	"gangfm/internal/lanai"
	"gangfm/internal/memmodel"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// cluster is a minimal multi-node, multi-job test rig: one NIC, CPU and
// manager per node; one fm.Endpoint per (job, node).
type cluster struct {
	cfg  Config
	eng  *sim.Engine
	net  *myrinet.Network
	mem  *memmodel.Model
	nics []*lanai.NIC
	cpus []*sim.Resource
	mgrs []*Manager
	// eps[job][node]
	eps map[myrinet.JobID][]*fm.Endpoint
}

func newCluster(t *testing.T, nodes int, cfg Config) *cluster {
	t.Helper()
	c := &cluster{
		cfg: cfg,
		eng: sim.NewEngine(),
		mem: memmodel.Default(),
		eps: make(map[myrinet.JobID][]*fm.Endpoint),
	}
	c.net = myrinet.New(c.eng, myrinet.DefaultConfig(nodes))
	for i := 0; i < nodes; i++ {
		nic := lanai.New(c.eng, c.net, c.mem, lanai.DefaultConfig(myrinet.NodeID(i)))
		cpu := sim.NewResource(c.eng)
		mgr, err := NewManager(c.eng, nic, cpu, c.mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.InitNode(); err != nil {
			t.Fatal(err)
		}
		c.nics = append(c.nics, nic)
		c.cpus = append(c.cpus, cpu)
		c.mgrs = append(c.mgrs, mgr)
	}
	return c
}

// addJob creates a job spanning all nodes and runs InitJob on each.
func (c *cluster) addJob(t *testing.T, job myrinet.JobID) []*fm.Endpoint {
	t.Helper()
	nodes := len(c.nics)
	nodeOf := make([]myrinet.NodeID, nodes)
	for i := range nodeOf {
		nodeOf[i] = myrinet.NodeID(i)
	}
	eps := make([]*fm.Endpoint, nodes)
	for i := 0; i < nodes; i++ {
		alloc := c.mgrs[i].Alloc()
		ep, err := fm.NewEndpoint(c.eng, c.nics[i], c.cpus[i], c.mem,
			fm.DefaultConfig(alloc.C0), job, i, nodeOf)
		if err != nil {
			t.Fatal(err)
		}
		var p Process = ep
		if c.cfg.Coordination == Quiesce {
			p = &quiescingEP{Endpoint: ep, unacked: 3}
		}
		if err := c.mgrs[i].InitJob(job, p); err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		// In switched mode the endpoint's context is the shared one,
		// bound when the job is scheduled; attach lazily via hooks.
		if ctx := c.nics[i].ContextFor(job); ctx != nil {
			ep.Attach(ctx)
		}
	}
	c.eps[job] = eps
	return eps
}

// switchAll runs SwitchTo on every node for the same epoch, with a small
// per-node skew, and returns the collected stats once all complete.
func (c *cluster) switchAll(t *testing.T, epoch uint64, job myrinet.JobID, skew sim.Time) []SwitchStats {
	t.Helper()
	stats := make([]SwitchStats, len(c.mgrs))
	done := 0
	for i, mgr := range c.mgrs {
		i, mgr := i, mgr
		c.eng.Schedule(sim.Time(i)*skew, func() {
			if err := mgr.SwitchTo(epoch, job, func(s SwitchStats) {
				stats[i] = s
				done++
			}); err != nil {
				t.Errorf("node %d switch: %v", i, err)
			}
		})
	}
	c.eng.Run()
	if done != len(c.mgrs) {
		t.Fatalf("only %d/%d nodes completed the switch", done, len(c.mgrs))
	}
	return stats
}

func defaultCfg(nodes int) Config {
	return Config{Policy: fm.Switched, Mode: ValidOnly, MaxContexts: 4, Processors: nodes}
}

// quiescingEP is an FM process under Quiesce coordination. FM has no
// acknowledgements, so it stands in for a transport that has packets in
// flight at every suspend: Quiesced reports false for the first unacked
// polls after each Suspend.
type quiescingEP struct {
	*fm.Endpoint
	unacked, left int
}

func (q *quiescingEP) Suspend() {
	q.Endpoint.Suspend()
	q.left = q.unacked
}

func (q *quiescingEP) Quiesced() bool {
	if q.left == 0 {
		return true
	}
	q.left--
	return false
}

func TestCopyModeString(t *testing.T) {
	if FullCopy.String() != "full-copy" || ValidOnly.String() != "valid-only" {
		t.Fatal("copy mode names")
	}
}

func TestCoordinationString(t *testing.T) {
	if Flush.String() != "flush" || Discard.String() != "share-discard" || Quiesce.String() != "pm-quiescence" {
		t.Fatal("coordination names")
	}
}

func TestInitNodeOnce(t *testing.T) {
	c := newCluster(t, 2, defaultCfg(2))
	if err := c.mgrs[0].InitNode(); err == nil {
		t.Fatal("second InitNode should fail")
	}
}

func TestTopologyBookkeeping(t *testing.T) {
	c := newCluster(t, 4, defaultCfg(4))
	m := c.mgrs[0]
	if members(m) != 4 {
		t.Fatalf("members = %d, want 4", members(m))
	}
	if err := m.AddNode(2); err == nil {
		t.Fatal("duplicate AddNode should fail")
	}
	if err := m.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if members(m) != 3 {
		t.Fatalf("members = %d after remove, want 3", members(m))
	}
	if err := m.RemoveNode(3); err == nil {
		t.Fatal("double RemoveNode should fail")
	}
	if err := m.AddNode(3); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyOutOfRange(t *testing.T) {
	c := newCluster(t, 4, defaultCfg(4))
	m := c.mgrs[0]
	for _, id := range []myrinet.NodeID{-1, 4, 1000} {
		if err := m.AddNode(id); err == nil {
			t.Errorf("AddNode(%d) outside a 4-node fabric should fail", id)
		}
		if err := m.RemoveNode(id); err == nil {
			t.Errorf("RemoveNode(%d) outside a 4-node fabric should fail", id)
		}
	}
	if members(m) != 4 {
		t.Fatalf("members = %d after rejected calls, want 4", members(m))
	}
}

func TestTopologyNodesAcrossRemoveAddRemove(t *testing.T) {
	c := newCluster(t, 4, defaultCfg(4))
	m := c.mgrs[1]
	steps := []struct {
		remove bool
		id     myrinet.NodeID
		want   int
	}{{true, 0, 3}, {false, 0, 4}, {true, 0, 3}, {true, 2, 2}, {false, 2, 3}}
	for i, s := range steps {
		var err error
		if s.remove {
			err = m.RemoveNode(s.id)
		} else {
			err = m.AddNode(s.id)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if members(m) != s.want {
			t.Fatalf("step %d: Nodes() = %d, want %d", i, members(m), s.want)
		}
		if m.InTopology(s.id) == s.remove {
			t.Fatalf("step %d: InTopology(%d) = %v", i, s.id, !s.remove)
		}
	}
	// Views are per node: node 1's removals left node 0's view whole.
	if members(c.mgrs[0]) != 4 || !c.mgrs[0].InTopology(0) {
		t.Fatal("another node's topology view changed")
	}
}

func TestInTopologyOutsideFabric(t *testing.T) {
	c := newCluster(t, 2, defaultCfg(2))
	for _, id := range []myrinet.NodeID{-1, -256, 2} {
		if c.mgrs[0].InTopology(id) {
			t.Errorf("InTopology(%d) = true outside a 2-node fabric", id)
		}
	}
}

func TestInitJobDuplicate(t *testing.T) {
	c := newCluster(t, 2, defaultCfg(2))
	c.addJob(t, 1)
	ep := c.eps[1][0]
	if err := c.mgrs[0].InitJob(1, ep); err == nil {
		t.Fatal("duplicate InitJob should fail")
	}
}

func TestJobNotBoundUntilScheduled(t *testing.T) {
	// Binding follows the schedule, not InitJob order: the context is
	// bound only by a slot switch, so all nodes agree on the owner.
	c := newCluster(t, 2, defaultCfg(2))
	c.addJob(t, 1)
	if c.mgrs[0].Current() != myrinet.NoJob {
		t.Fatalf("Current() = %d before any switch, want NoJob", c.mgrs[0].Current())
	}
	c.switchAll(t, 1, 1, 0)
	if c.mgrs[0].Current() != 1 {
		t.Fatalf("Current() = %d after switch, want 1", c.mgrs[0].Current())
	}
	if c.nics[0].ContextFor(1) == nil {
		t.Fatal("no hardware context for job 1 after switch")
	}
}

func TestEarlyPacketsStoredBeforeProcessReady(t *testing.T) {
	// Paper Fig 2: the context is live before the process has mapped its
	// queues, so early packets are received and stored.
	c := newCluster(t, 2, defaultCfg(2))
	eps := c.addJob(t, 1)
	c.switchAll(t, 1, 1, 0)
	// Node 1's process is not yet at FM_initialize: model by suspending
	// its endpoint. Node 0's process is up and sending.
	eps[1].Suspend()
	eps[0].Resume()
	eps[0].Send(1, 300, nil)
	c.eng.Run()
	if got := c.nics[1].ContextFor(1).RecvQ.Len(); got != 1 {
		t.Fatalf("early packet not stored: RecvQ len = %d", got)
	}
	// When the process finally starts, it drains the stored packet.
	delivered := 0
	eps[1].SetHandler(func(_, _ int, _ []byte) { delivered++ })
	eps[1].Resume()
	c.eng.Run()
	if delivered != 1 {
		t.Fatal("stored packet not delivered after process start")
	}
}

func TestEndJob(t *testing.T) {
	c := newCluster(t, 2, defaultCfg(2))
	c.addJob(t, 1)
	c.switchAll(t, 1, 1, 0)
	if err := c.mgrs[0].EndJob(1); err != nil {
		t.Fatal(err)
	}
	if c.mgrs[0].Current() != myrinet.NoJob {
		t.Fatal("EndJob of the bound job should unbind")
	}
	if err := c.mgrs[0].EndJob(1); err == nil {
		t.Fatal("EndJob of unknown job should fail")
	}
}

func TestThreeStageSwitch(t *testing.T) {
	c := newCluster(t, 2, defaultCfg(2))
	c.addJob(t, 1)
	c.addJob(t, 2)
	c.switchAll(t, 1, 1, 0)
	stats := c.switchAll(t, 2, 2, 1000)
	for i, s := range stats {
		if s.From != 1 || s.To != 2 {
			t.Fatalf("node %d: switch %d->%d, want 1->2", i, s.From, s.To)
		}
		if s.Halt == 0 || s.Copy == 0 || s.Release == 0 {
			t.Fatalf("node %d: zero-duration stage: %+v", i, s)
		}
	}
	for i, m := range c.mgrs {
		if m.Current() != 2 {
			t.Fatalf("node %d bound to %d, want 2", i, m.Current())
		}
		if len(m.History()) != 2 {
			t.Fatalf("node %d history = %d entries", i, len(m.History()))
		}
	}
}

func TestSwitchEpochMonotonic(t *testing.T) {
	c := newCluster(t, 1, defaultCfg(1))
	c.addJob(t, 1)
	c.addJob(t, 2)
	c.switchAll(t, 5, 2, 0)
	err := c.mgrs[0].SwitchTo(5, 1, nil)
	if err == nil {
		t.Fatal("reused epoch should fail")
	}
	err = c.mgrs[0].SwitchTo(3, 1, nil)
	if err == nil {
		t.Fatal("regressing epoch should fail")
	}
}

func TestSwitchToUnknownJob(t *testing.T) {
	c := newCluster(t, 1, defaultCfg(1))
	if err := c.mgrs[0].SwitchTo(1, 9, nil); err == nil {
		t.Fatal("switch to unknown job should fail")
	}
}

// TestBusyManagerRejectsSecondSwitch: a manager runs one three-stage
// switch at a time. A second SwitchTo or SwitchIdle while one is in flight
// is a scheduler bug, so it fails without disturbing the switch in flight.
func TestBusyManagerRejectsSecondSwitch(t *testing.T) {
	c := newCluster(t, 2, defaultCfg(2))
	c.addJob(t, 1)
	c.addJob(t, 2)
	m := c.mgrs[0]
	var got []SwitchStats
	if err := m.SwitchTo(1, 1, func(s SwitchStats) { got = append(got, s) }); err != nil {
		t.Fatal(err)
	}
	if err := m.SwitchTo(2, 2, nil); err == nil {
		t.Fatal("SwitchTo on a busy manager should fail")
	}
	if err := m.SwitchIdle(2, nil); err == nil {
		t.Fatal("SwitchIdle on a busy manager should fail")
	}
	// The peer joins epoch 1, so the flush and release complete.
	if err := c.mgrs[1].SwitchTo(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	c.eng.Run()
	if len(got) != 1 || got[0].Epoch != 1 || got[0].To != 1 || m.Current() != 1 {
		t.Fatalf("in-flight switch disturbed: stats %+v, current %d", got, m.Current())
	}
	// Once the switch completed, the next one is accepted.
	if err := m.SwitchTo(2, 2, nil); err != nil {
		t.Fatalf("switch after completion: %v", err)
	}
}

// TestBufferContentsSurviveSwitch is the Figure 4 correctness property:
// packets in the queues at switch-out are restored at switch-in and
// delivered exactly once, in order.
func TestBufferContentsSurviveSwitch(t *testing.T) {
	for _, mode := range []CopyMode{FullCopy, ValidOnly} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := defaultCfg(2)
			cfg.Mode = mode
			c := newCluster(t, 2, cfg)
			a := c.addJob(t, 1)
			b := c.addJob(t, 2)

			var gotA []int
			a[1].SetHandler(func(_, size int, _ []byte) { gotA = append(gotA, size) })
			b[1].SetHandler(func(_, _ int, _ []byte) {})
			c.switchAll(t, 1, 1, 0) // bind job 1 everywhere
			a[1].Suspend()          // receiver busy elsewhere: packets pile up in RecvQ

			for i := 1; i <= 8; i++ {
				if !a[0].Send(1, i, nil) {
					t.Fatalf("send %d rejected", i)
				}
			}
			c.eng.Run()
			backlog := c.nics[1].ContextFor(1).RecvQ.Len()
			if backlog != 8 {
				t.Fatalf("backlog before switch = %d, want 8", backlog)
			}

			// Switch to job 2: job 1's packets go to the backing store.
			stats := c.switchAll(t, 2, 2, 500)
			if stats[1].ValidRecv != 8 {
				t.Fatalf("switch saw %d valid recv packets, want 8", stats[1].ValidRecv)
			}
			if len(gotA) != 0 {
				t.Fatal("job 1 packets delivered while job 2 scheduled")
			}

			// Switch back: restored packets must drain to the handler.
			stats = c.switchAll(t, 3, 1, 500)
			if stats[1].RestoredRecv != 8 {
				t.Fatalf("restore loaded %d packets, want 8", stats[1].RestoredRecv)
			}
			a[1].Resume()
			c.eng.Run()
			if len(gotA) != 8 {
				t.Fatalf("delivered %d messages after restore, want 8", len(gotA))
			}
			for i, sz := range gotA {
				if sz != i+1 {
					t.Fatalf("order violated after restore: %v", gotA)
				}
			}
		})
	}
}

// TestTrafficContinuesAcrossSwitches runs a continuous stream through
// several full rotations and verifies nothing is lost or reordered — the
// paper's "robust, withstood thorough testing without packet loss".
func TestTrafficContinuesAcrossSwitches(t *testing.T) {
	c := newCluster(t, 2, defaultCfg(2))
	a := c.addJob(t, 1)
	b := c.addJob(t, 2)

	type stream struct {
		sent, rcvd int
	}
	streams := map[myrinet.JobID]*stream{1: {}, 2: {}}
	for job, eps := range map[myrinet.JobID][]*fm.Endpoint{1: a, 2: b} {
		job, eps := job, eps
		st := streams[job]
		eps[1].SetHandler(func(_, size int, _ []byte) {
			st.rcvd++
			if size != st.rcvd {
				t.Errorf("job %d: message %d arrived with size %d", job, st.rcvd, size)
			}
		})
		var fill func()
		fill = func() {
			for st.sent < 200 && eps[0].Send(1, st.sent+1, nil) {
				st.sent++
			}
		}
		eps[0].SetOnCanSend(fill)
		fill()
	}
	c.switchAll(t, 1, 1, 0) // activate job 1

	quantum := sim.DefaultClock.FromDuration(5_000_000) // 5 ms in ns
	jobs := []myrinet.JobID{2, 1, 2, 1, 2, 1}
	for round, j := range jobs {
		c.eng.RunUntil(c.eng.Now() + quantum)
		c.switchAll(t, uint64(round+2), j, 200)
	}
	c.eng.Run()
	for job, st := range streams {
		if st.rcvd != 200 {
			t.Errorf("job %d: received %d/200 messages (sent %d)", job, st.rcvd, st.sent)
		}
	}
}

func TestFullCopyCostMatchesPaper(t *testing.T) {
	// Full copy on the paper's geometry: "less than 85 msecs (17,000,000
	// cycles)" and independent of occupancy.
	cfg := Config{Policy: fm.Switched, Mode: FullCopy, MaxContexts: 4, Processors: 16}
	c := newCluster(t, 2, cfg)
	c.addJob(t, 1)
	c.addJob(t, 2)
	c.switchAll(t, 1, 1, 0)
	stats := c.switchAll(t, 2, 2, 0)
	copyCycles := stats[0].Copy
	if copyCycles > 17_000_000 || copyCycles < 10_000_000 {
		t.Fatalf("full copy = %d cycles, paper says <17M (and in that order)", copyCycles)
	}
}

func TestValidOnlyCostMatchesPaper(t *testing.T) {
	// Improved algorithm with near-empty buffers: "less than 12.5 msecs
	// (2,500,000 cycles)". Empty queues should be far below even that.
	c := newCluster(t, 2, defaultCfg(2))
	c.addJob(t, 1)
	c.addJob(t, 2)
	c.switchAll(t, 1, 1, 0)
	stats := c.switchAll(t, 2, 2, 0)
	if stats[0].Copy > 2_500_000 {
		t.Fatalf("valid-only copy = %d cycles, paper says <2.5M", stats[0].Copy)
	}
}

func TestValidOnlyLinearInPackets(t *testing.T) {
	// Figure 9: "the linear growth in the copying time is correlated with
	// the linear growth of the number of packets found in the buffer".
	cost := func(backlog int) sim.Time {
		c := newCluster(t, 2, defaultCfg(2))
		a := c.addJob(t, 1)
		c.addJob(t, 2)
		c.switchAll(t, 1, 1, 0)
		a[1].Suspend()
		for i := 0; i < backlog; i++ {
			a[0].Send(1, 100, nil)
		}
		c.eng.Run()
		stats := c.switchAll(t, 2, 2, 0)
		if stats[1].ValidRecv != backlog {
			t.Fatalf("backlog %d not found at switch: %d", backlog, stats[1].ValidRecv)
		}
		return stats[1].Copy
	}
	c0 := cost(0)
	c5 := cost(5)
	c10 := cost(10)
	if !(c0 < c5 && c5 < c10) {
		t.Fatalf("copy cost not increasing: %d %d %d", c0, c5, c10)
	}
	// Linearity: increments per 5 packets should match.
	d1, d2 := c5-c0, c10-c5
	diff := int64(d1) - int64(d2)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(d1)/10+1 {
		t.Fatalf("copy cost not linear: increments %d vs %d", d1, d2)
	}
}

func TestFullCopyConstantInPackets(t *testing.T) {
	// Figure 7: the full buffer switch does not depend on occupancy.
	cost := func(backlog int) sim.Time {
		cfg := defaultCfg(2)
		cfg.Mode = FullCopy
		c := newCluster(t, 2, cfg)
		a := c.addJob(t, 1)
		c.addJob(t, 2)
		c.switchAll(t, 1, 1, 0)
		a[1].Suspend()
		for i := 0; i < backlog; i++ {
			a[0].Send(1, 100, nil)
		}
		c.eng.Run()
		return c.switchAll(t, 2, 2, 0)[1].Copy
	}
	if cost(0) != cost(20) {
		t.Fatal("full copy cost should be occupancy-independent")
	}
}

func TestPartitionedSwitchIsCheap(t *testing.T) {
	cfg := Config{Policy: fm.Partitioned, MaxContexts: 4, Processors: 2}
	c := newCluster(t, 2, cfg)
	a := c.addJob(t, 1)
	b := c.addJob(t, 2)
	c.switchAll(t, 1, 1, 0)
	if !a[0].Running() {
		t.Fatal("switch did not resume job 1")
	}
	stats := c.switchAll(t, 2, 2, 0)
	for _, s := range stats {
		if s.Halt != 0 || s.Copy != 0 || s.Release != 0 {
			t.Fatalf("partitioned switch should have zero-cost stages: %+v", s)
		}
	}
	if !b[0].Running() || a[0].Running() {
		t.Fatal("partitioned switch did not suspend/resume correctly")
	}
}

func TestPartitionedContextsCoexist(t *testing.T) {
	// In partitioned mode every job keeps its own live hardware context.
	cfg := Config{Policy: fm.Partitioned, MaxContexts: 4, Processors: 2}
	c := newCluster(t, 2, cfg)
	c.addJob(t, 1)
	c.addJob(t, 2)
	for i := 0; i < 2; i++ {
		if c.nics[i].ContextFor(1) == nil || c.nics[i].ContextFor(2) == nil {
			t.Fatal("both jobs should have hardware contexts")
		}
	}
	// Queue capacities are the divided sizes.
	ctx := c.nics[0].ContextFor(1)
	if ctx.SendQ.Cap() != 252/4 || ctx.RecvQ.Cap() != 668/4 {
		t.Fatalf("partitioned context sized %d/%d, want %d/%d",
			ctx.SendQ.Cap(), ctx.RecvQ.Cap(), 252/4, 668/4)
	}
}

func TestHaltGrowsWithSkew(t *testing.T) {
	// The halt stage waits for the slowest node (Figure 7's growth with
	// node count comes from notification skew).
	run := func(skew sim.Time) sim.Time {
		c := newCluster(t, 4, defaultCfg(4))
		c.addJob(t, 1)
		c.addJob(t, 2)
		stats := c.switchAll(t, 1, 2, skew)
		return stats[0].Halt // node 0 halts first, waits longest
	}
	small, large := run(100), run(50_000)
	if large <= small {
		t.Fatalf("halt time should grow with skew: %d vs %d", small, large)
	}
	if large < 3*50_000 {
		t.Fatalf("node 0 should wait for node 3's skew: halt=%d", large)
	}
}

// TestBackingStoreDigestDetectsCorruption: a packet mutated while parked in
// the backing store (via the OnStore hook, standing in for silent memory
// corruption) is reported at restore time; clean round trips are not.
func TestBackingStoreDigestDetectsCorruption(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		c := newCluster(t, 2, defaultCfg(2))
		c.addJob(t, 1)
		c.addJob(t, 2)
		var violations []string
		c.net.SetObserver(func(e myrinet.Event) {
			if e.Kind == myrinet.Violation {
				violations = append(violations, e.Invariant)
			}
		})
		for i, mgr := range c.mgrs {
			if corrupt && i == 0 {
				mgr.OnStore = func(job myrinet.JobID, send, recv []*myrinet.Packet) {
					if job == 1 && len(recv) > 0 {
						recv[0].Seq ^= 0xDEAD
					}
				}
			}
		}
		c.switchAll(t, 1, 1, 0)
		// Park data in job 1's receive queue on node 0, then switch away so
		// it is saved to the backing store.
		c.eps[1][0].Suspend()
		c.eps[1][1].Send(0, 2000, nil)
		c.eng.Run()
		c.switchAll(t, 2, 2, 0)
		c.switchAll(t, 3, 1, 0)
		if corrupt && len(violations) == 0 {
			t.Fatal("corrupted backing store not detected at restore")
		}
		if corrupt {
			for _, v := range violations {
				if v != "store-integrity" {
					t.Fatalf("unexpected violation %q", v)
				}
			}
		}
		if !corrupt && len(violations) != 0 {
			t.Fatalf("clean round trip reported violations: %v", violations)
		}
	}
}

// TestQueueDigestCoversEveryField changes each exported field of a parked
// packet in turn, in the send queue and in the receive queue, and checks
// that the backing-store digest moves. A field left out of the hash (a new
// Packet field, say) fails here instead of letting corruption of it pass
// the restore check.
func TestQueueDigestCoversEveryField(t *testing.T) {
	fill := func() *myrinet.Packet {
		return &myrinet.Packet{
			Type: myrinet.Data, Src: 1, Dst: 2, Job: 3, SrcRank: 4, DstRank: 5,
			MsgID: 6, Frag: 7, NFrags: 8, PayloadLen: 3, Payload: []byte{9, 10, 11},
			Credits: 12, Epoch: 13, Seq: 14,
		}
	}
	typ := reflect.TypeOf(myrinet.Packet{})
	for queue := 0; queue < 2; queue++ {
		for f := 0; f < typ.NumField(); f++ {
			if !typ.Field(f).IsExported() {
				continue
			}
			send := []*myrinet.Packet{fill(), fill()}
			recv := []*myrinet.Packet{fill()}
			before := queueDigest(send, recv)
			victim := recv[0]
			if queue == 0 {
				victim = send[1]
			}
			v := reflect.ValueOf(victim).Elem().Field(f)
			switch v.Kind() {
			case reflect.Int:
				v.SetInt(v.Int() + 1)
			case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Slice:
				v.Index(1).SetUint(v.Index(1).Uint() ^ 0x80)
			default:
				t.Fatalf("field %s has kind %s: teach this test to change it", typ.Field(f).Name, v.Kind())
			}
			if queueDigest(send, recv) == before {
				t.Errorf("changing %s of a parked packet (queue %d) left the digest at %#x", typ.Field(f).Name, queue, before)
			}
		}
	}
}

// TestCoordinationValidation: an unknown coordination, or an alternative
// one without the switched policy's shared buffers, is rejected at
// construction.
func TestCoordinationValidation(t *testing.T) {
	eng := sim.NewEngine()
	mem := memmodel.Default()
	nic := lanai.New(eng, myrinet.New(eng, myrinet.DefaultConfig(2)), mem, lanai.DefaultConfig(0))
	for _, cfg := range []Config{
		{Policy: fm.Switched, MaxContexts: 2, Processors: 2, Coordination: Quiesce + 1},
		{Policy: fm.Partitioned, MaxContexts: 2, Processors: 2, Coordination: Discard},
	} {
		if _, err := NewManager(eng, nic, sim.NewResource(eng), mem, cfg); err == nil {
			t.Fatalf("%+v should be rejected", cfg)
		}
	}
}

// noControlBroadcast fails if any card sent a Halt or Ready packet.
func (c *cluster) noControlBroadcast(t *testing.T) {
	t.Helper()
	if st := c.net.Stats(); st.Sent[myrinet.Halt] != 0 || st.Sent[myrinet.Ready] != 0 {
		t.Fatalf("control broadcast sent: %d halts, %d readies", st.Sent[myrinet.Halt], st.Sent[myrinet.Ready])
	}
}

// TestDiscardSkipsFlushAndRelease: SHARE-style switching goes straight to
// the buffer copy. It sends no control packet and records zero halt and
// release time, and a same-job switch completes before SwitchTo returns.
func TestDiscardSkipsFlushAndRelease(t *testing.T) {
	cfg := defaultCfg(2)
	cfg.Coordination = Discard
	c := newCluster(t, 2, cfg)
	a := c.addJob(t, 1)
	c.addJob(t, 2)
	c.switchAll(t, 1, 1, 0)
	// Switch mid-stream: job 1's multi-packet messages are on the wire.
	a[1].SetHandler(func(_, _ int, _ []byte) {})
	for i := 0; i < 4; i++ {
		if !a[0].Send(1, 4*myrinet.MaxPayload, nil) {
			t.Fatalf("send %d rejected", i)
		}
	}
	c.eng.RunUntil(c.eng.Now() + 20_000)
	stats := c.switchAll(t, 2, 2, 1000)
	for i, s := range stats {
		if s.From != 1 || s.To != 2 || c.mgrs[i].Current() != 2 {
			t.Fatalf("node %d: switch %d->%d, bound to %d", i, s.From, s.To, c.mgrs[i].Current())
		}
		if s.Halt != 0 || s.Release != 0 || s.Copy == 0 {
			t.Fatalf("node %d: stages %+v, want only a copy", i, s)
		}
	}
	c.noControlBroadcast(t)

	var got []SwitchStats
	if err := c.mgrs[0].SwitchTo(3, 2, func(s SwitchStats) { got = append(got, s) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Halt+got[0].Copy+got[0].Release != 0 {
		t.Fatalf("same-job switch not synchronous and free: %+v", got)
	}
}

// TestQuiesceWaitsForAcks: PM-style switching polls, without a control
// broadcast, until the outgoing process has every packet resolved and the
// card's send queue is empty, and has no release stage.
func TestQuiesceWaitsForAcks(t *testing.T) {
	cfg := defaultCfg(2)
	cfg.Coordination = Quiesce
	c := newCluster(t, 2, cfg)
	c.addJob(t, 1)
	c.addJob(t, 2)
	c.switchAll(t, 1, 1, 0)
	stats := c.switchAll(t, 2, 2, 0)
	for i, s := range stats {
		if s.Halt != 3*quiescePollInterval || s.Release != 0 || c.mgrs[i].Current() != 2 {
			t.Fatalf("node %d: %+v, bound to %d; want a three-poll wait", i, s, c.mgrs[i].Current())
		}
	}
	c.noControlBroadcast(t)
}

// TestQuiesceNeedsQuiescedProcess: Quiesce coordination polls the
// outgoing process, so InitJob rejects one that cannot report it.
func TestQuiesceNeedsQuiescedProcess(t *testing.T) {
	cfg := defaultCfg(2)
	cfg.Coordination = Quiesce
	c := newCluster(t, 2, cfg)
	ep, err := fm.NewEndpoint(c.eng, c.nics[0], c.cpus[0], c.mem,
		fm.DefaultConfig(c.mgrs[0].Alloc().C0), 1, 0, []myrinet.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.mgrs[0].InitJob(1, ep); err == nil {
		t.Fatal("a process without Quiesced should be rejected")
	}
	if err := c.mgrs[0].InitJob(1, &quiescingEP{Endpoint: ep}); err != nil {
		t.Fatal(err)
	}
}

// TestEndJobDuringQuiescence: the incoming job killed while the outgoing
// one quiesces is detached, so the switch completes as an idle switch.
func TestEndJobDuringQuiescence(t *testing.T) {
	cfg := defaultCfg(2)
	cfg.Coordination = Quiesce
	c := newCluster(t, 2, cfg)
	c.addJob(t, 1)
	c.addJob(t, 2)
	c.switchAll(t, 1, 1, 0)
	m := c.mgrs[0]
	var got []SwitchStats
	if err := m.SwitchTo(2, 2, func(s SwitchStats) { got = append(got, s) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("switch completed without waiting for quiescence")
	}
	if err := m.EndJob(2); err != nil {
		t.Fatal(err)
	}
	c.eng.Run()
	if len(got) != 1 || got[0].Halt != 3*quiescePollInterval || got[0].RestoredSend != 0 || got[0].RestoredRecv != 0 {
		t.Fatalf("switch stats %+v", got)
	}
	if m.Current() != myrinet.NoJob || c.nics[0].ContextFor(2) != nil || m.Contexts() != 1 {
		t.Fatalf("bound to %d after the idle switch, %d contexts", m.Current(), m.Contexts())
	}
}

// members counts the nodes in m's topology view.
func members(m *Manager) int {
	n := 0
	for _, in := range m.topology {
		if in {
			n++
		}
	}
	return n
}

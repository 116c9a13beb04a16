package workload

import (
	"testing"

	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

func testCluster(t *testing.T, nodes int) *parpar.Cluster {
	t.Helper()
	cfg := parpar.DefaultConfig(nodes)
	cfg.Quantum = 2_000_000 // 10 ms: fast tests
	cfg.CtrlJitter = 50_000
	cfg.ForkDelay = 50_000
	c, err := parpar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBandwidthBenchmark(t *testing.T) {
	c := testCluster(t, 2)
	job, err := c.Submit(Bandwidth("bw", 500, 16384))
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	res, err := ExtractBandwidth(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 500*16384 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	mbs := res.MBs(sim.DefaultClock)
	if mbs < 40 || mbs > 95 {
		t.Fatalf("bandwidth %.1f MB/s out of plausible range", mbs)
	}
	if res.Elapsed() == 0 {
		t.Fatal("zero elapsed time")
	}
}

func TestBandwidthExtractErrors(t *testing.T) {
	c := testCluster(t, 2)
	job, _ := c.Submit(Bandwidth("bw", 100000, 65536))
	// Don't run to completion.
	c.RunUntil(c.Eng.Now() + 1000)
	if _, err := ExtractBandwidth(job); err == nil {
		t.Fatal("extracting from unfinished job should fail")
	}
}

func TestAllToAllBenchmark(t *testing.T) {
	c := testCluster(t, 4)
	job, err := c.Submit(AllToAll("a2a", 4, 25, 1024))
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	results, err := ExtractAllToAll(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results for %d ranks", len(results))
	}
	for rank, r := range results {
		if r.Sent != 75 || r.Received != 75 {
			t.Fatalf("rank %d: sent %d received %d, want 75/75", rank, r.Sent, r.Received)
		}
	}
}

func TestAllToAllStressesReceiveQueues(t *testing.T) {
	// With many senders per receiver and rotation under way, switches
	// should observe valid packets in the receive buffers (Figure 8's
	// phenomenon).
	c := testCluster(t, 4)
	c.Submit(AllToAll("a2a-1", 4, 300, 1536))
	c.Submit(AllToAll("a2a-2", 4, 300, 1536))
	c.Run()
	sawRecvBacklog := false
	for _, hist := range c.SwitchHistory() {
		for _, s := range hist {
			if s.ValidRecv > 0 {
				sawRecvBacklog = true
			}
		}
	}
	if !sawRecvBacklog {
		t.Fatal("no switch ever observed receive-buffer backlog under all-to-all")
	}
}

func TestPingPong(t *testing.T) {
	c := testCluster(t, 2)
	job, err := c.Submit(PingPong("pp", 100, 64))
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	res, ok := job.Results[0].(PingPongResult)
	if !ok {
		t.Fatalf("result type %T", job.Results[0])
	}
	rtt := res.RoundTrip()
	// Round trip should be tens of microseconds: > 2 us, < 500 us.
	if rtt < 400 || rtt > 100_000 {
		t.Fatalf("round-trip %d cycles implausible", rtt)
	}
}

func TestIdleAndCompute(t *testing.T) {
	c := testCluster(t, 2)
	j1, _ := c.Submit(parpar.JobSpec{Name: "idle", Size: 2, NewProgram: func(int) parpar.Program {
		return parpar.ProgramFunc(func(p *parpar.Proc) { p.Done(nil) })
	}})
	j2, _ := c.Submit(Compute("comp", 2, 500_000))
	c.Run()
	if j1.State() != parpar.JobDone || j2.State() != parpar.JobDone {
		t.Fatalf("states %v %v", j1.State(), j2.State())
	}
	if j2.DoneTime-j2.SyncTime < 500_000 {
		t.Fatal("compute job finished too fast")
	}
}

func TestSpecValidationPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Bandwidth("x", 0, 10) },
		func() { Bandwidth("x", 10, 0) },
		func() { AllToAll("x", 1, 10, 10) },
		func() { AllToAll("x", 4, 0, 10) },
		func() { PingPong("x", 0, 1) },
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

func TestBandwidthUnderPartitionedCliff(t *testing.T) {
	// With 8 contexts partitioned on a 16-node machine, C0 = 0: the
	// benchmark cannot complete (paper Figure 5's headline).
	cfg := parpar.DefaultConfig(16)
	cfg.Policy = fm.Partitioned
	cfg.Slots = 8
	cfg.Quantum = 2_000_000
	cfg.CtrlJitter = 50_000
	cfg.ForkDelay = 50_000
	c, err := parpar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(Bandwidth("dead", 10, 64))
	if err != nil {
		t.Fatal(err)
	}
	// Bounded run: the transfer is stuck, so the job can never finish.
	c.RunUntil(c.Eng.Now() + 50_000_000)
	if job.State() == parpar.JobDone {
		t.Fatal("job finished despite zero credits")
	}
	if _, err := ExtractBandwidth(job); err == nil {
		t.Fatal("extract should fail for the wedged job")
	}
}

func TestSwitchedPolicyUnaffectedBySlots(t *testing.T) {
	// The switched policy's bandwidth does not depend on the slot count
	// (Figure 6's flatness, single-job version).
	run := func(slots int) float64 {
		cfg := parpar.DefaultConfig(16)
		cfg.Slots = slots
		cfg.Mode = core.ValidOnly
		cfg.Quantum = 20_000_000
		cfg.CtrlJitter = 50_000
		cfg.ForkDelay = 50_000
		c, _ := parpar.New(cfg)
		job, _ := c.Submit(Bandwidth("bw", 300, 16384))
		c.Run()
		res, err := ExtractBandwidth(job)
		if err != nil {
			t.Fatal(err)
		}
		return res.MBs(sim.DefaultClock)
	}
	b1, b8 := run(1), run(8)
	ratio := b8 / b1
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("switched bandwidth varies with slots: %.1f vs %.1f MB/s", b1, b8)
	}
}

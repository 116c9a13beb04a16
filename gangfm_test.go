package gangfm

import (
	"testing"

	"gangfm/internal/workload"
)

// The façade tests exercise the public API end to end, the way the README
// quick start does.

// runDone runs cluster to a horizon far past these small jobs' completion
// and fails the test if a job is still live there: a wedge would otherwise
// hang the test binary instead of failing it.
func runDone(t *testing.T, cluster *Cluster) {
	t.Helper()
	if err := cluster.RunBounded(10 * 200_000_000); err != nil { // 10 virtual seconds
		t.Fatal(err)
	}
}

func TestQuickstartFlow(t *testing.T) {
	cluster, err := NewCluster(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	job, err := cluster.Submit(Bandwidth("t", 200, 8192))
	if err != nil {
		t.Fatal(err)
	}
	runDone(t, cluster)
	res, err := ExtractBandwidth(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.MBs(Clock()) < 30 {
		t.Fatalf("bandwidth %.1f MB/s implausibly low", res.MBs(Clock()))
	}
}

func TestPolicyConstantsRoundTrip(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	cfg.Policy = Partitioned
	cfg.Mode = FullCopy
	if _, err := NewCluster(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Policy = Switched
	cfg.Mode = ValidOnly
	if _, err := NewCluster(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCustomProgramViaFacade(t *testing.T) {
	cluster, err := NewCluster(DefaultClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// A user-written program: rank 0 sends one message, rank 1 reports
	// its payload size.
	spec := JobSpec{
		Name: "custom",
		Size: 2,
		NewProgram: func(rank int) Program {
			return ProgramFunc(func(p *Proc) {
				if rank == 0 {
					p.EP.Send(1, 999, nil)
					p.Done(nil)
				} else {
					p.EP.SetHandler(func(src, size int, _ []byte) {
						p.Done(size)
					})
				}
			})
		},
	}
	job, err := cluster.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	runDone(t, cluster)
	if job.Results[1] != 999 {
		t.Fatalf("custom program result = %v", job.Results[1])
	}
}

func TestAllToAllFacade(t *testing.T) {
	cluster, err := NewCluster(DefaultClusterConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	job, err := cluster.Submit(AllToAll("t", 3, 10, 512))
	if err != nil {
		t.Fatal(err)
	}
	runDone(t, cluster)
	results, err := workload.ExtractAllToAll(job)
	if err != nil {
		t.Fatal(err)
	}
	for rank, r := range results {
		if r.Sent != 20 || r.Received != 20 {
			t.Fatalf("rank %d: %d/%d", rank, r.Sent, r.Received)
		}
	}
}

func TestClockFacade(t *testing.T) {
	if Clock().Hz != 200_000_000 {
		t.Fatalf("clock = %d Hz, want the paper's 200 MHz", Clock().Hz)
	}
}

// TestRecoveryFacade drives the self-healing layer end to end through the
// public API: a node crash in the fault plan ends with the spanning job
// killed, a clean auditor, and the run still completing.
func TestRecoveryFacade(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	cfg.Quantum = 400_000
	cfg.Chaos = &FaultPlan{Seed: 7, Faults: []Fault{
		{Kind: NodeCrash, Node: 1, From: 10_000},
	}}
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := cluster.Submit(PingPong("doomed", 5, 64))
	if err != nil {
		t.Fatal(err)
	}
	cluster.RunUntil(50 * cfg.Quantum)
	if job.State() != JobKilled {
		t.Fatalf("job spanning the crashed node is %v, want killed", job.State())
	}
	if !cluster.Auditor().Ok() {
		t.Fatalf("recovery run reported violations: %s", cluster.Auditor().Summary())
	}
}

// TestLostFragmentWedgesWithoutPanic: under loss, a multi-fragment message
// can lose a middle fragment. FM has no retransmission, so the run wedges,
// but the receiver discards the partial message and the auditor reports
// the gap as a fragment-order violation instead of the simulator
// panicking, and the byte accounting stays exact.
func TestLostFragmentWedgesWithoutPanic(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	plan := Loss(42, 0.01)
	cfg.Chaos = &plan
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := cluster.Submit(Bandwidth("lossy", 2000, 6144))
	if err != nil {
		t.Fatal(err)
	}
	cluster.RunUntil(10 * 200_000_000)
	if _, err := ExtractBandwidth(job); err == nil {
		t.Fatal("a lossy run without retransmission completed")
	}
	found := map[string]bool{}
	for _, v := range cluster.Auditor().Violations() {
		found[v.Invariant] = true
	}
	if !found["fragment-order"] {
		t.Fatalf("auditor did not report the lost fragment: %s", cluster.Auditor().Summary())
	}
	if found["byte-accounting"] {
		t.Fatalf("discarded bytes broke the byte accounting: %s", cluster.Auditor().Summary())
	}
}

package workload

import (
	"testing"

	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

// withProcs wraps spec so that each rank's Proc lands in procs: the tests
// read the kernels' traffic from the endpoints' statistics.
func withProcs(spec parpar.JobSpec) (parpar.JobSpec, []*parpar.Proc) {
	procs := make([]*parpar.Proc, spec.Size)
	newProgram := spec.NewProgram
	spec.NewProgram = func(rank int) parpar.Program {
		prog := newProgram(rank)
		return parpar.ProgramFunc(func(p *parpar.Proc) {
			procs[rank] = p
			prog.Start(p)
		})
	}
	return spec, procs
}

// checkTraffic fails unless the rank sent msgs messages and received
// recvBytes bytes of payload.
func checkTraffic(t *testing.T, rank int, p *parpar.Proc, msgs, recvBytes uint64) {
	t.Helper()
	if st := p.EP.Stats(); st.MessagesSent != msgs || st.PayloadBytesRecv != recvBytes {
		t.Fatalf("rank %d: sent %d messages, received %d B; want %d, %d B",
			rank, st.MessagesSent, st.PayloadBytesRecv, msgs, recvBytes)
	}
}

func TestBSPKernel(t *testing.T) {
	c := testCluster(t, 4)
	spec, procs := withProcs(BSP("bsp", 4, 3, 2, 1024, 100_000))
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if job.State() != parpar.JobDone {
		t.Fatalf("state %v", job.State())
	}
	// 3 phases x 2 messages x 3 peers in each direction.
	for rank, r := range job.Results {
		res, ok := r.(KernelResult)
		if !ok {
			t.Fatalf("rank %d result %T", rank, r)
		}
		checkTraffic(t, rank, procs[rank], 18, 18*1024)
		if res.Compute != 3*100_000 {
			t.Fatalf("rank %d: compute %d", rank, res.Compute)
		}
	}
	if total := TotalCompute(job); total != 4*3*100_000 {
		t.Fatalf("TotalCompute = %d", total)
	}
}

func TestBSPSingleRankIsComputeOnly(t *testing.T) {
	c := testCluster(t, 2)
	spec, procs := withProcs(BSP("solo", 1, 5, 1, 64, 50_000))
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	checkTraffic(t, 0, procs[0], 0, 0)
	if res := job.Results[0].(KernelResult); res.Compute != 5*50_000 {
		t.Fatalf("compute %d", res.Compute)
	}
}

func TestStencilKernel(t *testing.T) {
	c := testCluster(t, 4)
	spec, procs := withProcs(Stencil("st", 4, 6, 512, 80_000))
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	for rank, r := range job.Results {
		res, ok := r.(KernelResult)
		if !ok {
			t.Fatalf("rank %d result %T", rank, r)
		}
		// One halo per neighbor per iteration on the ring.
		checkTraffic(t, rank, procs[rank], 12, 12*512)
		if res.Compute != 6*80_000 {
			t.Fatalf("rank %d: compute %d", rank, res.Compute)
		}
	}
}

func TestStencilTwoRanks(t *testing.T) {
	// With two ranks both ring neighbors are the same rank: two halos per
	// iteration each way, and the run must still terminate cleanly.
	c := testCluster(t, 2)
	spec, procs := withProcs(Stencil("st2", 2, 4, 256, 0))
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	for rank := range job.Results {
		checkTraffic(t, rank, procs[rank], 8, 8*256)
	}
}

func TestMasterWorkerKernel(t *testing.T) {
	c := testCluster(t, 4)
	spec, procs := withProcs(MasterWorker("mw", 4, 10, 2048, 120_000))
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if job.State() != parpar.JobDone {
		t.Fatalf("state %v", job.State())
	}
	// 10 tasks + 3 finish markers out, 10 completions back.
	checkTraffic(t, 0, procs[0], 13, 10*mwCtrlSize)
	var workerTasks uint64
	var workerCompute sim.Time
	for rank := 1; rank < 4; rank++ {
		// Each worker sent one completion per task and got its tasks
		// plus one finish marker.
		tasks := procs[rank].EP.Stats().MessagesSent
		checkTraffic(t, rank, procs[rank], tasks, tasks*2048+mwCtrlSize)
		workerTasks += tasks
		workerCompute += job.Results[rank].(KernelResult).Compute
	}
	if workerTasks != 10 {
		t.Fatalf("workers completed %d tasks, want 10", workerTasks)
	}
	if workerCompute != 10*120_000 {
		t.Fatalf("worker compute %d", workerCompute)
	}
}

func TestMasterWorkerFewerTasksThanWorkers(t *testing.T) {
	// Some workers receive only a finish marker.
	c := testCluster(t, 4)
	spec, procs := withProcs(MasterWorker("mw-small", 4, 2, 1024, 0))
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if job.State() != parpar.JobDone {
		t.Fatalf("state %v", job.State())
	}
	var total uint64
	for rank := 1; rank < 4; rank++ {
		total += procs[rank].EP.Stats().MessagesSent
	}
	if total != 2 {
		t.Fatalf("workers completed %d tasks, want 2", total)
	}
}

func TestPingPongReplierResult(t *testing.T) {
	// The replier's Done value is its reply count — both sides must agree
	// on the number of rounds.
	c := testCluster(t, 2)
	spec, procs := withProcs(PingPong("pp", 50, 128))
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	res, ok := job.Results[0].(PingPongResult)
	if !ok {
		t.Fatalf("rank 0 result %T", job.Results[0])
	}
	if res.Rounds != 50 {
		t.Fatalf("rank 0 result %+v", res)
	}
	checkTraffic(t, 0, procs[0], 50, 50*128)
	replies, ok := job.Results[1].(int)
	if !ok {
		t.Fatalf("rank 1 result %T", job.Results[1])
	}
	if replies != 50 {
		t.Fatalf("replier counted %d rounds, want 50", replies)
	}
	if res.End < job.SyncTime || res.Start < job.SyncTime {
		t.Fatal("measurement interval precedes job sync")
	}
}

func TestKernelValidationPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { BSP("x", 0, 1, 1, 1, 0) },
		func() { BSP("x", 2, 1, 0, 64, 0) },
		func() { Stencil("x", 0, 1, 64, 0) },
		func() { Stencil("x", 2, 1, 0, 0) },
		func() { MasterWorker("x", 1, 1, 64, 0) },
		func() { MasterWorker("x", 4, 0, 64, 0) },
		func() { MasterWorker("x", 4, 1, 8, 0) },
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

package workload

import (
	"testing"

	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

// These tests pin the zero-allocation steady state of the three
// scheduler-evaluation kernels: once a job's pools and the engine arena
// have warmed up, advancing simulated time through exchange phases must
// not allocate at all. Any regression here (a closure creeping into a
// per-message path, a pooled record escaping) shows up as a nonzero
// per-window allocation count.

// steadyAllocs warms a single-job cluster past its launch phase, then
// measures heap allocations per fixed time window in mid-execution. The
// quantum is effectively infinite so no context switch lands inside the
// measured windows — what is measured is pure exchange-phase traffic.
func steadyAllocs(t *testing.T, spec parpar.JobSpec, warm, step sim.Time) float64 {
	t.Helper()
	cfg := parpar.DefaultConfig(4)
	cfg.Slots = 1
	cfg.Quantum = 1 << 40
	c, err := parpar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(warm)
	if job.State() == parpar.JobDone {
		t.Fatal("workload finished during warmup; lengthen it")
	}
	allocs := testing.AllocsPerRun(10, func() { c.RunUntil(c.Eng.Now() + step) })
	if job.State() == parpar.JobDone {
		t.Fatal("workload finished during measurement; lengthen it")
	}
	return allocs
}

func TestBSPSteadyStateZeroAlloc(t *testing.T) {
	spec := BSP("bsp-steady", 4, 100_000, 2, 1024, 100_000)
	if got := steadyAllocs(t, spec, 20_000_000, 5_000_000); got != 0 {
		t.Fatalf("BSP exchange phase allocates %.2f objects per window, want 0", got)
	}
}

func TestStencilSteadyStateZeroAlloc(t *testing.T) {
	spec := Stencil("st-steady", 4, 100_000, 512, 80_000)
	if got := steadyAllocs(t, spec, 20_000_000, 5_000_000); got != 0 {
		t.Fatalf("stencil exchange phase allocates %.2f objects per window, want 0", got)
	}
}

func TestMasterWorkerSteadyStateZeroAlloc(t *testing.T) {
	spec := MasterWorker("mw-steady", 4, 200_000, 2048, 20_000)
	if got := steadyAllocs(t, spec, 20_000_000, 5_000_000); got != 0 {
		t.Fatalf("task-bag steady state allocates %.2f objects per window, want 0", got)
	}
}

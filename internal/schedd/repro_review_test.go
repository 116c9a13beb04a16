package schedd

import (
	"strings"
	"testing"

	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// Review repro: three backfill candidates behind a blocked head; the
// backfill loop iterates d.queue[1:] while tryPlace mutates d.queue.
func TestReviewBackfillQueueMutation(t *testing.T) {
	long := func(arrive sim.Time, size int) schedeval.TraceJob {
		return schedeval.TraceJob{Arrive: arrive, Size: size, Kernel: schedeval.KernelBSP,
			Units: 5, Msgs: 4, MsgBytes: 512, Compute: 8_000_000}
	}
	short := func(arrive sim.Time, size int) schedeval.TraceJob {
		return schedeval.TraceJob{Arrive: arrive, Size: size, Kernel: schedeval.KernelBSP,
			Units: 1, Msgs: 1, MsgBytes: 64, Compute: 50_000}
	}
	cfg := DefaultConfig(6)
	cfg.Slots = 2
	cfg.Trace = []schedeval.TraceJob{
		long(0, 6),       // row 0, all columns
		long(100_000, 3), // row 1, three columns
		long(200_000, 6), // head: blocked
		short(300_000, 1),
		short(310_000, 1),
		short(320_000, 1),
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	logStr := d.Log().String()
	for _, j := range []string{"job=3", "job=4", "job=5"} {
		n := strings.Count(logStr, "backfill "+j)
		t.Logf("backfill count for %s: %d", j, n)
		if n > 1 {
			t.Errorf("task %s submitted %d times", j, n)
		}
	}
	if bad := d.Audit(); len(bad) != 0 {
		t.Errorf("task-table audit: %v", bad)
	}
	t.Logf("log:\n%s", logStr)
}

package parpar

import (
	"testing"

	"gangfm/internal/sim"
)

// countLoop returns a timer-driven program with a fixed sim-time lifetime
// (n ticks of 200k cycles), so tests can kill mid-run deterministically
// without depending on communication speed.
func countLoop(n int) func(rank int) Program {
	return func(rank int) Program {
		return ProgramFunc(func(p *Proc) {
			left := n
			var loop func()
			loop = func() {
				left--
				if left == 0 {
					p.Done(n)
					return
				}
				p.Schedule(sim.Time(200_000), loop)
			}
			loop()
		})
	}
}

// TestVoluntaryKillFreesSlotsAndAdmitsQueued is the regression contract of
// the voluntary termination path: killing a spanning job reclaims its
// matrix slots (so a previously rejected submission is admitted into
// them), releases its contexts on every node, and — unlike eviction —
// marks no node dead, so the survivor keeps rotating and finishes.
func TestVoluntaryKillFreesSlotsAndAdmitsQueued(t *testing.T) {
	cfg := testConfig(2)
	cfg.Slots = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hog := func(rank int) Program {
		return ProgramFunc(func(p *Proc) { /* never Done */ })
	}
	victim, err := c.Submit(JobSpec{Name: "victim", Size: 2, NewProgram: hog})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := c.Submit(JobSpec{Name: "survivor", Size: 2, NewProgram: countLoop(200)})
	if err != nil {
		t.Fatal(err)
	}
	// Table full: a third spanning job is rejected.
	if _, err := c.Submit(JobSpec{Size: 2, NewProgram: pingPong(1)}); err == nil {
		t.Fatal("third job should exceed the 2-slot table")
	}
	c.RunUntil(5_000_000) // both jobs launched and rotating
	killedState := JobState(-1)
	victim.OnDone(func(j *Job) { killedState = j.State() })
	if err := c.Kill(victim); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if killedState != JobKilled {
		t.Fatalf("OnDone saw state %v, want killed", killedState)
	}
	if got := c.Master().Matrix().Jobs(); got != 1 {
		t.Fatalf("matrix holds %d jobs after kill, want 1", got)
	}
	// Double kill is rejected.
	if err := c.Kill(victim); err == nil {
		t.Fatal("second kill should fail")
	}
	// The freed slots admit a queued job immediately.
	queued, err := c.Submit(JobSpec{Name: "queued", Size: 2, NewProgram: countLoop(50)})
	if err != nil {
		t.Fatalf("queued job not admitted into freed slots: %v", err)
	}
	runDone(t, c)
	if survivor.State() != JobDone || queued.State() != JobDone {
		t.Fatalf("states after run: survivor=%v queued=%v, want done",
			survivor.State(), queued.State())
	}
	for _, n := range c.Nodes() {
		if got := n.Mgr.Contexts(); got != 0 {
			t.Fatalf("node %d still holds %d contexts", n.ID, got)
		}
	}
}

// TestKillWhileLoadingLeaksNoContext kills a job before its load messages
// reach the nodes: the in-flight COMM_init_job must observe the kill and
// allocate nothing, leaving every node context-free.
func TestKillWhileLoadingLeaksNoContext(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(JobSpec{Name: "doomed", Size: 2, NewProgram: pingPong(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(job); err != nil {
		t.Fatalf("kill while loading: %v", err)
	}
	runDone(t, c)
	if job.State() != JobKilled {
		t.Fatalf("state = %v, want killed", job.State())
	}
	for _, n := range c.Nodes() {
		if got := n.Mgr.Contexts(); got != 0 {
			t.Fatalf("node %d leaked %d contexts from a killed load", n.ID, got)
		}
	}
}

// TestResizeRestartsAtNewSize exercises the kill+resubmit resize path: the
// old incarnation dies, the new one runs at the new size and completes.
func TestResizeRestartsAtNewSize(t *testing.T) {
	c, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(JobSpec{Name: "r", Size: 2, NewProgram: pingPong(1000)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(5_000_000)
	bigger, err := c.Resize(job, JobSpec{Name: "r2", Size: 4, NewProgram: oneWay(5, 64)})
	if err != nil {
		t.Fatalf("resize: %v", err)
	}
	runDone(t, c)
	if job.State() != JobKilled {
		t.Fatalf("old incarnation state = %v, want killed", job.State())
	}
	if bigger.State() != JobDone {
		t.Fatalf("new incarnation state = %v, want done", bigger.State())
	}
	if got := len(bigger.Placement.Cols); got != 4 {
		t.Fatalf("new incarnation spans %d nodes, want 4", got)
	}
}

// TestCompactMigratesAfterKill checks the explicit slot-unification entry
// point: with the first-fit policy (no UnifyOnExit), killing the sole job
// of row 0 strands the other jobs in later rows until Compact moves them
// down — after which the rotation still completes every survivor.
func TestCompactMigratesAfterKill(t *testing.T) {
	cfg := testConfig(2)
	cfg.Slots = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hog := func(rank int) Program {
		return ProgramFunc(func(p *Proc) { /* never Done */ })
	}
	a, err := c.Submit(JobSpec{Name: "a", Size: 2, NewProgram: hog})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(JobSpec{Name: "b", Size: 2, NewProgram: countLoop(200)})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(5_000_000)
	if err := c.Kill(a); err != nil {
		t.Fatal(err)
	}
	if p, _ := c.Master().Matrix().Placement(b.ID); p.Row != 1 {
		t.Fatalf("survivor in row %d after kill, want 1 (hole not yet compacted)", p.Row)
	}
	if moved := c.Compact(); moved != 1 {
		t.Fatalf("compact moved %d jobs, want 1", moved)
	}
	if p, _ := c.Master().Matrix().Placement(b.ID); p.Row != 0 {
		t.Fatalf("survivor in row %d after compact, want 0", p.Row)
	}
	if c.Compact() != 0 {
		t.Fatal("second compact should be a no-op")
	}
	runDone(t, c)
	if b.State() != JobDone {
		t.Fatalf("survivor state = %v, want done", b.State())
	}
}

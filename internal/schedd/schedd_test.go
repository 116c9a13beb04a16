package schedd

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/parpar"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// churnTrace generates the standard seeded churn workload.
func churnTrace(t *testing.T, jobs int) []schedeval.TraceJob {
	t.Helper()
	g := schedeval.DefaultGenConfig(8)
	g.Seed = 11
	g.Jobs = jobs
	g.KillFraction = 0.15
	g.ResizeFraction = 0.15
	g.DeadlineFraction = 0.25
	trace, err := schedeval.Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// render folds a run's observable output into one string: the grid row
// inputs plus the full decision log.
func render(r *Result) string {
	return fmt.Sprintf("%s jobs=%d done=%d kill=%d evict=%d resz=%d cens=%d dl=%d bf=%d migr=%d resp=%.3f bsld=%.3f/%.3f util=%.4f\n%s",
		r.Mode, r.Jobs, r.Finished, r.Killed, r.Evicted, r.Resized, r.Censored,
		r.DlMiss, r.Backfills, r.Migrations, r.MeanResponse, r.MeanSlowdown,
		r.MaxSlowdown, r.Utilization, r.Log.String())
}

// TestDaemonDeterminism is the acceptance criterion's core: the same seed
// must produce a byte-identical decision log and metrics — across repeated
// runs and across sharded execution at workers 1, 2, and 4.
func TestDaemonDeterminism(t *testing.T) {
	trace := churnTrace(t, 14)
	run := func(shards, workers int) string {
		cfg := DefaultConfig(8)
		cfg.Trace = trace
		cfg.Shards = shards
		cfg.Workers = workers
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return render(d.Result("gang"))
	}
	base := run(0, 0)
	if again := run(0, 0); again != base {
		t.Fatal("unsharded rerun diverged")
	}
	for _, workers := range []int{1, 2, 4} {
		if got := run(4, workers); got != base {
			t.Fatalf("shards=4 workers=%d diverged from unsharded run:\n--- base ---\n%s\n--- got ---\n%s",
				workers, base, got)
		}
	}
	if !strings.Contains(base, " place ") || !strings.Contains(base, " done ") {
		t.Fatalf("log lacks basic decisions:\n%s", base)
	}
}

// TestKillResizeChurn checks the command paths end to end on the seeded
// trace: kills and resizes both happen, resized jobs complete at their new
// size, and the cache stays coherent with the matrix (no cache-bad lines,
// horizon reports cache_ok).
func TestKillResizeChurn(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Trace = churnTrace(t, 20)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	r := d.Result("gang")
	if r.Killed == 0 {
		t.Error("trace has kill directives but none executed")
	}
	if r.Resized == 0 {
		t.Error("trace has resize directives but none executed")
	}
	if r.Finished == 0 {
		t.Error("no jobs finished")
	}
	if got := r.Log.Count(VerbCacheBad); got != 0 {
		t.Errorf("%d cache coherence violations:\n%s", got, r.Log)
	}
	if bad := d.Cache().Audit(d.Cluster().Master().Matrix()); len(bad) != 0 {
		t.Errorf("cache audit: %v", bad)
	}
	if !strings.Contains(r.Log.String(), "cache_ok=true") {
		t.Error("horizon line does not report cache_ok=true")
	}
	if r.Finished+r.Killed+r.Evicted+r.Censored != r.Jobs {
		t.Errorf("fates don't partition: %d+%d+%d+%d != %d",
			r.Finished, r.Killed, r.Evicted, r.Censored, r.Jobs)
	}
}

// TestKillMidMessageTeardown is a regression test for a fragment-stream
// corruption in the kill path: the masterd delivers node-side kills with
// jittered ctrl latencies, so one rank's queues are torn down while its
// peers are still live and mid-message. A merely *suspended* endpoint
// would finish an in-flight send after its own SendQ was cleared,
// injecting message n+1 onto the wire with a fragment of message n
// destroyed — the live peer's reassembly then panicked ("interleaved
// fragments"). The 28-job seed-11 trace hits the window (job 9, a
// 2048-byte-message all-to-all, is killed 788k cycles after placement,
// mid-fragment-stream); smaller traces don't.
func TestKillMidMessageTeardown(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Trace = churnTrace(t, 28)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	r := d.Result("gang")
	if r.Killed == 0 {
		t.Error("trace has kill directives but none executed")
	}
	if r.Finished+r.Killed+r.Evicted+r.Censored != r.Jobs {
		t.Errorf("fates don't partition: %d+%d+%d+%d != %d",
			r.Finished, r.Killed, r.Evicted, r.Censored, r.Jobs)
	}
	if bad := d.Cache().Audit(d.Cluster().Master().Matrix()); len(bad) != 0 {
		t.Errorf("cache audit: %v", bad)
	}
}

// TestBackfillConservative pins the backfill rule with a hand-built
// scenario on a 4-node, 2-slot machine: two long jobs fill column space so
// a spanning head blocks, a short narrow job may jump the queue (its
// estimate clears before the shadow), and a long narrow job may not.
func TestBackfillConservative(t *testing.T) {
	long := func(arrive sim.Time, size int) schedeval.TraceJob {
		return schedeval.TraceJob{Arrive: arrive, Size: size, Kernel: schedeval.KernelBSP,
			Units: 5, Msgs: 4, MsgBytes: 512, Compute: 8_000_000}
	}
	short := func(arrive sim.Time, size int) schedeval.TraceJob {
		return schedeval.TraceJob{Arrive: arrive, Size: size, Kernel: schedeval.KernelBSP,
			Units: 1, Msgs: 1, MsgBytes: 64, Compute: 50_000}
	}
	cfg := DefaultConfig(4)
	cfg.Slots = 2
	cfg.Trace = []schedeval.TraceJob{
		long(0, 4),        // row 0, all columns
		long(100_000, 2),  // row 1, two columns
		long(200_000, 4),  // head: blocked until both longs exit
		short(300_000, 2), // short narrow: estimate clears the shadow -> backfill
		long(400_000, 2),  // long narrow: estimate exceeds the shadow -> waits
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	r := d.Result("gang")
	if r.Finished != len(cfg.Trace) {
		t.Fatalf("only %d/%d finished:\n%s", r.Finished, len(cfg.Trace), r.Log)
	}
	logStr := r.Log.String()
	if !strings.Contains(logStr, "backfill job=3") {
		t.Errorf("short job 3 was not backfilled:\n%s", logStr)
	}
	if strings.Contains(logStr, "backfill job=4") {
		t.Errorf("long job 4 was backfilled past the blocked head:\n%s", logStr)
	}
	if r.Backfills != 1 {
		t.Errorf("backfills = %d, want 1", r.Backfills)
	}
	// Conservativeness: the backfilled job must not have delayed the head.
	// Job 3 is admitted into job 1's row and exits before either long job,
	// so job 2's placement time equals what a no-backfill run would give.
	noBF := cfg
	noBF.Trace = cfg.Trace[:3]
	d2, err := New(noBF)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Run(); err != nil {
		t.Fatal(err)
	}
	headPlaced := func(log *Log) sim.Time {
		for _, line := range log.Lines() {
			if strings.Contains(line, " place job=2 ") {
				var at int64
				if _, err := fmt.Sscanf(line, "t=%d", &at); err != nil {
					t.Fatalf("unparseable log line %q: %v", line, err)
				}
				return sim.Time(at)
			}
		}
		t.Fatalf("head job 2 never placed:\n%s", log)
		return 0
	}
	// Backfill must never push the head later; earlier is fine (the short
	// job perturbs rotation timing by a few control messages).
	if with, without := headPlaced(r.Log), headPlaced(d2.Log()); with > without {
		t.Errorf("backfill delayed the head: with=%d without=%d", with, without)
	}
}

// TestChaosUnderChurn is the chaos-under-churn smoke: a NodeCrash mid-
// churn on a recovered cluster must evict the crashed node's jobs (logged
// as evicted, counted in the grid), while jobs on surviving nodes
// complete — and the whole thing replays byte-identically.
func TestChaosUnderChurn(t *testing.T) {
	long := func(arrive sim.Time, size int) schedeval.TraceJob {
		return schedeval.TraceJob{Arrive: arrive, Size: size, Kernel: schedeval.KernelBSP,
			Units: 4, Msgs: 6, MsgBytes: 512, Compute: 2_000_000}
	}
	run := func(shards, workers int) (*Result, []int) {
		cfg := DefaultConfig(4)
		cfg.Slots = 2
		cfg.Quantum = 400_000
		cfg.Trace = []schedeval.TraceJob{
			long(0, 4),         // spans the doomed node -> evicted
			long(100_000, 2),   // lands on nodes 0-1... placement decides
			long(5_000_000, 2), // arrives after the crash settles
		}
		cfg.Horizon = 400_000_000
		cfg.Shards = shards
		cfg.Workers = workers
		rec := parpar.DefaultRecovery(cfg.Quantum)
		cfg.Recovery = &rec
		cfg.Chaos = &chaos.Plan{Seed: 5, Faults: []chaos.Fault{
			{Kind: chaos.NodeCrash, Node: 3, From: 150_000},
		}}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return d.Result("gang"), d.Cluster().Master().EvictedNodes()
	}
	r, evicted := run(0, 0)
	if len(evicted) == 0 {
		t.Fatalf("no node evicted under NodeCrash:\n%s", r.Log)
	}
	if got := r.Log.Count(VerbNodeDead); got != len(evicted) {
		t.Errorf("node-dead log count %d != evicted nodes %d", got, len(evicted))
	}
	if r.Evicted == 0 {
		t.Fatalf("no job evicted, want the full-machine job:\n%s", r.Log)
	}
	// Terminal evictions are exactly the explicit gaveups, and every
	// crash-kill was either requeued or given up — nothing silently lost.
	if r.Evicted != r.GaveUp {
		t.Errorf("evicted %d != gaveup %d: a crash-kill fate went unreported", r.Evicted, r.GaveUp)
	}
	if crashKills := r.Log.Count(VerbEvicted); crashKills > r.Log.Count(VerbRequeue)+r.Log.Count(VerbGaveup) {
		t.Errorf("%d crash-kills but only %d requeue + %d gaveup decisions",
			crashKills, r.Log.Count(VerbRequeue), r.Log.Count(VerbGaveup))
	}
	// Zero jobs stuck in Loading on dead nodes: the spanning job requeued
	// onto surviving capacity and finished, so nothing is censored.
	if r.Censored != 0 {
		t.Errorf("censored %d jobs, want 0 (requeue must drain them):\n%s", r.Censored, r.Log)
	}
	if r.RequeuedJobs == 0 {
		t.Errorf("no job requeued, want the crash-killed small job:\n%s", r.Log)
	}
	if r.Finished == 0 {
		t.Fatalf("no survivor completed on the degraded cluster:\n%s", r.Log)
	}
	if r.NodesLost != len(evicted) || r.CapacityLost <= 0 || r.Goodput <= r.Utilization {
		t.Errorf("availability metrics inconsistent: lost=%d cap=%.3f goodput=%.3f util=%.3f",
			r.NodesLost, r.CapacityLost, r.Goodput, r.Utilization)
	}
	r2, _ := run(0, 0)
	if render(r) != render(r2) {
		t.Fatal("chaos-under-churn run not byte-identical across replays")
	}
	// Chaos draws are keyed by simulation state, not lane interleaving, so
	// the crash cascade — eviction order, requeue timing, every log line —
	// must be byte-identical at any shard/worker setting.
	for _, workers := range []int{1, 2, 4} {
		sharded, _ := run(4, workers)
		if render(r) != render(sharded) {
			t.Fatalf("shards=4 workers=%d diverged from the unsharded crash run", workers)
		}
	}
}

// TestFractionalKnownAnswer checks the analytic processor-sharing model
// against closed-form answers. Two compute-only jobs sharing one node
// follow the classic PS timeline: the shorter finishes at twice its work,
// the longer at the sum of both.
func TestFractionalKnownAnswer(t *testing.T) {
	// Compute-only (size 1 => no messages => comm fraction 0).
	j0 := schedeval.TraceJob{Arrive: 0, Size: 1, Kernel: schedeval.KernelBSP,
		Units: 10, Msgs: 1, MsgBytes: 64, Compute: 1_000_000}
	j1 := schedeval.TraceJob{Arrive: 0, Size: 1, Kernel: schedeval.KernelBSP,
		Units: 30, Msgs: 1, MsgBytes: 64, Compute: 1_000_000}
	n0, n1 := float64(j0.Nominal()), float64(j1.Nominal())
	cfg := DefaultConfig(1)
	cfg.Trace = []schedeval.TraceJob{j0, j1}
	r := Fractional(cfg)
	if r.Finished != 2 {
		t.Fatalf("finished %d/2:\n%s", r.Finished, r.Log)
	}
	// PS on one CPU: short job sees rate 1/2 until it exits at 2*n0; the
	// long one then runs alone and exits at n0 + n1.
	wantMean := (2*n0 + n0 + n1) / 2
	if got := r.MeanResponse; !near(got, wantMean, 1) {
		t.Errorf("mean response %v, want %v", got, wantMean)
	}

	// A lone communication-heavy job runs at full rate: response = nominal.
	comm := schedeval.TraceJob{Arrive: 0, Size: 2, Kernel: schedeval.KernelAllToAll,
		Units: 4, Msgs: 20, MsgBytes: 2048, Compute: 10_000}
	cfg2 := DefaultConfig(4)
	cfg2.Trace = []schedeval.TraceJob{comm}
	r2 := Fractional(cfg2)
	if got, want := r2.MeanResponse, float64(comm.Nominal()); !near(got, want, 1) {
		t.Errorf("lone comm job response %v, want nominal %v", got, want)
	}

	// Two identical comm-heavy jobs overlapping: with comm fraction cf and
	// co-residency 2, each runs at 1/((1-cf)*2 + cf*4) — communication
	// degrades quadratically (the split-credit effect).
	cfg3 := DefaultConfig(2)
	cfg3.Trace = []schedeval.TraceJob{comm, comm}
	r3 := Fractional(cfg3)
	wall, cparts := comm.NominalParts()
	nom := float64(comm.Nominal())
	cf := float64(cparts) / nom
	_ = wall
	want3 := nom * ((1-cf)*2 + cf*4)
	if got := r3.MeanResponse; !near(got, want3, 1) {
		t.Errorf("shared comm jobs response %v, want %v", got, want3)
	}
	if r3.MeanResponse <= r2.MeanResponse {
		t.Error("co-residency did not degrade communication-bound jobs")
	}
}

func near(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestShowdownGrid runs all three modes on the seeded churn trace and
// checks the grid invariants: same jobs everywhere, every mode reports
// bounded slowdown and utilization, fractional admits everything (no
// queue), and the rendering carries all three rows.
func TestShowdownGrid(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Trace = churnTrace(t, 12)
	rs, err := Showdown(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	modes := []string{"gang", "batch", "fractional"}
	for i, r := range rs {
		if r.Mode != modes[i] {
			t.Fatalf("mode[%d] = %q, want %q", i, r.Mode, modes[i])
		}
		if r.Jobs != len(cfg.Trace) {
			t.Errorf("%s saw %d jobs, want %d", r.Mode, r.Jobs, len(cfg.Trace))
		}
		if r.Finished == 0 {
			t.Errorf("%s finished nothing", r.Mode)
		}
		if r.MeanSlowdown < 1 && r.Finished > 0 {
			t.Errorf("%s mean bounded slowdown %v < 1", r.Mode, r.MeanSlowdown)
		}
		if r.Utilization <= 0 || r.Utilization > 1.5 {
			t.Errorf("%s utilization %v implausible", r.Mode, r.Utilization)
		}
	}
	if rs[2].Log.Count(VerbQueue) != 0 || rs[2].Log.Count(VerbPrune) != 0 {
		t.Error("fractional mode queued jobs; it must admit immediately")
	}
	grid := GridTable(rs).String()
	for _, mode := range modes {
		if !strings.Contains(grid, mode) {
			t.Errorf("grid lacks %s row:\n%s", mode, grid)
		}
	}
	stats := StatsTable(rs).String()
	if !strings.Contains(stats, "backfill") || !strings.Contains(stats, "compact") {
		t.Errorf("stats table lacks decision rows:\n%s", stats)
	}
	// The whole showdown is deterministic.
	rs2, err := Showdown(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if GridTable(rs).String() != GridTable(rs2).String() {
		t.Fatal("showdown grid not deterministic")
	}
	for i := range rs {
		if !reflect.DeepEqual(rs[i].Log.Lines(), rs2[i].Log.Lines()) {
			t.Fatalf("%s decision log not deterministic", rs[i].Mode)
		}
	}
}

// TestConfigValidation covers the constructor's error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(DefaultConfig(8)); err == nil {
		t.Error("empty trace accepted")
	}
	cfg := DefaultConfig(8)
	cfg.Trace = []schedeval.TraceJob{{Arrive: 0, Size: 99, Kernel: schedeval.KernelBSP,
		Units: 1, Msgs: 1, MsgBytes: 64}}
	if _, err := New(cfg); err == nil {
		t.Error("oversized job accepted")
	}
}

// TestAdaptiveEstimateTightens pins the EWMA backfill estimator: it starts
// from the static slots-deep worst case, and once a kernel has completed,
// the observed stretch — near 1 for jobs running alone — replaces it, so
// the shadow estimate tightens toward the real response.
func TestAdaptiveEstimateTightens(t *testing.T) {
	var trace []schedeval.TraceJob
	for i := 0; i < 6; i++ {
		trace = append(trace, schedeval.TraceJob{
			Arrive: sim.Time(1 + i*60_000_000), Size: 4, Kernel: schedeval.KernelBSP,
			Units: 2, Msgs: 2, MsgBytes: 256, Compute: 2_000_000})
	}
	run := func(adaptive bool) *Daemon {
		cfg := DefaultConfig(8)
		cfg.Trace = trace
		cfg.AdaptiveEstimate = adaptive
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		if r := d.Result("gang"); r.Finished != len(trace) {
			t.Fatalf("finished %d of %d jobs", r.Finished, len(trace))
		}
		return d
	}
	d := run(true)
	s, ok := d.EstimatedStretch(schedeval.KernelBSP)
	if !ok {
		t.Fatal("no stretch observed after six completions")
	}
	static := float64(DefaultConfig(8).Slots)
	if s <= 0 || s >= static/2 {
		t.Fatalf("observed stretch %.3f did not tighten below the static %.0f", s, static)
	}
	if _, ok := d.EstimatedStretch(schedeval.KernelStencil); ok {
		t.Fatal("stretch reported for a kernel that never completed")
	}
	if _, ok := run(false).EstimatedStretch(schedeval.KernelBSP); ok {
		t.Fatal("stretch reported with the adaptive estimator off")
	}
}

// crashedChurn runs the gang daemon over the seeded churn trace with
// sampled fail-stop crashes armed.
func crashedChurn(t *testing.T, retryBudget int) (*Daemon, int) {
	t.Helper()
	trace := churnTrace(t, 12)
	var lastArrive sim.Time
	for _, tj := range trace {
		if tj.Arrive > lastArrive {
			lastArrive = tj.Arrive
		}
	}
	crashes, err := schedeval.GenCrashes(7, 8, 0.35, lastArrive)
	if err != nil {
		t.Fatal(err)
	}
	if len(crashes) == 0 {
		t.Fatal("crash sampler produced no crashes")
	}
	cfg := DefaultConfig(8)
	cfg.Trace = trace
	cfg.Crashes = crashes
	cfg.AdaptiveEstimate = true
	cfg.RetryBudget = retryBudget
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return d, len(crashes)
}

// TestCrashRequeueRecovers is the tentpole acceptance check in test form:
// under mid-run node crashes the gang daemon evicts the dead nodes, shrinks
// its capacity view, and requeues the crash-killed jobs on the survivors —
// nothing is left censored (stuck in Loading on a dead node) at the
// horizon, and the placement cache stays coherent with the shrunken matrix.
func TestCrashRequeueRecovers(t *testing.T) {
	d, nCrashes := crashedChurn(t, 0)
	r := d.Result("gang")
	if r.NodesLost != nCrashes {
		t.Fatalf("NodesLost = %d, want %d", r.NodesLost, nCrashes)
	}
	if got := d.Cluster().Master().LiveNodes(); got != 8-nCrashes {
		t.Fatalf("LiveNodes = %d, want %d", got, 8-nCrashes)
	}
	if r.Requeues == 0 || r.RequeuedJobs == 0 {
		t.Fatalf("crashes killed jobs but requeues=%d requeued_jobs=%d", r.Requeues, r.RequeuedJobs)
	}
	if r.Censored != 0 {
		t.Fatalf("%d jobs censored at the horizon — stuck instead of requeued:\n%s", r.Censored, d.Log())
	}
	if r.MeanRequeue <= 0 {
		t.Fatalf("MeanRequeue = %v with %d requeues", r.MeanRequeue, r.Requeues)
	}
	if r.CapacityLost <= 0 || r.Goodput <= 0 {
		t.Fatalf("availability metrics not computed: cap_lost=%v goodput=%v", r.CapacityLost, r.Goodput)
	}
	if got := r.Log.Count(VerbRequeue); got != r.Requeues {
		t.Fatalf("log has %d requeue lines, result says %d", got, r.Requeues)
	}
	if got := r.Log.Count(VerbCacheBad); got != 0 {
		t.Fatalf("%d cache coherence violations:\n%s", got, r.Log)
	}
	if bad := d.Cache().Audit(d.Cluster().Master().Matrix()); len(bad) != 0 {
		t.Fatalf("cache audit: %v", bad)
	}
	if r.Finished+r.Killed+r.Evicted+r.Censored != r.Jobs {
		t.Fatalf("fates don't partition: %d+%d+%d+%d != %d",
			r.Finished, r.Killed, r.Evicted, r.Censored, r.Jobs)
	}
}

// TestCrashRetryBudgetExhausted pins the gaveup path: with a zero retry
// budget (RetryBudget < 0) every crash-killed job is abandoned with
// reason=budget instead of requeued.
func TestCrashRetryBudgetExhausted(t *testing.T) {
	d, _ := crashedChurn(t, -1)
	r := d.Result("gang")
	if r.Requeues != 0 {
		t.Fatalf("zero budget but %d requeues", r.Requeues)
	}
	if r.GaveUp == 0 {
		t.Fatal("zero budget and crash kills, but no job gave up")
	}
	if !strings.Contains(r.Log.String(), "reason=budget") {
		t.Fatalf("gaveup lines lack reason=budget:\n%s", r.Log)
	}
	if r.Censored != 0 {
		t.Fatalf("%d jobs censored — gaveup path left work stuck", r.Censored)
	}
}

// repairedChurn runs the gang daemon over the seeded churn trace with
// sampled crashes and repairs armed — the configuration of the
// churn_repair golden, down to the seeds.
func repairedChurn(t *testing.T) (*Daemon, []schedeval.Crash, []schedeval.Repair) {
	t.Helper()
	trace := churnTrace(t, 12)
	var lastArrive sim.Time
	for _, tj := range trace {
		if tj.Arrive > lastArrive {
			lastArrive = tj.Arrive
		}
	}
	crashes, err := schedeval.GenCrashes(7, 8, 0.35, lastArrive)
	if err != nil {
		t.Fatal(err)
	}
	repairs, err := schedeval.GenRepairs(13, crashes, 0.75, lastArrive/4)
	if err != nil {
		t.Fatal(err)
	}
	if len(crashes) == 0 || len(repairs) == 0 {
		t.Fatalf("samplers produced %d crashes, %d repairs", len(crashes), len(repairs))
	}
	cfg := DefaultConfig(8)
	cfg.Trace = trace
	cfg.Crashes = crashes
	cfg.Repairs = repairs
	cfg.AdaptiveEstimate = true
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return d, crashes, repairs
}

// TestRepairRejoinRestoresDaemonCapacity is the repair tentpole in test
// form: repaired nodes rejoin the gang, the placement cache re-expands
// over the revived columns without a single coherence violation, the
// availability metrics grow their repair half, and — because arming
// repairs arms the heartbeat — every crash is detected strictly before
// its repair lands, not outed by the rejoin request.
func TestRepairRejoinRestoresDaemonCapacity(t *testing.T) {
	d, crashes, repairs := repairedChurn(t)
	r := d.Result("gang")
	if r.Repairs != len(repairs) || r.NodesRepaired != len(repairs) {
		t.Fatalf("Repairs=%d NodesRepaired=%d, want %d armed and admitted", r.Repairs, r.NodesRepaired, len(repairs))
	}
	wantLive := 8 - len(crashes) + len(repairs)
	if got := d.Cluster().Master().LiveNodes(); got != wantLive {
		t.Fatalf("LiveNodes = %d at the horizon, want %d", got, wantLive)
	}
	if got := r.Log.Count(VerbNodeRepair); got != len(repairs) {
		t.Fatalf("log has %d node-repair lines, want %d:\n%s", got, len(repairs), r.Log)
	}
	if r.CapacityRepaired <= 0 || r.CapacityRepaired > 1 {
		t.Fatalf("CapacityRepaired = %v outside (0,1]", r.CapacityRepaired)
	}
	if r.PostRepairGoodput <= 0 {
		t.Fatalf("PostRepairGoodput = %v, want positive", r.PostRepairGoodput)
	}
	if r.Censored != 0 {
		t.Fatalf("%d jobs censored at the horizon:\n%s", r.Censored, d.Log())
	}
	if got := r.Log.Count(VerbCacheBad); got != 0 {
		t.Fatalf("%d cache coherence violations across rejoins:\n%s", got, r.Log)
	}
	if bad := d.Cache().Audit(d.Cluster().Master().Matrix()); len(bad) != 0 {
		t.Fatalf("cache audit after rejoins: %v", bad)
	}
	// Heartbeat detection: the node-dead line for every repaired node must
	// carry a timestamp before that node's repair directive. A detection at
	// or after the repair instant means the rejoin request was the detector
	// — the regime the heartbeat exists to eliminate.
	repairAt := make(map[int]sim.Time)
	for _, rp := range repairs {
		repairAt[rp.Node] = rp.At
	}
	deadAt := make(map[int]sim.Time)
	for _, line := range r.Log.Lines() {
		var ts sim.Time
		var node int
		if n, _ := fmt.Sscanf(line, "t=%d node-dead node=%d", &ts, &node); n == 2 {
			if _, seen := deadAt[node]; !seen {
				deadAt[node] = ts
			}
		}
	}
	for node, at := range repairAt {
		det, ok := deadAt[node]
		if !ok {
			t.Fatalf("repaired node %d has no node-dead line:\n%s", node, r.Log)
		}
		if det >= at {
			t.Fatalf("node %d detected at %d, repair at %d: detection must precede the repair", node, det, at)
		}
	}
}

// TestBackfillPlacesOncePerIncarnation pins the admission loop against
// placing one task twice. Placing a task dequeues it, which shifts the
// queue the backfill pass walks; walking the live slice would skip one
// candidate and visit another twice, submitting a second incarnation whose
// completion then leaks its slots in the placement cache. The two traces
// are the shortest known repros: a plain churn stream (seed 22) and a
// crash/repair stream (seed 237). For every mode, no task may be placed
// again before its running incarnation ends, and the cache audit must be
// clean at the horizon.
func TestBackfillPlacesOncePerIncarnation(t *testing.T) {
	for _, tc := range []struct {
		seed          uint64
		crash, repair float64
	}{{22, 0, 0}, {237, 0.35, 0.75}} {
		g := schedeval.DefaultGenConfig(8)
		g.Seed = tc.seed
		g.Jobs = 28
		g.KillFraction = 0.15
		g.ResizeFraction = 0.15
		g.DeadlineFraction = 0.25
		trace, err := schedeval.Generate(g)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(8)
		cfg.Trace = trace
		if tc.crash > 0 {
			var last sim.Time
			for _, tj := range trace {
				if tj.Arrive > last {
					last = tj.Arrive
				}
			}
			if cfg.Crashes, err = schedeval.GenCrashes(7, 8, tc.crash, last); err != nil {
				t.Fatal(err)
			}
			if cfg.Repairs, err = schedeval.GenRepairs(13, cfg.Crashes, tc.repair, last/4); err != nil {
				t.Fatal(err)
			}
			cfg.AdaptiveEstimate = true
		}
		rs, err := Showdown(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Log == nil {
				continue
			}
			running := map[string]bool{}
			for _, line := range strings.Split(r.Log.String(), "\n") {
				f := strings.Fields(line)
				if len(f) < 3 || !strings.HasPrefix(f[2], "job=") {
					continue
				}
				job := f[2]
				switch f[1] {
				case "place", "backfill":
					if running[job] {
						t.Errorf("seed %d %s: %s placed again while running: %q", tc.seed, r.Mode, job, line)
					}
					running[job] = true
				case "done", "evicted", "kill", "resize":
					running[job] = false
				}
			}
			if n := r.Log.Count(VerbCacheBad); n != 0 {
				t.Errorf("seed %d %s: %d placement-cache violations", tc.seed, r.Mode, n)
			}
		}
	}
}

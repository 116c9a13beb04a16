package schedeval

import (
	"reflect"
	"strings"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig(8)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	cfg.Seed = 2
	c, _ := Generate(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	for i, j := range a {
		if err := j.Validate(8); err != nil {
			t.Fatalf("generated job %d invalid: %v", i, err)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	jobs, err := Generate(DefaultGenConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := FormatTrace(&b, jobs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, back) {
		t.Fatal("trace did not round-trip")
	}
}

func TestParseTraceErrors(t *testing.T) {
	for _, bad := range []string{
		"1 2 bsp 1 1",       // too few fields
		"1 2 warp 1 1 64 0", // unknown kernel
		"x 2 bsp 1 1 64 0",  // non-numeric field
		"1 2 bsp 1 1 64 -5", // negative number
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTrace(%q) accepted", bad)
		}
	}
	got, err := ParseTrace(strings.NewReader("# comment\n\n10 2 bsp 2 1 64 1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kernel != KernelBSP || got[0].Size != 2 {
		t.Fatalf("parsed %+v", got)
	}
}

func smallTrace(t *testing.T, jobs int) []TraceJob {
	t.Helper()
	cfg := DefaultGenConfig(8)
	cfg.Seed = 7
	cfg.Jobs = jobs
	trace, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Trace = smallTrace(t, 10)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different results")
	}
	if a.Finished != len(a.Jobs) {
		t.Fatalf("only %d/%d jobs finished", a.Finished, len(a.Jobs))
	}
	if !a.AuditOK {
		t.Fatalf("auditor flagged a clean run: %d violations", a.Violations)
	}
}

// TestSwitchedBeatsPartitioned is the issue's acceptance criterion: on
// the same trace, with several jobs competing for slots, switched
// whole-buffer credits must beat partitioned per-context credits on both
// mean bounded slowdown and aggregate utilization — for every packing
// policy.
func TestSwitchedBeatsPartitioned(t *testing.T) {
	base := DefaultConfig(8)
	base.Trace = smallTrace(t, 16)
	rs, err := Compare(base, []fm.Policy{fm.Partitioned, fm.Switched}, gang.Policies())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rs); i += 2 {
		part, sw := rs[i], rs[i+1]
		if part.Scheme != fm.Partitioned || sw.Scheme != fm.Switched {
			t.Fatalf("grid order broken at %d", i)
		}
		if sw.PeakConcurrent < 4 {
			t.Errorf("%s: peak concurrency %d < 4, comparison not meaningful",
				sw.Packing, sw.PeakConcurrent)
		}
		if sw.MeanSlowdown >= part.MeanSlowdown {
			t.Errorf("%s: switched mean bsld %.2f not better than partitioned %.2f",
				sw.Packing, sw.MeanSlowdown, part.MeanSlowdown)
		}
		if sw.Utilization <= part.Utilization {
			t.Errorf("%s: switched utilization %.3f not better than partitioned %.3f",
				sw.Packing, sw.Utilization, part.Utilization)
		}
	}
}

// TestChaosSmoke is the chaos-compatibility satellite: a fault plan with
// data loss and a node slowdown installed under a sched run must keep the
// auditor wired and produce a byte-identical injection trace per seed.
func TestChaosSmoke(t *testing.T) {
	// All message sizes fit one fragment (<= myrinet.MaxPayload): FM has
	// no retransmission, so whole-message loss stalls delivery — which the
	// auditor flags — while a lost middle fragment would be a protocol
	// violation the endpoint panics on.
	trace := []TraceJob{
		{Arrive: 0, Size: 4, Kernel: KernelAllToAll, Units: 2, Msgs: 10, MsgBytes: 1024, Compute: 100_000},
		{Arrive: 1_000_000, Size: 2, Kernel: KernelBSP, Units: 3, Msgs: 8, MsgBytes: 512, Compute: 200_000},
		{Arrive: 2_500_000, Size: 4, Kernel: KernelStencil, Units: 4, Msgs: 1, MsgBytes: 1024, Compute: 150_000},
		{Arrive: 4_000_000, Size: 3, Kernel: KernelMasterWorker, Units: 6, Msgs: 1, MsgBytes: 256, Compute: 300_000},
	}
	run := func() *Result {
		cfg := DefaultConfig(8)
		cfg.Trace = trace
		cfg.Deadline = 400_000_000
		cfg.Chaos = &chaos.Plan{
			Seed: 99,
			Faults: []chaos.Fault{
				{Kind: chaos.DataLoss, From: 0, Until: 200_000_000, Prob: 0.05, Node: -1},
				{Kind: chaos.NodeSlow, From: 10_000_000, Until: 60_000_000, Node: 1, Factor: 0.5},
			},
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.ChaosTrace) == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if !reflect.DeepEqual(a.ChaosTrace, b.ChaosTrace) {
		t.Fatal("chaos injection trace not byte-identical across runs")
	}
	if !reflect.DeepEqual(a.Jobs, b.Jobs) {
		t.Fatal("job metrics not deterministic under chaos")
	}
	// The auditor must still be wired (counting checks, zero or more
	// violations — under pure loss the go-back-N-free FM can stall, which
	// is exactly what the auditor is there to flag deterministically).
	if a.Violations != b.Violations {
		t.Fatal("auditor verdict not deterministic")
	}
}

// TestChurnDirectivesRoundTrip covers the kill=/resize=/deadline= trace
// extension: directives survive a format/parse cycle in any combination,
// and directive-free jobs still format to the original 7-field lines.
func TestChurnDirectivesRoundTrip(t *testing.T) {
	jobs := []TraceJob{
		{Arrive: 10, Size: 2, Kernel: KernelBSP, Units: 2, Msgs: 4, MsgBytes: 64, Compute: 1000},
		{Arrive: 20, Size: 4, Kernel: KernelStencil, Units: 3, Msgs: 1, MsgBytes: 128, Compute: 2000,
			Kill: 5_000_000},
		{Arrive: 30, Size: 2, Kernel: KernelAllToAll, Units: 2, Msgs: 6, MsgBytes: 256, Compute: 500,
			ResizeAt: 9_000_000, ResizeTo: 4, Deadline: 90_000_000},
		{Arrive: 40, Size: 3, Kernel: KernelMasterWorker, Units: 6, Msgs: 1, MsgBytes: 64, Compute: 800,
			Deadline: 70_000_000},
	}
	for i, j := range jobs {
		if err := j.Validate(8); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
	}
	var b strings.Builder
	if err := FormatTrace(&b, jobs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if got := len(strings.Fields(lines[1])); got != 7 {
		t.Fatalf("directive-free job formatted with %d fields, want 7", got)
	}
	if !strings.Contains(lines[2], "kill=5000000") {
		t.Fatalf("kill directive missing: %q", lines[2])
	}
	if !strings.Contains(lines[3], "resize=4@9000000") || !strings.Contains(lines[3], "deadline=90000000") {
		t.Fatalf("resize/deadline directives missing: %q", lines[3])
	}
	back, err := ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, back) {
		t.Fatalf("churn trace did not round-trip:\n%+v\n%+v", jobs, back)
	}
	for _, bad := range []string{
		"1 2 bsp 1 1 64 0 kill",            // no value
		"1 2 bsp 1 1 64 0 kill=x",          // bad number
		"1 2 bsp 1 1 64 0 resize=4",        // missing @time
		"1 2 bsp 1 1 64 0 frobnicate=1",    // unknown key
		"1 2 bsp 1 1 64 0 deadline=-3",     // negative
		"1 2 bsp 1 1 64 0 resize=4@x",      // bad resize time
		"1 2 bsp 1 1 64 0 kill=1 extra -2", // trailing junk
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTrace(%q) accepted", bad)
		}
	}
	// Churn-field validation.
	base := TraceJob{Arrive: 100, Size: 2, Kernel: KernelBSP, Units: 1, Msgs: 1, MsgBytes: 64}
	for name, mut := range map[string]func(*TraceJob){
		"kill before arrival":     func(j *TraceJob) { j.Kill = 50 },
		"deadline before arrival": func(j *TraceJob) { j.Deadline = 100 },
		"resize without time":     func(j *TraceJob) { j.ResizeTo = 4 },
		"resize without size":     func(j *TraceJob) { j.ResizeAt = 500 },
		"resize to oversized":     func(j *TraceJob) { j.ResizeAt = 500; j.ResizeTo = 99 },
	} {
		j := base
		mut(&j)
		if err := j.Validate(8); err == nil {
			t.Errorf("Validate accepted %s", name)
		}
	}
}

// TestGenerateChurnFractions checks the generator's churn post-pass: the
// base stream (arrivals, sizes, kernels) is bit-identical with and without
// churn fractions, roughly the requested share of jobs carries each
// directive, and everything generated still validates.
func TestGenerateChurnFractions(t *testing.T) {
	base := DefaultGenConfig(8)
	base.Jobs = 200
	plain, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	churned := base
	churned.KillFraction = 0.2
	churned.ResizeFraction = 0.2
	churned.DeadlineFraction = 0.3
	jobs, err := Generate(churned)
	if err != nil {
		t.Fatal(err)
	}
	kills, resizes, deadlines := 0, 0, 0
	for i, j := range jobs {
		stripped := j
		stripped.Kill, stripped.ResizeAt, stripped.ResizeTo, stripped.Deadline = 0, 0, 0, 0
		if !reflect.DeepEqual(stripped, plain[i]) {
			t.Fatalf("churn post-pass perturbed base job %d: %+v vs %+v", i, stripped, plain[i])
		}
		if err := j.Validate(8); err != nil {
			t.Fatalf("churned job %d invalid: %v", i, err)
		}
		if j.Kill != 0 {
			kills++
		}
		if j.ResizeTo != 0 {
			resizes++
		}
		if j.Deadline != 0 {
			deadlines++
		}
	}
	if kills == 0 || resizes == 0 || deadlines == 0 {
		t.Fatalf("churn fractions produced kills=%d resizes=%d deadlines=%d, want all > 0",
			kills, resizes, deadlines)
	}
	again, err := Generate(churned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, again) {
		t.Fatal("churned generation not deterministic")
	}
}

// TestCensoredReported pins satellite 3: jobs cut off by the run deadline
// are counted in Result.Censored and surface in the summary table's cens
// column instead of being silently folded into the response means.
func TestCensoredReported(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Trace = smallTrace(t, 10)
	cfg.Deadline = 5_000_000 // far too short for ten jobs
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Censored == 0 {
		t.Fatal("expected censored jobs under a 5M-cycle deadline")
	}
	if r.Censored+r.Finished != len(r.Jobs) {
		t.Fatalf("censored %d + finished %d != %d jobs", r.Censored, r.Finished, len(r.Jobs))
	}
	rendered := SummaryTable([]*Result{r}).String()
	if !strings.Contains(rendered, "cens") {
		t.Fatalf("summary table lacks a cens column:\n%s", rendered)
	}
	// A full run censors nothing.
	cfg.Deadline = 0
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Censored != 0 {
		t.Fatalf("full run reports %d censored jobs, want 0", full.Censored)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig(8)
	if _, err := Run(cfg); err == nil {
		t.Fatal("empty trace accepted")
	}
	cfg.Trace = []TraceJob{{Arrive: 0, Size: 99, Kernel: KernelBSP, Units: 1, Msgs: 1, MsgBytes: 64}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("oversized job accepted")
	}
}

// TestGenCrashes pins the crash sampler: deterministic per seed, times in
// the mid-run window [span/4, span), nodes ascending and in range, never
// the whole machine, and an RNG stream independent of the job generator's.
func TestGenCrashes(t *testing.T) {
	const span = 40_000_000
	crashes, err := GenCrashes(7, 8, 0.5, span)
	if err != nil {
		t.Fatal(err)
	}
	if len(crashes) == 0 {
		t.Fatal("fraction 0.5 over 8 nodes sampled no crashes")
	}
	if len(crashes) > 7 {
		t.Fatalf("%d crashes would take the whole 8-node machine down", len(crashes))
	}
	for i, c := range crashes {
		if err := c.Validate(8); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
		if c.At < span/4 || c.At >= span {
			t.Fatalf("crash %d at %d outside [%d, %d)", i, c.At, span/4, span)
		}
		if i > 0 && crashes[i-1].Node >= c.Node {
			t.Fatalf("crash nodes not ascending: %v", crashes)
		}
	}
	again, err := GenCrashes(7, 8, 0.5, span)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crashes, again) {
		t.Fatal("crash sampling not deterministic")
	}
	if none, err := GenCrashes(7, 8, 0, span); err != nil || none != nil {
		t.Fatalf("fraction 0: crashes=%v err=%v, want nil/nil", none, err)
	}
	for name, call := range map[string]func() ([]Crash, error){
		"fraction > 1": func() ([]Crash, error) { return GenCrashes(7, 8, 1.5, span) },
		"no nodes":     func() ([]Crash, error) { return GenCrashes(7, 0, 0.5, span) },
		"no span":      func() ([]Crash, error) { return GenCrashes(7, 8, 0.5, 0) },
	} {
		if _, err := call(); err == nil {
			t.Errorf("GenCrashes accepted %s", name)
		}
	}
}

// TestCrashDirectiveRoundTrip pins the crash trace syntax: FormatTraceFull
// emits "crash node@T" lines that ParseTraceFull round-trips alongside the
// job lines, while the offline ParseTrace — which cannot represent a dead
// node — rejects any trace carrying one.
func TestCrashDirectiveRoundTrip(t *testing.T) {
	jobs := []TraceJob{
		{Arrive: 10, Size: 2, Kernel: KernelBSP, Units: 2, Msgs: 4, MsgBytes: 64, Compute: 1000},
		{Arrive: 20, Size: 4, Kernel: KernelStencil, Units: 3, Msgs: 1, MsgBytes: 128, Compute: 2000,
			Kill: 5_000_000},
	}
	crashes := []Crash{{Node: 0, At: 9_000_000}, {Node: 5, At: 12_345_678}}
	repairs := []Repair{{Node: 5, At: 20_000_000}}
	var b strings.Builder
	if err := FormatTraceFull(&b, jobs, crashes, repairs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "crash 5@12345678") {
		t.Fatalf("crash directive missing:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "repair 5@20000000") {
		t.Fatalf("repair directive missing:\n%s", b.String())
	}
	backJobs, backCrashes, backRepairs, err := ParseTraceFull(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, backJobs) || !reflect.DeepEqual(crashes, backCrashes) ||
		!reflect.DeepEqual(repairs, backRepairs) {
		t.Fatalf("crash trace did not round-trip:\n%+v %+v %+v\n%+v %+v %+v",
			jobs, crashes, repairs, backJobs, backCrashes, backRepairs)
	}
	if _, err := ParseTrace(strings.NewReader(b.String())); err == nil {
		t.Fatal("ParseTrace accepted a trace with crash directives")
	}
	for _, bad := range []string{
		"crash",              // no operand
		"crash 1",            // missing @T
		"crash x@5",          // bad node
		"crash 1@x",          // bad time
		"crash 1@5 trailer",  // extra field
		"repair",             // no operand
		"repair 1",           // missing @T
		"repair x@5",         // bad node
		"repair 1@x",         // bad time
		"repair 1@5 trailer", // extra field
	} {
		if _, _, _, err := ParseTraceFull(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTraceFull(%q) accepted", bad)
		}
	}
}

// TestRepairValidation pins ValidateRepairs's alternation rule (every
// repair must strictly follow an unmatched crash of the same node) and
// GenRepairs's determinism and pairing guarantee.
func TestRepairValidation(t *testing.T) {
	crashes := []Crash{{Node: 1, At: 100}, {Node: 3, At: 200}}
	good := []Repair{{Node: 1, At: 150}, {Node: 3, At: 900}}
	if err := ValidateRepairs(good, crashes, 8); err != nil {
		t.Fatalf("valid repairs rejected: %v", err)
	}
	for name, reps := range map[string][]Repair{
		"no crash":       {{Node: 2, At: 150}},
		"before crash":   {{Node: 1, At: 50}},
		"at crash":       {{Node: 1, At: 100}},
		"double repair":  {{Node: 1, At: 150}, {Node: 1, At: 160}},
		"node range":     {{Node: 9, At: 150}},
		"non-positive t": {{Node: 1, At: 0}},
	} {
		if err := ValidateRepairs(reps, crashes, 8); err == nil {
			t.Errorf("ValidateRepairs accepted %s", name)
		}
	}

	span := sim.Time(40_000_000)
	reps, err := GenRepairs(13, crashes, 0.9, span/4)
	if err != nil {
		t.Fatal(err)
	}
	again, err := GenRepairs(13, crashes, 0.9, span/4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reps, again) {
		t.Fatal("repair sampling not deterministic")
	}
	if err := ValidateRepairs(reps, crashes, 8); err != nil {
		t.Fatalf("generated repairs invalid: %v", err)
	}
	if none, err := GenRepairs(13, crashes, 0, span); err != nil || none != nil {
		t.Fatalf("fraction 0: repairs=%v err=%v, want nil/nil", none, err)
	}
	for name, call := range map[string]func() ([]Repair, error){
		"fraction > 1": func() ([]Repair, error) { return GenRepairs(13, crashes, 1.5, span) },
		"tiny mttr":    func() ([]Repair, error) { return GenRepairs(13, crashes, 0.5, 1) },
	} {
		if _, err := call(); err == nil {
			t.Errorf("GenRepairs accepted %s", name)
		}
	}
}

// TestPartitionedLoadWaitsForRelease pins `gangsim sched -seed 20 -scheme
// partitioned`: a job's load message overtakes (on the unordered control
// network) the end message of the job that last held its cell, so the
// node's card still holds every slot's context when the new one is
// requested. The load must wait for the release rather than fail with NIC
// RAM exhausted, and every job must still finish.
func TestPartitionedLoadWaitsForRelease(t *testing.T) {
	gen := DefaultGenConfig(8)
	gen.Seed = 20
	trace, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(8)
	base.Trace = trace
	rs, err := Compare(base, []fm.Policy{fm.Partitioned}, gang.Policies())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Finished != len(trace) || r.Censored != 0 || !r.AuditOK {
			t.Errorf("%s: %d/%d finished, %d censored, audit ok %v",
				r.Packing, r.Finished, len(trace), r.Censored, r.AuditOK)
		}
	}
}

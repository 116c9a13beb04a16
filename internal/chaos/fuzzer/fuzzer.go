// Package fuzzer is the simulation fuzzer of the chaos harness: it samples
// random cluster shapes, job mixes and fault plans from a single seed, runs
// each sampled scenario under the invariant auditor, and shrinks failing
// plans to a minimal reproduction. Because every decision — sampling,
// injection, scheduling — flows from the seed through deterministic
// generators, a one-line failure report ("seed 41 ...") is a complete
// reproduction recipe: `gangsim fuzz -seed 41 -runs 1` replays it exactly.
//
// The package sits above the whole stack (it imports parpar and
// workload), which is why it lives in its own directory rather than in
// package chaos itself: chaos must stay importable by every layer.
package fuzzer

import (
	"fmt"
	"strings"

	"gangfm/internal/chaos"
	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// DefaultHorizon is how long each fuzz run simulates. Wedged runs never go
// quiescent (the rotation and audit loops keep ticking), so runs are bounded
// by virtual time: 50 quanta of the fuzzer's fast 400k-cycle quantum.
const DefaultHorizon sim.Time = 50 * quantum

// quantum is the gang-scheduling slice used by fuzzed clusters — short, so
// a run crosses many switch rounds inside the horizon.
const quantum sim.Time = 400_000

// Config parameterizes a fuzzing campaign.
type Config struct {
	// Seed is the campaign's base seed; run i uses Seed+i.
	Seed uint64
	// Runs is the number of scenarios to sample and execute.
	Runs int
	// Horizon bounds each run's virtual time (0 means DefaultHorizon).
	Horizon sim.Time
	// Shrink minimizes every failing plan before reporting it.
	Shrink bool
}

// ChurnCmd is one mid-run scheduler command the fuzzer replays against a
// live job — the online-scheduling churn (voluntary kill, resize) that the
// recovery campaign runs *concurrently* with its fault plans, so crash
// detection, eviction, and voluntary kills race the way they do under the
// schedd daemon.
type ChurnCmd struct {
	// Job indexes Scenario.Jobs.
	Job int
	// At is the command's absolute virtual time.
	At sim.Time
	// ResizeTo == 0 means kill; otherwise restart the job as a compute
	// kernel of that many ranks (gang jobs are rigid within an
	// incarnation, so a resize is kill + resubmit).
	ResizeTo int
}

// Scenario is one sampled cluster shape + job mix + fault plan. It is fully
// determined by its Seed.
type Scenario struct {
	Seed   uint64
	Nodes  int
	Slots  int
	Policy fm.Policy
	Jobs   []parpar.JobSpec
	Plan   chaos.Plan
	// Churn are mid-run kill/resize commands (recovery campaign only).
	Churn []ChurnCmd
}

// String summarizes the scenario on one line.
func (s Scenario) String() string {
	names := make([]string, len(s.Jobs))
	for i, j := range s.Jobs {
		names[i] = fmt.Sprintf("%s/%d", j.Name, j.Size)
	}
	churn := ""
	if len(s.Churn) > 0 {
		churn = fmt.Sprintf(", %d churn cmd(s)", len(s.Churn))
	}
	return fmt.Sprintf("seed %d: %d nodes, %d slots, %v, jobs [%s], %d fault(s)%s",
		s.Seed, s.Nodes, s.Slots, s.Policy, strings.Join(names, " "), len(s.Plan.Faults), churn)
}

// RunResult is the outcome of executing one scenario.
type RunResult struct {
	Scenario Scenario
	// Violations are the auditor's findings (deduplicated, in order).
	Violations []chaos.Violation
	// Crash is the recovered panic message when the protocol stack died
	// outright (fault kinds like DataDup can drive FM into states its own
	// internal assertions reject), empty otherwise.
	Crash string
	// DoneJobs counts jobs that finished within the horizon, of TotalJobs.
	DoneJobs, TotalJobs int
	// Healed reports that the self-healing layer, which every fault plan
	// arms, acted: a card retransmitted or force-completed a flush phase,
	// a daemon message was re-sent, or a node was evicted.
	Healed bool
	// Trace is the injector's firing log (capped; see chaos.Injector).
	Trace []string
	// Minimal is the shrunk failing plan when shrinking ran, else the
	// scenario's full plan.
	Minimal chaos.Plan
}

// Failed reports whether the run found anything: an invariant violation or
// an outright crash.
func (r RunResult) Failed() bool { return len(r.Violations) > 0 || r.Crash != "" }

// String formats the verdict for campaign logs.
func (r RunResult) String() string {
	var b strings.Builder
	b.WriteString(r.Scenario.String())
	switch {
	case r.Crash != "":
		fmt.Fprintf(&b, "\n  CRASH: %s", r.Crash)
	case len(r.Violations) > 0:
		fmt.Fprintf(&b, "\n  %d violation(s):", len(r.Violations))
		for _, v := range r.Violations {
			b.WriteString("\n    " + v.String())
		}
	default:
		fmt.Fprintf(&b, "\n  ok (%d/%d jobs done)", r.DoneJobs, r.TotalJobs)
	}
	if r.Failed() && len(r.Minimal.Faults) > 0 && len(r.Minimal.Faults) < len(r.Scenario.Plan.Faults) {
		fmt.Fprintf(&b, "\n  shrunk to %d fault(s): %s", len(r.Minimal.Faults), r.Minimal)
	}
	return b.String()
}

// Sample derives a scenario from a seed. The same seed always yields the
// same scenario; the generator draws in a fixed order.
func Sample(seed uint64) Scenario {
	rng := sim.NewRand(seed ^ 0xC0FFEE)
	s := Scenario{
		Seed:  seed,
		Nodes: 2 + rng.Intn(3), // 2..4
		Slots: 2 + rng.Intn(2), // 2..3
	}
	if rng.Bool(0.5) {
		s.Policy = fm.Partitioned
	} else {
		s.Policy = fm.Switched
	}
	njobs := 1 + rng.Intn(2)
	for j := 0; j < njobs; j++ {
		name := fmt.Sprintf("j%d", j)
		switch rng.Intn(4) {
		case 0:
			s.Jobs = append(s.Jobs, workload.Bandwidth(name+"-bw", 50+rng.Intn(150), 256+rng.Intn(768)))
		case 1:
			s.Jobs = append(s.Jobs, workload.PingPong(name+"-pp", 3+rng.Intn(8), 64+rng.Intn(192)))
		case 2:
			ranks := 2 + rng.Intn(s.Nodes-1) // 2..Nodes
			s.Jobs = append(s.Jobs, workload.AllToAll(name+"-a2a", ranks, 3+rng.Intn(8), 128+rng.Intn(384)))
		default:
			s.Jobs = append(s.Jobs, workload.Compute(name+"-cpu", 1+rng.Intn(s.Nodes), sim.Time(200_000+rng.Intn(800_000))))
		}
	}
	s.Plan = samplePlan(rng, seed, s.Nodes)
	return s
}

// samplePlan draws 1..3 faults. Probabilities are kept moderate so most
// runs exercise a meaningfully faulty but not totally demolished network.
func samplePlan(rng *sim.Rand, seed uint64, nodes int) chaos.Plan {
	kinds := []chaos.FaultKind{
		// Data loss is over-represented: it is the paper's central fault.
		chaos.DataLoss, chaos.DataLoss, chaos.DataDup, chaos.RefillLoss,
		chaos.HaltLoss, chaos.ReadyLoss, chaos.StoreCorrupt,
		chaos.CtrlLoss, chaos.CtrlDelay, chaos.NodePause, chaos.NodeSlow,
	}
	plan := chaos.Plan{Seed: seed}
	nf := 1 + rng.Intn(3)
	for i := 0; i < nf; i++ {
		f := chaos.Fault{Kind: kinds[rng.Intn(len(kinds))], Node: -1}
		if rng.Bool(0.3) {
			f.Node = rng.Intn(nodes)
		}
		f.From = sim.Time(rng.Intn(int(DefaultHorizon / 4)))
		if rng.Bool(0.5) {
			f.Until = f.From + quantum*sim.Time(2+rng.Intn(20))
		}
		switch f.Kind {
		case chaos.NodePause:
			f.Node = rng.Intn(nodes)
			f.Until = f.From + quantum*sim.Time(2+rng.Intn(8))
		case chaos.NodeSlow:
			f.Factor = 0.25 + 0.5*rng.Float64()
			f.Until = f.From + quantum*sim.Time(2+rng.Intn(8))
		case chaos.CtrlDelay:
			f.Prob = 0.1 + 0.4*rng.Float64()
			f.Delay = sim.Time(50_000 * (1 + rng.Intn(6)))
		case chaos.HaltLoss, chaos.ReadyLoss, chaos.CtrlLoss:
			// Flush/control faults wedge hard at high probability; keep a
			// spread so some runs survive and some stall.
			f.Prob = 0.05 + 0.55*rng.Float64()
		default:
			f.Prob = 0.05 + 0.3*rng.Float64()
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}

// SampleRecovery derives a scenario for the recovery campaign:
// the same cluster/job generator as Sample, but a fault plan drawn only from
// the classes the recovery layer promises to absorb — control-path loss
// (halt, ready, ctrl Ethernet) over *bounded* windows, delay/pause/slow
// interference, and at most one fail-stop node crash. Open-ended control
// loss is deliberately excluded: a link that drops 100% of control traffic
// forever is unrecoverable by design (retransmission needs some delivery),
// and pause/loss windows are kept shorter than the heartbeat's eviction
// deadline so a merely-slow node is never evicted as dead.
func SampleRecovery(seed uint64) Scenario {
	s := Sample(seed)
	rng := sim.NewRand(seed ^ 0x5EC0E4)
	s.Plan = sampleRecoveryPlan(rng, seed, s.Nodes)
	// Churn commands draw from their own stream so arming them never
	// perturbs the fault plan of the same seed.
	s.Churn = sampleChurn(sim.NewRand(seed^0xC482), len(s.Jobs), s.Nodes)
	// Repairs ride yet another independent stream (existing seeds keep
	// their exact fault plans and churn): when the plan fail-stopped a
	// node, sometimes boot a fresh incarnation later in the run, so the
	// campaign also shakes the reboot/rejoin barrier against every loss
	// and delay class.
	sampleRepairs(sim.NewRand(seed^0x4E9A14), &s.Plan)
	return s
}

// sampleRepairs appends, with probability 1/2 per fail-stop crash in the
// plan, a NodeRepair of the same node 4..16 quanta after the crash. A
// repair is only ever sampled against a crash that exists — a repair of a
// live node is not a scenario the protocol defines.
func sampleRepairs(rng *sim.Rand, plan *chaos.Plan) {
	for _, f := range plan.Faults {
		if f.Kind != chaos.NodeCrash || !rng.Bool(0.5) {
			continue
		}
		plan.Faults = append(plan.Faults, chaos.Fault{
			Kind: chaos.NodeRepair,
			Node: f.Node,
			From: f.From + quantum*sim.Time(4+rng.Intn(13)),
		})
	}
}

// sampleChurn draws 0..2 mid-run scheduler commands: kills and resizes
// against random jobs, timed inside the first half of the horizon so the
// command usually hits a live job and its aftermath (slot reclaim, fresh
// placement) still races the fault plan.
func sampleChurn(rng *sim.Rand, jobs, nodes int) []ChurnCmd {
	var out []ChurnCmd
	n := rng.Intn(3)
	for i := 0; i < n; i++ {
		cmd := ChurnCmd{
			Job: rng.Intn(jobs),
			At:  sim.Time(int(DefaultHorizon/8) + rng.Intn(int(DefaultHorizon)*3/8)),
		}
		if rng.Bool(0.4) {
			cmd.ResizeTo = 1 + rng.Intn(nodes)
		}
		out = append(out, cmd)
	}
	return out
}

// sampleRecoveryPlan draws 1..3 recoverable faults. Loss, delay, pause and
// slowdown windows last 2..7 quanta: DefaultRecovery's heartbeat evicts a
// node only after 8 silent probe intervals of one quantum (~9 quanta), so
// a node under any of these faults must be carried through by
// retransmission alone and is never taken for dead. Only the NodeCrash is
// the heartbeat's to detect.
func sampleRecoveryPlan(rng *sim.Rand, seed uint64, nodes int) chaos.Plan {
	kinds := []chaos.FaultKind{
		chaos.HaltLoss, chaos.HaltLoss, chaos.ReadyLoss, chaos.CtrlLoss,
		chaos.CtrlDelay, chaos.NodePause, chaos.NodeSlow, chaos.NodeCrash,
	}
	plan := chaos.Plan{Seed: seed}
	nf := 1 + rng.Intn(3)
	crashed := false
	for i := 0; i < nf; i++ {
		f := chaos.Fault{Kind: kinds[rng.Intn(len(kinds))], Node: -1}
		if f.Kind == chaos.NodeCrash && crashed {
			f.Kind = chaos.HaltLoss // one fail-stop per campaign run
		}
		if rng.Bool(0.3) {
			f.Node = rng.Intn(nodes)
		}
		f.From = sim.Time(rng.Intn(int(DefaultHorizon / 4)))
		switch f.Kind {
		case chaos.NodeCrash:
			crashed = true
			f.Node = rng.Intn(nodes)
			f.Until = 0 // permanent, by definition
		case chaos.NodePause:
			f.Node = rng.Intn(nodes)
			f.Until = f.From + quantum*sim.Time(2+rng.Intn(6))
		case chaos.NodeSlow:
			f.Node = rng.Intn(nodes)
			f.Factor = 0.25 + 0.5*rng.Float64()
			f.Until = f.From + quantum*sim.Time(2+rng.Intn(6))
		case chaos.CtrlDelay:
			f.Prob = 0.1 + 0.4*rng.Float64()
			f.Delay = sim.Time(50_000 * (1 + rng.Intn(6)))
			f.Until = f.From + quantum*sim.Time(2+rng.Intn(6))
		default: // HaltLoss, ReadyLoss, CtrlLoss — harsh but bounded
			f.Prob = 0.5 + 0.5*rng.Float64()
			f.Until = f.From + quantum*sim.Time(2+rng.Intn(6))
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}

// Execute runs one scenario to the horizon and collects the verdict. A
// panic inside the protocol stack is recovered and reported as a crash
// finding — for a fuzzer, a stack that dies on a fault is as interesting as
// one that wedges.
func Execute(s Scenario, horizon sim.Time) (res RunResult) {
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	res.Scenario = s
	res.TotalJobs = len(s.Jobs)
	res.Minimal = s.Plan

	var c *parpar.Cluster
	var jobs []*parpar.Job
	defer func() {
		if r := recover(); r != nil {
			res.Crash = fmt.Sprint(r)
		}
		if c != nil {
			res.Violations = c.Auditor().Violations()
			res.Trace = c.ChaosTrace()
			res.Healed = healed(c)
			for _, j := range jobs {
				if j.State() == parpar.JobDone {
					res.DoneJobs++
				}
			}
		}
	}()

	cfg := fuzzClusterConfig(s)
	cl, err := parpar.New(cfg)
	if err != nil {
		res.Crash = err.Error()
		return res
	}
	c = cl
	for _, spec := range s.Jobs {
		job, err := c.Submit(spec)
		if err != nil {
			res.Crash = err.Error()
			return res
		}
		jobs = append(jobs, job)
	}
	for _, cmd := range s.Churn {
		cmd := cmd
		c.Eng.ScheduleAt(cmd.At, func() {
			job := jobs[cmd.Job]
			if cmd.ResizeTo > 0 {
				spec := workload.Compute(fmt.Sprintf("%s-r%d", job.Spec.Name, cmd.ResizeTo),
					cmd.ResizeTo, sim.Time(300_000))
				// A resize (or a late kill) may legitimately fail: the job
				// already finished, or evictions shrank the machine below
				// the new width. Both are scheduler-level outcomes, not
				// protocol findings — the auditor judges the run.
				if nj, err := c.Resize(job, spec); err == nil {
					jobs[cmd.Job] = nj
				}
			} else {
				_ = c.Kill(job)
			}
		})
	}
	c.RunUntil(horizon)
	return res
}

// fuzzClusterConfig maps a scenario onto a fast-quantum cluster config.
func fuzzClusterConfig(s Scenario) parpar.Config {
	cfg := parpar.DefaultConfig(s.Nodes)
	cfg.Slots = s.Slots
	cfg.Policy = s.Policy
	cfg.Quantum = quantum
	cfg.CtrlJitter = 50_000
	cfg.ForkDelay = 50_000
	cfg.Seed = s.Seed
	plan := s.Plan
	cfg.Chaos = &plan
	return cfg
}

// healed reads the recovery layer's counters: card retransmissions and
// forced phases, daemon re-sends and evictions.
func healed(c *parpar.Cluster) bool {
	if c.Resends() > 0 {
		return true
	}
	for i, n := range c.Nodes() {
		st := n.NIC.Stats()
		if st.HaltRetransmits+st.ReadyRetransmits+st.ForcedPhases > 0 || len(c.Master().Downtime(i)) > 0 {
			return true
		}
	}
	return false
}

// FuzzOne samples and executes the scenario for one seed.
func FuzzOne(seed uint64, horizon sim.Time) RunResult {
	return Execute(Sample(seed), horizon)
}

// Report is a campaign's outcome.
type Report struct {
	Runs     []RunResult
	Failures int
	Crashes  int
}

// Fuzz executes cfg.Runs scenarios with seeds cfg.Seed, cfg.Seed+1, ....
// logf, when non-nil, receives one progress line per run.
func Fuzz(cfg Config, logf func(format string, args ...any)) Report {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	var rep Report
	for i := 0; i < cfg.Runs; i++ {
		res := FuzzOne(cfg.Seed+uint64(i), cfg.Horizon)
		if res.Failed() {
			rep.Failures++
			if res.Crash != "" {
				rep.Crashes++
			}
			if cfg.Shrink {
				res.Minimal = Shrink(res.Scenario, cfg.Horizon)
			}
		}
		rep.Runs = append(rep.Runs, res)
		if logf != nil {
			logf("%s", res)
		}
	}
	return rep
}

// RecoveryReport is a recovery campaign's outcome.
type RecoveryReport struct {
	Runs []RunResult
	// Absorbed counts clean runs in which the recovery layer acted — the
	// campaign's coverage (a campaign that never exercises the layer
	// proves nothing).
	Absorbed int
	// Unrecovered counts runs that failed despite the recovery layer —
	// the regression signal: it must be zero.
	Unrecovered int
}

// FuzzRecovery executes cfg.Runs scenarios sampled with SampleRecovery.
// Every run must finish with a clean auditor — the plans are restricted to
// the fault classes the recovery layer guarantees against.
func FuzzRecovery(cfg Config, logf func(format string, args ...any)) RecoveryReport {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	var rep RecoveryReport
	for i := 0; i < cfg.Runs; i++ {
		res := Execute(SampleRecovery(cfg.Seed+uint64(i)), cfg.Horizon)
		switch {
		case res.Failed():
			rep.Unrecovered++
		case res.Healed:
			rep.Absorbed++
		}
		rep.Runs = append(rep.Runs, res)
		if logf != nil {
			logf("%s", recoveryVerdict(res))
		}
	}
	return rep
}

// recoveryVerdict formats one recovery-campaign run for campaign logs.
func recoveryVerdict(r RunResult) string {
	verdict := "clean, layer idle"
	switch {
	case r.Failed():
		verdict = "UNRECOVERED"
	case r.Healed:
		verdict = "absorbed"
	}
	s := fmt.Sprintf("%s\n  %s (%d/%d jobs done)", r.Scenario, verdict, r.DoneJobs, r.TotalJobs)
	if r.Crash != "" {
		s += "\n  CRASH: " + r.Crash
	}
	for _, v := range r.Violations {
		s += "\n    " + v.String()
	}
	return s
}

// Shrink minimizes a failing scenario's fault plan: it greedily drops
// faults whose removal keeps the scenario failing, then narrows the
// surviving faults' windows. The result is the smallest plan (under this
// greedy strategy) that still produces a violation or crash — the fault
// actually responsible for the finding.
func Shrink(s Scenario, horizon sim.Time) chaos.Plan {
	fails := func(p chaos.Plan) bool {
		t := s
		t.Plan = p
		return Execute(t, horizon).Failed()
	}
	plan := s.Plan
	if !fails(plan) {
		return plan // not reproducible; nothing to shrink
	}
	// Pass 1: drop faults one at a time until no single removal keeps the
	// failure alive.
	for changed := true; changed && len(plan.Faults) > 1; {
		changed = false
		for i := range plan.Faults {
			cand := chaos.Plan{Seed: plan.Seed}
			cand.Faults = append(cand.Faults, plan.Faults[:i]...)
			cand.Faults = append(cand.Faults, plan.Faults[i+1:]...)
			if fails(cand) {
				plan = cand
				changed = true
				break
			}
		}
	}
	// Pass 2: narrow each surviving fault's active window by bisection —
	// first close open-ended windows, then halve from both ends.
	for i := range plan.Faults {
		if plan.Faults[i].Kind == chaos.NodePause || plan.Faults[i].Kind == chaos.NodeSlow {
			continue // windows are the fault's semantics; leave them
		}
		if plan.Faults[i].Until == 0 {
			cand := clonePlan(plan)
			cand.Faults[i].Until = horizonOr(horizon)
			if fails(cand) {
				plan = cand
			}
		}
		for step := 0; step < 4 && plan.Faults[i].Until != 0; step++ {
			f := plan.Faults[i]
			mid := f.From + (f.Until-f.From)/2
			if mid <= f.From {
				break
			}
			late := clonePlan(plan)
			late.Faults[i].From = mid
			if fails(late) {
				plan = late
				continue
			}
			early := clonePlan(plan)
			early.Faults[i].Until = mid
			if fails(early) {
				plan = early
				continue
			}
			break
		}
	}
	return plan
}

func clonePlan(p chaos.Plan) chaos.Plan {
	out := chaos.Plan{Seed: p.Seed, Faults: make([]chaos.Fault, len(p.Faults))}
	copy(out.Faults, p.Faults)
	return out
}

func horizonOr(h sim.Time) sim.Time {
	if h <= 0 {
		return DefaultHorizon
	}
	return h
}

// StallComparison contrasts the two stacks' responses to the same loss
// plan: FM (no retransmission — paper §2.2) versus the go-back-N transport
// of the alternative schemes.
type StallComparison struct {
	// FMViolations are the auditor findings from the Partitioned FM run.
	FMViolations []chaos.Violation
	// FMStalled is true when a credit-conservation stall was detected.
	FMStalled bool
	// FMDestroyed is the ledger's destroyed-credit count for the FM job.
	FMDestroyed int
	// AltDelivered / AltRetransmissions / AltDropped summarize the
	// go-back-N run: everything delivered despite drops, via retransmit.
	AltDelivered       uint64
	AltRetransmissions uint64
	AltDropped         uint64
	// AltRecovered is true when the alternative delivered every message.
	AltRecovered bool
}

// CompareLoss runs the paper's §2.2 experiment as a differential check: the
// same seeded loss plan against Partitioned FM (expected: permanent credit
// stall, flagged by the auditor) and against the go-back-N alternative
// (expected: full delivery through retransmission, no findings). It is the
// fuzzer's known-answer test — if this stops distinguishing the stacks, the
// harness itself is broken.
func CompareLoss(seed uint64, prob float64) StallComparison {
	var cmp StallComparison

	// FM side: a long one-way stream under loss.
	fmCfg := parpar.DefaultConfig(2)
	fmCfg.Policy = fm.Partitioned
	fmCfg.Quantum = quantum
	fmCfg.CtrlJitter = 50_000
	fmCfg.ForkDelay = 50_000
	plan := chaos.Loss(seed, prob)
	fmCfg.Chaos = &plan
	c, err := parpar.New(fmCfg)
	if err != nil {
		panic(err)
	}
	if _, err := c.Submit(workload.Bandwidth("stream", 200, 512)); err != nil {
		panic(err)
	}
	c.RunUntil(DefaultHorizon)
	cmp.FMViolations = c.Auditor().Violations()
	for _, v := range cmp.FMViolations {
		if v.Invariant == "credit-conservation" {
			cmp.FMStalled = true
		}
	}
	cmp.FMDestroyed = c.Auditor().Destroyed(1)

	// Alternative side: the same machine and plan kind, its one job
	// streaming over go-back-N under SHARE's discard coordination.
	altCfg := fmCfg
	altCfg.Policy = fm.Switched
	altCfg.Coordination = core.Discard
	altCfg.Seed = seed
	altPlan := chaos.Loss(seed, prob)
	altCfg.Chaos = &altPlan
	ac, err := parpar.New(altCfg)
	if err != nil {
		panic(err)
	}
	const msgs = 300
	if _, err := ac.Submit(workload.Stream("stream", msgs)); err != nil {
		panic(err)
	}
	ac.RunUntil(DefaultHorizon)
	rep := ac.SchemeReport()
	cmp.AltDelivered = rep.Delivered
	cmp.AltRetransmissions = rep.Retransmissions
	cmp.AltDropped = ac.Net.Stats().Dropped[myrinet.Data]
	cmp.AltRecovered = rep.Delivered == msgs
	return cmp
}

// String formats the comparison as the two-line verdict gangsim prints.
func (c StallComparison) String() string {
	fmLine := fmt.Sprintf("FM (no retransmission): %d credits destroyed, stalled=%v, %d violation(s)",
		c.FMDestroyed, c.FMStalled, len(c.FMViolations))
	altLine := fmt.Sprintf("go-back-N alternative:  %d delivered via %d retransmissions over %d drops, recovered=%v",
		c.AltDelivered, c.AltRetransmissions, c.AltDropped, c.AltRecovered)
	return fmLine + "\n" + altLine
}

// Package schedd is the online gang-scheduler daemon: an event-sourced
// service that runs on the DES clock of a live parpar cluster. Commands
// (submit, kill, resize) arrive mid-simulation from a churn trace; an
// admission loop places jobs into the gang matrix through the existing
// packing policies, pruning hopeless candidates with the matrix's own
// per-column occupancy (FreeCols) — the matrix is the daemon's only record
// of placements and free capacity; a kill or resize that opens a hole
// triggers slot-to-slot migration (Unify) and conservative backfill; and
// every decision is appended to a log that is byte-identical per seed —
// the determinism contract every other layer of this repo honors.
//
// The same daemon serves two of the three comparison modes of the
// Casanova–Stillwell–Vivien showdown (compare.go): gang scheduling (a
// deep slot table, switched credits, real time slicing) and batch
// (Slots=1, run-to-completion). The third, dynamic fractional resource
// sharing, is modeled analytically in fractional.go.
package schedd

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"gangfm/internal/chaos"
	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// Config parameterizes one daemon run.
type Config struct {
	// Nodes and Slots shape the machine and its gang matrix; Slots=1 is
	// the batch (run-to-completion) serving mode.
	Nodes int
	Slots int
	// Quantum is the gang time slice.
	Quantum sim.Time
	// Scheme selects Partitioned or Switched buffer credits.
	Scheme fm.Policy
	// Mode is the buffer-switch algorithm used by the Switched scheme.
	Mode core.CopyMode
	// Packing is the gang-matrix packing policy (nil = buddy).
	Packing gang.Policy
	// Trace is the churn trace: arrivals plus optional kill=/resize=/
	// deadline= directives.
	Trace []schedeval.TraceJob
	// Seed drives control-network jitter.
	Seed uint64
	// SlowdownBound is Feitelson's short-job bound, in cycles.
	SlowdownBound sim.Time
	// Horizon bounds the run; zero means last arrival + 10000 quanta.
	// Jobs unfinished at the horizon are censored.
	Horizon sim.Time
	// AdaptiveEstimate replaces the static slots-deep stretch in the
	// backfill estimate with an observed per-kernel EWMA of response over
	// nominal work, tightening as completions accumulate. Off by default:
	// the clean-path goldens pin the static estimator.
	AdaptiveEstimate bool
	// Chaos optionally installs a fault plan, which also arms the
	// cluster's self-healing layer.
	Chaos *chaos.Plan
	// Crashes are fail-stop node crashes injected into the run (the
	// crash=node@T trace directive / gangsim churn -crash path). They are
	// appended to the chaos plan as NodeCrash faults, and the heartbeat
	// runs fast (a probe every quarter quantum, two-miss budget), so every
	// crash is detected and evicted the same way in every serving mode.
	Crashes []schedeval.Crash
	// Repairs close crashes: node repairs (the repair=node@T trace
	// directive / gangsim churn -repair path), appended to the chaos plan
	// as NodeRepair faults. Each repair must strictly follow a crash of
	// the same node.
	Repairs []schedeval.Repair
	// RetryBudget caps how many times a crash-killed job is requeued
	// before the daemon gives up on it. Zero means the default (3);
	// negative means no retries.
	RetryBudget int
}

// DefaultConfig mirrors schedeval's evaluation setup: a deep 8-row gang
// matrix, switched credits with the improved copy, a 4M-cycle quantum.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		Slots:         8,
		Quantum:       4_000_000,
		Scheme:        fm.Switched,
		Mode:          core.ValidOnly,
		SlowdownBound: 2_000_000,
	}
}

// task is the daemon's view of one trace job across its incarnations:
// its outcome (size is the current incarnation's, changing on resize)
// plus the live state of the current incarnation.
type task struct {
	outcome
	idx int
	job *parpar.Job

	queued   bool // waiting in the admission queue
	placed   bool
	placedAt sim.Time
	est      sim.Time // estimated completion time while running

	killing  bool // kill in progress (distinguishes from eviction)
	resizing bool // resize kill in progress

	// Requeue state (failure-aware scheduling): pending marks a requeue
	// scheduled but not yet fired (its backoff window), and crashAt stamps
	// the kill that the next placement's time-to-requeue is measured from.
	pending bool
	crashAt sim.Time
}

// Daemon is the online scheduler.
type Daemon struct {
	cfg     Config
	cluster *parpar.Cluster
	log     *Log

	tasks []*task
	queue []*task // admission order: arrivals FCFS, resizes re-enqueued
	// strays records incarnations that left the matrix after their task
	// had moved on: jobs the daemon lost track of while they ran. Audit
	// reports them.
	strays []string

	horizon sim.Time

	// Failure-aware state: retry budget and base backoff (one quantum,
	// doubling per retry of the same job) for crash-kill requeues, plus the
	// time-to-requeue accumulators (crash kill to re-placement on
	// surviving capacity).
	budget     int
	backoff    sim.Time
	requeueSum sim.Time
	requeueN   int

	// Adaptive backfill estimator: per-kernel EWMA of observed stretch
	// (wall response over nominal work) seeded lazily from completions.
	adaptive bool
	stretch  map[schedeval.Kernel]float64
}

// New builds the daemon and its cluster. The trace is validated against
// the machine size.
func New(cfg Config) (*Daemon, error) {
	if len(cfg.Trace) == 0 {
		return nil, fmt.Errorf("schedd: empty trace")
	}
	for i, j := range cfg.Trace {
		if err := j.Validate(cfg.Nodes); err != nil {
			return nil, fmt.Errorf("schedd: trace job %d: %w", i, err)
		}
	}
	for i, cr := range cfg.Crashes {
		if err := cr.Validate(cfg.Nodes); err != nil {
			return nil, fmt.Errorf("schedd: crash %d: %w", i, err)
		}
	}
	if err := schedeval.ValidateRepairs(cfg.Repairs, cfg.Crashes, cfg.Nodes); err != nil {
		return nil, fmt.Errorf("schedd: %w", err)
	}
	pcfg := parpar.DefaultConfig(cfg.Nodes)
	pcfg.Slots = cfg.Slots
	pcfg.Policy = cfg.Scheme
	pcfg.Mode = cfg.Mode
	pcfg.Packing = cfg.Packing
	if cfg.Quantum > 0 {
		pcfg.Quantum = cfg.Quantum
	}
	pcfg.UseFastCtrlNet()
	if cfg.Seed != 0 {
		pcfg.Seed = cfg.Seed
	}
	pcfg.Chaos = cfg.Chaos
	if len(cfg.Crashes) > 0 {
		// Fold the crash schedule into the chaos plan (as fail-stop
		// NodeCrash faults) without mutating the caller's plan.
		plan := chaos.Plan{Seed: pcfg.Seed}
		if cfg.Chaos != nil {
			plan = *cfg.Chaos
			plan.Faults = append([]chaos.Fault(nil), cfg.Chaos.Faults...)
		}
		for _, cr := range cfg.Crashes {
			plan.Faults = append(plan.Faults,
				chaos.Fault{Kind: chaos.NodeCrash, Node: cr.Node, From: cr.At})
		}
		for _, rp := range cfg.Repairs {
			plan.Faults = append(plan.Faults,
				chaos.Fault{Kind: chaos.NodeRepair, Node: rp.Node, From: rp.At})
		}
		pcfg.Chaos = &plan
		// A fast heartbeat (the only failure detector): four probes per
		// quantum, two missed intervals to declare a node dead. The
		// cadence must beat the repair stream — detection after the node
		// already rebooted degenerates into the rejoin request outing the
		// stale incarnation — and, crash for crash, every serving mode is
		// detected within the same ~3/4 quantum.
		pcfg.Recovery = parpar.Recovery{HeartbeatEvery: pcfg.Quantum / 4, HeartbeatMisses: 2}
	}
	cluster, err := parpar.New(pcfg)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:      cfg,
		cluster:  cluster,
		log:      NewLog(),
		budget:   cfg.retryBudget(),
		backoff:  pcfg.Quantum,
		adaptive: cfg.AdaptiveEstimate,
	}
	if d.adaptive {
		d.stretch = make(map[schedeval.Kernel]float64)
	}
	// Give up on queued jobs the survivors cannot hold the instant a node
	// is declared dead, and drain the backlog into a repaired node the
	// instant it is admitted back.
	cluster.Observe(d.onEvent)
	return d, nil
}

// Cluster exposes the underlying parpar cluster.
func (d *Daemon) Cluster() *parpar.Cluster { return d.cluster }

// Log exposes the decision log.
func (d *Daemon) Log() *Log { return d.log }

// Run schedules every trace command on the DES clock and drives the
// cluster to the horizon. It may be called once.
func (d *Daemon) Run() error {
	if d.tasks != nil {
		return fmt.Errorf("schedd: Run called twice")
	}
	for i, tj := range d.cfg.Trace {
		d.tasks = append(d.tasks, &task{idx: i, outcome: outcome{tj: tj, size: tj.Size}})
	}
	d.horizon = d.cfg.horizon()
	eng := d.cluster.Eng
	// Command events, on the cluster's engine. Arrival ties are broken by
	// trace order because ScheduleAt is FIFO per timestamp.
	order := make([]int, len(d.tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return d.tasks[order[a]].tj.Arrive < d.tasks[order[b]].tj.Arrive
	})
	for _, i := range order {
		t := d.tasks[i]
		eng.ScheduleAt(t.tj.Arrive, func() { d.submit(t) })
		if t.tj.Kill != 0 {
			eng.ScheduleAt(t.tj.Kill, func() { d.kill(t) })
		}
		if t.tj.ResizeTo != 0 {
			eng.ScheduleAt(t.tj.ResizeAt, func() { d.resize(t) })
		}
	}
	d.cluster.RunUntil(d.horizon)
	d.finishLog()
	return nil
}

// specFor rebuilds the parpar spec for the task's current incarnation
// size (NewProgram closures capture the size, so a resize needs a fresh
// spec from the trace job).
func (t *task) specFor() parpar.JobSpec {
	tj := t.tj
	tj.Size = t.size
	return tj.Spec(fmt.Sprintf("j%d-%s", t.idx, tj.Kernel))
}

// backfillSlack scales the conservative backfill estimate: a candidate
// must clear the shadow even if it runs twice as long as predicted.
const backfillSlack = 2

// estimate is the conservative completion estimate used by backfill: the
// scheme-independent nominal work, multiplied by a stretch factor and
// backfillSlack. The static stretch is the slot-table depth (time
// slicing stretches wall time by the number of co-scheduled rows); with
// AdaptiveEstimate on, kernels that have completed at least once use the
// observed EWMA stretch instead, which starts at the static worst case and
// tightens toward the real response as completions accumulate.
func (d *Daemon) estimate(t *task) sim.Time {
	tj := t.tj
	tj.Size = t.size
	slots := d.cfg.Slots
	if slots < 1 {
		slots = 1
	}
	stretch := float64(slots)
	if d.adaptive {
		if s, ok := d.stretch[tj.Kernel]; ok {
			stretch = s
		}
	}
	return sim.Time(backfillSlack * float64(tj.Nominal()) * stretch)
}

// observe feeds a natural completion into the adaptive estimator: the
// incarnation's wall response over its nominal work is the realized
// stretch for its kernel type.
func (d *Daemon) observe(t *task, now sim.Time) {
	if !d.adaptive {
		return
	}
	tj := t.tj
	tj.Size = t.size
	nominal := float64(tj.Nominal())
	if nominal <= 0 || now <= t.placedAt {
		return
	}
	obs := float64(now-t.placedAt) / nominal
	if old, ok := d.stretch[tj.Kernel]; ok {
		d.stretch[tj.Kernel] = 0.5*old + 0.5*obs
	} else {
		d.stretch[tj.Kernel] = obs
	}
}

// EstimatedStretch exposes the adaptive estimator's current stretch for a
// kernel (tests assert the estimate tightens); ok is false before the
// kernel's first completion or with the adaptive estimator off.
func (d *Daemon) EstimatedStretch(k schedeval.Kernel) (float64, bool) {
	s, ok := d.stretch[k]
	return s, ok
}

// submit handles an arrival command: log it, enqueue, drain.
func (d *Daemon) submit(t *task) {
	now := d.cluster.Eng.Now()
	d.log.Add(now, VerbSubmit, "job=%d size=%d", t.idx, t.size)
	t.queued = true
	d.queue = append(d.queue, t)
	d.drain()
}

// kill handles a kill command. A running job dies through the voluntary
// termination path; a queued one is simply dequeued.
func (d *Daemon) kill(t *task) {
	now := d.cluster.Eng.Now()
	switch {
	case t.finished || t.killed || t.gaveup:
		d.log.Add(now, VerbKillLate, "job=%d", t.idx)
	case t.pending:
		// Crash-killed, waiting out its requeue backoff: cancel the
		// pending resubmission and retire the task.
		t.pending = false
		t.killed = true
		t.done = float64(now)
		d.log.Add(now, VerbKill, "job=%d pending=true", t.idx)
	case t.queued:
		d.dequeue(t)
		t.killed = true
		t.done = float64(now)
		d.log.Add(now, VerbKill, "job=%d queued=true", t.idx)
	case t.job != nil:
		t.killing = true
		if err := d.cluster.Kill(t.job); err != nil {
			panic(fmt.Sprintf("schedd: kill job %d: %v", t.idx, err))
		}
		t.killing = false
		t.killed = true
		t.job = nil
		t.done = float64(now)
		d.log.Add(now, VerbKill, "job=%d", t.idx)
		d.reclaim()
	}
}

// resize handles a resize command: a queued task just changes size; a
// running one is killed (the incarnation is rigid) and re-enqueued at the
// new size, then the freed slots are compacted and backfilled.
func (d *Daemon) resize(t *task) {
	now := d.cluster.Eng.Now()
	to := t.tj.ResizeTo
	switch {
	case t.finished || t.killed || t.gaveup:
		d.log.Add(now, VerbResizeLate, "job=%d", t.idx)
		return
	case t.pending:
		// Crash-killed, waiting out its backoff: the resubmission will
		// come back at the new size.
		t.size = to
		t.resized = true
		d.log.Add(now, VerbResize, "job=%d to=%d pending=true", t.idx, to)
	case t.queued:
		t.size = to
		t.resized = true
		d.log.Add(now, VerbResize, "job=%d to=%d queued=true", t.idx, to)
	case t.job != nil:
		t.resizing = true
		if err := d.cluster.Kill(t.job); err != nil {
			panic(fmt.Sprintf("schedd: resize-kill job %d: %v", t.idx, err))
		}
		t.resizing = false
		t.job = nil
		t.placed = false
		t.size = to
		t.resized = true
		t.queued = true
		d.queue = append(d.queue, t)
		d.log.Add(now, VerbResize, "job=%d to=%d", t.idx, to)
		d.reclaim()
	}
	d.drain()
}

// reclaim runs after a kill/resize/eviction/completion opened a hole:
// migrate survivors into earlier slots (so the hole is contiguous and the
// rotation visits fewer rows), then drain the queue with backfill.
func (d *Daemon) reclaim() {
	if moved := d.cluster.Compact(); moved > 0 {
		d.log.Add(d.cluster.Eng.Now(), VerbCompact, "moved=%d", moved)
	}
	d.drain()
}

// onEvent is the daemon's subscription to the cluster's event list; only
// the masterd's membership changes concern it. Evict fires after the dead node's matrix column is killed
// and before the jobs spanning it are: queued jobs larger than the
// surviving machine are given up on the spot — they could otherwise wedge
// the queue head and censor everything behind it. Rejoin fires after the
// repaired node's column is revived, so the drain places the backlog onto
// the recovered capacity immediately. Jobs already given up stay given up
// — abandoning them was a reported decision, not a reversible one.
func (d *Daemon) onEvent(e myrinet.Event) {
	if e.Kind != myrinet.Evict && e.Kind != myrinet.Rejoin {
		return
	}
	now := d.cluster.Eng.Now()
	live := d.cluster.Master().Matrix().LiveCols()
	if e.Kind == myrinet.Rejoin {
		d.log.Add(now, VerbNodeRepair, "node=%d live=%d", e.Node, live)
		d.drain()
		return
	}
	d.log.Add(now, VerbNodeDead, "node=%d live=%d", e.Node, live)
	var doomed []*task
	for _, t := range d.queue {
		if t.size > live {
			doomed = append(doomed, t)
		}
	}
	for _, t := range doomed {
		d.dequeue(t)
		d.giveUp(t, now, fmt.Sprintf("reason=capacity size=%d live=%d", t.size, live))
	}
}

// giveUp retires a task the daemon abandons: it counts as a terminal
// eviction, reported in its own gaveup row, never folded into the means.
func (d *Daemon) giveUp(t *task, now sim.Time, detail string) {
	t.gaveup = true
	t.pending = false
	t.queued = false
	t.done = float64(now)
	d.log.Add(now, VerbGaveup, "job=%d %s", t.idx, detail)
}

// requeueFire ends a crash-killed task's backoff window: re-check the
// surviving capacity (more nodes may have died while it waited), then
// re-enter the admission queue in event order.
func (d *Daemon) requeueFire(t *task) {
	if !t.pending {
		return // canceled by a kill command during the backoff
	}
	t.pending = false
	now := d.cluster.Eng.Now()
	if live := d.cluster.Master().Matrix().LiveCols(); t.size > live {
		d.giveUp(t, now, fmt.Sprintf("reason=capacity size=%d live=%d", t.size, live))
		return
	}
	t.queued = true
	d.queue = append(d.queue, t)
	d.drain()
}

// dequeue removes a task from the admission queue.
func (d *Daemon) dequeue(t *task) {
	for i, q := range d.queue {
		if q == t {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			break
		}
	}
	t.queued = false
}

// drain is the admission loop: place queue-head tasks while they fit;
// when the head blocks, conservatively backfill later tasks into the
// hole.
func (d *Daemon) drain() {
	now := d.cluster.Eng.Now()
	for len(d.queue) > 0 {
		head := d.queue[0]
		if !d.tryPlace(head, false) {
			break
		}
	}
	if len(d.queue) <= 1 {
		return
	}
	// Head is blocked. The shadow is the earliest estimated completion
	// among running jobs — the soonest the head's prospects can improve —
	// and a later candidate may jump the queue only if its own estimate
	// says it clears out before then, so the head is never delayed by the
	// backfill (conservative, in the EASY sense but with estimates).
	shadow := sim.Time(0)
	for _, t := range d.tasks {
		if t.placed && !t.finished && t.job != nil {
			if shadow == 0 || t.est < shadow {
				shadow = t.est
			}
		}
	}
	if shadow == 0 || shadow <= now {
		return
	}
	// tryPlace dequeues what it places, shifting d.queue under a live
	// range; walk a snapshot instead, skipping tasks no longer queued.
	for _, t := range slices.Clone(d.queue[1:]) {
		if !t.queued || now+d.estimate(t) > shadow {
			continue
		}
		d.tryPlace(t, true)
	}
}

// tryPlace attempts to admit one queued task. The FreeCols precheck is a
// necessary condition (enough live nodes with a free slot anywhere); the
// matrix's packing policy is the sufficiency check. Returns true if the
// task was placed.
func (d *Daemon) tryPlace(t *task, asBackfill bool) bool {
	now := d.cluster.Eng.Now()
	if free := d.cluster.Master().Matrix().FreeCols(); free < t.size {
		d.log.Add(now, VerbPrune, "job=%d size=%d free_nodes=%d", t.idx, t.size, free)
		return false
	}
	job, err := d.cluster.Submit(t.specFor())
	if err != nil {
		if errors.Is(err, gang.ErrSlotTableFull) {
			d.log.Add(now, VerbQueue, "job=%d size=%d", t.idx, t.size)
			return false
		}
		panic(fmt.Sprintf("schedd: submit job %d: %v", t.idx, err))
	}
	d.dequeue(t)
	t.job = job
	t.placed = true
	t.placedAt = now
	t.est = now + d.estimate(t)
	t.backfill = t.backfill || asBackfill
	if t.crashAt != 0 {
		// Back on the matrix after a crash: close the availability gap.
		d.requeueSum += now - t.crashAt
		d.requeueN++
		t.crashAt = 0
	}
	verb := VerbPlace
	if asBackfill {
		verb = VerbBackfill
	}
	d.log.Add(now, verb, "job=%d size=%d row=%d col0=%d", t.idx, t.size,
		job.Placement.Row, job.Placement.Cols[0])
	job.OnDone(func(j *parpar.Job) { d.onDone(t, j) })
	return true
}

// onDone is the completion callback for every incarnation: a natural
// completion retires the task; a JobKilled completion is either one of
// the daemon's own kills (kill/resize commands, flagged) or a chaos
// eviction.
func (d *Daemon) onDone(t *task, j *parpar.Job) {
	if t.job != j {
		d.strays = append(d.strays, fmt.Sprintf("job=%d incarnation %d ended untracked", t.idx, j.ID))
		return
	}
	now := d.cluster.Eng.Now()
	if j.State() == parpar.JobKilled {
		if t.killing || t.resizing {
			return // the command handler owns the bookkeeping and logging
		}
		// Crash-kill: a chaos eviction took the job down, not a command.
		// Requeue it on surviving capacity if the retry budget and the
		// shrunken machine allow; otherwise give up explicitly.
		t.job = nil
		t.placed = false
		d.log.Add(now, VerbEvicted, "job=%d", t.idx)
		live := d.cluster.Master().Matrix().LiveCols()
		switch {
		case t.retries >= d.budget:
			d.giveUp(t, now, fmt.Sprintf("reason=budget retries=%d", t.retries))
		case t.size > live:
			d.giveUp(t, now, fmt.Sprintf("reason=capacity size=%d live=%d", t.size, live))
		default:
			t.retries++
			t.pending = true
			t.crashAt = now
			delay := d.backoff << (t.retries - 1)
			d.log.Add(now, VerbRequeue, "job=%d retry=%d delay=%d", t.idx, t.retries, uint64(delay))
			d.cluster.Eng.ScheduleAt(now+delay, func() { d.requeueFire(t) })
		}
		d.reclaim()
		return
	}
	d.observe(t, now)
	t.finished = true
	t.done = float64(now)
	if t.tj.Deadline != 0 && now > t.tj.Deadline {
		t.dlMiss = true
		d.log.Add(now, VerbDone, "job=%d deadline_miss=true", t.idx)
	} else {
		d.log.Add(now, VerbDone, "job=%d", t.idx)
	}
	d.reclaim()
}

// finishLog appends the horizon summary: censored tasks and the audit
// verdict.
func (d *Daemon) finishLog() {
	censored := 0
	for _, t := range d.tasks {
		if !t.finished && !t.killed && !t.gaveup {
			censored++
		}
	}
	bad := d.Audit()
	for _, msg := range bad {
		d.log.Add(d.horizon, VerbCacheBad, "%s", msg)
	}
	evicted := d.cluster.Master().EvictedNodes()
	d.log.Add(d.horizon, VerbHorizon, "censored=%d cache_ok=%t nodes_evicted=%d",
		censored, len(bad) == 0, len(evicted))
}

// Audit reconciles the daemon's task table with the gang matrix, the only
// record of placements and capacity, and returns one message per
// divergence (nil when coherent): every placed, unfinished task's job sits
// in the matrix on the columns it was placed on, the matrix holds no other
// job (nor held one that has since left: see strays), and the matrix's own
// invariants hold.
func (d *Daemon) Audit() []string {
	m := d.cluster.Master().Matrix()
	bad := append(m.Audit(), d.strays...)
	running := 0
	for _, t := range d.tasks {
		if t.job == nil || t.finished {
			continue
		}
		running++
		if p, ok := m.Placement(t.job.ID); !ok {
			bad = append(bad, fmt.Sprintf("job=%d runs as %d, which the matrix does not hold", t.idx, t.job.ID))
		} else if !slices.Equal(p.Cols, t.job.Placement.Cols) {
			bad = append(bad, fmt.Sprintf("job=%d placed on columns %v, matrix says %v", t.idx, t.job.Placement.Cols, p.Cols))
		}
	}
	if n := m.Jobs(); n != running {
		bad = append(bad, fmt.Sprintf("matrix holds %d jobs, the daemon runs %d", n, running))
	}
	return bad
}

// Result aggregates a finished run for the comparison grid.
type Result struct {
	Mode string // "gang", "batch" or "fractional"

	Jobs     int
	Finished int
	Killed   int
	Resized  int
	Evicted  int
	Censored int
	DlMiss   int

	Backfills  int
	Migrations int // jobs moved by compaction

	MeanResponse float64
	MeanSlowdown float64
	MaxSlowdown  float64
	Utilization  float64

	// Availability metrics (all zero on clean runs): Requeues counts
	// crash-kill resubmissions, RequeuedJobs the distinct jobs that came
	// back at least once, GaveUp the jobs the scheduler explicitly
	// abandoned (retry budget exhausted or machine too small — a subset of
	// Evicted). MeanRequeue is the mean cycles from crash-kill to
	// re-placement on surviving capacity. NodesLost counts evicted nodes,
	// CapacityLost the fraction of the machine's node-cycles they took
	// with them, and Goodput the useful work over the node-cycles that
	// actually survived (utilization of the live machine).
	Requeues     int
	RequeuedJobs int
	GaveUp       int
	MeanRequeue  float64
	NodesLost    int
	CapacityLost float64
	Goodput      float64

	// Repair metrics (all zero unless repairs are armed): Repairs is the
	// number of armed repair events, NodesRepaired the nodes admitted back
	// at least once, CapacityRepaired the fraction of the node-cycles the
	// crashes would have cost that repair recovered (downtime avoided over
	// downtime without repair), and PostRepairGoodput the goodput over the
	// window from the first rejoin to the end of the run — the "did the
	// machine actually come back" number.
	Repairs           int
	NodesRepaired     int
	CapacityRepaired  float64
	PostRepairGoodput float64

	// Violations is the chaos auditor's verdict on the run: the number of
	// distinct invariant violations it recorded (zero for the analytic
	// fractional model). A non-zero count means the protocol stack, not
	// the scheduler, decided some of the numbers above.
	Violations int

	Log    *Log
	Events uint64
}

// Result scores the run (see score) and adds what only the daemon knows:
// migrations, time to requeue, the auditor's verdict and the event count.
func (d *Daemon) Result(mode string) *Result {
	jobs := make([]*outcome, len(d.tasks))
	for i, t := range d.tasks {
		jobs[i] = &t.outcome
	}
	downs := make([][]parpar.DownWindow, d.cfg.Nodes)
	for i := range downs {
		downs[i] = d.cluster.Master().Downtime(i)
	}
	r := score(d.cfg, jobs, downs)
	r.Mode = mode
	r.Migrations = d.log.Sum(VerbCompact, "moved")
	if d.requeueN > 0 {
		r.MeanRequeue = float64(d.requeueSum) / float64(d.requeueN)
	}
	r.Violations = d.cluster.Auditor().Count()
	r.Log = d.log
	r.Events = d.cluster.Fired()
	return r
}

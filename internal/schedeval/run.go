package schedeval

import (
	"errors"
	"fmt"
	"sort"

	"gangfm/internal/chaos"
	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/metrics"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// Config parameterizes one evaluation run: a trace replayed against one
// (credit scheme, packing policy) combination.
type Config struct {
	// Nodes and Slots shape the machine and its gang matrix.
	Nodes int
	Slots int
	// Quantum is the gang-scheduling time slice.
	Quantum sim.Time
	// Scheme selects Partitioned or Switched buffer credits.
	Scheme fm.Policy
	// Mode is the buffer-switch algorithm used by the Switched scheme.
	Mode core.CopyMode
	// Packing is the gang-matrix packing policy (nil = buddy).
	Packing gang.Policy
	// Trace is the arrival stream to replay.
	Trace []TraceJob
	// Seed drives control-network jitter.
	Seed uint64
	// SlowdownBound is Feitelson's short-job bound, in cycles.
	SlowdownBound sim.Time
	// Deadline bounds the run; jobs unfinished by then are censored at
	// the deadline. Zero means last arrival + 10000 quanta.
	Deadline sim.Time
	// Chaos optionally installs a fault plan under the run.
	Chaos *chaos.Plan
}

// DefaultConfig returns the evaluation setup: a deep 8-row gang matrix
// (with 8 nodes that puts the partitioned scheme at C0 = 1 — the
// starvation regime the paper's n² argument predicts — while switched
// credits are unaffected), switched credits with the improved copy, a
// 20 ms quantum (long enough to amortize the buffer-switch cost the
// switched scheme pays per rotation), and a 10 ms slowdown bound.
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

// JobMetrics is one trace job's fate under a run.
type JobMetrics struct {
	Index    int
	Kernel   Kernel
	Size     int
	Arrive   sim.Time
	Submit   sim.Time // when the job left the FCFS backlog for the matrix
	Finished bool
	// Nominal is the scheme-independent dedicated-machine work anchor.
	Nominal sim.Time
	// Response runs from Arrive to completion, or to the deadline when
	// censored; Wait is Submit - Arrive.
	Response sim.Time
	Wait     sim.Time
	// Slowdown is the bounded slowdown max(1, response/max(nominal, bound)).
	Slowdown float64
	// CommFraction is 1 - compute/(size * residence): the share of the
	// job's node-seconds not spent in pure compute sections.
	CommFraction float64
	// Switches counts the per-node context switches into this job.
	Switches int
}

// Result aggregates a run.
type Result struct {
	Scheme  fm.Policy
	Packing string
	Jobs    []JobMetrics

	Finished int
	// Censored counts jobs still unfinished at the run deadline: their
	// end is clamped to the deadline, so their response times are lower
	// bounds, not observations. They are excluded from MeanResponse and
	// the slowdown aggregates (which cover finished jobs only) and
	// reported separately through CensoredMeanResponse.
	Censored       int
	PeakConcurrent int
	Makespan       sim.Time
	MeanResponse   float64 // cycles, finished jobs only
	MeanSlowdown   float64 // finished jobs only
	MaxSlowdown    float64 // finished jobs only
	// CensoredMeanResponse is the mean deadline-clamped response of the
	// censored jobs — a lower bound on what their true mean would be, kept
	// out of MeanResponse so truncating a run earlier can never make the
	// reported mean look better.
	CensoredMeanResponse float64 // cycles
	// Utilization is sum(size * nominal) over finished jobs divided by
	// nodes * makespan — the fraction of the machine's node-cycles that
	// went to (nominally accounted) useful work.
	Utilization      float64
	MeanCommFraction float64
	Switches         int

	AuditOK    bool
	Violations int
	Events     uint64
}

// Run replays the trace. Jobs are submitted FCFS: an arrival that does
// not fit the slot table waits in a backlog and is resubmitted, in
// arrival order, as running jobs exit.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Trace) == 0 {
		return nil, fmt.Errorf("schedeval: empty trace")
	}
	for i, j := range cfg.Trace {
		if err := j.Validate(cfg.Nodes); err != nil {
			return nil, fmt.Errorf("trace job %d: %w", i, err)
		}
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
	cluster, err := parpar.New(pcfg)
	if err != nil {
		return nil, err
	}

	// Arrival order: by time, ties by trace position.
	order := make([]int, len(cfg.Trace))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cfg.Trace[order[a]].Arrive < cfg.Trace[order[b]].Arrive
	})

	type fate struct {
		submitted bool
		submit    sim.Time
		sync      sim.Time
		done      sim.Time
		finished  bool
	}
	fates := make([]fate, len(cfg.Trace))
	idOf := make(map[myrinet.JobID]int)
	jobOf := make(map[int]*parpar.Job)
	var backlog []int
	inSystem, peak := 0, 0

	var drain func()
	drain = func() {
		for len(backlog) > 0 {
			i := backlog[0]
			tj := cfg.Trace[i]
			name := fmt.Sprintf("j%d-%s", i, tj.Kernel)
			job, err := cluster.Submit(tj.Spec(name))
			if err != nil {
				if errors.Is(err, gang.ErrSlotTableFull) {
					return // resubmitted when a job exits
				}
				panic(fmt.Sprintf("schedeval: submit job %d: %v", i, err))
			}
			backlog = backlog[1:]
			fates[i].submitted = true
			fates[i].submit = cluster.Eng.Now()
			idOf[job.ID] = i
			jobOf[i] = job
			job.OnDone(func(j *parpar.Job) {
				k := idOf[j.ID]
				fates[k].sync = j.SyncTime
				fates[k].done = j.DoneTime
				fates[k].finished = true
				inSystem--
				drain()
			})
		}
	}
	var lastArrive sim.Time
	for _, i := range order {
		i := i
		if cfg.Trace[i].Arrive > lastArrive {
			lastArrive = cfg.Trace[i].Arrive
		}
		cluster.Eng.ScheduleAt(cfg.Trace[i].Arrive, func() {
			inSystem++
			if inSystem > peak {
				peak = inSystem
			}
			backlog = append(backlog, i)
			drain()
		})
	}

	deadline := cfg.Deadline
	if deadline == 0 {
		q := pcfg.Quantum
		deadline = lastArrive + 10_000*q
	}
	cluster.RunUntil(deadline)

	// Switches endured, per job, across all nodes.
	switchesOf := make(map[myrinet.JobID]int)
	totalSwitches := 0
	for _, hist := range cluster.SwitchHistory() {
		for _, s := range hist {
			totalSwitches++
			if s.To != myrinet.NoJob {
				switchesOf[s.To]++
			}
		}
	}

	res := &Result{
		Scheme:     cfg.Scheme,
		Packing:    cluster.Master().Matrix().Policy().Name(),
		Switches:   totalSwitches,
		AuditOK:    cluster.Auditor().Ok(),
		Violations: cluster.Auditor().Count(),
		Events:     cluster.Fired(),
	}
	bound := float64(cfg.SlowdownBound)
	firstArrive := cfg.Trace[order[0]].Arrive
	var lastEnd sim.Time
	var slowdowns, comms []float64
	var usefulWork float64
	for i, tj := range cfg.Trace {
		f := fates[i]
		m := JobMetrics{
			Index:   i,
			Kernel:  tj.Kernel,
			Size:    tj.Size,
			Arrive:  tj.Arrive,
			Nominal: tj.Nominal(),
		}
		end := deadline
		if f.finished {
			m.Finished = true
			m.Submit = f.submit
			end = f.done
			res.Finished++
		} else if f.submitted {
			m.Submit = f.submit
			res.Censored++
		} else {
			m.Submit = deadline
			res.Censored++
		}
		if end > lastEnd {
			lastEnd = end
		}
		m.Response = end - tj.Arrive
		if m.Submit > tj.Arrive {
			m.Wait = m.Submit - tj.Arrive
		}
		m.Slowdown = metrics.BoundedSlowdown(float64(m.Response), float64(m.Nominal), bound)
		m.CommFraction = 1
		if f.finished && f.done > f.sync {
			residence := float64(tj.Size) * float64(f.done-f.sync)
			compute := float64(workload.TotalCompute(jobOf[i]))
			if frac := 1 - compute/residence; frac >= 0 {
				m.CommFraction = frac
			} else {
				m.CommFraction = 0
			}
			usefulWork += float64(tj.Size) * float64(m.Nominal)
		}
		if job := jobOf[i]; job != nil {
			m.Switches = switchesOf[job.ID]
		}
		if m.Finished {
			slowdowns = append(slowdowns, m.Slowdown)
			comms = append(comms, m.CommFraction)
		}
		res.Jobs = append(res.Jobs, m)
	}
	res.PeakConcurrent = peak
	res.Makespan = lastEnd - firstArrive
	var responses, censResponses []float64
	for _, m := range res.Jobs {
		if m.Finished {
			responses = append(responses, float64(m.Response))
		} else {
			censResponses = append(censResponses, float64(m.Response))
		}
	}
	res.MeanResponse = metrics.Mean(responses)
	res.MeanSlowdown = metrics.Mean(slowdowns)
	res.MaxSlowdown = metrics.Max(slowdowns)
	res.CensoredMeanResponse = metrics.Mean(censResponses)
	res.MeanCommFraction = metrics.Mean(comms)
	if res.Makespan > 0 {
		res.Utilization = usefulWork / (float64(cfg.Nodes) * float64(res.Makespan))
	}
	return res, nil
}

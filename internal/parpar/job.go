package parpar

import (
	"gangfm/internal/altsched"
	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Program is the application code of one process of a parallel job. Start
// is called when FM_initialize returns (after the global synchronization
// of Figure 2); the process communicates through the Proc handle and calls
// Done exactly once when finished.
type Program interface {
	Start(p *Proc)
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(p *Proc)

// Start calls f(p).
func (f ProgramFunc) Start(p *Proc) { f(p) }

// JobSpec describes a job to submit: its size in nodes and a factory
// producing each rank's program.
type JobSpec struct {
	Name       string
	Size       int
	NewProgram func(rank int) Program
}

// JobState tracks a job through the Figure 2 lifecycle.
type JobState int

const (
	// JobLoading: nodes are running COMM_init_job and forking.
	JobLoading JobState = iota
	// JobRunning: the all-up synchronization completed; processes run
	// whenever their slot is scheduled.
	JobRunning
	// JobDone: every rank called Done.
	JobDone
	// JobKilled: the job spanned an evicted node and was terminated by
	// the recovery layer; surviving ranks' results are partial.
	JobKilled
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobLoading:
		return "loading"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobKilled:
		return "killed"
	default:
		return "JobState(?)"
	}
}

// Job is a submitted parallel job.
type Job struct {
	ID        myrinet.JobID
	Spec      JobSpec
	Placement gang.Placement

	nodeOf []myrinet.NodeID // rank -> node
	procs  []*Proc
	state  JobState

	readyRanks int
	doneRanks  int
	// loadSeen records each rank's receipt of its load message, the load's
	// re-send predicate. readySeen/doneSeen dedup the per-rank lifecycle
	// notifications: with recovery armed they are re-sent until
	// acknowledged, and a count alone would double-book a duplicate.
	loadSeen  []bool
	readySeen []bool
	doneSeen  []bool

	// Results holds each rank's Done value.
	Results []any

	SubmitTime sim.Time
	SyncTime   sim.Time
	DoneTime   sim.Time

	onDone []func(*Job)
}

// State returns the job's lifecycle state.
func (j *Job) State() JobState { return j.state }

// ended reports whether the job finished or was killed. Its per-rank
// launch and completion messages stop mattering then, so their re-send
// chains stop too.
func (j *Job) ended() bool { return j.state == JobDone || j.state == JobKilled }

// OnDone registers a callback invoked (at masterd time) when the job
// completes.
func (j *Job) OnDone(fn func(*Job)) { j.onDone = append(j.onDone, fn) }

// Proc is the harness handle a Program communicates through: the process's
// endpoint plus job plumbing.
type Proc struct {
	cluster *Cluster
	node    *Node
	job     *Job
	rank    int

	// EP is the process's FM endpoint under Flush coordination: Send,
	// SetHandler, SetOnCanSend, Stats and friends. Alt is its go-back-N
	// endpoint under Discard or Quiesce coordination. The other is nil.
	EP  *fm.Endpoint
	Alt *altsched.Endpoint

	program Program
	started bool
	done    bool
	// killed marks a process whose job was terminated by node eviction;
	// its endpoint is suspended and its resources already released, so a
	// late Done from the still-unwinding program is ignored.
	killed bool
}

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.cluster.Eng.Now() }

// Schedule runs fn after d cycles of virtual time (modelling local
// computation between communication phases).
func (p *Proc) Schedule(d sim.Time, fn func()) { p.cluster.Eng.Schedule(d, fn) }

// Done reports the process's result to the noded; when every rank of the
// job has called Done the masterd retires the job. Queued FM sends are
// flushed into the network first (a real process exits only after its
// last FM_send returned). A go-back-N process keeps retransmitting until
// the job ends, since a peer may still wait on its data.
func (p *Proc) Done(result any) {
	if p.killed {
		// The job was terminated by node eviction while this program was
		// still unwinding; its completion has nowhere to go.
		p.done = true
		return
	}
	if p.done {
		panic("parpar: Done called twice")
	}
	p.done = true
	job, rank := p.job, p.rank
	report := func() {
		p.cluster.reliableSend(-1, func() bool { return job.doneSeen[rank] || job.ended() },
			func() { p.cluster.master.rankDone(job, rank, result) })
	}
	if p.EP == nil {
		report()
		return
	}
	p.EP.Flush(func() {
		if p.killed {
			return
		}
		p.EP.Suspend()
		report()
	})
}

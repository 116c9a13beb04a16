// Package gangfm is a simulation-backed reproduction of "User-Level
// Communication in a System with Gang Scheduling" (Yoav Etsion and Dror G.
// Feitelson, IPPS 2001): the ParPar cluster, the Fast Messages (FM)
// user-level communication library on Myrinet, and the paper's
// contribution — swapping the NIC communication buffers as part of the
// gang-scheduling context switch so every running process gets the full
// buffer (and therefore the full credit window) instead of a 1/n² share.
//
// This root package is the public façade: it re-exports the pieces a user
// composes — cluster construction, job submission, the benchmark
// workloads, and the experiment harness that regenerates every figure of
// the paper. The implementation lives in the internal packages:
//
//	internal/sim         deterministic discrete-event kernel (cycles of a 200 MHz P6)
//	internal/memmodel    memory cost model (host copies, write-combining, DMA)
//	internal/myrinet     the Myrinet fabric: FIFO routes, serialized ports, injector and observation seams
//	internal/lanai       the LANai card: contexts, send scanner, receive DMA, flush protocol
//	internal/fm          the FM library: fragmentation, credits, refills, host cost model
//	internal/core        glueFM (Table 1 API) and the buffer-switching context switch
//	internal/gang        the gang matrix with DHC buddy placement
//	internal/parpar      masterd/noded daemons, control network, job lifecycle (Fig 2)
//	internal/workload    the paper's benchmarks plus application kernels (BSP, stencil, master-worker)
//	internal/altsched    go-back-N processes for parpar's SHARE-discard and PM-quiescence modes; dynamic coscheduling
//	internal/chaos       fault injection + invariant auditing (and chaos/fuzzer)
//	internal/schedeval   trace-driven scheduler evaluation (job streams, per-job slowdown)
//	internal/schedd      online scheduler daemon: kills, resizes, backfill, crash requeue, gang/batch/fractional modes
//	internal/metrics     series collection and table formatting for the harness
//	internal/experiments the figure/table regenerators
//
// # Quick start
//
//	cfg := gangfm.DefaultClusterConfig(16)     // 16-node ParPar, switched buffers
//	cluster, err := gangfm.NewCluster(cfg)
//	if err != nil { ... }
//	job, err := cluster.Submit(gangfm.Bandwidth("bw", 10000, 16384))
//	if err != nil { ... }
//	cluster.Run()
//	res, _ := gangfm.ExtractBandwidth(job)
//	fmt.Printf("%.1f MB/s\n", res.MBs(gangfm.Clock()))
//
// Everything is simulated on a virtual clock, so runs are deterministic
// and take milliseconds of real time regardless of the virtual duration.
package gangfm

import (
	"gangfm/internal/chaos"
	"gangfm/internal/core"
	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/parpar"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// Cluster is a simulated ParPar machine: compute nodes with Myrinet NICs,
// the masterd gang scheduler, and the control network.
type Cluster = parpar.Cluster

// ClusterConfig parameterizes a cluster (node count, slot-table depth,
// buffer policy, copy algorithm, quantum, daemon latencies).
type ClusterConfig = parpar.Config

// Job is a submitted parallel application.
type Job = parpar.Job

// JobSpec describes a job: size and per-rank program factory.
type JobSpec = parpar.JobSpec

// Program is one process's application code.
type Program = parpar.Program

// ProgramFunc adapts a function to Program.
type ProgramFunc = parpar.ProgramFunc

// Proc is the harness handle a Program communicates through.
type Proc = parpar.Proc

// JobState tracks a job through its lifecycle.
type JobState = parpar.JobState

// Job lifecycle states.
const (
	// JobLoading: nodes are allocating contexts and forking (Fig 2).
	JobLoading = parpar.JobLoading
	// JobRunning: the all-up synchronization completed.
	JobRunning = parpar.JobRunning
	// JobDone: every rank reported completion.
	JobDone = parpar.JobDone
	// JobKilled: the job spanned an evicted node and was terminated by
	// the recovery layer (see Recovery).
	JobKilled = parpar.JobKilled
)

// Policy selects how NIC buffer space is shared among time-sliced
// processes.
type Policy = fm.Policy

// Buffer-sharing policies.
const (
	// Partitioned statically divides the buffers among the maximum
	// number of contexts (original FM 2.0; credits fall as 1/n²).
	Partitioned = fm.Partitioned
	// Switched gives the running process the whole buffer and swaps
	// contents at gang context switches (the paper's contribution).
	Switched = fm.Switched
)

// CopyMode selects the buffer-switch algorithm.
type CopyMode = core.CopyMode

// Buffer-switch algorithms.
const (
	// FullCopy copies the entire buffer regions (≤85 ms on the paper's
	// hardware).
	FullCopy = core.FullCopy
	// ValidOnly scans for and copies only valid packets (≤12.5 ms).
	ValidOnly = core.ValidOnly
)

// Time is a point or span on the virtual clock, in CPU cycles of the
// simulated 200 MHz Pentium Pro.
type Time = sim.Time

// BandwidthResult is the measurement reported by a bandwidth job.
type BandwidthResult = workload.BandwidthResult

// PingPongResult is the measurement reported by a ping-pong job.
type PingPongResult = workload.PingPongResult

// FaultPlan is a seeded, schedulable fault plan for chaos runs; set it on
// ClusterConfig.Chaos to inject packet loss/duplication, control-network
// faults, CPU pauses/slowdowns, and backing-store corruption. The zero
// plan injects nothing.
type FaultPlan = chaos.Plan

// Fault is one schedulable fault event of a FaultPlan.
type Fault = chaos.Fault

// FaultKind enumerates the injectable fault classes.
type FaultKind = chaos.FaultKind

// Injectable fault classes.
const (
	// DataLoss drops data packets — the paper's §2.2 fragility.
	DataLoss = chaos.DataLoss
	// DataDup duplicates data packets.
	DataDup = chaos.DataDup
	// RefillLoss drops explicit credit-refill packets.
	RefillLoss = chaos.RefillLoss
	// HaltLoss drops flush-protocol halt packets (stage 1).
	HaltLoss = chaos.HaltLoss
	// ReadyLoss drops flush-protocol ready packets (stage 3).
	ReadyLoss = chaos.ReadyLoss
	// StoreCorrupt flips state in a parked job's backing store.
	StoreCorrupt = chaos.StoreCorrupt
	// CtrlLoss drops masterd/noded control messages.
	CtrlLoss = chaos.CtrlLoss
	// CtrlDelay delays masterd/noded control messages.
	CtrlDelay = chaos.CtrlDelay
	// NodePause blocks one node's host CPU for a window.
	NodePause = chaos.NodePause
	// NodeSlow steals a fraction of one node's host CPU for a window.
	NodeSlow = chaos.NodeSlow
	// NodeCrash permanently halts one node's host CPU from its From time
	// (fail-stop). The heartbeat the plan then arms (see Recovery)
	// detects and evicts the node, and the jobs spanning it are killed.
	NodeCrash = chaos.NodeCrash
)

// Violation is one invariant breach recorded by the auditor.
type Violation = chaos.Violation

// Auditor is the cluster's invariant auditor; Cluster.Auditor() returns it
// after a run for inspection (Ok, Violations, Summary).
type Auditor = chaos.Auditor

// Loss returns the classic fault plan of paper §2.2: open-ended uniform
// data-packet loss on every link, driven by seed.
func Loss(seed uint64, prob float64) FaultPlan { return chaos.Loss(seed, prob) }

// Recovery is the heartbeat budget of the self-healing switch layer:
// halt/ready retransmission on the NIC and re-sent daemon messages, with
// deadlines derived from the cluster's parameters, and the heartbeat that
// evicts failed nodes (run when the fault plan contains a NodeCrash). A
// non-empty ClusterConfig.Chaos plan arms the layer; without one nothing
// can be lost and the cluster runs the base protocol. The zero value of
// ClusterConfig.Recovery is the default budget, scaled to the quantum.
type Recovery = parpar.Recovery

// NewCluster assembles a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return parpar.New(cfg) }

// DefaultClusterConfig returns the paper's setup for the given node count:
// switched buffers with the improved copy, 4 slots, 1 s quantum.
func DefaultClusterConfig(nodes int) ClusterConfig { return parpar.DefaultConfig(nodes) }

// Clock returns the simulated 200 MHz clock, for converting Time to wall
// durations and rates.
func Clock() sim.Clock { return sim.DefaultClock }

// Bandwidth returns the paper's point-to-point bandwidth benchmark (§4.1):
// msgs messages of size bytes from rank 0 to rank 1, finish-message timed.
func Bandwidth(name string, msgs, size int) JobSpec { return workload.Bandwidth(name, msgs, size) }

// AllToAll returns the paper's all-to-all stress benchmark (§4.2).
func AllToAll(name string, ranks, perPeer, size int) JobSpec {
	return workload.AllToAll(name, ranks, perPeer, size)
}

// PingPong returns a two-rank latency benchmark.
func PingPong(name string, rounds, size int) JobSpec { return workload.PingPong(name, rounds, size) }

// ExtractBandwidth pulls the BandwidthResult out of a finished job.
func ExtractBandwidth(job *Job) (BandwidthResult, error) { return workload.ExtractBandwidth(job) }

// PackingPolicy decides where the gang matrix places a job: which node
// columns and which time slot.
type PackingPolicy = gang.Policy

// Packing policies for ClusterConfig.Packing and SchedConfig.Packing.
var (
	// PackBuddy is the DHC buddy scheme (the matrix default).
	PackBuddy PackingPolicy = gang.Buddy{}
	// PackFirstFit takes the leftmost free run in the lowest row.
	PackFirstFit PackingPolicy = gang.FirstFit{}
	// PackBestFit takes the tightest free run and unifies slots on exit.
	PackBestFit PackingPolicy = gang.BestFit{}
)

// PackingPolicies returns every built-in packing policy.
func PackingPolicies() []PackingPolicy { return gang.Policies() }

// SchedTraceJob is one arrival of a scheduler-evaluation trace.
type SchedTraceJob = schedeval.TraceJob

// SchedGenConfig parameterizes the seeded job-stream generator.
type SchedGenConfig = schedeval.GenConfig

// SchedConfig parameterizes one scheduler-evaluation run.
type SchedConfig = schedeval.Config

// SchedResult aggregates one run's per-job and whole-stream metrics.
type SchedResult = schedeval.Result

// DefaultSchedGenConfig returns the generator defaults for a machine size.
func DefaultSchedGenConfig(nodes int) SchedGenConfig { return schedeval.DefaultGenConfig(nodes) }

// GenerateSchedTrace produces a seeded, deterministic arrival stream.
func GenerateSchedTrace(cfg SchedGenConfig) ([]SchedTraceJob, error) { return schedeval.Generate(cfg) }

// DefaultSchedConfig returns the evaluation setup for a machine size (deep
// slot table, switched credits, improved copy).
func DefaultSchedConfig(nodes int) SchedConfig { return schedeval.DefaultConfig(nodes) }

// CompareSched replays the same trace across a grid of credit schemes and
// packing policies.
func CompareSched(base SchedConfig, schemes []Policy, packings []PackingPolicy) ([]*SchedResult, error) {
	return schedeval.Compare(base, schemes, packings)
}

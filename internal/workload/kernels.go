package workload

import (
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

// The kernels in this file are the parallel application models of the
// scheduler-evaluation runs (internal/schedeval): bulk-synchronous
// compute/communicate phases, stencil halo exchange on a ring, and a
// master-worker task bag. Each is parameterized by communication
// intensity (message counts and sizes versus compute cycles) and reports
// a KernelResult per rank, so the evaluator can separate compute from
// communication time.

// KernelResult is every rank's Done value in a BSP, Stencil or
// MasterWorker job: the cycles the rank spent in pure compute sections.
type KernelResult struct {
	Compute sim.Time
}

// TotalCompute sums the compute cycles reported by a finished job's ranks;
// results that are not KernelResults contribute zero.
func TotalCompute(job *parpar.Job) sim.Time {
	var total sim.Time
	for _, r := range job.Results {
		if kr, ok := r.(KernelResult); ok {
			total += kr.Compute
		}
	}
	return total
}

// exchangeProgram is the shared skeleton of the phase-structured kernels:
// every phase computes for `compute` cycles, sends `perDest` messages of
// `size` bytes to each destination (round-robin across dests), and waits
// for the phase's symmetric inbound traffic before advancing. The barrier
// is per-source cumulative — rank r expects perDest messages per phase
// from each rank that lists r as a destination, and FM delivers in order
// per source — so a neighbor running ahead can never stall or confuse it.
// Every rank has received everything addressed to it when it finishes, so
// suspending the endpoint at Done cannot wedge a peer.
func exchangeProgram(ranks, phases int, dests []int, perDest, size int, compute sim.Time) parpar.Program {
	return parpar.ProgramFunc(func(p *parpar.Proc) {
		once := &doneOnce{p: p}
		if phases <= 0 || (len(dests) == 0 && compute == 0) {
			once.done(KernelResult{})
			return
		}
		// Inbound expectation per source and phase. The communication
		// graphs here (all-pairs, symmetric ring) are undirected, so the
		// traffic rank r expects from s mirrors what r sends to s.
		expFrom := make([]int, ranks)
		for _, d := range dests {
			expFrom[d] += perDest
		}
		perPhase := perDest * len(dests)
		var (
			phase     int
			sentPhase int
			computeT  sim.Time
			computing bool
			recvFrom  = make([]int, ranks)
		)
		var startPhase func()
		var kick func()
		maybeAdvance := func() {
			for {
				if computing || sentPhase < perPhase {
					return
				}
				for src, exp := range expFrom {
					if exp > 0 && recvFrom[src] < (phase+1)*exp {
						return
					}
				}
				phase++
				sentPhase = 0
				if phase == phases {
					once.done(KernelResult{Compute: computeT})
					return
				}
				startPhase()
				if computing || perPhase > 0 {
					return
				}
				// Compute-free, communication-free phases (possible only
				// with no dests) fall through and advance again.
			}
		}
		// One compute-done callback for the whole program: phases are
		// sequential, so the same function value serves every phase
		// (allocating it inside startPhase would cost one closure per
		// phase across the entire sweep).
		phaseDone := func() {
			computing = false
			computeT += compute
			kick()
			maybeAdvance()
		}
		startPhase = func() {
			if compute == 0 {
				kick()
				return
			}
			computing = true
			p.Schedule(compute, phaseDone)
		}
		p.EP.SetHandler(func(src, _ int, _ []byte) {
			recvFrom[src]++
			maybeAdvance()
		})
		kick = pump(p, func() (int, int) {
			if computing || phase >= phases || sentPhase >= perPhase {
				return -1, 0
			}
			return dests[sentPhase%len(dests)], size
		}, func() {
			sentPhase++
			maybeAdvance()
		})
		startPhase()
	})
}

// BSP returns a bulk-synchronous job: `phases` rounds in which every rank
// computes for `compute` cycles and then exchanges `perPeer` messages of
// `size` bytes with every other rank before the (implicit, traffic-based)
// barrier releases the next round. With ranks == 1 it degenerates to a
// compute-only chain.
func BSP(name string, ranks, phases, perPeer, size int, compute sim.Time) parpar.JobSpec {
	if ranks < 1 || phases < 0 || perPeer <= 0 || size <= 0 || compute < 0 {
		panic("workload: BSP needs ranks >= 1 and positive traffic parameters")
	}
	return parpar.JobSpec{
		Name: name,
		Size: ranks,
		NewProgram: func(rank int) parpar.Program {
			var dests []int
			for i := 1; i < ranks; i++ {
				dests = append(dests, (rank+i)%ranks)
			}
			return exchangeProgram(ranks, phases, dests, perPeer, size, compute)
		},
	}
}

// Stencil returns an iterative halo-exchange job on a ring: each of the
// `iters` iterations computes for `compute` cycles and then trades one
// `halo`-byte boundary message with each ring neighbor. With two ranks
// both neighbors are the same rank (two messages per iteration); with one
// rank it degenerates to a compute-only chain.
func Stencil(name string, ranks, iters, halo int, compute sim.Time) parpar.JobSpec {
	if ranks < 1 || iters < 0 || halo <= 0 || compute < 0 {
		panic("workload: stencil needs ranks >= 1 and a positive halo size")
	}
	return parpar.JobSpec{
		Name: name,
		Size: ranks,
		NewProgram: func(rank int) parpar.Program {
			var dests []int
			if ranks > 1 {
				dests = []int{(rank + 1) % ranks, (rank - 1 + ranks) % ranks}
			}
			return exchangeProgram(ranks, iters, dests, 1, halo, compute)
		},
	}
}

// mwCtrlSize is the wire size of master-worker control messages (task
// completions and finish markers); task payloads must be larger so the
// two are distinguishable by size alone.
const mwCtrlSize = 8

// MasterWorker returns a task-bag job: rank 0 deals `tasks` tasks of
// `taskBytes` bytes to ranks 1..n-1, one outstanding task per worker; a
// worker computes for `compute` cycles per task and returns an 8-byte
// completion, upon which the master deals it the next task, or an 8-byte
// finish marker once the bag is empty. The pattern is self-throttling
// (at most one task in flight per worker) and asymmetric — the natural
// stress case for per-context credit partitioning on the master's node.
func MasterWorker(name string, ranks, tasks, taskBytes int, compute sim.Time) parpar.JobSpec {
	if ranks < 2 {
		panic("workload: master-worker needs at least one worker")
	}
	if tasks < 1 || taskBytes < 16 || compute < 0 {
		panic("workload: master-worker needs tasks >= 1 and taskBytes >= 16")
	}
	return parpar.JobSpec{
		Name: name,
		Size: ranks,
		NewProgram: func(rank int) parpar.Program {
			if rank == 0 {
				return parpar.ProgramFunc(func(p *parpar.Proc) {
					once := &doneOnce{p: p}
					type send struct{ dst, size int }
					var (
						// The master's send log has a known final length:
						// one task or finish marker per worker kick plus
						// one per completion. Sizing it up front keeps the
						// steady state append-free.
						q           = make([]send, 0, tasks+ranks-1)
						qi          int
						assigned    int
						completions int
						finishSent  int
					)
					var kick func()
					pushWork := func(w int) {
						if assigned < tasks {
							assigned++
							q = append(q, send{w, taskBytes})
						} else {
							q = append(q, send{w, mwCtrlSize})
						}
					}
					maybeDone := func() {
						if completions == tasks && finishSent == ranks-1 {
							once.done(KernelResult{})
						}
					}
					p.EP.SetHandler(func(src, size int, _ []byte) {
						if size != mwCtrlSize {
							return
						}
						completions++
						pushWork(src)
						kick()
						maybeDone()
					})
					kick = pump(p, func() (int, int) {
						if qi >= len(q) {
							return -1, 0
						}
						return q[qi].dst, q[qi].size
					}, func() {
						if q[qi].size == mwCtrlSize {
							finishSent++
						}
						qi++
						maybeDone()
					})
					for w := 1; w < ranks; w++ {
						pushWork(w)
					}
					kick()
				})
			}
			return parpar.ProgramFunc(func(p *parpar.Proc) {
				once := &doneOnce{p: p}
				var (
					pending  int
					computeT sim.Time
				)
				var kick func()
				// One task-done callback for the worker's whole life: tasks
				// are processed one at a time, so the same function value
				// serves every task.
				finishTask := func() {
					computeT += compute
					pending++
					kick()
				}
				p.EP.SetHandler(func(_, size int, _ []byte) {
					if size == mwCtrlSize {
						once.done(KernelResult{Compute: computeT})
						return
					}
					if compute == 0 {
						finishTask()
					} else {
						p.Schedule(compute, finishTask)
					}
				})
				kick = pump(p, func() (int, int) {
					if pending == 0 {
						return -1, 0
					}
					return 0, mwCtrlSize
				}, func() {
					pending--
				})
			})
		},
	}
}

// Package workload provides the benchmark applications of the paper's
// evaluation: the FM point-to-point bandwidth benchmark (§4.1) and the
// all-to-all stress benchmark used to measure context-switch overheads
// (§4.2), plus a ping-pong latency probe used by the examples.
package workload

import (
	"fmt"

	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

// pump drives an endpoint's send loop against back-pressure. next reports
// the destination and size of the next message, or dst < 0 when nothing is
// (currently) ready to send; onSent records a successful hand-off to FM.
// The loop is installed as the OnCanSend callback so it resumes whenever
// credits return, and the returned kick primes it (callers also re-kick
// after making new messages ready).
func pump(p *parpar.Proc, next func() (dst, size int), onSent func()) func() {
	var kick func()
	kick = func() {
		for {
			dst, size := next()
			if dst < 0 {
				return
			}
			if !p.EP.Send(dst, size, nil) {
				return
			}
			onSent()
		}
	}
	p.EP.SetOnCanSend(kick)
	return kick
}

// doneOnce calls Done exactly once, however often a rank's completion
// condition is met.
type doneOnce struct {
	p     *parpar.Proc
	fired bool
}

func (d *doneOnce) done(result any) {
	if !d.fired {
		d.fired = true
		d.p.Done(result)
	}
}

// BandwidthResult is reported by rank 0 of a bandwidth job.
type BandwidthResult struct {
	// Bytes is the total payload volume.
	Bytes uint64
	// Start is when the sender began, End when the finish message
	// arrived back. The span includes descheduled periods — exactly the
	// paper's methodology, which multiplies per-application bandwidth by
	// the number of applications to obtain the aggregate.
	Start, End sim.Time
}

// Elapsed returns the wall (virtual) duration of the measurement.
func (r BandwidthResult) Elapsed() sim.Time { return r.End - r.Start }

// MBs returns the achieved bandwidth in MB/s on the given clock.
func (r BandwidthResult) MBs(clock sim.Clock) float64 {
	secs := clock.ToDuration(r.Elapsed()).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Bytes) / secs / 1e6
}

// Bandwidth returns the paper's point-to-point bandwidth benchmark as a
// job spec: rank 0 sends `msgs` messages of `size` bytes to rank 1; after
// receiving them all, rank 1 sends a finish message and exits; rank 0
// times the whole exchange (paper §4.1). Rank 0's Done value is a
// BandwidthResult.
func Bandwidth(name string, msgs, size int) parpar.JobSpec {
	if msgs <= 0 || size <= 0 {
		panic("workload: bandwidth benchmark needs positive message count and size")
	}
	return parpar.JobSpec{
		Name: name,
		Size: 2,
		NewProgram: func(rank int) parpar.Program {
			if rank == 0 {
				return parpar.ProgramFunc(func(p *parpar.Proc) {
					res := BandwidthResult{Start: p.Now()}
					p.EP.SetHandler(func(_, _ int, _ []byte) {
						res.End = p.Now()
						p.Done(res)
					})
					sent := 0
					pump(p, func() (int, int) {
						if sent >= msgs {
							return -1, 0
						}
						return 1, size
					}, func() {
						sent++
						res.Bytes += uint64(size)
					})()
				})
			}
			return parpar.ProgramFunc(func(p *parpar.Proc) {
				got := 0
				p.EP.SetHandler(func(_, _ int, _ []byte) {
					got++
					if got == msgs {
						p.EP.Send(0, 16, nil)
						p.Done(got)
					}
				})
			})
		},
	}
}

// AllToAllResult is reported by every rank of an all-to-all job.
type AllToAllResult struct {
	Sent     int
	Received int
}

// AllToAll returns the paper's all-to-all stress benchmark as a job spec
// for `ranks` processes: every rank sends `perPeer` messages of `size`
// bytes to every other rank, cycling through destinations round-robin so
// the buffers are stressed uniformly. A rank finishes when it has sent
// everything and received the (ranks-1)*perPeer messages addressed to it.
func AllToAll(name string, ranks, perPeer, size int) parpar.JobSpec {
	if ranks < 2 {
		panic("workload: all-to-all needs at least two ranks")
	}
	if perPeer <= 0 || size <= 0 {
		panic("workload: all-to-all needs positive counts")
	}
	return parpar.JobSpec{
		Name: name,
		Size: ranks,
		NewProgram: func(rank int) parpar.Program {
			return parpar.ProgramFunc(func(p *parpar.Proc) {
				once := &doneOnce{p: p}
				var res AllToAllResult
				total := perPeer * (ranks - 1)
				maybeDone := func() {
					if res.Sent == total && res.Received == total {
						once.done(res)
					}
				}
				p.EP.SetHandler(func(_, _ int, _ []byte) {
					res.Received++
					maybeDone()
				})
				// Destinations rotate starting after our own rank so
				// the cluster's traffic pattern is balanced.
				pump(p, func() (int, int) {
					if res.Sent >= total {
						return -1, 0
					}
					return (rank + 1 + res.Sent%(ranks-1)) % ranks, size
				}, func() {
					res.Sent++
					maybeDone()
				})()
			})
		},
	}
}

// PingPongResult is reported by rank 0 of a ping-pong job.
type PingPongResult struct {
	Rounds int
	Start  sim.Time
	End    sim.Time
}

// RoundTrip returns the mean round-trip time in cycles.
func (r PingPongResult) RoundTrip() sim.Time {
	if r.Rounds == 0 {
		return 0
	}
	return (r.End - r.Start) / sim.Time(r.Rounds)
}

// PingPong returns a two-rank latency benchmark: `rounds` request/reply
// exchanges of `size`-byte messages. Rank 0's Done value is a
// PingPongResult.
func PingPong(name string, rounds, size int) parpar.JobSpec {
	if rounds <= 0 || size <= 0 {
		panic("workload: ping-pong needs positive rounds and size")
	}
	return parpar.JobSpec{
		Name: name,
		Size: 2,
		NewProgram: func(rank int) parpar.Program {
			if rank == 0 {
				return parpar.ProgramFunc(func(p *parpar.Proc) {
					start := p.Now()
					count := 0
					p.EP.SetHandler(func(_, _ int, _ []byte) {
						count++
						if count == rounds {
							p.Done(PingPongResult{Rounds: rounds, Start: start, End: p.Now()})
							return
						}
						p.EP.Send(1, size, nil)
					})
					p.EP.Send(1, size, nil)
				})
			}
			return parpar.ProgramFunc(func(p *parpar.Proc) {
				count := 0
				p.EP.SetHandler(func(_, _ int, _ []byte) {
					count++
					p.EP.Send(0, size, nil)
					if count == rounds {
						p.Done(count)
					}
				})
			})
		},
	}
}

// Compute returns a job whose processes compute (hold the CPU in bursts)
// for the given number of cycles without communicating, then finish. It
// models the local sequential load used in coscheduling comparisons.
func Compute(name string, ranks int, cycles sim.Time) parpar.JobSpec {
	return parpar.JobSpec{
		Name: name,
		Size: ranks,
		NewProgram: func(rank int) parpar.Program {
			return parpar.ProgramFunc(func(p *parpar.Proc) {
				p.Schedule(cycles, func() { p.Done(cycles) })
			})
		},
	}
}

// Stream is the workload of the related-work schemes (paper §5), for a
// cluster under Discard or Quiesce coordination: as soon as the job
// starts, rank 0 queues msgs maximum-size packets on its go-back-N channel
// to rank 1. The ranks never call Done; the run ends at its horizon.
func Stream(name string, msgs int) parpar.JobSpec {
	return parpar.JobSpec{
		Name: name,
		Size: 2,
		NewProgram: func(rank int) parpar.Program {
			return parpar.ProgramFunc(func(p *parpar.Proc) {
				if rank == 0 {
					p.Alt.Channel(1).Send(msgs)
				}
			})
		},
	}
}

// ExtractBandwidth pulls rank 0's BandwidthResult out of a finished job.
func ExtractBandwidth(job *parpar.Job) (BandwidthResult, error) {
	if job.State() != parpar.JobDone {
		return BandwidthResult{}, fmt.Errorf("workload: job %q not done (state %v)", job.Spec.Name, job.State())
	}
	res, ok := job.Results[0].(BandwidthResult)
	if !ok {
		return BandwidthResult{}, fmt.Errorf("workload: job %q rank 0 result is %T", job.Spec.Name, job.Results[0])
	}
	return res, nil
}

// ExtractAllToAll pulls every rank's AllToAllResult out of a finished job.
func ExtractAllToAll(job *parpar.Job) ([]AllToAllResult, error) {
	if job.State() != parpar.JobDone {
		return nil, fmt.Errorf("workload: job %q not done (state %v)", job.Spec.Name, job.State())
	}
	out := make([]AllToAllResult, 0, len(job.Results))
	for i, r := range job.Results {
		res, ok := r.(AllToAllResult)
		if !ok {
			return nil, fmt.Errorf("workload: job %q rank %d result is %T", job.Spec.Name, i, r)
		}
		out = append(out, res)
	}
	return out, nil
}

package schedd

import (
	"gangfm/internal/metrics"
	"gangfm/internal/parpar"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// outcome is one trace job's fate as the showdown scores it. Every serving
// mode records the same fields — the daemon in its task table, the
// fractional model in its own — so the three modes are scored by one
// function.
type outcome struct {
	tj       schedeval.TraceJob
	size     int     // current (at the end, final) incarnation size
	done     float64 // when it finished, was killed or was given up, cycles
	finished bool
	killed   bool // by a kill= directive
	gaveup   bool // crash-killed and abandoned: the job's terminal eviction
	resized  bool // at least one resize happened
	dlMiss   bool // finished after its deadline
	backfill bool // admitted by backfill, out of queue order
	retries  int  // crash-kill requeues
}

// retryBudget is how many times a crash-killed job is requeued before it
// is given up: RetryBudget, with zero meaning 3 and negative meaning none.
func (c Config) retryBudget() int {
	switch {
	case c.RetryBudget == 0:
		return 3
	case c.RetryBudget < 0:
		return 0
	}
	return c.RetryBudget
}

// horizon is the instant the run is cut at: Horizon, or by default the
// last arrival plus 10,000 quanta.
func (c Config) horizon() sim.Time {
	if c.Horizon != 0 {
		return c.Horizon
	}
	q := c.Quantum
	if q == 0 {
		q = 4_000_000
	}
	var last sim.Time
	for _, tj := range c.Trace {
		last = max(last, tj.Arrive)
	}
	return last + 10_000*q
}

// score computes every Result field that follows from the jobs' outcomes
// and the nodes' downtime windows (downs[i] is node i's, in eviction
// order; see parpar.Masterd.Downtime), leaving the serving mode's own
// fields to the caller. Response and slowdown are computed over finished
// jobs only; killed, given-up and censored jobs are reported in their own
// columns, not folded into the means (the censoring-transparency rule
// schedeval's summary also follows). A job still running at the horizon is
// censored, misses its deadline if the horizon passed it, and stretches the
// span to the horizon.
//
// The sums run job by job and node by node, window by window, so a
// mode's float arithmetic does not depend on anything but its outcomes:
// the daemon's integer cycle times are exact in float64, and the
// fractional model's fractional completion times are summed in the same
// order every run.
func score(cfg Config, jobs []*outcome, downs [][]parpar.DownWindow) *Result {
	r := &Result{Jobs: len(jobs), Repairs: len(cfg.Repairs)}
	horizon := cfg.horizon()
	bound := float64(cfg.SlowdownBound)
	if bound <= 0 {
		bound = 1
	}
	firstRejoin, anyRejoin := 0.0, false
	for _, ws := range downs {
		for _, w := range ws {
			if w.To != 0 && (!anyRejoin || float64(w.To) < firstRejoin) {
				firstRejoin, anyRejoin = float64(w.To), true
			}
		}
	}
	var responses, slowdowns []float64
	var usefulWork, postWork, firstArrive, lastEnd float64
	for i, j := range jobs {
		if arrive := float64(j.tj.Arrive); i == 0 || arrive < firstArrive {
			firstArrive = arrive
		}
		end, dlMiss := j.done, j.dlMiss
		switch {
		case j.finished:
			r.Finished++
			resp := j.done - float64(j.tj.Arrive)
			responses = append(responses, resp)
			tj := j.tj
			tj.Size = j.size
			nominal := float64(tj.Nominal())
			slowdowns = append(slowdowns, metrics.BoundedSlowdown(resp, nominal, bound))
			usefulWork += float64(j.size) * nominal
			if anyRejoin && j.done >= firstRejoin {
				postWork += float64(j.size) * nominal
			}
		case j.killed:
			r.Killed++
		case j.gaveup:
			r.Evicted++
			r.GaveUp++
		default:
			r.Censored++
			end = float64(horizon)
			dlMiss = j.tj.Deadline != 0 && horizon > j.tj.Deadline
		}
		lastEnd = max(lastEnd, end)
		if j.resized {
			r.Resized++
		}
		if dlMiss {
			r.DlMiss++
		}
		if j.backfill {
			r.Backfills++
		}
		if j.retries > 0 {
			r.RequeuedJobs++
			r.Requeues += j.retries
		}
	}
	r.MeanResponse = metrics.Mean(responses)
	r.MeanSlowdown = metrics.Mean(slowdowns)
	r.MaxSlowdown = metrics.Max(slowdowns)

	// Actual downtime versus the no-repair counterfactual (the node stays
	// down from its first eviction); on repair-free runs the two are equal.
	var lost, lostNoRepair float64
	for _, ws := range downs {
		if len(ws) == 0 {
			continue
		}
		r.NodesLost++
		if first := float64(ws[0].From); first < lastEnd {
			lostNoRepair += lastEnd - first
		}
		repaired := false
		for _, w := range ws {
			repaired = repaired || w.To != 0
			lost += downIn(w, 0, lastEnd)
		}
		if repaired {
			r.NodesRepaired++
		}
	}
	if span := lastEnd - firstArrive; span > 0 {
		total := float64(cfg.Nodes) * span
		r.Utilization = usefulWork / total
		r.CapacityLost = lost / total
		if surviving := total - lost; surviving > 0 {
			r.Goodput = usefulWork / surviving
		}
	}
	if lostNoRepair > 0 {
		r.CapacityRepaired = (lostNoRepair - lost) / lostNoRepair
	}
	if anyRejoin && lastEnd > firstRejoin {
		postTotal := float64(cfg.Nodes) * (lastEnd - firstRejoin)
		for _, ws := range downs {
			for _, w := range ws {
				postTotal -= downIn(w, firstRejoin, lastEnd)
			}
		}
		if postTotal > 0 {
			r.PostRepairGoodput = postWork / postTotal
		}
	}
	return r
}

// downIn is how much of [from, to) the window covers; an open window
// (the node is still down) runs through to.
func downIn(w parpar.DownWindow, from, to float64) float64 {
	lo, hi := max(float64(w.From), from), to
	if w.To != 0 && float64(w.To) < to {
		hi = float64(w.To)
	}
	return max(hi-lo, 0)
}

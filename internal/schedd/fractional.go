package schedd

import (
	"fmt"
	"sort"

	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

// Fractional runs the dynamic fractional resource-sharing mode of the
// Casanova–Stillwell–Vivien comparison, analytically: every job is
// admitted immediately onto its size's least-loaded nodes and all
// co-resident jobs processor-share each node. There is no DES under it —
// between churn events the model advances each job's remaining (nominal)
// work at a closed-form rate, so the whole run costs O(events · jobs).
//
// The rate model is honest about what this repo simulates elsewhere: with
// k co-resident jobs on a job's most-loaded node, its compute stretches
// by k (CPU processor sharing) and its communication by k² (the NIC
// buffer is split k ways, the paper's partitioned-credit argument — the
// very overhead gang scheduling's switched credits avoid). A job whose
// communication fraction is cf therefore progresses at
//
//	rate(k) = 1 / ((1-cf)·k + cf·k²)
//
// so fractional sharing looks great for compute-bound mixes and decays
// for communication-bound ones, which is exactly the trade the showdown
// is meant to expose. The run is scored by score, like the daemon's.
func Fractional(cfg Config) *Result {
	type ftask struct {
		outcome
		idx    int
		cols   []int
		rem    float64 // remaining nominal work, cycles
		cf     float64 // communication fraction of Nominal
		active bool
	}
	tasks := make([]*ftask, len(cfg.Trace))
	for i, tj := range cfg.Trace {
		tasks[i] = &ftask{idx: i, outcome: outcome{tj: tj, size: tj.Size}}
	}
	horizon := cfg.horizon()

	// The discrete churn commands, time-ordered (ties: machine events
	// first — and a crash before a repair of the same instant — then
	// trace order, then arrive < kill < resize).
	type fevent struct {
		t    sim.Time
		kind int // 0 arrive, 1 kill, 2 resize, 3 node crash, 4 node repair
		task *ftask
		node int
	}
	var events []fevent
	for _, t := range tasks {
		events = append(events, fevent{t: t.tj.Arrive, kind: 0, task: t})
		if t.tj.Kill != 0 {
			events = append(events, fevent{t: t.tj.Kill, kind: 1, task: t})
		}
		if t.tj.ResizeTo != 0 {
			events = append(events, fevent{t: t.tj.ResizeAt, kind: 2, task: t})
		}
	}
	for _, cr := range cfg.Crashes {
		events = append(events, fevent{t: cr.At, kind: 3, task: nil, node: cr.Node})
	}
	for _, rp := range cfg.Repairs {
		events = append(events, fevent{t: rp.At, kind: 4, task: nil, node: rp.Node})
	}
	eventIdx := func(e fevent) int {
		if e.task == nil {
			return -1 // machine events order before any job's
		}
		return e.task.idx
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		if ai, bi := eventIdx(events[a]), eventIdx(events[b]); ai != bi {
			return ai < bi
		}
		return events[a].kind < events[b].kind
	})

	log := NewLog()
	load := make([]int, cfg.Nodes) // co-resident jobs per node

	// Failure state: dead nodes leave the placement pool until (and
	// unless) a repair brings them back. Each node's downtime windows are
	// the masterd's type, and score reads them for every mode, so the
	// showdown's availability accounting is one piece of code, not two
	// kept in step.
	deadNode := make([]bool, cfg.Nodes)
	downs := make([][]parpar.DownWindow, cfg.Nodes)
	live := cfg.Nodes
	budget := cfg.retryBudget()

	// place puts a task on its size's least-loaded live nodes (ties:
	// lowest node id — deterministic) and starts its work clock.
	nodeOrder := make([]int, 0, cfg.Nodes)
	place := func(t *ftask, now float64) {
		nodeOrder = nodeOrder[:0]
		for i := 0; i < cfg.Nodes; i++ {
			if !deadNode[i] {
				nodeOrder = append(nodeOrder, i)
			}
		}
		sort.SliceStable(nodeOrder, func(a, b int) bool {
			return load[nodeOrder[a]] < load[nodeOrder[b]]
		})
		t.cols = append([]int(nil), nodeOrder[:t.size]...)
		sort.Ints(t.cols)
		for _, c := range t.cols {
			load[c]++
		}
		tj := t.tj
		tj.Size = t.size
		_, comm := tj.NominalParts()
		nominal := tj.Nominal()
		t.rem = float64(nominal)
		t.cf = 0
		if nominal > 0 {
			t.cf = float64(comm) / float64(nominal)
		}
		t.active = true
		log.Add(sim.Time(now), VerbPlace, "job=%d size=%d col0=%d", t.idx, t.size, t.cols[0])
	}
	unplace := func(t *ftask) {
		for _, c := range t.cols {
			load[c]--
		}
		t.cols = nil
		t.active = false
	}
	rate := func(t *ftask) float64 {
		k := 1
		for _, c := range t.cols {
			if load[c] > k {
				k = load[c]
			}
		}
		fk := float64(k)
		return 1 / ((1-t.cf)*fk + t.cf*fk*fk)
	}

	// advanceTo drains analytic completions up to the target time, then
	// advances every survivor's remaining work to the target.
	now := float64(0)
	var advanceTo func(target float64)
	advanceTo = func(target float64) {
		for {
			// Earliest completion at or before the target; ties keep the
			// lowest trace index (scan order), for determinism.
			var next *ftask
			nextAt := target
			for _, t := range tasks {
				if !t.active {
					continue
				}
				if at := now + t.rem/rate(t); at <= nextAt && (next == nil || at < nextAt) {
					next, nextAt = t, at
				}
			}
			if next == nil {
				now = target
				return
			}
			// Advance everyone to the completion instant, retire the
			// finisher, recompute rates (loads changed), repeat.
			dt := nextAt - now
			for _, t := range tasks {
				if t.active {
					t.rem -= dt * rate(t)
				}
			}
			now = nextAt
			next.rem = 0
			next.finished = true
			next.done = now
			unplace(next)
			if next.tj.Deadline != 0 && now > float64(next.tj.Deadline) {
				next.dlMiss = true
				log.Add(sim.Time(now), VerbDone, "job=%d deadline_miss=true", next.idx)
			} else {
				log.Add(sim.Time(now), VerbDone, "job=%d", next.idx)
			}
		}
	}

	// giveUp retires a task the model abandons, mirroring the daemon's
	// explicit gaveup reporting.
	giveUp := func(t *ftask, at sim.Time, detail string) {
		t.gaveup = true
		t.done = float64(at)
		log.Add(at, VerbGaveup, "job=%d %s", t.idx, detail)
	}

	for _, ev := range events {
		if sim.Time(ev.t) > horizon {
			break
		}
		advanceTo(float64(ev.t))
		t := ev.task
		switch ev.kind {
		case 0:
			log.Add(ev.t, VerbSubmit, "job=%d size=%d", t.idx, t.size)
			if t.size > live {
				giveUp(t, ev.t, fmt.Sprintf("reason=capacity size=%d live=%d", t.size, live))
				break
			}
			place(t, float64(ev.t))
		case 1:
			if t.finished || t.killed || t.gaveup {
				log.Add(ev.t, VerbKillLate, "job=%d", t.idx)
				break
			}
			unplace(t)
			t.killed = true
			t.done = float64(ev.t)
			log.Add(ev.t, VerbKill, "job=%d", t.idx)
		case 2:
			if t.finished || t.killed || t.gaveup {
				log.Add(ev.t, VerbResizeLate, "job=%d", t.idx)
				break
			}
			// Restart at the new size, like the gang daemon's rigid
			// incarnations: remaining work resets to the new nominal.
			unplace(t)
			t.size = t.tj.ResizeTo
			t.resized = true
			log.Add(ev.t, VerbResize, "job=%d to=%d", t.idx, t.size)
			if t.size > live {
				giveUp(t, ev.t, fmt.Sprintf("reason=capacity size=%d live=%d", t.size, live))
				break
			}
			place(t, float64(ev.t))
		case 3:
			if deadNode[ev.node] {
				break
			}
			deadNode[ev.node] = true
			downs[ev.node] = append(downs[ev.node], parpar.DownWindow{From: ev.t})
			live--
			log.Add(ev.t, VerbNodeDead, "node=%d live=%d", ev.node, live)
			// Fractional sharing pays realistic failure costs too: jobs on
			// the dead node lose their work and restart on the survivors
			// (the PS pool admits immediately, so there is no backoff gap),
			// under the same retry budget as the gang daemon.
			for _, ft := range tasks {
				if !ft.active {
					continue
				}
				hit := false
				for _, c := range ft.cols {
					if c == ev.node {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				unplace(ft)
				log.Add(ev.t, VerbEvicted, "job=%d", ft.idx)
				switch {
				case ft.retries >= budget:
					giveUp(ft, ev.t, fmt.Sprintf("reason=budget retries=%d", ft.retries))
				case ft.size > live:
					giveUp(ft, ev.t, fmt.Sprintf("reason=capacity size=%d live=%d", ft.size, live))
				default:
					ft.retries++
					log.Add(ev.t, VerbRequeue, "job=%d retry=%d delay=0", ft.idx, ft.retries)
					place(ft, float64(ev.t))
				}
			}
		case 4:
			if !deadNode[ev.node] {
				break
			}
			// A repaired node returns to the placement pool: new arrivals
			// and crash-restarts spread onto it from now on (jobs in
			// flight keep their columns — the PS pool never migrates).
			// Jobs already given up stay given up, like the daemon's.
			deadNode[ev.node] = false
			w := downs[ev.node]
			w[len(w)-1].To = ev.t
			live++
			log.Add(ev.t, VerbNodeRepair, "node=%d live=%d", ev.node, live)
		}
	}
	advanceTo(float64(horizon))

	jobs := make([]*outcome, len(tasks))
	for i, t := range tasks {
		jobs[i] = &t.outcome
	}
	r := score(cfg, jobs, downs)
	r.Mode = "fractional"
	r.Log = log
	downNow := 0
	for _, dead := range deadNode {
		if dead {
			downNow++
		}
	}
	log.Add(horizon, VerbHorizon, "censored=%d cache_ok=true nodes_evicted=%d", r.Censored, downNow)
	return r
}

package chaos

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

// Violation is one invariant breach, timestamped in virtual time.
type Violation struct {
	Time sim.Time
	// Invariant names the broken property ("credit-conservation",
	// "flush-order", "store-integrity", "gang-exclusivity", ...).
	Invariant string
	// Detail describes the concrete breach.
	Detail string
}

// String formats the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%12d %s: %s", v.Time, v.Invariant, v.Detail)
}

// Check is a registered periodic audit: it inspects live state and reports
// breaches through report. Checks must be read-only — they run interleaved
// with the protocol at quantum boundaries.
type Check func(now sim.Time, report func(invariant, detail string))

// violationCap bounds the violation list Violations returns; a systemic
// breach repeats every audit tick and the first occurrences carry the
// signal.
const violationCap = 200

// Auditor is the central invariant registry: it subscribes to the
// network's event list (see Observe), where the stack's node-side checks
// report violations and every packet death is posted, and registered
// checks run periodically (the cluster schedules them every quantum).
// Every report carries the replay seed so a failure message alone
// suffices to reproduce the run.
//
// The auditor also keeps the credit ledger: the flow-control credits the
// network destroys. FM has no retransmission: when a Data packet is lost,
// one credit of the src→dst pool and its piggybacked refill (Credits of
// the dst→src pool) vanish; a lost Refill destroys its carried credits.
// The ledger gives the credit-conservation check the ground truth to
// distinguish a loss-induced stall (a violation of FM's reliable-SAN
// assumption) from a legitimately exhausted window.
type Auditor struct {
	eng  *sim.Engine
	seed uint64

	checks    []Check
	found     map[string]*found
	nextSeq   map[int]uint64
	destroyed map[myrinet.JobID]int
	drops     map[myrinet.JobID]int

	// reportFn is the bound Report method, built once: RunChecks runs every
	// quantum, and evaluating the method value there would allocate a
	// closure per check per tick.
	reportFn func(invariant, detail string)
}

// found is one distinct violation with its canonical position: time,
// source (a node, or -1 for the auditor's own checks), and the source's
// report count. Each source reports in a fixed order, so the position
// does not depend on how same-instant events of different sources are
// ordered.
type found struct {
	v   Violation
	src int
	seq uint64
}

func (f *found) compare(g *found) int {
	return cmp.Or(cmp.Compare(f.v.Time, g.v.Time), cmp.Compare(f.src, g.src), cmp.Compare(f.seq, g.seq))
}

// NewAuditor builds an auditor; seed is the value needed to replay the run
// (the fault plan's seed, or the cluster seed when no plan is installed).
// eng is the engine whose clock stamps the periodic checks and Report.
func NewAuditor(eng *sim.Engine, seed uint64) *Auditor {
	a := &Auditor{eng: eng, seed: seed, found: make(map[string]*found), nextSeq: make(map[int]uint64),
		destroyed: make(map[myrinet.JobID]int), drops: make(map[myrinet.JobID]int)}
	a.reportFn = a.Report
	return a
}

// Register adds a periodic check.
func (a *Auditor) Register(c Check) { a.checks = append(a.checks, c) }

// RunChecks runs every registered check once, at the current time.
func (a *Auditor) RunChecks() {
	now := a.eng.Now()
	for _, c := range a.checks {
		c(now, a.reportFn)
	}
}

// Report records a violation found by the auditor's own checks.
func (a *Auditor) Report(invariant, detail string) {
	a.report(-1, a.eng.Now(), invariant, detail)
}

// Observe is the auditor's subscription to the network's event list. A
// Violation is recorded under its node and time; a Drop of a Data or
// Refill packet goes to the credit ledger (control packets carry no
// credits). Every other kind is ignored.
func (a *Auditor) Observe(e myrinet.Event) {
	switch e.Kind {
	case myrinet.Violation:
		a.report(int(e.Node), e.Time, e.Invariant, e.Detail)
	case myrinet.Drop:
		credits := e.Pkt.Credits
		switch e.Pkt.Type {
		case myrinet.Data:
			credits++
		case myrinet.Refill:
		default:
			return
		}
		a.destroyed[e.Pkt.Job] += credits
		a.drops[e.Pkt.Job]++
	}
}

// report records a violation. Duplicate (invariant, detail) pairs are
// collapsed to the canonically earliest: a wedged invariant re-reports
// identically every audit tick.
func (a *Auditor) report(src int, now sim.Time, invariant, detail string) {
	f := &found{v: Violation{Time: now, Invariant: invariant, Detail: detail}, src: src, seq: a.nextSeq[src]}
	a.nextSeq[src]++
	key := invariant + "\x00" + detail
	if old, dup := a.found[key]; dup {
		if f.compare(old) < 0 {
			*old = *f
		}
		return
	}
	a.found[key] = f
}

// Ok reports whether no violation has been recorded.
func (a *Auditor) Ok() bool { return a.Count() == 0 }

// Count returns how many distinct violations have been recorded (not
// capped, unlike Violations).
func (a *Auditor) Count() int { return len(a.found) }

// Violations returns the recorded violations in canonical order (time,
// source, per-source order), at most violationCap of them.
func (a *Auditor) Violations() []Violation {
	all := make([]*found, 0, len(a.found))
	for _, f := range a.found {
		all = append(all, f)
	}
	slices.SortFunc(all, (*found).compare)
	out := make([]Violation, min(len(all), violationCap))
	for i := range out {
		out[i] = all[i].v
	}
	return out
}

// Summary formats the verdict with the replay seed — the line a failing
// fuzz run prints.
func (a *Auditor) Summary() string {
	vs := a.Violations()
	dropped := a.Count() - len(vs)
	if len(vs) == 0 {
		return fmt.Sprintf("ok: no invariant violations (seed %d)", a.seed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s) — replay with seed %d:", len(vs), a.seed)
	for _, v := range vs {
		b.WriteString("\n  " + v.String())
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "\n  ... %d further distinct violations suppressed", dropped)
	}
	return b.String()
}

// Destroyed returns how many credits the job has irrecoverably lost.
func (a *Auditor) Destroyed(job myrinet.JobID) int { return a.destroyed[job] }

// Drops returns how many of the job's Data and Refill packets were
// dropped.
func (a *Auditor) Drops(job myrinet.JobID) int { return a.drops[job] }

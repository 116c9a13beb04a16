package chaos

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

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

// Auditor is the central invariant registry: hook points all over the
// stack report violations here, and registered checks run periodically
// (the cluster schedules them every quantum). Every report carries the
// replay seed so a failure message alone suffices to reproduce the run.
type Auditor struct {
	eng  *sim.Engine
	seed uint64

	// mu guards the report state: node-side hooks (see Reporter) fire from
	// concurrent shard workers when the cluster runs on a shard group,
	// while the periodic checks run on the group's global lane.
	mu       sync.Mutex
	failFast bool
	checks   []Check
	found    map[string]*found
	nextSeq  map[int]uint64
	stopped  bool

	// reportFn is the bound Report method, built once: RunChecks runs every
	// quantum, and evaluating the method value there would allocate a
	// closure per check per tick.
	reportFn func(invariant, detail string)
}

// found is one distinct violation with its canonical position: reporting
// lane's time, source (a node, or -1 for the auditor's own lane), and the
// source's report count. Each source reports in a fixed order on one lane,
// so the position does not depend on how lanes interleave.
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
// eng is the lane the periodic checks and Report run on.
func NewAuditor(eng *sim.Engine, seed uint64) *Auditor {
	a := &Auditor{eng: eng, seed: seed, found: make(map[string]*found), nextSeq: make(map[int]uint64)}
	a.reportFn = a.Report
	return a
}

// Seed returns the replay seed.
func (a *Auditor) Seed() uint64 { return a.seed }

// SetFailFast makes the first violation stop the simulation engine, so
// the event queue freezes at the instant of the breach for inspection.
func (a *Auditor) SetFailFast(on bool) { a.failFast = on }

// Register adds a periodic check.
func (a *Auditor) Register(c Check) { a.checks = append(a.checks, c) }

// RunChecks runs every registered check once, at the current time.
func (a *Auditor) RunChecks() {
	now := a.eng.Now()
	for _, c := range a.checks {
		c(now, a.reportFn)
	}
}

// Report records a violation found on the auditor's own lane.
func (a *Auditor) Report(invariant, detail string) {
	a.report(-1, a.eng.Now(), invariant, detail)
}

// Reporter returns the report hook for one node's stack, stamping each
// violation with the clock of eng, the lane that owns the node.
func (a *Auditor) Reporter(node int, eng *sim.Engine) func(invariant, detail string) {
	return func(invariant, detail string) { a.report(node, eng.Now(), invariant, detail) }
}

// report records a violation. Duplicate (invariant, detail) pairs are
// collapsed to the canonically earliest: a wedged invariant re-reports
// identically every audit tick.
func (a *Auditor) report(src int, now sim.Time, invariant, detail string) {
	a.mu.Lock()
	defer a.mu.Unlock()
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
	if a.failFast && !a.stopped {
		a.stopped = true
		a.eng.Stop()
	}
}

// Ok reports whether no violation has been recorded.
func (a *Auditor) Ok() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.found) == 0
}

// Violations returns the recorded violations in canonical order (time,
// source, per-source order), at most violationCap of them.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
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
	a.mu.Lock()
	dropped := len(a.found) - len(vs)
	a.mu.Unlock()
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

// CreditLedger tracks the flow-control credits the network destroys. FM
// has no retransmission: when a Data packet is lost, one credit of the
// src→dst pool and its piggybacked refill (Credits of the dst→src pool)
// vanish; a lost Refill destroys its carried credits. The ledger gives
// the credit-conservation auditor the ground truth to distinguish a
// loss-induced stall (a violation of FM's reliable-SAN assumption) from a
// legitimately exhausted window.
type CreditLedger struct {
	// mu guards the maps: drop hooks fire from whichever shard worker owns
	// the dropping node when the cluster runs on a shard group.
	mu        sync.Mutex
	destroyed map[myrinet.JobID]int
	drops     map[myrinet.JobID]int
}

// NewCreditLedger builds an empty ledger.
func NewCreditLedger() *CreditLedger {
	return &CreditLedger{
		destroyed: make(map[myrinet.JobID]int),
		drops:     make(map[myrinet.JobID]int),
	}
}

// RecordDrop accounts one dropped packet (network loss or card-level
// discard). Control packets carry no credits and are ignored.
func (l *CreditLedger) RecordDrop(p *myrinet.Packet) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch p.Type {
	case myrinet.Data:
		l.destroyed[p.Job] += 1 + p.Credits
		l.drops[p.Job]++
	case myrinet.Refill:
		l.destroyed[p.Job] += p.Credits
		l.drops[p.Job]++
	}
}

// Destroyed returns how many credits the job has irrecoverably lost.
func (l *CreditLedger) Destroyed(job myrinet.JobID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.destroyed[job]
}

// Drops returns how many of the job's packets were dropped.
func (l *CreditLedger) Drops(job myrinet.JobID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops[job]
}

package schedd

import (
	"fmt"
	"strconv"
	"strings"

	"gangfm/internal/metrics"
	"gangfm/internal/sim"
)

// Verb labels one kind of scheduling decision. The order of this list is
// the order of the stats table, so it is part of the golden output.
type Verb int

const (
	VerbSubmit Verb = iota
	VerbPlace
	VerbBackfill
	VerbQueue
	VerbPrune
	VerbKill
	VerbKillLate
	VerbResize
	VerbResizeLate
	VerbCompact
	VerbDone
	VerbEvicted
	VerbRequeue
	VerbGaveup
	VerbNodeDead
	VerbNodeRepair
	VerbCacheBad
	VerbHorizon
	verbCount
)

var verbNames = [...]string{
	"submit", "place", "backfill", "queue", "prune", "kill", "kill-late",
	"resize", "resize-late", "compact", "done", "evicted", "requeue", "gaveup",
	"node-dead", "node-repair", "cache-bad", "horizon",
}

// failureVerb reports whether v only ever appears in failure-injected runs.
// StatsTable hides these rows when every run's count is zero, so clean-path
// decision tables render byte-identically to the pre-failure-aware layout.
func failureVerb(v Verb) bool {
	return v == VerbRequeue || v == VerbGaveup || v == VerbNodeDead || v == VerbNodeRepair
}

// String returns the verb's log name.
func (v Verb) String() string {
	if v < 0 || int(v) >= len(verbNames) {
		return fmt.Sprintf("verb(%d)", int(v))
	}
	return verbNames[v]
}

// Log is the daemon's append-only decision log. Every entry is stamped
// with the DES time at which the decision was made, so the rendered log
// is byte-identical for a given seed.
type Log struct {
	lines  []string
	counts [verbCount]int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Add appends one decision line: "t=<cycles> <verb> <details>".
func (l *Log) Add(t sim.Time, v Verb, format string, args ...any) {
	l.counts[v]++
	l.lines = append(l.lines, fmt.Sprintf("t=%d %s %s", uint64(t), v, fmt.Sprintf(format, args...)))
}

// Len returns the number of entries.
func (l *Log) Len() int { return len(l.lines) }

// Count returns how many entries carry the verb.
func (l *Log) Count(v Verb) int {
	if v < 0 || v >= verbCount {
		return 0
	}
	return l.counts[v]
}

// Lines returns the log lines in append order.
func (l *Log) Lines() []string { return l.lines }

// String renders the full log, one line per decision.
func (l *Log) String() string {
	var sb strings.Builder
	for _, line := range l.lines {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Sum adds up the integer values of key=N fields across the verb's lines
// (e.g. Sum(VerbCompact, "moved") = total jobs migrated by compaction).
func (l *Log) Sum(v Verb, key string) int {
	prefix := key + "="
	want := " " + v.String() + " "
	total := 0
	for _, line := range l.lines {
		if !strings.Contains(line, want) {
			continue
		}
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, prefix) {
				if n, err := strconv.Atoi(f[len(prefix):]); err == nil {
					total += n
				}
			}
		}
	}
	return total
}

// StatsTable renders per-verb decision counts for a set of runs, one
// column per mode — the decision-log half of the churn report.
func StatsTable(rs []*Result) *metrics.Table {
	cols := []string{"decision"}
	for _, r := range rs {
		cols = append(cols, r.Mode)
	}
	t := metrics.NewTable("Decision-log statistics", cols...)
	for v := Verb(0); v < verbCount; v++ {
		if failureVerb(v) {
			seen := false
			for _, r := range rs {
				if r.Log != nil && r.Log.Count(v) > 0 {
					seen = true
					break
				}
			}
			if !seen {
				continue
			}
		}
		row := []any{v.String()}
		for _, r := range rs {
			if r.Log == nil {
				row = append(row, 0)
				continue
			}
			row = append(row, r.Log.Count(v))
		}
		t.AddRow(row...)
	}
	return t
}

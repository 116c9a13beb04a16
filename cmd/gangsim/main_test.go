package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gangfm/internal/experiments"
)

// TestFuzzSubcommandSmoke: a tiny campaign runs end to end, prints one
// verdict per run and the replay hint.
func TestFuzzSubcommandSmoke(t *testing.T) {
	var out strings.Builder
	if code := runFuzz([]string{"-seed", "1", "-runs", "5", "-shrink=false"}, &out, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	s := out.String()
	if strings.Count(s, "seed ") < 5 {
		t.Fatalf("expected 5 verdict lines:\n%s", s)
	}
	if !strings.Contains(s, "replay any with") {
		t.Fatalf("missing replay hint:\n%s", s)
	}
}

// TestFuzzSubcommandReplayIsIdentical: the acceptance contract — the same
// seed reproduces byte-identical output, injection traces included.
func TestFuzzSubcommandReplayIsIdentical(t *testing.T) {
	run := func() string {
		var out strings.Builder
		if code := runFuzz([]string{"-seed", "7", "-runs", "3", "-trace"}, &out, &out); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		return out.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different output:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestFuzzCompareSmoke: the differential known-answer check prints the FM
// stall and the go-back-N recovery, to the last count. The alternative's
// one job is rescheduled at every rotation, so this pins the discard
// scheme's same-job switch.
func TestFuzzCompareSmoke(t *testing.T) {
	var out strings.Builder
	if code := runFuzz([]string{"-compare", "-seed", "77", "-prob", "0.2"}, &out, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	want := `differential loss check, seed 77, p=0.200 (paper §2.2):
FM (no retransmission): 12 credits destroyed, stalled=true, 2 violation(s)
go-back-N alternative:  300 delivered via 2564 retransmissions over 583 drops, recovered=true
`
	if got := out.String(); got != want {
		t.Fatalf("differential verdict changed:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestFuzzBadFlag: unknown flags, a campaign of fewer than one run, an
// out-of-range loss probability and a stray positional argument exit with
// a usage error on the diagnostics writer, not a panic and not a silent
// one-run campaign.
func TestFuzzBadFlag(t *testing.T) {
	checkBadFlags(t, runFuzz, []badFlags{
		{[]string{"-nope"}, "flag provided but not defined: -nope"},
		{[]string{"-runs", "0"}, "gangsim fuzz: -runs 0 must be at least 1"},
		{[]string{"-runs", "-1"}, "gangsim fuzz: -runs -1 must be at least 1"},
		{[]string{"-recovery", "-runs", "0"}, "gangsim fuzz: -runs 0 must be at least 1"},
		{[]string{"-compare", "-prob", "1.5"}, "gangsim fuzz: -prob 1.5 outside [0,1]"},
		{[]string{"-runs", "3", "stray"}, `gangsim fuzz: unexpected argument "stray"`},
	})
}

// badFlags is one usage-error case: the arguments and a line the
// subcommand must write to its diagnostics writer.
type badFlags struct {
	args []string
	want string
}

// checkBadFlags runs each case through run and demands exit 2, the
// expected message on the diagnostics writer and nothing on the results
// writer.
func checkBadFlags(t *testing.T, run func(args []string, out, diag io.Writer) int, cases []badFlags) {
	t.Helper()
	for _, c := range cases {
		var out, diag strings.Builder
		if code := run(c.args, &out, &diag); code != 2 {
			t.Fatalf("exit %d for %v, want 2:\n%s", code, c.args, diag.String())
		}
		if !strings.Contains(diag.String(), c.want) {
			t.Fatalf("diagnostics for %v lack %q:\n%s", c.args, c.want, diag.String())
		}
		if out.Len() != 0 {
			t.Fatalf("usage error %v wrote to the results writer:\n%s", c.args, out.String())
		}
	}
}

// TestFigureSubcommandsPrintGoldens: the figure subcommands reach the
// experiments with the global flags applied. Each -quick figure prints its
// quick golden followed by a blank line (fig5 and fig6 then add one note
// line), byte-identical at -par 1 and -par 2, and the wall-clock line goes
// only to the diagnostics writer.
func TestFigureSubcommandsPrintGoldens(t *testing.T) {
	notes := map[string]string{
		"fig5": "(zero rows are the credit cliff: C0 = Br/(n^2 p) hits 0 at 7-8 contexts)\n",
		"fig6": "(aggregate = mean per-job bandwidth x #jobs; flat rows are the paper's claim)\n",
	}
	for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "overhead", "credits", "schemes", "dyncos"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []string{"1", "2"} {
			var out, diag strings.Builder
			if code := runFigures([]string{"-quick", "-par", par, name}, &out, &diag); code != 0 {
				t.Fatalf("%s -par %s: exit %d:\n%s", name, par, code, diag.String())
			}
			if got := out.String(); got != string(want)+"\n"+notes[name] {
				t.Fatalf("%s -par %s diverged from its golden:\n--- want ---\n%s\n%s--- got ---\n%s",
					name, par, want, notes[name], got)
			}
			if !strings.HasPrefix(diag.String(), "["+name+" completed in ") {
				t.Fatalf("%s -par %s: diagnostics %q", name, par, diag.String())
			}
		}
	}
}

// TestFiguresBadArgs: a figure run needs exactly one known experiment and
// known flags; anything else exits 2 with the usage on the diagnostics
// writer.
func TestFiguresBadArgs(t *testing.T) {
	checkBadFlags(t, runFigures, []badFlags{
		{[]string{"-nope", "credits"}, "flag provided but not defined: -nope"},
		{[]string{"-quick"}, "usage: gangsim"},
		{[]string{"credits", "fig5"}, "usage: gangsim"},
		{[]string{"figg5"}, `gangsim: unknown subcommand "figg5"`},
	})
}

// TestExperimentSmoke: the cheapest experiment command still renders its
// table (the figure regenerators have their own deep tests; this pins the
// CLI wiring).
func TestExperimentSmoke(t *testing.T) {
	table := experiments.CreditsTable(experiments.Credits()).String()
	if !strings.Contains(table, "C0") {
		t.Fatalf("credits table did not render:\n%s", table)
	}
}

// TestUnknownSubcommand: an unrecognized name exits 2 and prints the
// sorted listing with every dispatchable subcommand and a description.
func TestUnknownSubcommand(t *testing.T) {
	var out strings.Builder
	if code := unknownSubcommand(&out, "figg5"); code != 2 {
		t.Fatalf("exit %d for unknown subcommand, want 2", code)
	}
	s := out.String()
	if !strings.Contains(s, `unknown subcommand "figg5"`) {
		t.Fatalf("missing error line:\n%s", s)
	}
	for _, sc := range subcommands {
		if !strings.Contains(s, sc.name) || !strings.Contains(s, sc.desc) {
			t.Fatalf("listing missing %q:\n%s", sc.name, s)
		}
	}
	// Sorted: each registered name appears after its predecessor.
	last := -1
	for _, sc := range subcommands {
		i := strings.Index(s, "\n  "+sc.name)
		if i < 0 {
			t.Fatalf("listing entry for %q not at line start:\n%s", sc.name, s)
		}
		if i < last {
			t.Fatalf("listing not sorted at %q:\n%s", sc.name, s)
		}
		last = i
	}
}

// TestSchedSubcommandSmoke: the scheduler evaluation runs end to end in
// quick mode and prints one summary row per (packing, scheme) pair.
func TestSchedSubcommandSmoke(t *testing.T) {
	var out strings.Builder
	if code := runSched([]string{"-quick"}, &out, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"first-fit", "buddy", "best-fit", "partitioned", "switched", "mean_bsld"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestSchedSubcommandDeterministic: the acceptance contract — the same
// seed produces byte-identical tables.
func TestSchedSubcommandDeterministic(t *testing.T) {
	run := func() string {
		var out strings.Builder
		if code := runSched([]string{"-quick", "-seed", "7", "-per-job"}, &out, &out); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		return out.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different output:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestChurnSubcommandSmoke: the online-scheduling showdown runs end to
// end in quick mode and prints the three-mode grid plus decision stats.
func TestChurnSubcommandSmoke(t *testing.T) {
	var out strings.Builder
	if code := runChurn([]string{"-quick"}, &out, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"gang", "batch", "fractional", "mean_bsld", "util",
		"Decision-log statistics", "backfill", "compact"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestChurnSubcommandDeterministic: the acceptance contract — the same
// seed produces byte-identical grids and decision logs.
func TestChurnSubcommandDeterministic(t *testing.T) {
	run := func() string {
		var out strings.Builder
		if code := runChurn([]string{"-quick", "-seed", "11", "-log"}, &out, &out); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		return out.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different output:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestChurnProfileFlags: the profiling flags reach a subcommand that owns
// its flag set. Both profiles are written and non-empty, and the output
// is byte-identical to a run without them.
func TestChurnProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	run := func(args ...string) string {
		var out strings.Builder
		if code := runChurn(append([]string{"-quick"}, args...), &out, &out); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		return out.String()
	}
	plain := run()
	if profiled := run("-cpuprofile", cpu, "-memprofile", mem); profiled != plain {
		t.Fatalf("profiling changed the output:\n--- plain ---\n%s\n--- profiled ---\n%s", plain, profiled)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", filepath.Base(path))
		}
	}
}

// TestChurnTraceRoundTrip: -dump-trace writes a replayable trace — the
// churn directives survive the text format and the replay reproduces the
// generated run byte for byte.
func TestChurnTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/churn.trace"
	var a, b strings.Builder
	if code := runChurn([]string{"-quick", "-seed", "11", "-dump-trace", path}, &a, &a); code != 0 {
		t.Fatalf("exit %d:\n%s", code, a.String())
	}
	if code := runChurn([]string{"-trace", path}, &b, &b); code != 0 {
		t.Fatalf("exit %d:\n%s", code, b.String())
	}
	if a.String() != b.String() {
		t.Fatalf("trace replay diverged:\n--- generated ---\n%s\n--- replayed ---\n%s",
			a.String(), b.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(data); !strings.Contains(s, "kill=") || !strings.Contains(s, "resize=") {
		t.Fatalf("dumped trace lacks churn directives:\n%s", s)
	}
}

// TestChurnBadFlags: unknown policies, flags, out-of-range failure knobs
// and positional arguments exit with a usage error, not a panic and not a
// silent clamp.
func TestChurnBadFlags(t *testing.T) {
	checkBadFlags(t, runChurn, []badFlags{
		{[]string{"-nope"}, "flag provided but not defined: -nope"},
		{[]string{"-policy", "warp"}, `gangsim churn: unknown packing policy "warp"`},
		{[]string{"-crash", "-0.1"}, "gangsim churn: -crash -0.1 outside [0,1]"},
		{[]string{"-crash", "1.5"}, "gangsim churn: -crash 1.5 outside [0,1]"},
		{[]string{"-crash", "0.5", "-repair", "-0.1"}, "gangsim churn: -repair -0.1 outside [0,1]"},
		{[]string{"-crash", "0.5", "-repair", "2"}, "gangsim churn: -repair 2 outside [0,1]"},
		{[]string{"-crash", "0.5", "-repair", "0.5", "-mttr", "-1"}, "gangsim churn: -mttr -1 must be non-negative"},
		// A repair probability with no -crash has nothing to repair — the
		// sampler repairs only sampled crashes, even when a trace file
		// carries its own — and -mttr without -repair times nothing:
		// reject both rather than no-op.
		{[]string{"-repair", "0.5"}, "gangsim churn: -repair without -crash has nothing to repair"},
		{[]string{"-trace", "t.trace", "-repair", "0.9"}, "gangsim churn: -repair without -crash has nothing to repair"},
		{[]string{"-mttr", "1000"}, "gangsim churn: -mttr without -repair has no repair to time"},
		{[]string{"-crash", "0.5", "-mttr", "1000"}, "gangsim churn: -mttr without -repair has no repair to time"},
		// Positional arguments: churn takes none.
		{[]string{"-quick", "stray"}, `gangsim churn: unexpected argument "stray"`},
		{[]string{"stray"}, `gangsim churn: unexpected argument "stray"`},
	})
}

// TestSchedBadFlags: unknown policies, schemes and flags, and positional
// arguments, exit with a usage error, not a panic.
func TestSchedBadFlags(t *testing.T) {
	checkBadFlags(t, runSched, []badFlags{
		{[]string{"-nope"}, "flag provided but not defined: -nope"},
		{[]string{"-policy", "warp"}, `gangsim sched: unknown packing policy "warp"`},
		{[]string{"-scheme", "quantum"}, `gangsim sched: unknown credit scheme "quantum"`},
		{[]string{"-quick", "stray"}, `gangsim sched: unexpected argument "stray"`},
	})
}

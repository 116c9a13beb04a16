package main

import (
	"os"
	"strings"
	"testing"

	"gangfm/internal/experiments"
)

// TestFuzzSubcommandSmoke: a tiny campaign runs end to end, prints one
// verdict per run and the replay hint.
func TestFuzzSubcommandSmoke(t *testing.T) {
	var out strings.Builder
	if code := runFuzz([]string{"-seed", "1", "-runs", "5", "-shrink=false"}, &out); code != 0 {
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
		if code := runFuzz([]string{"-seed", "7", "-runs", "3", "-trace"}, &out); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		return out.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different output:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestFuzzCompareSmoke: the differential known-answer check prints the FM
// stall and the go-back-N recovery.
func TestFuzzCompareSmoke(t *testing.T) {
	var out strings.Builder
	if code := runFuzz([]string{"-compare", "-seed", "77", "-prob", "0.2"}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "stalled=true") || !strings.Contains(s, "recovered=true") {
		t.Fatalf("differential verdict wrong:\n%s", s)
	}
}

// TestFuzzBadFlag: unknown flags exit with a usage error, not a panic.
func TestFuzzBadFlag(t *testing.T) {
	var out strings.Builder
	if code := runFuzz([]string{"-nope"}, &out); code != 2 {
		t.Fatalf("exit %d for bad flag", code)
	}
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
	if code := runSched([]string{"-quick"}, &out); code != 0 {
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
		if code := runSched([]string{"-quick", "-seed", "7", "-per-job"}, &out); code != 0 {
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
	if code := runChurn([]string{"-quick"}, &out); code != 0 {
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
// seed produces byte-identical grids and decision logs, at any worker
// count of the sharded engine.
func TestChurnSubcommandDeterministic(t *testing.T) {
	run := func(extra ...string) string {
		var out strings.Builder
		args := append([]string{"-quick", "-seed", "11", "-log"}, extra...)
		if code := runChurn(args, &out); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		return out.String()
	}
	base := run()
	if again := run(); again != base {
		t.Fatal("same seed produced different output across runs")
	}
	for _, w := range []string{"1", "2", "4"} {
		if got := run("-shards", "4", "-workers", w); got != base {
			t.Fatalf("shards=4 workers=%s diverged from the unsharded run:\n--- base ---\n%s\n--- got ---\n%s",
				w, base, got)
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
	if code := runChurn([]string{"-quick", "-seed", "11", "-dump-trace", path}, &a); code != 0 {
		t.Fatalf("exit %d:\n%s", code, a.String())
	}
	if code := runChurn([]string{"-trace", path}, &b); code != 0 {
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

// TestChurnBadFlags: unknown policies, flags, and out-of-range failure
// knobs exit with a usage error, not a panic and not a silent clamp.
func TestChurnBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-policy", "warp"},
		{"-crash", "-0.1"},
		{"-crash", "1.5"},
		{"-crash", "0.5", "-repair", "-0.1"},
		{"-crash", "0.5", "-repair", "2"},
		{"-crash", "0.5", "-repair", "0.5", "-mttr", "-1"},
		// A repair probability with no -crash has nothing to repair — the
		// sampler repairs only sampled crashes, even when a trace file
		// carries its own — and -mttr without -repair times nothing:
		// reject both rather than no-op.
		{"-repair", "0.5"},
		{"-trace", "t.trace", "-repair", "0.9"},
		{"-mttr", "1000"},
		{"-crash", "0.5", "-mttr", "1000"},
	} {
		var out strings.Builder
		if code := runChurn(args, &out); code != 2 {
			t.Fatalf("exit %d for %v, want 2", code, args)
		}
	}
}

// TestSchedBadFlags: unknown policies, schemes and flags exit with a
// usage error, not a panic.
func TestSchedBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-policy", "warp"},
		{"-scheme", "quantum"},
	} {
		var out strings.Builder
		if code := runSched(args, &out); code != 2 {
			t.Fatalf("exit %d for %v, want 2", code, args)
		}
	}
}

package main

import (
	"flag"
	"fmt"
	"io"

	"gangfm/internal/chaos/fuzzer"
)

// runFuzz is the `gangsim fuzz` subcommand: a seeded campaign of random
// cluster shapes, job mixes and fault plans, executed under the invariant
// auditor. Every run's verdict line carries its seed; re-running with
// `-seed S -runs 1` replays that scenario byte-for-byte (add -trace for
// the injection log). `-compare` instead runs the differential
// known-answer check: the same loss plan against FM (which wedges) and the
// go-back-N alternative (which recovers).
func runFuzz(args []string, out, diag io.Writer) int {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	fs.SetOutput(diag)
	var (
		seed     = fs.Uint64("seed", 1, "base seed; run i uses seed+i")
		runs     = fs.Int("runs", 25, "scenarios to sample and execute")
		shrink   = fs.Bool("shrink", true, "minimize failing fault plans")
		trace    = fs.Bool("trace", false, "print the injection trace of failing runs")
		compare  = fs.Bool("compare", false, "run the FM-vs-go-back-N loss comparison instead")
		prob     = fs.Float64("prob", 0.2, "loss probability for -compare")
		recovery = fs.Bool("recovery", false, "recovery campaign: plans drawn from the fault classes the self-healing switch layer absorbs; any failure, or a campaign in which the layer never acted, exits 1")
	)
	profile := profileFlags(fs)
	if !parseFlags(fs, args) {
		return 2
	}
	if *runs < 1 {
		fmt.Fprintf(diag, "gangsim fuzz: -runs %d must be at least 1\n", *runs)
		return 2
	}
	stop, err := profile()
	if err != nil {
		fmt.Fprintf(diag, "gangsim fuzz: %v\n", err)
		return 1
	}
	defer stop()

	if *recovery {
		rep := fuzzer.FuzzRecovery(fuzzer.Config{Seed: *seed, Runs: *runs},
			func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) })
		fmt.Fprintf(out, "\nrecovery campaign: %d runs, %d absorbed, %d UNRECOVERED\n",
			len(rep.Runs), rep.Absorbed, rep.Unrecovered)
		if rep.Unrecovered > 0 {
			fmt.Fprintf(out, "recovery regression; replay with: gangsim fuzz -recovery -seed <S> -runs 1\n")
			return 1
		}
		if rep.Absorbed == 0 {
			fmt.Fprintf(out, "the recovery layer never acted: the campaign exercised nothing\n")
			return 1
		}
		return 0
	}

	if *compare {
		if *prob < 0 || *prob > 1 {
			fmt.Fprintf(diag, "gangsim fuzz: -prob %v outside [0,1]\n", *prob)
			return 2
		}
		fmt.Fprintf(out, "differential loss check, seed %d, p=%.3f (paper §2.2):\n", *seed, *prob)
		fmt.Fprintln(out, fuzzer.CompareLoss(*seed, *prob))
		return 0
	}

	rep := fuzzer.Fuzz(fuzzer.Config{Seed: *seed, Runs: *runs, Shrink: *shrink},
		func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) })
	if *trace {
		for _, r := range rep.Runs {
			if r.Failed() && len(r.Trace) > 0 {
				fmt.Fprintf(out, "\ninjection trace for seed %d:\n", r.Scenario.Seed)
				for _, line := range r.Trace {
					fmt.Fprintln(out, "  "+line)
				}
			}
		}
	}
	fmt.Fprintf(out, "\n%d/%d runs found violations (%d crashes); replay any with: gangsim fuzz -seed <S> -runs 1 -trace\n",
		rep.Failures, len(rep.Runs), rep.Crashes)
	return 0
}

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
func runFuzz(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		seed     = fs.Uint64("seed", 1, "base seed; run i uses seed+i")
		runs     = fs.Int("runs", 25, "scenarios to sample and execute")
		shrink   = fs.Bool("shrink", true, "minimize failing fault plans")
		trace    = fs.Bool("trace", false, "print the injection trace of failing runs")
		compare  = fs.Bool("compare", false, "run the FM-vs-go-back-N loss comparison instead")
		prob     = fs.Float64("prob", 0.2, "loss probability for -compare")
		recovery = fs.Bool("recovery", false, "differential recovery campaign: each plan runs bare and with the self-healing switch layer; any recovery-enabled failure is a regression (exit 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *recovery {
		rep := fuzzer.FuzzRecovery(fuzzer.Config{Seed: *seed, Runs: *runs},
			func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) })
		fmt.Fprintf(out, "\nrecovery campaign: %d runs, %d wedged bare, %d recovered, %d UNRECOVERED\n",
			len(rep.Runs), rep.Wedged, rep.Recovered, rep.Unrecovered)
		if rep.Unrecovered > 0 {
			fmt.Fprintf(out, "recovery regression; replay with: gangsim fuzz -recovery -seed <S> -runs 1\n")
			return 1
		}
		return 0
	}

	if *compare {
		if *prob < 0 || *prob > 1 {
			fmt.Fprintf(out, "fuzz: -prob %v outside [0,1]\n", *prob)
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

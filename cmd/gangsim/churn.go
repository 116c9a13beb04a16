package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gangfm/internal/gang"
	"gangfm/internal/schedd"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
)

// runChurn is the online-scheduling subcommand: one churn trace (arrivals
// plus kill=/resize=/deadline= directives) served by the schedd daemon in
// gang and batch mode and by the analytic fractional model. Output is a
// per-mode metrics grid plus decision-log statistics; like sched, it
// carries no wall-clock figures, so the same seed (or trace file) always
// produces byte-identical tables — at any -shards/-workers setting.
//
// With -crash (or crash node@T directives in the trace file) the run also
// fail-stops nodes mid-stream: the recovery layer evicts them, the daemons
// requeue their jobs under a retry budget, and an availability table is
// appended to the output.
func runChurn(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	seed := fs.Uint64("seed", 11, "trace-generator seed")
	jobs := fs.Int("jobs", 28, "number of generated arrivals")
	nodes := fs.Int("nodes", 8, "machine size")
	slots := fs.Int("slots", 8, "gang matrix depth for the gang mode")
	comm := fs.Float64("comm", 0.7, "communication intensity in [0,1]")
	kill := fs.Float64("kill", 0.15, "fraction of jobs killed mid-run")
	resize := fs.Float64("resize", 0.15, "fraction of jobs resized mid-run")
	deadline := fs.Float64("deadline", 0.25, "fraction of jobs with deadlines")
	crash := fs.Float64("crash", 0, "per-node fail-stop probability in [0,1] (0 = no crashes)")
	crashSeed := fs.Uint64("crash-seed", 7, "crash-sampler seed (independent of the job trace)")
	repair := fs.Float64("repair", 0, "per-crash repair probability in [0,1] (0 = crashed nodes stay down)")
	repairSeed := fs.Uint64("repair-seed", 13, "repair-sampler seed (independent of crashes and the job trace)")
	mttr := fs.Int64("mttr", 0, "mean time to repair in cycles (0 = a quarter of the arrival span)")
	adaptive := fs.Bool("adaptive", false, "use the EWMA-stretch backfill estimator instead of the static slots-deep one")
	retries := fs.Int("retries", 0, "per-job requeue budget after crash-kills (0 = default of 3)")
	policy := fs.String("policy", "buddy", "packing policy: first-fit|buddy|best-fit")
	traceFile := fs.String("trace", "", "replay this trace file instead of generating one")
	dumpTrace := fs.String("dump-trace", "", "also write the trace being evaluated to this file")
	showLog := fs.Bool("log", false, "print the full decision log of every mode")
	quick := fs.Bool("quick", false, "shrink the stream for a fast smoke run")
	shards := fs.Int("shards", 0, "shard each cluster's engine into N event lanes (0 = unsharded)")
	workers := fs.Int("workers", 0, "worker goroutines per sharded engine group (<=1 = one, on the coordinator)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gangsim churn [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	packing, ok := gang.PolicyByName(*policy)
	if !ok {
		fmt.Fprintf(os.Stderr, "gangsim churn: unknown packing policy %q (want first-fit, buddy, or best-fit)\n", *policy)
		return 2
	}
	// Flag-shape errors exit 2 like parse errors: they are usage mistakes,
	// not run failures.
	if *crash < 0 || *crash > 1 {
		fmt.Fprintf(os.Stderr, "gangsim churn: -crash %v outside [0,1]\n", *crash)
		return 2
	}
	if *repair < 0 || *repair > 1 {
		fmt.Fprintf(os.Stderr, "gangsim churn: -repair %v outside [0,1]\n", *repair)
		return 2
	}
	if *mttr < 0 {
		fmt.Fprintf(os.Stderr, "gangsim churn: -mttr %d must be non-negative\n", *mttr)
		return 2
	}
	if *repair > 0 && *crash == 0 && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "gangsim churn: -repair without -crash has nothing to repair")
		return 2
	}

	var trace []schedeval.TraceJob
	var crashes []schedeval.Crash
	var repairs []schedeval.Repair
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gangsim churn: %v\n", err)
			return 1
		}
		trace, crashes, repairs, err = schedeval.ParseTraceFull(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gangsim churn: %v\n", err)
			return 1
		}
	} else {
		gen := schedeval.DefaultGenConfig(*nodes)
		gen.Seed = *seed
		gen.Jobs = *jobs
		gen.CommIntensity = *comm
		gen.KillFraction = *kill
		gen.ResizeFraction = *resize
		gen.DeadlineFraction = *deadline
		if *quick {
			gen.Jobs = 12
		}
		var err error
		trace, err = schedeval.Generate(gen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gangsim churn: %v\n", err)
			return 1
		}
	}
	if *crash > 0 {
		var lastArrive sim.Time
		for _, tj := range trace {
			if tj.Arrive > lastArrive {
				lastArrive = tj.Arrive
			}
		}
		sampled, err := schedeval.GenCrashes(*crashSeed, *nodes, *crash, lastArrive)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gangsim churn: %v\n", err)
			return 1
		}
		crashes = append(crashes, sampled...)
		if *repair > 0 {
			window := *mttr
			if window == 0 {
				window = int64(lastArrive / 4)
			}
			sampledRep, err := schedeval.GenRepairs(*repairSeed, sampled, *repair, sim.Time(window))
			if err != nil {
				fmt.Fprintf(os.Stderr, "gangsim churn: %v\n", err)
				return 1
			}
			repairs = append(repairs, sampledRep...)
		}
	}
	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gangsim churn: %v\n", err)
			return 1
		}
		err = schedeval.FormatTraceFull(f, trace, crashes, repairs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gangsim churn: %v\n", err)
			return 1
		}
	}

	cfg := schedd.DefaultConfig(*nodes)
	cfg.Slots = *slots
	cfg.Packing = packing
	cfg.Trace = trace
	cfg.Crashes = crashes
	cfg.Repairs = repairs
	cfg.AdaptiveEstimate = *adaptive
	cfg.RetryBudget = *retries
	cfg.Shards = *shards
	cfg.Workers = *workers
	results, err := schedd.Showdown(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gangsim churn: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, schedd.GridTable(results))
	fmt.Fprintln(out, "(bsld = bounded slowdown over finished jobs; kill/evict/cens jobs are excluded from the means)")
	fmt.Fprintln(out)
	if len(crashes) > 0 {
		fmt.Fprintln(out, schedd.AvailabilityTable(results))
		fmt.Fprintln(out, "(goodput = useful work over surviving node-cycles; mean_ttr = crash-kill to re-placement)")
		if len(repairs) > 0 {
			fmt.Fprintln(out, "(cap_rep = fraction of lost node-cycles recovered by repair; post_gp = goodput after the first rejoin)")
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, schedd.StatsTable(results))
	if *showLog {
		for _, r := range results {
			fmt.Fprintf(out, "\n--- %s decision log ---\n%s", r.Mode, r.Log)
		}
	}
	for _, r := range results {
		if n := r.Log.Count(schedd.VerbCacheBad); n != 0 {
			fmt.Fprintf(os.Stderr, "gangsim churn: %s run reported %d placement-cache violations\n", r.Mode, n)
			return 1
		}
	}
	return 0
}

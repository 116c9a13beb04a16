package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gangfm/internal/fm"
	"gangfm/internal/gang"
	"gangfm/internal/schedeval"
)

// runSched is the trace-driven scheduler-evaluation subcommand. Its
// output carries no timestamps or wall-clock figures, so the same seed
// (or trace file) always produces byte-identical tables.
func runSched(args []string, out, diag io.Writer) int {
	fs := flag.NewFlagSet("sched", flag.ContinueOnError)
	fs.SetOutput(diag)
	seed := fs.Uint64("seed", 7, "trace-generator seed")
	jobs := fs.Int("jobs", 36, "number of generated arrivals")
	nodes := fs.Int("nodes", 8, "machine size")
	slots := fs.Int("slots", 8, "gang matrix depth (time slots)")
	comm := fs.Float64("comm", 0.7, "communication intensity in [0,1]")
	policy := fs.String("policy", "all", "packing policy: first-fit|buddy|best-fit|all")
	scheme := fs.String("scheme", "both", "credit scheme: partitioned|switched|both")
	traceFile := fs.String("trace", "", "replay this trace file instead of generating one")
	dumpTrace := fs.String("dump-trace", "", "also write the trace being evaluated to this file")
	perJob := fs.Bool("per-job", false, "print per-job metric tables after the summary")
	quick := fs.Bool("quick", false, "shrink the stream for a fast smoke run")
	profile := profileFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(diag, "usage: gangsim sched [flags]")
		fs.PrintDefaults()
	}
	if !parseFlags(fs, args) {
		return 2
	}

	var packings []gang.Policy
	if *policy == "all" {
		packings = gang.Policies()
	} else {
		p, ok := gang.PolicyByName(*policy)
		if !ok {
			fmt.Fprintf(diag, "gangsim sched: unknown packing policy %q (want first-fit, buddy, best-fit, or all)\n", *policy)
			return 2
		}
		packings = []gang.Policy{p}
	}
	var schemes []fm.Policy
	switch *scheme {
	case "both":
		schemes = []fm.Policy{fm.Partitioned, fm.Switched}
	case "partitioned":
		schemes = []fm.Policy{fm.Partitioned}
	case "switched":
		schemes = []fm.Policy{fm.Switched}
	default:
		fmt.Fprintf(diag, "gangsim sched: unknown credit scheme %q (want partitioned, switched, or both)\n", *scheme)
		return 2
	}
	stop, err := profile()
	if err != nil {
		fmt.Fprintf(diag, "gangsim sched: %v\n", err)
		return 1
	}
	defer stop()

	var trace []schedeval.TraceJob
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintf(diag, "gangsim sched: %v\n", err)
			return 1
		}
		trace, err = schedeval.ParseTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(diag, "gangsim sched: %v\n", err)
			return 1
		}
	} else {
		gen := schedeval.DefaultGenConfig(*nodes)
		gen.Seed = *seed
		gen.Jobs = *jobs
		gen.CommIntensity = *comm
		if *quick {
			gen.Jobs = 12
		}
		var err error
		trace, err = schedeval.Generate(gen)
		if err != nil {
			fmt.Fprintf(diag, "gangsim sched: %v\n", err)
			return 1
		}
	}
	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			fmt.Fprintf(diag, "gangsim sched: %v\n", err)
			return 1
		}
		err = schedeval.FormatTrace(f, trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(diag, "gangsim sched: %v\n", err)
			return 1
		}
	}

	base := schedeval.DefaultConfig(*nodes)
	base.Slots = *slots
	base.Trace = trace
	results, err := schedeval.Compare(base, schemes, packings)
	if err != nil {
		fmt.Fprintf(diag, "gangsim sched: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, schedeval.SummaryTable(results))
	fmt.Fprintln(out, "(bsld = bounded slowdown; util counts finished jobs' nominal work over nodes x makespan)")
	if *perJob {
		for _, r := range results {
			fmt.Fprintln(out)
			fmt.Fprintln(out, schedeval.JobTable(r))
		}
	}
	for _, r := range results {
		if !r.AuditOK {
			fmt.Fprintf(diag, "gangsim sched: %s/%s run reported %d invariant violations\n",
				r.Packing, r.Scheme, r.Violations)
			return 1
		}
	}
	return 0
}

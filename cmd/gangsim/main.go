// Command gangsim regenerates the paper's evaluation: each subcommand
// reproduces one table or figure of "User-Level Communication in a System
// with Gang Scheduling" (Etsion & Feitelson, IPPS 2001) on the simulated
// ParPar/FM/Myrinet stack.
//
// Usage:
//
//	gangsim [-quick] [-par N] <experiment|all>
//	gangsim fuzz [-seed S] [-runs N] [-shrink] [-trace] [-compare]
//	gangsim sched [-seed S] [-policy P] [-scheme S] [-trace FILE]
//	gangsim churn [-seed S] [-kill F] [-resize F] [-deadline F] [-trace FILE]
//
// The experiments are experiments.Figures, which gangsim -h lists; all
// runs them in that order.
// Every subcommand also takes -cpuprofile F and -memprofile F.
//
// All runs are deterministic; -quick shrinks the sweeps for smoke runs,
// and a fuzz failure replays exactly from its printed seed. Performance is
// measured by the repository benchmark (bash bench/run.sh; see
// bench/README.md), not by a subcommand.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"gangfm/internal/experiments"
)

// command is a dispatchable name with a one-line description and, for a
// subcommand that parses its own flags, the function that runs it.
type command struct {
	name, desc string
	run        func(args []string, out, diag io.Writer) int
}

// commands are the subcommands that own their flags. Every other name is
// an experiment: an entry of experiments.Figures, or all.
var commands = []command{
	{"fuzz", "seeded fault-injection fuzzer with exact seed replay (fuzz -h)", runFuzz},
	{"sched", "trace-driven scheduler evaluation: job streams, packing policies, per-job slowdown (sched -h)", runSched},
	{"churn", "online scheduling under churn: gang vs batch vs fractional with kills, resizes, backfill (churn -h)", runChurn},
}

// experimentList is every experiment in experiments.Figures order, then all.
func experimentList() []command {
	var list []command
	for _, f := range experiments.Figures {
		list = append(list, command{name: f.Name, desc: f.Desc})
	}
	return append(list, command{name: "all", desc: "every paper experiment in sequence"})
}

// subcommands is every dispatchable name, sorted.
func subcommands() []command {
	list := append(experimentList(), commands...)
	sort.Slice(list, func(a, b int) bool { return list[a].name < list[b].name })
	return list
}

// printList writes a heading and one line per command to w.
func printList(w io.Writer, heading string, list []command) {
	fmt.Fprintln(w, heading)
	for _, c := range list {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.desc)
	}
}

// unknownSubcommand reports an unrecognized name plus the full listing
// and returns the exit code for usage errors.
func unknownSubcommand(w io.Writer, name string) int {
	fmt.Fprintf(w, "gangsim: unknown subcommand %q\n\n", name)
	printList(w, "subcommands:", subcommands())
	return 2
}

func main() {
	// The commands own their flags; dispatch before the figure flags parse.
	if len(os.Args) > 1 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				os.Exit(c.run(os.Args[2:], os.Stdout, os.Stderr))
			}
		}
	}
	os.Exit(runFigures(os.Args[1:], os.Stdout, os.Stderr))
}

// runFigures runs the paper-experiment subcommands, which share one flag
// set, writing tables to out and usage, errors and the wall-clock line to
// diag, and returns the exit code.
func runFigures(args []string, out, diag io.Writer) int {
	fs := flag.NewFlagSet("gangsim", flag.ContinueOnError)
	fs.SetOutput(diag)
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	par := fs.Int("par", runtime.GOMAXPROCS(0), "max concurrently simulated points")
	profile := profileFlags(fs)
	fs.Usage = func() { usage(diag) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	p := experiments.Params{Quick: *quick, Parallel: *par}

	name := fs.Arg(0)
	figs := experiments.Figures
	if name != "all" {
		i := slices.IndexFunc(figs, func(f experiments.Figure) bool { return f.Name == name })
		if i < 0 {
			return unknownSubcommand(diag, name)
		}
		figs = figs[i : i+1]
	}
	stop, err := profile()
	if err != nil {
		fmt.Fprintf(diag, "gangsim: %v\n", err)
		return 1
	}
	defer stop()
	start := time.Now()
	for _, f := range figs {
		io.WriteString(out, f.Render(p))
	}
	fmt.Fprintf(diag, "[%s completed in %.1fs]\n", name, time.Since(start).Seconds())
	return 0
}

// parseFlags parses a subcommand's own flags and rejects positional
// arguments, which none of those subcommands takes. False is a usage
// error: exit 2.
func parseFlags(fs *flag.FlagSet, args []string) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "gangsim %s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		return false
	}
	return true
}

// profileFlags registers -cpuprofile and -memprofile on fs, the profiling
// flags every subcommand accepts. Call the returned start once the flags
// are parsed and validated; run the stop it returns before exiting (a
// deferred call in a function that returns the exit code).
func profileFlags(fs *flag.FlagSet) (start func() (stop func(), err error)) {
	cpuPath := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memPath := fs.String("memprofile", "", "write a heap profile to this file")
	return func() (func(), error) { return startProfiles(*cpuPath, *memPath) }
}

// startProfiles begins a CPU profile and/or arranges a heap profile, each
// written at stop time; empty paths disable the corresponding profile.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gangsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gangsim: %v\n", err)
			}
		}
	}, nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `gangsim — regenerate the paper's evaluation

usage: gangsim [-quick] [-par N] [-cpuprofile F] [-memprofile F] <experiment>
       gangsim <command> [flags]

-par N simulates up to N sweep points at once, each cluster on its own
engine. The tables are byte-identical per seed at any -par.

`)
	printList(w, "experiments:", experimentList())
	fmt.Fprintln(w)
	printList(w, "commands:", commands)
	fmt.Fprint(w, `
performance is measured by the repository benchmark, not a subcommand:
  bash bench/run.sh   (see bench/README.md)
`)
}

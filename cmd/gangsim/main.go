// Command gangsim regenerates the paper's evaluation: each subcommand
// reproduces one table or figure of "User-Level Communication in a System
// with Gang Scheduling" (Etsion & Feitelson, IPPS 2001) on the simulated
// ParPar/FM/Myrinet stack.
//
// Usage:
//
//	gangsim [-quick] [-par N] <fig5|fig6|fig7|fig8|fig9|overhead|credits|all>
//	gangsim fuzz [-seed S] [-runs N] [-shrink] [-trace] [-compare]
//	gangsim sched [-seed S] [-policy P] [-scheme S] [-trace FILE]
//	gangsim churn [-seed S] [-kill F] [-resize F] [-deadline F] [-trace FILE]
//
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
	"sort"
	"time"

	"gangfm/internal/experiments"
)

// subcommands is the single source of truth for the unknown-subcommand
// listing: every dispatchable name with a one-line description.
var subcommands = []struct{ name, desc string }{
	{"all", "every paper experiment in sequence"},
	{"churn", "online scheduling under churn: gang vs batch vs fractional with kills, resizes, backfill (churn -h)"},
	{"credits", "credit formulas C0 = Br/(n^2 p) vs Br/p (paper 2.2, 3.3)"},
	{"dyncos", "ablation: gang vs dynamic coscheduling responsiveness (5)"},
	{"fig5", "bandwidth vs msg size x #contexts, partitioned buffers"},
	{"fig6", "total bandwidth vs msg size x #jobs, buffer switching"},
	{"fig7", "switch stage times, full buffer copy, 2..16 nodes"},
	{"fig8", "valid packets in the buffers at switch time, 2..16 nodes"},
	{"fig9", "switch stage times, improved (valid-only) copy, 2..16 nodes"},
	{"fuzz", "seeded fault-injection fuzzer with exact seed replay (fuzz -h)"},
	{"overhead", "single-switch cost vs the paper's 85 ms / 12.5 ms bounds"},
	{"sched", "trace-driven scheduler evaluation: job streams, packing policies, per-job slowdown (sched -h)"},
	{"schemes", "ablation: paper scheme vs SHARE discard vs PM quiescence (5)"},
}

// printSubcommands writes the sorted subcommand listing to w.
func printSubcommands(w io.Writer) {
	sorted := append([]struct{ name, desc string }(nil), subcommands...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].name < sorted[b].name })
	fmt.Fprintln(w, "subcommands:")
	for _, s := range sorted {
		fmt.Fprintf(w, "  %-9s %s\n", s.name, s.desc)
	}
}

// unknownSubcommand reports an unrecognized name plus the full listing
// and returns the exit code for usage errors.
func unknownSubcommand(w io.Writer, name string) int {
	fmt.Fprintf(w, "gangsim: unknown subcommand %q\n\n", name)
	printSubcommands(w)
	return 2
}

func main() {
	// The fuzz, sched and churn subcommands own their flags; dispatch
	// before the global parse.
	if len(os.Args) > 1 && os.Args[1] == "fuzz" {
		os.Exit(runFuzz(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "sched" {
		os.Exit(runSched(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "churn" {
		os.Exit(runChurn(os.Args[2:], os.Stdout, os.Stderr))
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

	cmds := map[string]func(experiments.Params, io.Writer){
		"fig5":     fig5,
		"fig6":     fig6,
		"fig7":     fig7,
		"fig8":     fig8,
		"fig9":     fig9,
		"overhead": overhead,
		"credits":  credits,
		"schemes":  schemes,
		"dyncos":   dyncos,
		"all": func(p experiments.Params, w io.Writer) {
			credits(p, w)
			fig5(p, w)
			fig6(p, w)
			fig7(p, w)
			fig8(p, w)
			fig9(p, w)
			overhead(p, w)
			schemes(p, w)
			dyncos(p, w)
		},
	}
	cmd, ok := cmds[fs.Arg(0)]
	if !ok {
		return unknownSubcommand(diag, fs.Arg(0))
	}
	stop, err := profile()
	if err != nil {
		fmt.Fprintf(diag, "gangsim: %v\n", err)
		return 1
	}
	defer stop()
	start := time.Now()
	cmd(p, out)
	fmt.Fprintf(diag, "[%s completed in %.1fs]\n", fs.Arg(0), time.Since(start).Seconds())
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
	fmt.Fprintf(w, `gangsim — regenerate the paper's evaluation

usage: gangsim [-quick] [-par N] [-cpuprofile F] [-memprofile F] <experiment>

-par N simulates up to N sweep points at once, each cluster on its own
engine. The tables are byte-identical per seed at any -par.

experiments:
  credits   credit formulas C0 = Br/(n^2 p) vs Br/p (paper 2.2, 3.3)
  fig5      bandwidth vs msg size x #contexts, partitioned buffers
  fig6      total bandwidth vs msg size x #jobs, buffer switching
  fig7      switch stage times, full buffer copy, 2..16 nodes
  fig8      valid packets in the buffers at switch time, 2..16 nodes
  fig9      switch stage times, improved (valid-only) copy, 2..16 nodes
  overhead  single-switch cost vs the paper's 85 ms / 12.5 ms bounds
  schemes   ablation: paper scheme vs SHARE discard vs PM quiescence (5)
  dyncos    ablation: gang vs dynamic coscheduling responsiveness (5)
  all       everything above

chaos:
  fuzz      seeded fault-injection fuzzer over random clusters, jobs and
            fault plans; failing seeds replay exactly (see fuzz -h)

scheduling:
  sched     trace-driven scheduler evaluation: generated or file-based job
            streams under every packing policy x credit scheme (see sched -h)
  churn     online scheduling under churn: live kills, resizes, deadlines,
            conservative backfill; gang vs batch vs fractional (see churn -h)

performance is measured by the repository benchmark, not a subcommand:
  bash bench/run.sh   (see bench/README.md)
`)
}

func fig5(p experiments.Params, w io.Writer) {
	points := experiments.Fig5(p)
	fmt.Fprintln(w, experiments.Fig5Table(points))
	fmt.Fprintln(w, "(zero rows are the credit cliff: C0 = Br/(n^2 p) hits 0 at 7-8 contexts)")
}

func fig6(p experiments.Params, w io.Writer) {
	points := experiments.Fig6(p)
	fmt.Fprintln(w, experiments.Fig6Table(points))
	fmt.Fprintln(w, "(aggregate = mean per-job bandwidth x #jobs; flat rows are the paper's claim)")
}

func fig7(p experiments.Params, w io.Writer) {
	points := experiments.Fig7(p)
	fmt.Fprintln(w, experiments.StageTable(
		"Figure 7: buffer switch stage times, full copy [cycles of a 200 MHz P6]", points))
}

func fig8(p experiments.Params, w io.Writer) {
	points := experiments.Fig9(p)
	fmt.Fprintln(w, experiments.Fig8FromSweep(points))
}

func fig9(p experiments.Params, w io.Writer) {
	points := experiments.Fig9(p)
	fmt.Fprintln(w, experiments.StageTable(
		"Figure 9: buffer switch stage times, improved (valid-only) copy [cycles]", points))
}

func overhead(p experiments.Params, w io.Writer) {
	rep := experiments.Overhead(p)
	fmt.Fprintln(w, experiments.OverheadTable(rep))
}

func credits(p experiments.Params, w io.Writer) {
	fmt.Fprintln(w, experiments.CreditsTable(experiments.Credits()))
}

func schemes(p experiments.Params, w io.Writer) {
	fmt.Fprintln(w, experiments.SchemesTable(experiments.Schemes(p)))
}

func dyncos(p experiments.Params, w io.Writer) {
	fmt.Fprintln(w, experiments.ResponsivenessTable(experiments.Responsiveness(p)))
}

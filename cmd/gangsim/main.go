// Command gangsim regenerates the paper's evaluation: each subcommand
// reproduces one table or figure of "User-Level Communication in a System
// with Gang Scheduling" (Etsion & Feitelson, IPPS 2001) on the simulated
// ParPar/FM/Myrinet stack.
//
// Usage:
//
//	gangsim [-quick] [-par N] [-shards N] [-workers N] <fig5|fig6|fig7|fig8|fig9|overhead|credits|all>
//	gangsim fuzz [-seed S] [-runs N] [-shrink] [-trace] [-compare]
//	gangsim bench [-quick] [-par N] [-o FILE]
//	gangsim sched [-seed S] [-policy P] [-scheme S] [-trace FILE]
//	gangsim churn [-seed S] [-kill F] [-resize F] [-deadline F] [-trace FILE]
//
// All runs are deterministic; -quick shrinks the sweeps for smoke runs,
// and a fuzz failure replays exactly from its printed seed.
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
	{"bench", "run every figure under wall/event/alloc tracking (bench -h)"},
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
	// The fuzz and bench subcommands own their flags; dispatch before the
	// global parse.
	if len(os.Args) > 1 && os.Args[1] == "fuzz" {
		os.Exit(runFuzz(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		os.Exit(runBench(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "sched" {
		os.Exit(runSched(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "churn" {
		os.Exit(runChurn(os.Args[2:], os.Stdout))
	}
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "max concurrently simulated points")
	shards := flag.Int("shards", 0, "shard each cluster's engine into N event lanes (0 = unsharded)")
	workers := flag.Int("workers", 0, "worker goroutines per sharded engine group (<=1 = one, on the coordinator)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gangsim: %v\n", err)
		os.Exit(1)
	}
	defer stop()
	p := experiments.Params{Quick: *quick, Parallel: *par, Shards: *shards, Workers: *workers}

	cmds := map[string]func(experiments.Params){
		"fig5":     fig5,
		"fig6":     fig6,
		"fig7":     fig7,
		"fig8":     fig8,
		"fig9":     fig9,
		"overhead": overhead,
		"credits":  credits,
		"schemes":  schemes,
		"dyncos":   dyncos,
		"all": func(p experiments.Params) {
			credits(p)
			fig5(p)
			fig6(p)
			fig7(p)
			fig8(p)
			fig9(p)
			overhead(p)
			schemes(p)
			dyncos(p)
		},
	}
	cmd, ok := cmds[flag.Arg(0)]
	if !ok {
		os.Exit(unknownSubcommand(os.Stderr, flag.Arg(0)))
	}
	start := time.Now()
	cmd(p)
	fmt.Printf("\n[%s completed in %.1fs]\n", flag.Arg(0), time.Since(start).Seconds())
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

func usage() {
	fmt.Fprintf(os.Stderr, `gangsim — regenerate the paper's evaluation

usage: gangsim [-quick] [-par N] [-shards N] [-workers N]
               [-cpuprofile F] [-memprofile F] <experiment>

-shards N splits every simulated cluster's engine into N event lanes that
run under conservative lookahead windows, concurrently on -workers N
goroutines. At any worker count the tables must come out identical to the
unsharded run.

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

performance:
  bench     run every figure under wall-clock/event/allocation tracking
            and write BENCH_<date>.json with baselines (see bench -h)

scheduling:
  sched     trace-driven scheduler evaluation: generated or file-based job
            streams under every packing policy x credit scheme (see sched -h)
  churn     online scheduling under churn: live kills, resizes, deadlines,
            conservative backfill; gang vs batch vs fractional (see churn -h)
`)
}

func fig5(p experiments.Params) {
	points := experiments.Fig5(p)
	fmt.Println(experiments.Fig5Table(points))
	fmt.Println("(zero rows are the credit cliff: C0 = Br/(n^2 p) hits 0 at 7-8 contexts)")
}

func fig6(p experiments.Params) {
	points := experiments.Fig6(p)
	fmt.Println(experiments.Fig6Table(points))
	fmt.Println("(aggregate = mean per-job bandwidth x #jobs; flat rows are the paper's claim)")
}

func fig7(p experiments.Params) {
	points := experiments.Fig7(p)
	fmt.Println(experiments.StageTable(
		"Figure 7: buffer switch stage times, full copy [cycles of a 200 MHz P6]", points))
}

func fig8(p experiments.Params) {
	points := experiments.Fig9(p)
	fmt.Println(experiments.Fig8FromSweep(points))
}

func fig9(p experiments.Params) {
	points := experiments.Fig9(p)
	fmt.Println(experiments.StageTable(
		"Figure 9: buffer switch stage times, improved (valid-only) copy [cycles]", points))
}

func overhead(p experiments.Params) {
	rep := experiments.Overhead(p)
	fmt.Println(experiments.OverheadTable(rep))
}

func credits(p experiments.Params) {
	fmt.Println(experiments.CreditsTable(experiments.Credits()))
}

func schemes(p experiments.Params) {
	fmt.Println(experiments.SchemesTable(experiments.Schemes(p)))
}

func dyncos(p experiments.Params) {
	fmt.Println(experiments.ResponsivenessTable(experiments.Responsiveness(p)))
}

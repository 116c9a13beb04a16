package gangfm_test

import (
	"fmt"
	"log"

	"gangfm"
	"gangfm/internal/myrinet"
)

// Assemble a simulated 16-node ParPar cluster with the paper's
// buffer-switching scheme, run FM's point-to-point bandwidth benchmark as
// one gang-scheduled job, then probe the short-message latency.
func Example() {
	cluster, err := gangfm.NewCluster(gangfm.DefaultClusterConfig(16))
	if err != nil {
		log.Fatal(err)
	}

	// The FM bandwidth benchmark: 5000 messages of 16 KB, rank 0 -> 1.
	job, err := cluster.Submit(gangfm.Bandwidth("quickstart", 5000, 16384))
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run()
	res, err := gangfm.ExtractBandwidth(job)
	if err != nil {
		log.Fatal(err)
	}
	clock := gangfm.Clock()
	fmt.Printf("transferred %d MB in %v (virtual): %.1f MB/s\n",
		res.Bytes/1_000_000, clock.ToDuration(res.Elapsed()), res.MBs(clock))

	// A short-message latency probe on the same cluster.
	pp, err := cluster.Submit(gangfm.PingPong("latency", 1000, 64))
	if err != nil {
		log.Fatal(err)
	}
	cluster.Run()
	lat := pp.Results[0].(gangfm.PingPongResult)
	fmt.Printf("64-byte round trip: %v (%d cycles)\n",
		clock.ToDuration(lat.RoundTrip()), lat.RoundTrip())

	// Output:
	// transferred 81 MB in 1.19022387s (virtual): 68.8 MB/s
	// 64-byte round trip: 39.02µs (7804 cycles)
}

// The paper's headline comparison in miniature.
//
// Part 1 (Figure 5's collapse): with the original partitioned FM buffers
// on a 16-node machine, deepening the slot table divides the buffers and
// the per-peer credit count C0 = Br/(n²p) collapses. At 8 slots it
// reaches zero and communication stops, even for a machine running a
// single application.
//
// Part 2 (Figure 6's flatness): with the paper's buffer switching, k
// benchmark jobs time-sliced on the same nodes deliver a flat aggregate
// bandwidth: multiprogramming costs (almost) nothing.
func Example_multijob() {
	const msgs, size = 3000, 6144

	fmt.Println("Part 1 — partitioned buffers (original FM), single job on 16 nodes")
	fmt.Println("slots | C0 | bandwidth [MB/s]")
	for _, slots := range []int{1, 2, 4, 8} {
		cfg := gangfm.DefaultClusterConfig(16)
		cfg.Policy = gangfm.Partitioned
		cfg.Slots = slots
		cluster, err := gangfm.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// The credits every process on this cluster was allocated.
		c0 := cluster.Nodes()[0].Mgr.Alloc().C0
		job, err := cluster.Submit(gangfm.Bandwidth("bw", msgs, size))
		if err != nil {
			log.Fatal(err)
		}
		cluster.RunUntil(20 * 200_000_000) // 20 virtual seconds: zero credits never finish
		if res, err := gangfm.ExtractBandwidth(job); err == nil {
			fmt.Printf("%5d | %2d | %.1f\n", slots, c0, res.MBs(gangfm.Clock()))
		} else {
			fmt.Printf("%5d | %2d | wedged: no communication possible\n", slots, c0)
		}
	}

	fmt.Println()
	fmt.Println("Part 2 — switched buffers, k jobs time-sliced on one node pair")
	fmt.Println("jobs | aggregate bandwidth [MB/s]")
	for _, k := range []int{1, 2, 4, 8} {
		cfg := gangfm.DefaultClusterConfig(2)
		cfg.Slots = 8
		// The control-network preset: a 20 ms quantum (the paper's 3 s,
		// scaled) and 200 µs of control-message jitter.
		cfg.Quantum = 4_000_000
		cfg.CtrlJitter = 40_000
		cluster, err := gangfm.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		jobs := make([]*gangfm.Job, k)
		for i := range jobs {
			if jobs[i], err = cluster.Submit(gangfm.Bandwidth("bw", msgs, size)); err != nil {
				log.Fatal(err)
			}
		}
		cluster.Run()
		sum := 0.0
		for _, job := range jobs {
			res, err := gangfm.ExtractBandwidth(job)
			if err != nil {
				log.Fatal(err)
			}
			sum += res.MBs(gangfm.Clock())
		}
		fmt.Printf("%4d | %.1f\n", k, sum)
	}

	// Output:
	// Part 1 — partitioned buffers (original FM), single job on 16 nodes
	// slots | C0 | bandwidth [MB/s]
	//     1 | 41 | 68.6
	//     2 | 10 | 68.6
	//     4 |  2 | 51.8
	//     8 |  0 | wedged: no communication possible
	//
	// Part 2 — switched buffers, k jobs time-sliced on one node pair
	// jobs | aggregate bandwidth [MB/s]
	//    1 | 69.5
	//    2 | 67.3
	//    4 | 67.8
	//    8 | 68.1
}

// Anatomy of the three-stage buffer switch (paper §3.2). Two all-to-all
// jobs alternate on an 8-node cluster while every context switch's stages
// are timed: halt the network (the flush protocol of Figure 3), switch the
// buffers (Figure 4), and release the network. The run is repeated with
// the full-copy and the improved valid-packets-only algorithms,
// reproducing the contrast between Figures 7 and 9.
func Example_switchStages() {
	ms := func(cycles float64) float64 { return cycles / 200_000_000 * 1000 }
	for _, mode := range []gangfm.CopyMode{gangfm.FullCopy, gangfm.ValidOnly} {
		cfg := gangfm.DefaultClusterConfig(8)
		cfg.Slots = 2
		cfg.Mode = mode
		cfg.Quantum = 10_000_000 // 50 ms
		cluster, err := gangfm.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := cluster.Submit(gangfm.AllToAll("a2a", 8, 1200, 1536)); err != nil {
				log.Fatal(err)
			}
		}
		cluster.Run()

		var halt, copy, release, validRecv float64
		n := 0
		for _, hist := range cluster.SwitchHistory() {
			for _, s := range hist {
				if s.From < 0 || s.To < 0 {
					continue // activation or idle switch: buffers empty
				}
				halt += float64(s.Halt)
				copy += float64(s.Copy)
				release += float64(s.Release)
				validRecv += float64(s.ValidRecv)
				n++
			}
		}
		halt, copy, release, validRecv = halt/float64(n), copy/float64(n), release/float64(n), validRecv/float64(n)
		total := halt + copy + release
		fmt.Printf("%s: %d switches sampled\n", mode, n)
		fmt.Printf("  halt    %10.0f cycles (%.2f ms)\n", halt, ms(halt))
		fmt.Printf("  copy    %10.0f cycles (%.2f ms)  [%.1f valid recv packets]\n",
			copy, ms(copy), validRecv)
		fmt.Printf("  release %10.0f cycles (%.2f ms)\n", release, ms(release))
		fmt.Printf("  total   %10.0f cycles (%.2f ms) = %.2f%% of a 1 s quantum\n\n",
			total, ms(total), total/200_000_000*100)
	}

	// Output:
	// full-copy: 932 switches sampled
	//   halt        381649 cycles (1.91 ms)
	//   copy      15818640 cycles (79.09 ms)  [20.0 valid recv packets]
	//   release       2264 cycles (0.01 ms)
	//   total     16202554 cycles (81.01 ms) = 8.10% of a 1 s quantum
	//
	// valid-only: 88 switches sampled
	//   halt        385208 cycles (1.93 ms)
	//   copy        488517 cycles (2.44 ms)  [29.5 valid recv packets]
	//   release     688832 cycles (3.44 ms)
	//   total      1562556 cycles (7.81 ms) = 0.78% of a 1 s quantum
}

// Why FM dares to have no retransmission, and what happens when the SAN
// assumption breaks. FM's credit-based flow control assumes an
// insignificant error rate: "a single packet loss can mess up the credit
// counters and the entire flow control algorithm" (paper §2.2). Injected
// packet loss wedges the transfer: lost data packets take their credits
// with them, the sender's window never refills, and progress stops for
// good, while a loss-free run completes. The invariant auditor reaches
// the same verdict mechanically.
func Example_lossy() {
	fmt.Println("loss prob | delivered | dropped | outcome")
	for _, loss := range []float64{0, 0.001, 0.01, 0.05} {
		cfg := gangfm.DefaultClusterConfig(2)
		if loss > 0 {
			// A seeded fault plan: the same plan drives the injection
			// trace and the auditor's replay seed.
			plan := gangfm.Loss(42, loss)
			cfg.Chaos = &plan
		}
		cluster, err := gangfm.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		job, err := cluster.Submit(gangfm.Bandwidth("lossy", 2000, 1536))
		if err != nil {
			log.Fatal(err)
		}
		cluster.RunUntil(10 * 200_000_000) // bounded: a wedged run never ends

		stats := cluster.Net.Stats()
		outcome := "completed"
		if _, err := gangfm.ExtractBandwidth(job); err != nil {
			outcome = "WEDGED (credits lost, no retransmission)"
		}
		fmt.Printf("%9.3f | %9d | %7d | %s\n", loss,
			stats.Delivered[myrinet.Data], stats.Dropped[myrinet.Data], outcome)
		// A wedged run reports the stall; a clean one stays silent.
		if vs := cluster.Auditor().Violations(); len(vs) > 0 {
			fmt.Printf("          | auditor: %d violation(s), first: %s\n", len(vs), vs[0].Invariant)
		}
	}

	// Output:
	// loss prob | delivered | dropped | outcome
	//     0.000 |      2001 |       0 | completed
	//     0.001 |      1997 |       3 | WEDGED (credits lost, no retransmission)
	//           | auditor: 1 violation(s), first: delivery-stall
	//     0.010 |      1976 |      24 | WEDGED (credits lost, no retransmission)
	//           | auditor: 1 violation(s), first: delivery-stall
	//     0.050 |      1903 |      97 | WEDGED (credits lost, no retransmission)
	//           | auditor: 1 violation(s), first: delivery-stall
}

// The scheduler-evaluation subsystem end to end. A seeded generator
// produces a stream of parallel jobs (BSP phases, stencil halo exchanges,
// master-worker task bags, all-to-alls) that arrive over time on an
// 8-node machine with a deep 8-row gang matrix. The same stream is
// replayed under every packing policy with both credit schemes. At 8
// slots the partitioned scheme's per-peer credits collapse to
// C0 = Br/(n²p) = 1, so communication-heavy jobs crawl; the paper's buffer
// switching keeps the whole window and wins on both mean bounded slowdown
// and machine utilization. `gangsim sched -quick` prints the full
// comparison table (the sched golden pins it).
func Example_jobstream() {
	gen := gangfm.DefaultSchedGenConfig(8)
	gen.Seed = 7
	gen.Jobs = 12
	trace, err := gangfm.GenerateSchedTrace(gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d arrivals (seed %d); first three:\n", len(trace), gen.Seed)
	for _, j := range trace[:3] {
		fmt.Printf("  t=%dms %s size=%d msgs=%d x %dB\n",
			j.Arrive/200_000, j.Kernel, j.Size, j.Units*j.Msgs, j.MsgBytes)
	}

	base := gangfm.DefaultSchedConfig(8)
	base.Trace = trace
	results, err := gangfm.CompareSched(base,
		[]gangfm.Policy{gangfm.Partitioned, gangfm.Switched},
		gangfm.PackingPolicies())
	if err != nil {
		log.Fatal(err)
	}
	// Per packing policy, how much of the partitioned scheme's slowdown
	// the buffer switch recovers.
	for i := 0; i < len(results); i += 2 {
		part, sw := results[i], results[i+1]
		fmt.Printf("%-9s  switched runs the stream with %.1fx lower mean bounded slowdown "+
			"(%.2f vs %.2f) at %.0f%% vs %.0f%% utilization\n",
			part.Packing, part.MeanSlowdown/sw.MeanSlowdown,
			sw.MeanSlowdown, part.MeanSlowdown,
			100*sw.Utilization, 100*part.Utilization)
	}

	// Output:
	// generated 12 arrivals (seed 7); first three:
	//   t=12ms bsp size=2 msgs=66 x 1024B
	//   t=24ms bsp size=2 msgs=116 x 4096B
	//   t=39ms stencil size=4 msgs=210 x 1024B
	// first-fit  switched runs the stream with 1.8x lower mean bounded slowdown (2.46 vs 4.34) at 46% vs 30% utilization
	// buddy      switched runs the stream with 1.6x lower mean bounded slowdown (3.00 vs 4.84) at 39% vs 31% utilization
	// best-fit   switched runs the stream with 1.9x lower mean bounded slowdown (2.57 vs 4.80) at 56% vs 38% utilization
}

package gangfm

// Golden-output determinism tests. Every figure table and chaos trace is a
// pure function of its seeds, so the rendered bytes are frozen in
// testdata/golden and any change to them — however small — fails loudly.
// The figure goldens are `gangsim -quick <fig>`'s stdout, one per entry of
// experiments.Figures; the sched and churn goldens are gangsim's own
// output too, checked in cmd/gangsim (TestSchedChurnPrintGoldens).
// This is the guard that lets the simulator internals (event queue, packet
// pooling, sweep scheduling) be rebuilt for speed: the observable results
// must stay byte-identical.
//
// Regenerate the figure goldens and the chaos trace with:
//
//	go test -run 'TestGoldenFigures|TestGoldenChaosTrace' -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gangfm/internal/chaos"
	"gangfm/internal/experiments"
	"gangfm/internal/parpar"
	"gangfm/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from current output")

func goldenCompare(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(want, []byte(got)) {
		t.Errorf("%s diverged from golden output\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// TestGoldenFigures freezes every figure experiments.Figures renders, in
// quick mode (the full sweeps render through the same code paths with more
// rows).
func TestGoldenFigures(t *testing.T) {
	p := experiments.Params{Quick: true, Parallel: 4}
	for _, f := range experiments.Figures {
		t.Run(f.Name, func(t *testing.T) {
			goldenCompare(t, f.Name+".txt", f.Render(p))
		})
	}
}

// goldenChaosPlan is the fault plan TestGoldenChaosTrace freezes: light
// data loss and duplication, refill loss, and control-message delay.
func goldenChaosPlan() chaos.Plan {
	return chaos.Plan{
		Seed: 45,
		Faults: []chaos.Fault{
			{Kind: chaos.DataLoss, Prob: 0.02, Node: -1},
			{Kind: chaos.DataDup, Prob: 0.01, Node: -1},
			{Kind: chaos.RefillLoss, Prob: 0.05, Node: -1},
			{Kind: chaos.CtrlDelay, Prob: 0.1, Delay: 50_000},
		},
	}
}

// goldenHorizon is how far a chaosCluster runs.
const goldenHorizon = 60_000_000

// chaosCluster builds a 4-node, 2-slot cluster, arms the fault plan, and
// submits two all-to-all jobs, to be run to goldenHorizon. Each opt
// adjusts the config before the build.
func chaosCluster(t *testing.T, plan chaos.Plan, perPeer int, opts ...func(*parpar.Config)) *parpar.Cluster {
	t.Helper()
	cfg := parpar.DefaultConfig(4)
	cfg.Slots = 2
	cfg.Quantum = 2_000_000
	cfg.Chaos = &plan
	for _, opt := range opts {
		opt(&cfg)
	}
	cluster, err := parpar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"golden-a", "golden-b"} {
		if _, err := cluster.Submit(workload.AllToAll(name, 4, perPeer, 1536)); err != nil {
			t.Fatal(err)
		}
	}
	return cluster
}

// TestGoldenChaosTrace freezes the injector's firing trace for a fixed
// seed and fault plan on a 4-node cluster: the trace records every fired
// fault with the time it fired, so any reordering of packet sends — or any
// change to packet field contents — shows up here.
func TestGoldenChaosTrace(t *testing.T) {
	cluster := chaosCluster(t, goldenChaosPlan(), 30)
	cluster.RunUntil(goldenHorizon)
	trace := strings.Join(cluster.ChaosTrace(), "\n") + "\n"
	goldenCompare(t, "chaos_trace.txt", trace)
}

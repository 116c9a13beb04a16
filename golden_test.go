package gangfm

// Golden-output determinism tests. Every figure table and chaos trace is a
// pure function of its seeds, so the rendered bytes are frozen in
// testdata/golden and any change to them — however small — fails loudly.
// The sched and churn goldens are gangsim's own output, checked in
// cmd/gangsim (TestSchedChurnPrintGoldens).
// This is the guard that lets the simulator internals (event queue, packet
// pooling, sweep scheduling) be rebuilt for speed: the observable results
// must stay byte-identical.
//
// Regenerate with:  go test -run TestGolden -update

import (
	"bytes"
	"flag"
	"fmt"
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

// TestGoldenFigures freezes every figure table the experiments package
// renders, in quick mode (the full sweeps render through the same code
// paths with more rows).
func TestGoldenFigures(t *testing.T) {
	p := experiments.Params{Quick: true, Parallel: 4}
	tables := []struct {
		name   string
		render func() string
	}{
		{"credits.txt", func() string { return fmt.Sprint(experiments.CreditsTable(experiments.Credits())) }},
		{"fig5.txt", func() string { return fmt.Sprint(experiments.Fig5Table(experiments.Fig5(p))) }},
		{"fig6.txt", func() string { return fmt.Sprint(experiments.Fig6Table(experiments.Fig6(p))) }},
		{"fig7.txt", func() string {
			return fmt.Sprint(experiments.StageTable("Figure 7: buffer switch stage times, full copy [cycles of a 200 MHz P6]",
				experiments.Fig7(p)))
		}},
		{"fig8.txt", func() string { return fmt.Sprint(experiments.Fig8FromSweep(experiments.Fig9(p))) }},
		{"fig9.txt", func() string {
			return fmt.Sprint(experiments.StageTable("Figure 9: buffer switch stage times, improved (valid-only) copy [cycles]",
				experiments.Fig9(p)))
		}},
		{"overhead.txt", func() string { return fmt.Sprint(experiments.OverheadTable(experiments.Overhead(p))) }},
		{"schemes.txt", func() string { return fmt.Sprint(experiments.SchemesTable(experiments.Schemes(p))) }},
		{"dyncos.txt", func() string { return fmt.Sprint(experiments.ResponsivenessTable(experiments.Responsiveness(p))) }},
	}
	for _, tb := range tables {
		tb := tb
		t.Run(strings.TrimSuffix(tb.name, ".txt"), func(t *testing.T) {
			goldenCompare(t, tb.name, tb.render())
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

package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gangfm/internal/chaos"
)

// TestRecoveryCleanOnEveryFigure renders the figure goldens with the
// recovery layer armed on every cluster the experiments build (fig5–9,
// overhead, schemes, dyncos) and demands the frozen bytes. The layer is
// armed by installing a fault plan whose only fault opens after every
// horizon: nothing is ever injected, so nothing may be re-sent, and
// recovery must cost nothing. Its deadlines do not depend on the quantum,
// and without a NodeCrash no heartbeat runs. The crash-free churn
// showdown has its own check (schedd's TestRecoveryCleanChurn); the
// credit formulas build no cluster.
func TestRecoveryCleanOnEveryFigure(t *testing.T) {
	testChaos = &chaos.Plan{Seed: 1, Faults: []chaos.Fault{
		{Kind: chaos.CtrlDelay, Prob: 1, Delay: 1, Node: -1, From: 1 << 62},
	}}
	defer func() { testChaos = nil }()
	p := Params{Quick: true, Parallel: 4}
	tables := []struct {
		name   string
		render func() string
	}{
		{"fig5.txt", func() string { return fmt.Sprint(Fig5Table(Fig5(p))) }},
		{"fig6.txt", func() string { return fmt.Sprint(Fig6Table(Fig6(p))) }},
		{"fig7.txt", func() string {
			return fmt.Sprint(StageTable("Figure 7: buffer switch stage times, full copy [cycles of a 200 MHz P6]", Fig7(p)))
		}},
		{"fig8.txt", func() string { return fmt.Sprint(Fig8FromSweep(Fig9(p))) }},
		{"fig9.txt", func() string {
			return fmt.Sprint(StageTable("Figure 9: buffer switch stage times, improved (valid-only) copy [cycles]", Fig9(p)))
		}},
		{"overhead.txt", func() string { return fmt.Sprint(OverheadTable(Overhead(p))) }},
		{"schemes.txt", func() string { return fmt.Sprint(SchemesTable(Schemes(p))) }},
		{"dyncos.txt", func() string { return fmt.Sprint(ResponsivenessTable(Responsiveness(p))) }},
	}
	for _, tb := range tables {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", tb.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := tb.render(); got != string(want) {
			t.Errorf("%s with recovery armed diverged from the golden\n--- want ---\n%s\n--- got ---\n%s", tb.name, want, got)
		}
	}
}

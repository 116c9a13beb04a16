package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"gangfm/internal/chaos"
)

// TestRecoveryCleanOnEveryFigure renders every entry of Figures with the
// recovery layer armed on every parpar cluster the experiments build
// (fig5–9, overhead, schemes and the gang row of dyncos) and demands the
// frozen golden bytes. The layer is armed by installing a fault plan whose
// only fault opens after every horizon: nothing is ever injected, so
// nothing may be re-sent, and recovery must cost nothing. Its deadlines do
// not depend on the quantum, and without a NodeCrash no heartbeat runs.
// The credit formulas build no cluster, and dyncos's dynamic row runs on a
// bare two-card engine with no plan, so neither is armed here. The
// crash-free churn showdown has its own check (schedd's
// TestRecoveryCleanChurn).
func TestRecoveryCleanOnEveryFigure(t *testing.T) {
	testChaos = &chaos.Plan{Seed: 1, Faults: []chaos.Fault{
		{Kind: chaos.CtrlDelay, Prob: 1, Delay: 1, Node: -1, From: 1 << 62},
	}}
	defer func() { testChaos = nil }()
	p := Params{Quick: true, Parallel: 4}
	for _, f := range Figures {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", f.Name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Render(p); got != string(want) {
			t.Errorf("%s with recovery armed diverged from the golden\n--- want ---\n%s\n--- got ---\n%s", f.Name, want, got)
		}
	}
}

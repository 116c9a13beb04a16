package experiments

import (
	"runtime"
	"strings"
	"testing"

	"gangfm/internal/fm"
)

func quickParams() Params {
	return Params{Quick: true, Parallel: runtime.NumCPU()}
}

func TestForEachCoversAll(t *testing.T) {
	for _, par := range []int{1, 3, 8} {
		hits := make([]int, 20)
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		forEach(par, len(hits), func(i int) {
			<-mu
			hits[i]++
			mu <- struct{}{}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallel=%d: index %d hit %d times", par, i, h)
			}
		}
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 1, 10) != 5 || clamp(-3, 1, 10) != 1 || clamp(99, 1, 10) != 10 {
		t.Fatal("clamp broken")
	}
}

func TestFig5Shape(t *testing.T) {
	points := Fig5(quickParams())
	byCtx := map[int]map[int]Fig5Point{}
	for _, pt := range points {
		if byCtx[pt.Contexts] == nil {
			byCtx[pt.Contexts] = map[int]Fig5Point{}
		}
		byCtx[pt.Contexts][pt.MsgSize] = pt
	}
	// 1 context: near peak for large messages.
	if p := byCtx[1][65536]; p.MBs < 55 {
		t.Fatalf("1-context 64K bandwidth %.1f MB/s, want near peak", p.MBs)
	}
	// 8 contexts: zero credits, no communication at all (the paper's
	// headline cliff).
	for size, p := range byCtx[8] {
		if p.MBs != 0 {
			t.Fatalf("8 contexts, size %d: bandwidth %.1f, want wedged", size, p.MBs)
		}
	}
	if a, err := fm.Allocate(fm.Partitioned, 252, 668, 8, 16); err == nil && a.C0 != 0 {
		t.Fatalf("8 contexts: C0 = %d, want 0", a.C0)
	}
	// Monotone non-increasing in context count for every size.
	for _, size := range fig5Sizes(true) {
		prev := byCtx[1][size].MBs
		for _, n := range []int{4, 8} {
			cur := byCtx[n][size].MBs
			if cur > prev*1.05 {
				t.Fatalf("size %d: bandwidth rose from %.1f to %.1f between contexts", size, prev, cur)
			}
			prev = cur
		}
	}
	// Bandwidth grows with message size at 1 context.
	if byCtx[1][256].MBs >= byCtx[1][65536].MBs {
		t.Fatal("bandwidth should grow with message size")
	}
}

func TestFig5Table(t *testing.T) {
	points := []Fig5Point{
		{Contexts: 1, MsgSize: 1024, MBs: 70},
		{Contexts: 2, MsgSize: 1024, MBs: 60},
		{Contexts: 1, MsgSize: 65536, MBs: 75},
		{Contexts: 2, MsgSize: 65536, MBs: 65},
	}
	s := Fig5Table(points).String()
	for _, want := range []string{"Figure 5", "1K", "64K", "70.00", "65.00"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}

func TestFig6Flatness(t *testing.T) {
	points := Fig6(quickParams())
	byJobs := map[int]map[int]Fig6Point{}
	for _, pt := range points {
		if byJobs[pt.Jobs] == nil {
			byJobs[pt.Jobs] = map[int]Fig6Point{}
		}
		byJobs[pt.Jobs][pt.MsgSize] = pt
	}
	// The headline: aggregate bandwidth is ~flat in the job count. Allow
	// 15% sag for switch overhead at the scaled-down quantum. Each of k
	// two-node jobs holds its own slot of the 2-node machine, so they all
	// finish (fig6Point panics otherwise) only by being switched in.
	for _, size := range fig6Sizes(true) {
		base := byJobs[1][size].AggregateMBs
		if base <= 0 {
			t.Fatalf("size %d: zero baseline bandwidth", size)
		}
		for _, k := range []int{4, 8} {
			agg := byJobs[k][size].AggregateMBs
			if agg < base*0.85 || agg > base*1.10 {
				t.Fatalf("size %d: aggregate at %d jobs = %.1f vs baseline %.1f — not flat",
					size, k, agg, base)
			}
		}
	}
}

func TestSwitchSweepShapes(t *testing.T) {
	full := Fig7(quickParams())
	improved := Fig9(quickParams())
	if len(full) != len(improved) || len(full) == 0 {
		t.Fatal("sweep sizes mismatch")
	}
	for i := range full {
		f, v := full[i], improved[i]
		if f.Switches == 0 || v.Switches == 0 {
			t.Fatalf("nodes %d: no switches sampled", f.Nodes)
		}
		// Figure 7 vs 9: the improved copy is dramatically cheaper.
		if v.CopyCycles*4 > f.CopyCycles {
			t.Fatalf("nodes %d: improved copy %.0f not <1/4 of full %.0f",
				f.Nodes, v.CopyCycles, f.CopyCycles)
		}
		// Full copy is occupancy-independent: ~constant across node
		// counts (compare to the 2-node value).
		ratio := f.CopyCycles / full[0].CopyCycles
		if ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("full copy cost varies with nodes: %.0f vs %.0f", f.CopyCycles, full[0].CopyCycles)
		}
	}
	// Figure 7: buffer switch dominates the full-copy switch.
	for _, f := range full {
		if f.CopyCycles < f.HaltCycles || f.CopyCycles < f.ReleaseCycles {
			t.Fatalf("nodes %d: full copy (%.0f) should dominate halt (%.0f) and release (%.0f)",
				f.Nodes, f.CopyCycles, f.HaltCycles, f.ReleaseCycles)
		}
	}
	// Figure 8: receive-buffer occupancy grows with node count; send
	// stays comparatively small.
	first, last := improved[0], improved[len(improved)-1]
	if last.ValidRecv <= first.ValidRecv {
		t.Fatalf("recv occupancy did not grow with nodes: %.1f -> %.1f",
			first.ValidRecv, last.ValidRecv)
	}
	if last.ValidSend > last.ValidRecv {
		t.Fatalf("send occupancy (%.1f) should stay below recv (%.1f) at 16 nodes",
			last.ValidSend, last.ValidRecv)
	}
	// Halt time grows with node count (skew + serial broadcast).
	if last.HaltCycles <= first.HaltCycles {
		t.Fatalf("halt cost did not grow with nodes: %.0f -> %.0f",
			first.HaltCycles, last.HaltCycles)
	}
}

func TestOverheadBounds(t *testing.T) {
	rep := Overhead(quickParams())
	// The paper's 85 ms / 12.5 ms figures bound the buffer-switch stage.
	fullMs := MsOf(rep.FullCopy.CopyCycles)
	impMs := MsOf(rep.Improved.CopyCycles)
	if fullMs >= 85 {
		t.Fatalf("full buffer switch %.1f ms, paper bound 85 ms", fullMs)
	}
	if impMs >= 12.5 {
		t.Fatalf("improved buffer switch %.1f ms, paper bound 12.5 ms", impMs)
	}
	if pct := PercentOfQuantum(rep.Improved.CopyCycles); pct >= 1.25 {
		t.Fatalf("improved overhead %.2f%% of 1 s quantum, paper says <1.25%%", pct)
	}
	s := OverheadTable(rep).String()
	if !strings.Contains(s, "full copy") || !strings.Contains(s, "valid-only") {
		t.Fatalf("overhead table malformed:\n%s", s)
	}
}

func TestCreditsMatchPaperFormulas(t *testing.T) {
	rows := Credits()
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	want := map[int][2]int{ // contexts -> {partitioned C0, switched C0}
		1: {41, 41}, 2: {10, 41}, 3: {4, 41}, 4: {2, 41},
		5: {1, 41}, 6: {1, 41}, 7: {0, 41}, 8: {0, 41},
	}
	for _, r := range rows {
		w := want[r.Contexts]
		if r.PartitionedC0 != w[0] || r.SwitchedC0 != w[1] {
			t.Fatalf("contexts %d: C0 = %d/%d, want %d/%d",
				r.Contexts, r.PartitionedC0, r.SwitchedC0, w[0], w[1])
		}
	}
	s := CreditsTable(rows).String()
	if !strings.Contains(s, "contexts") {
		t.Fatal("credits table malformed")
	}
}

func TestStageAndFig8Tables(t *testing.T) {
	pts := []SwitchPoint{{Nodes: 2, HaltCycles: 100, CopyCycles: 200, ReleaseCycles: 50, ValidSend: 1, ValidRecv: 5, Switches: 3}}
	if s := StageTable("Figure 7", pts).String(); !strings.Contains(s, "350.00") {
		t.Fatalf("stage table missing total:\n%s", s)
	}
	if s := Fig8FromSweep(pts).String(); !strings.Contains(s, "5.00") {
		t.Fatalf("fig8 table missing recv count:\n%s", s)
	}
}

func TestSchemesComparison(t *testing.T) {
	rows := Schemes(quickParams())
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	paper, share, pm := rows[0], rows[1], rows[2]
	// The paper's scheme: coordination cost but perfect efficiency.
	if paper.Discards != 0 || paper.Retransmissions != 0 {
		t.Fatalf("paper scheme should have no discards/retransmissions: %+v", paper)
	}
	if paper.CoordCycles == 0 {
		t.Fatal("paper scheme's flush+release should cost something")
	}
	// SHARE: zero coordination, but pays in discards and retransmissions.
	if share.CoordCycles != 0 {
		t.Fatalf("discard scheme should have zero coordination: %+v", share)
	}
	if share.Discards == 0 || share.Retransmissions == 0 {
		t.Fatalf("discard scheme should show recovery costs: %+v", share)
	}
	if share.Efficiency >= 1 {
		t.Fatalf("discard efficiency should be < 1: %v", share.Efficiency)
	}
	// PM: some quiescence wait, cheaper coordination than the paper's
	// full flush on the sampled runs is NOT guaranteed (quiescence can
	// be slow under load), but it must resolve without halt broadcasts —
	// asserted structurally in the altsched tests. Here: sanity.
	if pm.Switches == 0 {
		t.Fatal("pm scheme recorded no switches")
	}
	s := SchemesTable(rows).String()
	if !strings.Contains(s, "SHARE") || !strings.Contains(s, "paper") {
		t.Fatalf("schemes table malformed:\n%s", s)
	}
}

func TestResponsivenessComparison(t *testing.T) {
	rows := Responsiveness(quickParams())
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	gang, dyn := rows[0], rows[1]
	if gang.Requests == 0 || dyn.Requests == 0 {
		t.Fatalf("missing samples: %+v %+v", gang, dyn)
	}
	// Dynamic coscheduling answers in ~dispatch time; gang waits a
	// fraction of the quantum. An order of magnitude separates them.
	if dyn.MeanRTTCycles*5 > gang.MeanRTTCycles {
		t.Fatalf("dyncos RTT %.0f not clearly below gang %.0f",
			dyn.MeanRTTCycles, gang.MeanRTTCycles)
	}
	// But gang's maximum is bounded by roughly a full rotation.
	if gang.MaxRTTCycles > 3*4_000_000 {
		t.Fatalf("gang max RTT %.0f exceeds a full rotation", gang.MaxRTTCycles)
	}
	if s := ResponsivenessTable(rows).String(); !strings.Contains(s, "dynamic") {
		t.Fatal("table malformed")
	}
}

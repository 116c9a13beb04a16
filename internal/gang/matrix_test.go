package gang

import (
	"errors"
	"testing"
	"testing/quick"

	"gangfm/internal/myrinet"
	"gangfm/internal/sim"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16}
	for n, want := range cases {
		if got := nextPow2(n); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPlaceSingleJob(t *testing.T) {
	m := NewMatrixPolicy(16, 0, nil)
	p, err := m.Place(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Row != 0 || len(p.Cols) != 4 {
		t.Fatalf("placement %+v", p)
	}
	// Buddy alignment: a size-4 job starts on a multiple of 4.
	if p.Cols[0]%4 != 0 {
		t.Fatalf("block not aligned: %v", p.Cols)
	}
	if len(m.rows) != 1 || m.Jobs() != 1 {
		t.Fatalf("rows=%d jobs=%d", len(m.rows), m.Jobs())
	}
}

func TestPlaceTwoJobsShareRow(t *testing.T) {
	// Two size-8 jobs fit side by side in one row of 16.
	m := NewMatrixPolicy(16, 0, nil)
	p1, _ := m.Place(1, 8)
	p2, err := m.Place(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Row != 0 || p2.Row != 0 {
		t.Fatalf("jobs should share row 0: %d, %d", p1.Row, p2.Row)
	}
	if p1.Cols[0] == p2.Cols[0] {
		t.Fatal("jobs placed in the same block")
	}
	if m.JobAt(0, p1.Cols[0]) != 1 || m.JobAt(0, p2.Cols[0]) != 2 {
		t.Fatalf("row 0 holds %d and %d, want jobs 1 and 2", m.JobAt(0, p1.Cols[0]), m.JobAt(0, p2.Cols[0]))
	}
}

func TestPlaceLeastLoadedBlock(t *testing.T) {
	// After loading the left half, a new job should land on the right.
	m := NewMatrixPolicy(16, 0, nil)
	m.Place(1, 8) // left block, row 0
	m.Place(2, 8) // right block, row 0
	m.Place(3, 8) // row 1, either block
	p4, _ := m.Place(4, 4)
	// Job 3 made one 8-block heavier; job 4 (width 4) must land inside
	// the lighter half.
	p3, _ := m.Placement(3)
	if p4.Cols[0] >= p3.Cols[0] && p4.Cols[0] < p3.Cols[0]+8 {
		t.Fatalf("job 4 placed in the loaded block: job3 at %v, job4 at %v", p3.Cols, p4.Cols)
	}
}

func TestPlaceFullMachineJob(t *testing.T) {
	m := NewMatrixPolicy(16, 0, nil)
	p, err := m.Place(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cols) != 16 {
		t.Fatal("full-machine job should take every column")
	}
	p2, err := m.Place(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Row != 1 {
		t.Fatalf("second full job in row %d, want 1", p2.Row)
	}
}

func TestPlaceNonPowerOfTwo(t *testing.T) {
	m := NewMatrixPolicy(16, 0, nil)
	p, err := m.Place(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cols) != 5 {
		t.Fatalf("size-5 job got %d columns", len(p.Cols))
	}
	if p.Cols[0]%8 != 0 {
		t.Fatalf("size-5 job should align to its 8-wide buddy block: %v", p.Cols)
	}
}

// TestPlaceErrors: every invalid placement fails, and only the full slot
// table — the one a queueing driver waits out — wraps ErrSlotTableFull.
func TestPlaceErrors(t *testing.T) {
	m := NewMatrixPolicy(8, 2, nil)
	notFull := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s should fail", what)
		} else if errors.Is(err, ErrSlotTableFull) {
			t.Errorf("%s reported a full slot table: %v", what, err)
		}
	}
	_, err := m.Place(1, 0)
	notFull("zero size", err)
	_, err = m.Place(1, 9)
	notFull("oversized job", err)
	m.Place(1, 8)
	_, err = m.Place(1, 4)
	notFull("duplicate job", err)
	m.Place(2, 8)
	if _, err := m.Place(3, 8); !errors.Is(err, ErrSlotTableFull) {
		t.Errorf("exceeding maxRows: got %v, want ErrSlotTableFull", err)
	}
}

func TestRemoveAndTrim(t *testing.T) {
	m := NewMatrixPolicy(8, 0, nil)
	m.Place(1, 8)
	m.Place(2, 8)
	if len(m.rows) != 2 {
		t.Fatal("want 2 rows")
	}
	if err := m.Remove(2); err != nil {
		t.Fatal(err)
	}
	if len(m.rows) != 1 {
		t.Fatalf("trailing empty row not trimmed: %d rows", len(m.rows))
	}
	if err := m.Remove(2); err == nil {
		t.Fatal("double remove should fail")
	}
	m.Remove(1)
	if len(m.rows) != 0 || m.Jobs() != 0 {
		t.Fatal("matrix should be empty")
	}
}

func TestRotateRoundRobin(t *testing.T) {
	m := NewMatrixPolicy(4, 0, nil)
	m.Place(1, 4)
	m.Place(2, 4)
	m.Place(3, 4)
	var seen []int
	for i := 0; i < 6; i++ {
		seen = append(seen, m.Rotate())
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("rotation %v, want %v", seen, want)
		}
	}
}

func TestRotateSkipsEmptiedRow(t *testing.T) {
	m := NewMatrixPolicy(4, 0, nil)
	m.Place(1, 4)
	m.Place(2, 4)
	m.Place(3, 4)
	m.Rotate() // row 0
	m.Remove(2)
	if r := m.Rotate(); r != 2 {
		t.Fatalf("rotation after removing row-1 job went to %d, want 2", r)
	}
}

func TestRotateEmptyMatrix(t *testing.T) {
	m := NewMatrixPolicy(4, 0, nil)
	if m.Rotate() != -1 {
		t.Fatal("empty matrix rotation should return -1")
	}
}

func TestJobAtBounds(t *testing.T) {
	m := NewMatrixPolicy(4, 0, nil)
	m.Place(7, 2)
	if m.JobAt(0, 0) != 7 {
		t.Fatal("JobAt(0,0)")
	}
	if m.JobAt(5, 0) != myrinet.NoJob || m.JobAt(0, 9) != myrinet.NoJob || m.JobAt(-1, -1) != myrinet.NoJob {
		t.Fatal("out-of-bounds JobAt should return NoJob")
	}
}

// Property: after any sequence of placements (sizes 1..cols), no cell
// holds two jobs, every job's cells are within one row and within one
// aligned buddy block, and removals restore all cells.
func TestMatrixInvariantProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		m := NewMatrixPolicy(16, 0, nil)
		placed := make(map[myrinet.JobID]Placement)
		next := myrinet.JobID(1)
		for _, s := range sizes {
			size := int(s)%16 + 1
			p, err := m.Place(next, size)
			if err != nil {
				return false // unbounded rows: placement must succeed
			}
			placed[next] = p
			next++
		}
		// Cell consistency.
		counts := make(map[myrinet.JobID]int)
		for r := 0; r < len(m.rows); r++ {
			for c := 0; c < m.cols; c++ {
				if j := m.JobAt(r, c); j != myrinet.NoJob {
					counts[j]++
					if placed[j].Row != r {
						return false
					}
				}
			}
		}
		for j, p := range placed {
			if counts[j] != len(p.Cols) {
				return false
			}
			width := nextPow2(len(p.Cols))
			if width > 16 {
				width = 16
			}
			block := p.Cols[0] / width
			for _, c := range p.Cols {
				if c/width != block {
					return false // crossed a buddy boundary
				}
			}
		}
		// Remove everything.
		for j := range placed {
			if err := m.Remove(j); err != nil {
				return false
			}
		}
		return len(m.rows) == 0 && m.Jobs() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAuditCleanAndCorrupted(t *testing.T) {
	m := NewMatrixPolicy(4, 0, nil)
	if _, err := m.Place(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Place(2, 4); err != nil {
		t.Fatal(err)
	}
	if bad := m.Audit(); len(bad) != 0 {
		t.Fatalf("clean matrix audited dirty: %v", bad)
	}
	// Corrupt a cell behind the placement map's back: job 1 loses a cell to
	// an unplaced job.
	m.rows[0][0] = 99
	bad := m.Audit()
	if len(bad) == 0 {
		t.Fatal("corrupted matrix audited clean")
	}
}

// recountFreeCols counts, from the raw cells, the live columns holding
// fewer processes than the slot-table depth: what FreeCols must answer.
func recountFreeCols(m *Matrix) int {
	n := 0
	for c := 0; c < m.cols; c++ {
		if m.ColDead(c) {
			continue
		}
		used := 0
		for r := 0; r < len(m.rows); r++ {
			if m.JobAt(r, c) != myrinet.NoJob {
				used++
			}
		}
		if m.maxRows <= 0 || used < m.maxRows {
			n++
		}
	}
	return n
}

// TestChurnQuickCheck drives every packing policy through seeded random
// submit/kill/compact churn — the online scheduler's operation mix — and
// after every mutation audits the full invariant set: no slot
// double-booking, placements consistent, and the incremental occupancy
// caches (colLoad/rowFree) agreeing with a recount. It also checks that
// Unify still compacts: a second pass immediately after one never moves
// anything further.
func TestChurnQuickCheck(t *testing.T) {
	for _, policy := range Policies() {
		policy := policy
		t.Run(policy.Name(), func(t *testing.T) {
			rng := sim.NewRand(0xC0FFEE)
			m := NewMatrixPolicy(8, 8, policy)
			live := []myrinet.JobID{}
			next := myrinet.JobID(1)
			audit := func(step int, op string) {
				t.Helper()
				if bad := m.Audit(); len(bad) != 0 {
					t.Fatalf("step %d (%s): %v", step, op, bad)
				}
				if got, want := m.FreeCols(), recountFreeCols(m); got != want {
					t.Fatalf("step %d (%s): FreeCols = %d, recount says %d", step, op, got, want)
				}
			}
			for step := 0; step < 2000; step++ {
				switch {
				case len(live) == 0 || rng.Bool(0.5):
					size := 1 + rng.Intn(8)
					if _, err := m.Place(next, size); err != nil {
						// Slot table full is a legal outcome, never corruption.
						audit(step, "place-reject")
						continue
					}
					live = append(live, next)
					next++
					audit(step, "place")
				case rng.Bool(0.2):
					// Explicit compaction (the daemon's migration pass).
					m.Unify()
					audit(step, "unify")
					if again := m.Unify(); again != 0 {
						t.Fatalf("step %d: second Unify moved %d jobs — first pass did not compact", step, again)
					}
				default:
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					if err := m.Remove(id); err != nil {
						t.Fatalf("step %d: remove %d: %v", step, id, err)
					}
					audit(step, "remove")
				}
			}
			for _, id := range live {
				if err := m.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			if len(m.rows) != 0 || m.Jobs() != 0 {
				t.Fatalf("drained matrix not empty: %d rows, %d jobs", len(m.rows), m.Jobs())
			}
		})
	}
}

func TestKillColumnShrinksCapacity(t *testing.T) {
	m := NewMatrixPolicy(8, 4, nil)
	if _, err := m.Place(1, 4); err != nil {
		t.Fatal(err)
	}
	// Kill a free column: live capacity and the row-free cache both shrink.
	if err := m.KillColumn(6); err != nil {
		t.Fatal(err)
	}
	if m.LiveCols() != 7 || !m.ColDead(6) || m.ColDead(5) {
		t.Fatalf("live=%d dead(6)=%v dead(5)=%v", m.LiveCols(), m.ColDead(6), m.ColDead(5))
	}
	if got := m.RowFree(0); got != 3 {
		t.Fatalf("RowFree(0) = %d after killing a free column, want 3", got)
	}
	if m.JobAt(0, 6) != myrinet.NoJob {
		t.Fatalf("dead cell reads as job %d", m.JobAt(0, 6))
	}
	// The full-machine precheck now counts live columns, not physical ones.
	if _, err := m.Place(2, 8); err == nil {
		t.Fatal("size-8 job placed on a 7-live-column machine")
	}
	if bad := m.Audit(); bad != nil {
		t.Fatalf("audit after kill: %v", bad)
	}
}

func TestKillColumnUnderJob(t *testing.T) {
	m := NewMatrixPolicy(4, 4, FirstFit{})
	p, err := m.Place(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Kill a column a job occupies: the cell is tallied as dead-occupied
	// (the job still holds it) and the audit stays clean until the caller
	// kills the spanning job, as the masterd eviction path does.
	if err := m.KillColumn(2); err != nil {
		t.Fatal(err)
	}
	if bad := m.Audit(); bad != nil {
		t.Fatalf("audit between kill and job removal: %v", bad)
	}
	if m.JobAt(p.Row, 2) != 1 {
		t.Fatalf("occupied dead cell lost its job: %d", m.JobAt(p.Row, 2))
	}
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	// The vacated dead cell must not return to free capacity.
	if len(m.rows) != 0 {
		t.Fatalf("rows = %d after removing the only job, want 0 (trimmed)", len(m.rows))
	}
	if _, err := m.Place(2, 4); err == nil {
		t.Fatal("size-4 job placed on a 3-live-column machine")
	}
	q, err := m.Place(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range q.Cols {
		if c == 2 {
			t.Fatalf("placement %v landed on dead column 2", q.Cols)
		}
	}
	if bad := m.Audit(); bad != nil {
		t.Fatalf("audit after re-place: %v", bad)
	}
}

func TestKillColumnErrors(t *testing.T) {
	m := NewMatrixPolicy(4, 0, nil)
	if err := m.KillColumn(-1); err == nil {
		t.Fatal("killed column -1")
	}
	if err := m.KillColumn(4); err == nil {
		t.Fatal("killed column past the machine")
	}
	if err := m.KillColumn(1); err != nil {
		t.Fatal(err)
	}
	if err := m.KillColumn(1); err == nil {
		t.Fatal("killed column 1 twice")
	}
}

func TestPackersSkipDeadColumns(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			m := NewMatrixPolicy(8, 8, pol)
			for _, c := range []int{1, 4} {
				if err := m.KillColumn(c); err != nil {
					t.Fatal(err)
				}
			}
			for id := myrinet.JobID(1); id <= 6; id++ {
				p, err := m.Place(id, 1+int(id)%4)
				if err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				for _, c := range p.Cols {
					if m.ColDead(c) {
						t.Fatalf("job %d placed on dead column %d (cols %v)", id, c, p.Cols)
					}
				}
			}
			if bad := m.Audit(); bad != nil {
				t.Fatalf("audit: %v", bad)
			}
		})
	}
}

// TestKillColumnChurnQuickCheck extends the churn property test with node
// kills: random place/remove/unify traffic interleaved with column kills
// (each followed by removing the spanning jobs, the masterd contract), with
// a full audit after every step.
func TestKillColumnChurnQuickCheck(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			rng := sim.NewRand(23)
			m := NewMatrixPolicy(8, 6, pol)
			var live []myrinet.JobID
			next := myrinet.JobID(1)
			audit := func(step int, op string) {
				if bad := m.Audit(); bad != nil {
					t.Fatalf("step %d after %s: %v", step, op, bad)
				}
				if got, want := m.FreeCols(), recountFreeCols(m); got != want {
					t.Fatalf("step %d after %s: FreeCols = %d, recount says %d", step, op, got, want)
				}
			}
			for step := 0; step < 1500; step++ {
				switch {
				case m.LiveCols() > 2 && rng.Bool(0.02):
					// Kill a live column, then kill its spanning jobs as the
					// eviction path does.
					c := rng.Intn(8)
					for m.ColDead(c) {
						c = (c + 1) % 8
					}
					if err := m.KillColumn(c); err != nil {
						t.Fatalf("step %d: kill column %d: %v", step, c, err)
					}
					for i := 0; i < len(live); {
						p, _ := m.Placement(live[i])
						spans := false
						for _, pc := range p.Cols {
							if pc == c {
								spans = true
								break
							}
						}
						if !spans {
							i++
							continue
						}
						if err := m.Remove(live[i]); err != nil {
							t.Fatalf("step %d: remove spanning job %d: %v", step, live[i], err)
						}
						live = append(live[:i], live[i+1:]...)
					}
					audit(step, "kill-column")
				case len(live) == 0 || rng.Bool(0.5):
					size := 1 + rng.Intn(m.LiveCols())
					if _, err := m.Place(next, size); err != nil {
						audit(step, "place-reject")
						continue
					}
					live = append(live, next)
					next++
					audit(step, "place")
				case rng.Bool(0.2):
					m.Unify()
					audit(step, "unify")
				default:
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					if err := m.Remove(id); err != nil {
						t.Fatalf("step %d: remove %d: %v", step, id, err)
					}
					audit(step, "remove")
				}
			}
			for _, id := range live {
				if err := m.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			if m.Jobs() != 0 {
				t.Fatalf("drained matrix still holds %d jobs", m.Jobs())
			}
		})
	}
}

func TestReviveColumnRestoresCapacity(t *testing.T) {
	m := NewMatrixPolicy(8, 4, nil)
	if _, err := m.Place(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.KillColumn(6); err != nil {
		t.Fatal(err)
	}
	// Revive the drained column: live capacity, the row-free cache, and the
	// full-machine precheck must all see the regrown column immediately.
	if err := m.ReviveColumn(6); err != nil {
		t.Fatal(err)
	}
	if m.LiveCols() != 8 || m.ColDead(6) {
		t.Fatalf("live=%d dead(6)=%v after revive", m.LiveCols(), m.ColDead(6))
	}
	if got := m.RowFree(0); got != 4 {
		t.Fatalf("RowFree(0) = %d after revive, want 4", got)
	}
	if _, err := m.Place(2, 8); err != nil {
		t.Fatalf("size-8 job rejected on a fully revived machine: %v", err)
	}
	if bad := m.Audit(); bad != nil {
		t.Fatalf("audit after revive: %v", bad)
	}
}

func TestReviveColumnErrors(t *testing.T) {
	m := NewMatrixPolicy(4, 4, FirstFit{})
	if err := m.ReviveColumn(-1); err == nil {
		t.Fatal("revived column -1")
	}
	if err := m.ReviveColumn(4); err == nil {
		t.Fatal("revived column past the machine")
	}
	if err := m.ReviveColumn(1); err == nil {
		t.Fatal("revived a live column")
	}
	// A dead column still spanned by a job is not drained: revive must
	// refuse until the masterd kills the spanning job (the admit contract).
	if _, err := m.Place(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.KillColumn(2); err != nil {
		t.Fatal(err)
	}
	if err := m.ReviveColumn(2); err == nil {
		t.Fatal("revived a column with undrained cells")
	}
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := m.ReviveColumn(2); err != nil {
		t.Fatalf("revive after drain: %v", err)
	}
	if bad := m.Audit(); bad != nil {
		t.Fatalf("audit: %v", bad)
	}
}

// TestReviveColumnChurnQuickCheck closes the loop on the kill-column churn
// property test: random place/remove/unify traffic interleaved with column
// kills AND revivals of drained dead columns (the repair path's admit
// contract), with a full audit after every step. Capacity lost to a kill
// must be exactly recovered by the matching revive.
func TestReviveColumnChurnQuickCheck(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			rng := sim.NewRand(29)
			m := NewMatrixPolicy(8, 6, pol)
			var live []myrinet.JobID
			next := myrinet.JobID(1)
			audit := func(step int, op string) {
				if bad := m.Audit(); bad != nil {
					t.Fatalf("step %d after %s: %v", step, op, bad)
				}
				if got, want := m.FreeCols(), recountFreeCols(m); got != want {
					t.Fatalf("step %d after %s: FreeCols = %d, recount says %d", step, op, got, want)
				}
			}
			for step := 0; step < 1500; step++ {
				switch {
				case m.LiveCols() > 2 && rng.Bool(0.03):
					c := rng.Intn(8)
					for m.ColDead(c) {
						c = (c + 1) % 8
					}
					if err := m.KillColumn(c); err != nil {
						t.Fatalf("step %d: kill column %d: %v", step, c, err)
					}
					for i := 0; i < len(live); {
						p, _ := m.Placement(live[i])
						spans := false
						for _, pc := range p.Cols {
							if pc == c {
								spans = true
								break
							}
						}
						if !spans {
							i++
							continue
						}
						if err := m.Remove(live[i]); err != nil {
							t.Fatalf("step %d: remove spanning job %d: %v", step, live[i], err)
						}
						live = append(live[:i], live[i+1:]...)
					}
					audit(step, "kill-column")
				case m.LiveCols() < 8 && rng.Bool(0.06):
					// Revive one of the dead columns. Spanning jobs were
					// killed at eviction time, so every dead column here is
					// already drained and the revive must succeed.
					c := rng.Intn(8)
					for !m.ColDead(c) {
						c = (c + 1) % 8
					}
					if err := m.ReviveColumn(c); err != nil {
						t.Fatalf("step %d: revive column %d: %v", step, c, err)
					}
					audit(step, "revive-column")
				case len(live) == 0 || rng.Bool(0.5):
					size := 1 + rng.Intn(m.LiveCols())
					if _, err := m.Place(next, size); err != nil {
						audit(step, "place-reject")
						continue
					}
					live = append(live, next)
					next++
					audit(step, "place")
				case rng.Bool(0.2):
					m.Unify()
					audit(step, "unify")
				default:
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					if err := m.Remove(id); err != nil {
						t.Fatalf("step %d: remove %d: %v", step, id, err)
					}
					audit(step, "remove")
				}
			}
			for _, id := range live {
				if err := m.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			if m.Jobs() != 0 {
				t.Fatalf("drained matrix still holds %d jobs", m.Jobs())
			}
		})
	}
}

package gang

import (
	"testing"
	"testing/quick"

	"gangfm/internal/myrinet"
)

func TestPolicyByName(t *testing.T) {
	for _, want := range []string{"first-fit", "buddy", "best-fit"} {
		p, ok := PolicyByName(want)
		if !ok || p.Name() != want {
			t.Fatalf("PolicyByName(%q) = %v, %v", want, p, ok)
		}
	}
	if _, ok := PolicyByName("worst-fit"); ok {
		t.Fatal("unknown policy resolved")
	}
}

func TestFirstFitPacksLeftmost(t *testing.T) {
	m := NewMatrixPolicy(8, 0, FirstFit{})
	p1, _ := m.Place(1, 3)
	p2, err := m.Place(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// No buddy alignment: job 2 starts right after job 1.
	if p1.Cols[0] != 0 || p2.Cols[0] != 3 {
		t.Fatalf("first-fit placed at %v and %v", p1.Cols, p2.Cols)
	}
	if p2.Row != 0 {
		t.Fatalf("job 2 should share row 0, got %d", p2.Row)
	}
	// A job too wide for the remaining run opens a new row.
	p3, _ := m.Place(3, 2)
	if p3.Row != 1 || p3.Cols[0] != 0 {
		t.Fatalf("job 3 placed at row %d cols %v", p3.Row, p3.Cols)
	}
}

func TestBestFitPicksTightestRun(t *testing.T) {
	m := NewMatrixPolicy(8, 0, BestFit{})
	// Row 0: [A A . . . B B B] — a 2-wide hole between A and B... build it.
	m.Place(1, 2) // cols 0-1
	m.Place(2, 6) // cols 2-7 (tightest run is the 6-wide remainder)
	m.Place(3, 5) // row 1 cols 0-4
	if err := m.Remove(2); err != nil {
		t.Fatal(err)
	}
	// Free runs now: row 0 cols 2-7 (6 wide), row 1 cols 5-7 (3 wide).
	// A size-2 job must take the tighter row-1 run.
	p, err := m.Place(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Row != 1 || p.Cols[0] != 5 {
		t.Fatalf("best-fit placed at row %d cols %v, want row 1 col 5", p.Row, p.Cols)
	}
}

func TestBestFitUnifiesOnExit(t *testing.T) {
	m := NewMatrixPolicy(4, 0, BestFit{})
	m.Place(1, 3) // row 0 cols 0-2
	m.Place(2, 3) // row 1 cols 0-2
	m.Place(3, 3) // row 2 cols 0-2
	if len(m.rows) != 3 {
		t.Fatalf("rows = %d", len(m.rows))
	}
	// Removing the row-0 job must pull the survivors down a slot each.
	if err := m.Remove(1); err != nil {
		t.Fatal(err)
	}
	if len(m.rows) != 2 {
		t.Fatalf("unification left %d rows, want 2", len(m.rows))
	}
	p2, _ := m.Placement(2)
	p3, _ := m.Placement(3)
	if p2.Row != 0 || p3.Row != 1 {
		t.Fatalf("rows after unify: job2=%d job3=%d", p2.Row, p3.Row)
	}
	if bad := m.Audit(); len(bad) != 0 {
		t.Fatalf("audit after unify: %v", bad)
	}
}

func TestUnifyKeepsColumns(t *testing.T) {
	m := NewMatrixPolicy(4, 0, BestFit{})
	m.Place(1, 4) // row 0, all columns
	m.Place(2, 2) // row 1 cols 0-1
	m.Place(3, 2) // row 1 cols 2-3
	m.Remove(1)
	// Both survivors shared row 1; after unification one of them moves to
	// row 0 but must keep its exact column set (columns are nodes).
	p2, _ := m.Placement(2)
	p3, _ := m.Placement(3)
	if p2.Cols[0] != 0 || p3.Cols[0] != 2 {
		t.Fatalf("unify moved columns: job2=%v job3=%v", p2.Cols, p3.Cols)
	}
	if len(m.rows) != 1 {
		t.Fatalf("rows = %d, want 1 (both jobs fit one slot)", len(m.rows))
	}
}

// occupied counts non-empty cells across the whole matrix.
func occupied(m *Matrix) int {
	n := 0
	for r := 0; r < len(m.rows); r++ {
		for c := 0; c < m.cols; c++ {
			if m.JobAt(r, c) != myrinet.NoJob {
				n++
			}
		}
	}
	return n
}

// TestMatrixChurnAllPolicies is the churn property: under a randomized,
// seeded alloc/free sequence every packing policy must keep Audit clean
// after every operation, never leak or duplicate a slot (occupied cells
// always equal the summed sizes of live jobs), and drain back to an empty
// matrix when every job is removed.
func TestMatrixChurnAllPolicies(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			prop := func(ops []uint16) bool {
				m := NewMatrixPolicy(16, 8, pol)
				live := []myrinet.JobID{}
				sizes := map[myrinet.JobID]int{}
				next := myrinet.JobID(1)
				total := 0
				for _, op := range ops {
					if op%4 == 0 && len(live) > 0 {
						// Free a pseudo-random live job.
						i := int(op>>2) % len(live)
						id := live[i]
						if err := m.Remove(id); err != nil {
							return false
						}
						total -= sizes[id]
						delete(sizes, id)
						live = append(live[:i], live[i+1:]...)
					} else {
						size := int(op>>4)%16 + 1
						if _, err := m.Place(next, size); err == nil {
							live = append(live, next)
							sizes[next] = size
							total += size
						} // a full table is a legitimate rejection
						next++
					}
					if bad := m.Audit(); len(bad) != 0 {
						t.Logf("audit: %v", bad)
						return false
					}
					if occupied(m) != total {
						t.Logf("occupied %d != live total %d", occupied(m), total)
						return false
					}
				}
				for _, id := range live {
					if err := m.Remove(id); err != nil {
						return false
					}
				}
				return len(m.rows) == 0 && m.Jobs() == 0 && occupied(m) == 0
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

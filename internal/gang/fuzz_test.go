package gang

import (
	"slices"
	"testing"

	"gangfm/internal/myrinet"
)

// FuzzMatrixOps drives a matrix through an arbitrary sequence of Place,
// Remove, Unify, KillColumn and ReviveColumn calls and checks it against a
// naive reference after every step. The reference keeps only each placed
// job's columns and the set of dead columns; from those it recounts
// LiveCols, FreeCols (live columns holding fewer than maxRows jobs) and
// which kills and revives are legal. Matrix.Audit must stay clean
// throughout.
//
// The input's first three bytes pick the column count (1–16), the row
// bound (0, unbounded, to 4) and the packing policy; each later pair of
// bytes is one operation and its operand. The seed corpus is in
// testdata/fuzz/FuzzMatrixOps.
func FuzzMatrixOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		cols, maxRows := 1+int(in[0])%16, int(in[1])%5
		policy := Policies()[int(in[2])%len(Policies())]
		m := NewMatrixPolicy(cols, maxRows, policy)
		ref := &matrixRef{cols: cols, maxRows: maxRows, jobs: map[myrinet.JobID][]int{}, dead: make([]bool, cols)}
		next := myrinet.JobID(1)
		for i := 3; i+1 < len(in); i += 2 {
			op, arg := in[i]%5, int(in[i+1])
			switch op {
			case 0: // Place
				size := 1 + arg%cols
				p, err := m.Place(next, size)
				if err != nil {
					if size <= ref.live() && maxRows == 0 {
						t.Fatalf("step %d: placing size %d of %d live unbounded columns failed: %v", i, size, ref.live(), err)
					}
					break
				}
				if size > ref.live() || len(p.Cols) != size || !slices.IsSorted(p.Cols) ||
					slices.ContainsFunc(p.Cols, func(c int) bool { return ref.dead[c] }) {
					t.Fatalf("step %d: size %d placed on %v with dead %v", i, size, p.Cols, ref.dead)
				}
				ref.jobs[next] = slices.Clone(p.Cols)
				next++
			case 1: // Remove
				j := ref.pick(arg)
				if j == myrinet.NoJob {
					if m.Remove(next) == nil {
						t.Fatalf("step %d: removed unplaced job %d", i, next)
					}
					break
				}
				if err := m.Remove(j); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				delete(ref.jobs, j)
			case 2:
				m.Unify()
			case 3: // KillColumn, then (odd operand) evict the jobs on it
				c := arg % cols
				err := m.KillColumn(c)
				if (err == nil) == ref.dead[c] {
					t.Fatalf("step %d: KillColumn(%d) on dead=%v returned %v", i, c, ref.dead[c], err)
				}
				ref.dead[c] = true
				if arg&1 == 1 {
					for _, j := range ref.spanning(c) {
						if err := m.Remove(j); err != nil {
							t.Fatalf("step %d: %v", i, err)
						}
						delete(ref.jobs, j)
					}
				}
			case 4: // ReviveColumn
				c := arg % cols
				legal := ref.dead[c] && len(ref.spanning(c)) == 0
				if err := m.ReviveColumn(c); (err == nil) != legal {
					t.Fatalf("step %d: ReviveColumn(%d) (dead=%v, spanned by %v) returned %v",
						i, c, ref.dead[c], ref.spanning(c), err)
				}
				if legal {
					ref.dead[c] = false
				}
			}
			if bad := m.Audit(); len(bad) > 0 {
				t.Fatalf("step %d (op %d): audit: %v", i, op, bad)
			}
			if m.LiveCols() != ref.live() || m.FreeCols() != ref.freeCols() || m.Jobs() != len(ref.jobs) {
				t.Fatalf("step %d (op %d): live %d free %d jobs %d, reference %d %d %d",
					i, op, m.LiveCols(), m.FreeCols(), m.Jobs(), ref.live(), ref.freeCols(), len(ref.jobs))
			}
			for j, want := range ref.jobs {
				if p, ok := m.Placement(j); !ok || !slices.Equal(p.Cols, want) {
					t.Fatalf("step %d: job %d placed on %v, reference %v", i, j, p.Cols, want)
				}
			}
		}
	})
}

// matrixRef is FuzzMatrixOps' reference model: the columns of every
// placed job and the dead columns, nothing cached.
type matrixRef struct {
	cols, maxRows int
	jobs          map[myrinet.JobID][]int
	dead          []bool
}

func (r *matrixRef) live() int {
	n := 0
	for _, d := range r.dead {
		if !d {
			n++
		}
	}
	return n
}

func (r *matrixRef) freeCols() int {
	n := 0
	for c := 0; c < r.cols; c++ {
		if !r.dead[c] && (r.maxRows == 0 || len(r.spanning(c)) < r.maxRows) {
			n++
		}
	}
	return n
}

// spanning returns the jobs with a process on column c, in ID order.
func (r *matrixRef) spanning(c int) []myrinet.JobID {
	var out []myrinet.JobID
	for j, cs := range r.jobs {
		if slices.Contains(cs, c) {
			out = append(out, j)
		}
	}
	slices.Sort(out)
	return out
}

// pick returns the placed job at index arg in ID order, or NoJob when
// nothing is placed.
func (r *matrixRef) pick(arg int) myrinet.JobID {
	if len(r.jobs) == 0 {
		return myrinet.NoJob
	}
	ids := make([]myrinet.JobID, 0, len(r.jobs))
	for j := range r.jobs {
		ids = append(ids, j)
	}
	slices.Sort(ids)
	return ids[arg%len(ids)]
}

package gang

import "gangfm/internal/myrinet"

// A Policy decides where a job lands in the gang matrix. The columns a
// policy picks become the job's nodes for its whole lifetime (processes
// never migrate); the row is only the time slot, so row moves are cheap
// and Unify exploits that. Policies are stateless values: the same
// (matrix, size) input always yields the same proposal, which keeps
// trace-driven evaluation runs deterministic.
type Policy interface {
	// Name identifies the policy in tables and CLI flags.
	Name() string
	// Propose picks the row and columns for a job of the given size.
	// Returning row == len(m.rows) requests a fresh row; Matrix.Place
	// enforces the maxRows bound and commits the proposal.
	Propose(m *Matrix, size int) (row int, cols []int)
	// UnifyOnExit reports whether Remove should consolidate rows after a
	// departure (slot unification: surviving jobs migrate into earlier
	// rows so the rotation visits fewer slots).
	UnifyOnExit() bool
}

// Buddy is the DHC (Distributed Hierarchical Control) scheme of Feitelson
// & Rudolph used by ParPar: a job of size s goes to the least-loaded
// aligned block of 2^ceil(log2 s) columns, occupying the leftmost s cells
// of that block in the first row where they are all free (paper §2.1).
type Buddy struct{}

// Name returns "buddy".
func (Buddy) Name() string { return "buddy" }

// UnifyOnExit returns false: DHC relies on block alignment, not packing.
func (Buddy) UnifyOnExit() bool { return false }

// Propose implements the two DHC steps. Blocks that lost columns to node
// eviction compete only if enough live columns survive; a job then takes
// the leftmost live cells of the block. When no aligned block can hold the
// job (the shrink broke every buddy), alignment is abandoned and the job
// takes the machine's lowest live columns — degraded-mode placement beats
// wedging the queue.
func (Buddy) Propose(m *Matrix, size int) (int, []int) {
	// Step 1: pick the least-loaded aligned block of the buddy size.
	width := nextPow2(size)
	if width > m.cols {
		width = m.cols
	}
	bestStart, bestLoad := -1, -1
	for start := 0; start+width <= m.cols; start += width {
		liveIn := 0
		for c := start; c < start+width; c++ {
			if !m.dead[c] {
				liveIn++
			}
		}
		if liveIn < size {
			continue
		}
		load := m.blockLoad(start, width)
		if bestStart < 0 || load < bestLoad {
			bestStart, bestLoad = start, load
		}
	}
	// Step 2: the leftmost `size` live columns of the chosen block, in the
	// first row where they are all free.
	var cols []int
	if bestStart < 0 {
		cols = m.liveRange(size)
	} else {
		cols = make([]int, 0, size)
		for c := bestStart; len(cols) < size; c++ {
			if !m.dead[c] {
				cols = append(cols, c)
			}
		}
	}
	for r := range m.rows {
		if m.freeIn(r, cols) {
			return r, cols
		}
	}
	return len(m.rows), cols
}

// FirstFit scans rows in slot order and takes the leftmost contiguous run
// of free columns that fits, opening a new row only when no row has one.
// It packs greedily with no alignment, trading fragmentation resistance
// for simplicity — the classic baseline of the gang-packing literature.
type FirstFit struct{}

// Name returns "first-fit".
func (FirstFit) Name() string { return "first-fit" }

// UnifyOnExit returns false.
func (FirstFit) UnifyOnExit() bool { return false }

// Propose returns the first row holding a wide-enough free run. Rows whose
// cached free-cell count cannot cover the job are skipped without a scan.
func (FirstFit) Propose(m *Matrix, size int) (int, []int) {
	for r := range m.rows {
		if m.RowFree(r) < size {
			continue
		}
		if start := firstRun(m.rows[r], size); start >= 0 {
			return r, colRange(start, size)
		}
	}
	return len(m.rows), m.liveRange(size)
}

// BestFit places each job in the tightest free run anywhere in the matrix
// (the run whose leftover is smallest; ties go to the earliest row, then
// the leftmost run) and unifies slots when a job exits: survivors whose
// column set is free in an earlier row migrate down, so half-empty rows
// merge and the rotation stops visiting dead time slots.
type BestFit struct{}

// Name returns "best-fit".
func (BestFit) Name() string { return "best-fit" }

// UnifyOnExit returns true: departures trigger slot unification.
func (BestFit) UnifyOnExit() bool { return true }

// Propose returns the tightest-fitting free run. Rows whose cached
// free-cell count cannot cover the job are skipped without a scan.
func (BestFit) Propose(m *Matrix, size int) (int, []int) {
	bestRow, bestStart, bestLen := -1, -1, -1
	for r, row := range m.rows {
		if m.RowFree(r) < size {
			continue
		}
		for start := 0; start < len(row); {
			if row[start] != myrinet.NoJob {
				start++
				continue
			}
			end := start
			for end < len(row) && row[end] == myrinet.NoJob {
				end++
			}
			if run := end - start; run >= size && (bestLen < 0 || run < bestLen) {
				bestRow, bestStart, bestLen = r, start, run
			}
			start = end
		}
	}
	if bestRow >= 0 {
		return bestRow, colRange(bestStart, size)
	}
	return len(m.rows), m.liveRange(size)
}

// Policies returns every packing policy, in comparison-table order.
func Policies() []Policy { return []Policy{FirstFit{}, Buddy{}, BestFit{}} }

// PolicyByName resolves a CLI/trace policy name.
func PolicyByName(name string) (Policy, bool) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// firstRun returns the leftmost start of `size` consecutive free cells in
// the row, or -1.
func firstRun(row []myrinet.JobID, size int) int {
	run := 0
	for c, j := range row {
		if j != myrinet.NoJob {
			run = 0
			continue
		}
		run++
		if run == size {
			return c - size + 1
		}
	}
	return -1
}

// colRange returns [start, start+size).
func colRange(start, size int) []int {
	cols := make([]int, size)
	for i := range cols {
		cols[i] = start + i
	}
	return cols
}

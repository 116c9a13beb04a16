// Package gang implements the ParPar gang-scheduling matrix: columns are
// the machine's nodes, rows are time slots, and each cell holds (at most)
// one process of a parallel job. The masterd rotates among rows in
// round-robin order; the mapping of jobs into the matrix is delegated to a
// pluggable packing Policy. The default is the DHC (Distributed
// Hierarchical Control) buddy scheme of Feitelson & Rudolph — a job of
// size s is assigned to the least-loaded aligned block of 2^ceil(log2 s)
// columns, occupying the leftmost s cells of that block in the first row
// where they are all free (paper §2.1) — with first-fit and best-fit (plus
// slot unification on exit) available for the scheduler-evaluation runs.
package gang

import (
	"errors"
	"fmt"

	"gangfm/internal/myrinet"
)

// ErrSlotTableFull is wrapped by Place when a job would need a new row in
// a matrix already holding its maximum number of rows: the job fits the
// machine but must wait for a slot to free up.
var ErrSlotTableFull = errors.New("gang: slot table full")

// Placement records where a job sits in the matrix.
type Placement struct {
	Row  int
	Cols []int // the node columns assigned, ascending
}

// deadCell marks a cell in a killed column. It is distinct from both
// myrinet.NoJob and every real job ID, so free-run scans treat dead cells
// as permanently occupied and placement can never land on an evicted node.
const deadCell myrinet.JobID = -2

// Matrix is the gang-scheduling table.
type Matrix struct {
	cols    int
	maxRows int // 0 = unbounded
	policy  Policy
	rows    [][]myrinet.JobID
	jobs    map[myrinet.JobID]Placement
	current int

	// Aggregated occupancy caches, maintained incrementally by
	// Place/Remove/Unify so placement queries are O(candidate cells)
	// instead of re-scanning the whole matrix (the kubernetes
	// schedulercache.NodeInfo pattern, applied to a slot table):
	// colLoad[c] counts occupied cells in column c across all rows — the
	// DHC controller's subtree load and the online scheduler's per-node
	// residency; rowFree[r] counts free cells in row r, letting run
	// searches skip rows that cannot possibly hold the job.
	colLoad []int
	rowFree []int

	// Column-shrink state (failure-aware scheduling): dead[c] marks a
	// column whose node was evicted, live counts the surviving columns, and
	// rowDeadUsed[r] counts cells in row r still occupied by a job on a
	// dead column (non-zero only between KillColumn and the eviction of the
	// spanning jobs). rowFree counts free *live* cells, so capacity
	// questions answered from the caches reflect live capacity.
	dead        []bool
	live        int
	rowDeadUsed []int

	// auditCols is Audit's per-column recount scratch, kept on the matrix
	// so the per-quantum audit tick stays allocation-free (a fresh
	// variable-size make([]int, cols) would heap-allocate every call).
	auditCols []int
}

// NewMatrixPolicy returns a matrix with the given number of node columns
// and packing policy (nil selects the default DHC buddy policy). maxRows
// bounds the number of time slots (the fixed context count the buffers
// must be divided by in partitioned mode); 0 means unbounded.
func NewMatrixPolicy(cols, maxRows int, policy Policy) *Matrix {
	if cols <= 0 {
		panic("gang: need at least one column")
	}
	if policy == nil {
		policy = Buddy{}
	}
	return &Matrix{
		cols:    cols,
		maxRows: maxRows,
		policy:  policy,
		jobs:    make(map[myrinet.JobID]Placement),
		current: -1,
		colLoad: make([]int, cols),
		dead:    make([]bool, cols),
		live:    cols,
	}
}

// Policy returns the matrix's packing policy.
func (m *Matrix) Policy() Policy { return m.policy }

// LiveCols returns the number of surviving (non-killed) columns — the live
// capacity of the machine.
func (m *Matrix) LiveCols() int { return m.live }

// FreeCols returns the number of live columns with at least one free slot
// — a necessary condition for admitting a job of up to that many
// processes, since a placement needs that many distinct columns. In an
// unbounded matrix every live column can take another row.
func (m *Matrix) FreeCols() int {
	if m.maxRows <= 0 {
		return m.live
	}
	n := 0
	for c, load := range m.colLoad {
		if !m.dead[c] && load < m.maxRows {
			n++
		}
	}
	return n
}

// ColDead reports whether column c has been killed.
func (m *Matrix) ColDead(c int) bool {
	return c >= 0 && c < m.cols && m.dead[c]
}

// Jobs returns the number of placed jobs.
func (m *Matrix) Jobs() int { return len(m.jobs) }

// Placement returns a job's placement.
func (m *Matrix) Placement(job myrinet.JobID) (Placement, bool) {
	p, ok := m.jobs[job]
	return p, ok
}

// JobAt returns the job occupying (row, col), or NoJob. Dead cells read as
// NoJob: nothing runs there, and callers must not mistake the sentinel for
// a real job ID.
func (m *Matrix) JobAt(row, col int) myrinet.JobID {
	if row < 0 || row >= len(m.rows) || col < 0 || col >= m.cols {
		return myrinet.NoJob
	}
	if j := m.rows[row][col]; j != deadCell {
		return j
	}
	return myrinet.NoJob
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// blockLoad sums occupied cells over the block's columns, across all rows
// — the DHC controller's subtree load. Served from the per-column cache:
// O(width) regardless of the slot-table depth.
func (m *Matrix) blockLoad(start, width int) int {
	load := 0
	for c := start; c < start+width; c++ {
		load += m.colLoad[c]
	}
	return load
}

// RowFree returns the number of free cells in row r. O(1) from the cache.
func (m *Matrix) RowFree(r int) int {
	if r < 0 || r >= len(m.rows) {
		return 0
	}
	return m.rowFree[r]
}

// Place assigns a job of the given size using the packing policy. It
// returns the placement or an error when the job cannot fit (too large for
// the machine, or the slot table is full).
func (m *Matrix) Place(job myrinet.JobID, size int) (Placement, error) {
	if size <= 0 {
		return Placement{}, fmt.Errorf("gang: job %d has non-positive size %d", job, size)
	}
	if size > m.cols {
		return Placement{}, fmt.Errorf("gang: job %d of size %d exceeds %d nodes", job, size, m.cols)
	}
	if size > m.live {
		return Placement{}, fmt.Errorf("gang: job %d of size %d exceeds %d live nodes", job, size, m.live)
	}
	if _, dup := m.jobs[job]; dup {
		return Placement{}, fmt.Errorf("gang: job %d already placed", job)
	}

	row, cols := m.policy.Propose(m, size)
	if len(cols) != size || row < 0 || row > len(m.rows) {
		panic(fmt.Sprintf("gang: policy %s proposed row %d cols %v for size %d", m.policy.Name(), row, cols, size))
	}
	if row == len(m.rows) {
		if m.maxRows > 0 && len(m.rows) >= m.maxRows {
			return Placement{}, fmt.Errorf("%w (%d rows) placing job %d", ErrSlotTableFull, m.maxRows, job)
		}
		fresh := make([]myrinet.JobID, m.cols)
		for c := range fresh {
			if m.dead[c] {
				fresh[c] = deadCell
			} else {
				fresh[c] = myrinet.NoJob
			}
		}
		m.rows = append(m.rows, fresh)
		m.rowFree = append(m.rowFree, m.live)
		m.rowDeadUsed = append(m.rowDeadUsed, 0)
	}
	if !m.freeIn(row, cols) {
		panic(fmt.Sprintf("gang: policy %s proposed occupied cells row %d cols %v", m.policy.Name(), row, cols))
	}
	for _, c := range cols {
		m.rows[row][c] = job
		m.colLoad[c]++
	}
	m.rowFree[row] -= len(cols)
	p := Placement{Row: row, Cols: cols}
	m.jobs[job] = p
	return p, nil
}

func (m *Matrix) freeIn(row int, cols []int) bool {
	for _, c := range cols {
		if m.rows[row][c] != myrinet.NoJob {
			return false
		}
	}
	return true
}

// Remove deletes a job from the matrix. Trailing all-empty rows are
// trimmed so the rotation does not visit dead slots, and policies that
// request it get a slot-unification pass.
func (m *Matrix) Remove(job myrinet.JobID) error {
	p, ok := m.jobs[job]
	if !ok {
		return fmt.Errorf("gang: removing unplaced job %d", job)
	}
	for _, c := range p.Cols {
		if m.dead[c] {
			// The column died under this job: the cell reverts to the dead
			// sentinel, not to free capacity.
			m.rows[p.Row][c] = deadCell
			m.rowDeadUsed[p.Row]--
		} else {
			m.rows[p.Row][c] = myrinet.NoJob
			m.rowFree[p.Row]++
		}
		m.colLoad[c]--
	}
	delete(m.jobs, job)
	if m.policy.UnifyOnExit() {
		m.Unify()
	}
	m.trim()
	return nil
}

// trim drops trailing all-empty rows and clamps the rotation cursor.
func (m *Matrix) trim() {
	for len(m.rows) > 0 && m.rowEmpty(len(m.rows)-1) {
		m.rows = m.rows[:len(m.rows)-1]
	}
	m.rowFree = m.rowFree[:len(m.rows)]
	m.rowDeadUsed = m.rowDeadUsed[:len(m.rows)]
	if m.current >= len(m.rows) {
		m.current = len(m.rows) - 1
	}
}

// KillColumn removes an evicted node's column from the live capacity:
// free cells become dead sentinels (deducted from rowFree so run searches
// and the FreeCols precheck see live capacity only), and cells still
// occupied are tallied in rowDeadUsed until the spanning jobs are killed.
// The caller (masterd eviction) must kill those jobs afterwards; until
// then their placements keep the matrix audit-consistent.
func (m *Matrix) KillColumn(c int) error {
	if c < 0 || c >= m.cols {
		return fmt.Errorf("gang: kill of column %d outside [0,%d)", c, m.cols)
	}
	if m.dead[c] {
		return fmt.Errorf("gang: column %d already dead", c)
	}
	m.dead[c] = true
	m.live--
	for r := range m.rows {
		switch m.rows[r][c] {
		case myrinet.NoJob:
			m.rows[r][c] = deadCell
			m.rowFree[r]--
		case deadCell:
			// unreachable: the column was live until now
		default:
			m.rowDeadUsed[r]++
		}
	}
	m.trim()
	return nil
}

// ReviveColumn returns a repaired node's column to the live capacity: the
// dead sentinels flip back to free cells (credited to rowFree, so run
// searches and the FreeCols precheck immediately see the regrown
// capacity) and the column counts toward live again. It is KillColumn's
// inverse, legal only once the column is fully drained: the masterd must
// have killed every job that spanned the node before the eviction (i.e.
// rowDeadUsed holds no residue for this column — equivalently its colLoad
// is zero).
func (m *Matrix) ReviveColumn(c int) error {
	if c < 0 || c >= m.cols {
		return fmt.Errorf("gang: revive of column %d outside [0,%d)", c, m.cols)
	}
	if !m.dead[c] {
		return fmt.Errorf("gang: column %d is not dead", c)
	}
	if m.colLoad[c] != 0 {
		return fmt.Errorf("gang: column %d still holds %d undrained cells", c, m.colLoad[c])
	}
	m.dead[c] = false
	m.live++
	for r := range m.rows {
		if m.rows[r][c] == deadCell {
			m.rows[r][c] = myrinet.NoJob
			m.rowFree[r]++
		}
	}
	m.trim()
	return nil
}

// liveRange returns the lowest `size` live column indices, ascending. The
// caller must have checked size <= m.live.
func (m *Matrix) liveRange(size int) []int {
	cols := make([]int, 0, size)
	for c := 0; c < m.cols && len(cols) < size; c++ {
		if !m.dead[c] {
			cols = append(cols, c)
		}
	}
	return cols
}

// Unify migrates jobs into earlier time slots: a job moves to the lowest
// row where its exact column set is free. Only the row changes — the
// columns are the job's nodes, and processes never migrate — so the move
// is pure bookkeeping: the next rotation simply finds the job in a fuller
// slot. Returns the number of jobs moved. Rows are scanned bottom-up and
// candidates left-to-right, so the result is deterministic.
func (m *Matrix) Unify() int {
	moved := 0
	for r := 1; r < len(m.rows); r++ {
		for c := 0; c < m.cols; c++ {
			j := m.rows[r][c]
			if j == myrinet.NoJob || j == deadCell {
				continue
			}
			p := m.jobs[j]
			if p.Cols[0] != c {
				continue // visit each job once, at its leftmost cell
			}
			for lower := 0; lower < r; lower++ {
				if m.rowFree[lower] < len(p.Cols) || !m.freeIn(lower, p.Cols) {
					continue
				}
				for _, pc := range p.Cols {
					m.rows[r][pc] = myrinet.NoJob
					m.rows[lower][pc] = j
				}
				m.rowFree[r] += len(p.Cols)
				m.rowFree[lower] -= len(p.Cols)
				p.Row = lower
				m.jobs[j] = p
				moved++
				break
			}
		}
	}
	if moved > 0 {
		m.trim()
	}
	return moved
}

func (m *Matrix) rowEmpty(r int) bool {
	return m.rowFree[r] == m.live && m.rowDeadUsed[r] == 0
}

// Audit checks the matrix's structural invariants and returns one message
// per breach (nil when consistent): every placement's cells hold exactly
// its job, every occupied cell belongs to a recorded placement, no job
// appears in more than one row — the slot-exclusivity property gang
// scheduling's communication guarantees rest on — and the incremental
// occupancy caches agree with a full recount.
func (m *Matrix) Audit() []string {
	var bad []string
	cells := make(map[myrinet.JobID]int)
	if m.auditCols == nil {
		m.auditCols = make([]int, m.cols)
	}
	colCount := m.auditCols
	for c := range colCount {
		colCount[c] = 0
	}
	for r, row := range m.rows {
		free, deadUsed := 0, 0
		for c, j := range row {
			if j == deadCell {
				if !m.dead[c] {
					bad = append(bad, fmt.Sprintf("cell (%d,%d) holds a dead sentinel in a live column", r, c))
				}
				continue
			}
			if j == myrinet.NoJob {
				if m.dead[c] {
					bad = append(bad, fmt.Sprintf("cell (%d,%d) reads free in dead column %d", r, c, c))
					continue
				}
				free++
				continue
			}
			if m.dead[c] {
				deadUsed++
			}
			colCount[c]++
			cells[j]++
			p, ok := m.jobs[j]
			if !ok {
				bad = append(bad, fmt.Sprintf("cell (%d,%d) holds unplaced job %d", r, c, j))
				continue
			}
			if p.Row != r {
				bad = append(bad, fmt.Sprintf("job %d occupies row %d but is placed in row %d", j, r, p.Row))
			}
		}
		if m.rowFree[r] != free {
			bad = append(bad, fmt.Sprintf("row %d cache says %d free cells, recount says %d", r, m.rowFree[r], free))
		}
		if m.rowDeadUsed[r] != deadUsed {
			bad = append(bad, fmt.Sprintf("row %d cache says %d dead-occupied cells, recount says %d", r, m.rowDeadUsed[r], deadUsed))
		}
	}
	for c, n := range colCount {
		if m.colLoad[c] != n {
			bad = append(bad, fmt.Sprintf("column %d cache says load %d, recount says %d", c, m.colLoad[c], n))
		}
	}
	liveCount := 0
	for _, d := range m.dead {
		if !d {
			liveCount++
		}
	}
	if liveCount != m.live {
		bad = append(bad, fmt.Sprintf("live-column cache says %d, recount says %d", m.live, liveCount))
	}
	for j, p := range m.jobs {
		if got := cells[j]; got != len(p.Cols) {
			bad = append(bad, fmt.Sprintf("job %d occupies %d cells, placement says %d", j, got, len(p.Cols)))
		}
		for _, c := range p.Cols {
			if m.JobAt(p.Row, c) != j {
				bad = append(bad, fmt.Sprintf("placement cell (%d,%d) does not hold job %d", p.Row, c, j))
			}
		}
	}
	return bad
}

// Rotate advances to the next non-empty row in round-robin order and
// returns its index, or -1 when the matrix holds no jobs. With a single
// non-empty row, Rotate returns that row (the caller can detect the
// no-switch-needed case by comparing with Current before rotating).
func (m *Matrix) Rotate() int {
	if len(m.rows) == 0 {
		m.current = -1
		return -1
	}
	start := m.current
	for i := 1; i <= len(m.rows); i++ {
		r := (start + i) % len(m.rows)
		if r < 0 {
			r += len(m.rows)
		}
		if !m.rowEmpty(r) {
			m.current = r
			return r
		}
	}
	m.current = -1
	return -1
}

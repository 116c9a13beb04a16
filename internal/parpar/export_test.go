package parpar

import "gangfm/internal/sim"

// Hooks for the tests in package parpar_test, which may import packages
// built on parpar (internal/workload) that this package's own tests
// cannot.

// TestHorizon bounds the external tests' runs like this package's own.
const TestHorizon = testHorizon

// GroupStats returns a sharded cluster's window counters, zero for an
// unsharded one.
func GroupStats(c *Cluster) sim.GroupStats {
	if c.group == nil {
		return sim.GroupStats{}
	}
	return c.group.Stats()
}

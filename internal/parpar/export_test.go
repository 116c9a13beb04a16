package parpar

// Hooks for the tests in package parpar_test, which may import packages
// built on parpar (internal/workload) that this package's own tests
// cannot.

// TestHorizon bounds the external tests' runs like this package's own.
const TestHorizon = testHorizon

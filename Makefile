GO ?= go

.PHONY: check fmt-check vet build test race fuzz-smoke sched-smoke churn-smoke churn-crash-smoke repair-smoke bench tracker-bench-smoke bench-module figures lint-hotpath

# The full CI gate: static checks, build, race-enabled tests, a short
# fixed-seed chaos-fuzz campaign, and scheduler-evaluation smoke runs
# (all deterministic, so safe to gate on).
check: fmt-check vet build race fuzz-smoke sched-smoke churn-smoke churn-crash-smoke repair-smoke tracker-bench-smoke bench-module lint-hotpath

# Formatting gate: fail on any file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race gate runs the full matrix, then the concurrent components —
# the sharded parallel engine, the sweep harness, the chaos injector and
# auditor and the scheduler daemon (whose hooks fire from concurrent shard
# workers), and the root package's sharded-vs-serial equivalence tests —
# once more explicitly.
race:
	$(GO) test -race ./...
	$(GO) test -race ./internal/sim/... ./internal/experiments/... ./internal/chaos/... ./internal/schedd/...
	$(GO) test -race -run 'TestParallel' .

fuzz-smoke:
	$(GO) run ./cmd/gangsim fuzz -seed 1 -runs 5
	$(GO) run ./cmd/gangsim fuzz -compare -seed 77
	$(GO) run ./cmd/gangsim fuzz -recovery -seed 1 -runs 25

# Scheduler-evaluation smoke: a quick trace replay across every packing
# policy and both credit schemes.
sched-smoke:
	$(GO) run ./cmd/gangsim sched -quick

# Online-scheduling smoke: the gang-vs-batch-vs-fractional showdown under
# live kills, resizes, and conservative backfill.
churn-smoke:
	$(GO) run ./cmd/gangsim churn -quick

# Failure-aware smoke: the same showdown with fail-stop node crashes armed
# — recovery evicts the dead nodes, the daemons requeue the killed jobs,
# and the availability table is appended.
churn-crash-smoke:
	$(GO) run ./cmd/gangsim churn -quick -crash 0.35 -adaptive

# Repair smoke: the closed failure loop — crashes detected by heartbeat,
# repaired nodes rejoining at rotation boundaries, and the availability
# table growing its repaired-capacity and post-repair-goodput columns. The
# full-size stream reboots one node while another's rejoin is settling.
# The full-size crash-only stream runs unsharded and sharded and must be
# byte-identical. Every leg exits non-zero on a chaos-auditor violation.
repair-smoke:
	$(GO) run ./cmd/gangsim churn -quick -crash 0.35 -repair 0.75 -adaptive
	$(GO) run ./cmd/gangsim churn -crash 0.35 -repair 0.75 -adaptive
	$(GO) run ./cmd/gangsim churn -crash 0.35 -adaptive -log > /tmp/churn-crash-full-a.txt
	$(GO) run ./cmd/gangsim churn -crash 0.35 -adaptive -log -shards 4 -workers 4 > /tmp/churn-crash-full-b.txt
	cmp /tmp/churn-crash-full-a.txt /tmp/churn-crash-full-b.txt

# Microbenchmarks with allocation reporting. BenchmarkEngineThroughput
# must stay at 0 allocs/op (see DESIGN.md §6); BenchmarkPhaseTrackerEpoch
# reports the flush tracker's ns/arrival, which stays flat in the peer
# count.
bench:
	$(GO) test -run XXX -bench . -benchmem . ./internal/lanai

# One iteration of the flush-tracker micro-benchmark, so it keeps
# compiling and running.
tracker-bench-smoke:
	$(GO) test -run XXX -bench PhaseTracker -benchtime 1x ./internal/lanai

# The repository benchmark module (bench/, run by bench/run.sh) is its
# own Go module: vet it and run its consistency tests.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

figures:
	$(GO) run ./cmd/gangsim all

# Guard the zero-alloc hot paths: audited packages must not grow inline
# closure callbacks at Schedule/At/Use call sites (allowlist for cold
# sites in tools/hotpath_allow.txt; see DESIGN.md §6).
lint-hotpath:
	sh tools/lint_hotpath.sh

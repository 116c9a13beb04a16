GO ?= go

.PHONY: check fmt-check vet build test race fuzz-smoke fuzz-native sched-smoke churn-smoke churn-crash-smoke repair-smoke bench tracker-bench-smoke bench-module figures lint-hotpath

# The full CI gate, and its only definition (ci.sh runs it): static
# checks, build, race-enabled tests, a short fixed-seed chaos-fuzz
# campaign, a time-boxed parser fuzz, and scheduler-evaluation smoke runs
# (all but the parser fuzz deterministic; it gates on a property, not an
# output).
check: fmt-check vet build race fuzz-smoke fuzz-native sched-smoke churn-smoke churn-crash-smoke repair-smoke tracker-bench-smoke bench-module lint-hotpath

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

# Coverage-guided fuzzing of the trace parser, time-boxed: malformed input
# must error without panicking, and accepted input must round-trip
# through the formatter. A failing input is saved under the package's
# testdata/fuzz and replays in every later `go test`.
fuzz-native:
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceFull$$' -fuzztime 10s ./internal/schedeval

# same-output runs `gangsim $(1)` twice, the second time with $(3)
# appended, and demands byte-identical output (files named after $(2)).
define same-output
	$(GO) run ./cmd/gangsim $(1) > /tmp/gangfm-$(2)-a.txt
	$(GO) run ./cmd/gangsim $(1) $(3) > /tmp/gangfm-$(2)-b.txt
	cmp /tmp/gangfm-$(2)-a.txt /tmp/gangfm-$(2)-b.txt
endef

# Every churn leg's second run is sharded, with windows on 4 workers.
SHARDED = -shards 4 -workers 4

# Scheduler-evaluation smoke: a quick trace replay across every packing
# policy and both credit schemes. The tables are a pure function of the
# seed, so the grid runs twice and must be byte-identical.
sched-smoke:
	$(call same-output,sched -quick,sched,)

# Online-scheduling smoke: the gang-vs-batch-vs-fractional showdown under
# live kills, resizes, and conservative backfill. The grid and the full
# decision logs are a pure function of the seed at any shards × workers.
churn-smoke:
	$(call same-output,churn -quick -log,churn,$(SHARDED))

# Failure-aware smoke: the same showdown with fail-stop node crashes armed
# — the heartbeat detects them, recovery evicts the dead nodes, the
# daemons requeue the killed jobs, and the availability table is
# appended. Crash plans key every fault decision on simulation state, so
# the sharded run must again be byte-identical, quick and full size.
churn-crash-smoke:
	$(call same-output,churn -quick -crash 0.35 -adaptive -log,churn-crash,$(SHARDED))
	$(call same-output,churn -crash 0.35 -adaptive -log,churn-crash-full,$(SHARDED))

# Repair smoke: the closed failure loop — crashes detected by heartbeat,
# repaired nodes rejoining at rotation boundaries, and the availability
# table growing its repaired-capacity and post-repair-goodput columns. The
# full-size stream reboots one node while another's rejoin is settling.
# Same promise. Every churn leg exits non-zero on a chaos-auditor
# violation or a task-table divergence.
repair-smoke:
	$(call same-output,churn -quick -crash 0.35 -repair 0.75 -adaptive -log,churn-repair,$(SHARDED))
	$(call same-output,churn -crash 0.35 -repair 0.75 -adaptive -log,churn-repair-full,$(SHARDED))

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

GO ?= go

.PHONY: check fmt-check vet build test race full-tables fuzz-smoke fuzz-native sched-smoke churn-smoke churn-crash-smoke repair-smoke bench engine-bench-smoke tracker-bench-smoke card-bench-smoke switch-bench-smoke setup-bench-smoke sharded-bench-smoke bench-module figures lint-hotpath

# The full CI gate, and its only definition (ci.sh runs it): static
# checks, build, race-enabled tests, a short fixed-seed chaos-fuzz
# campaign, time-boxed native fuzzing, and scheduler-evaluation smoke runs
# (all but the native fuzzing deterministic; it gates on properties, not
# outputs).
check: fmt-check vet build race full-tables fuzz-smoke fuzz-native sched-smoke churn-smoke churn-crash-smoke repair-smoke engine-bench-smoke tracker-bench-smoke card-bench-smoke switch-bench-smoke setup-bench-smoke sharded-bench-smoke bench-module lint-hotpath

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

# The full-size sweeps behind EXPERIMENTS.md: `gangsim all` must print
# results_full.txt byte for byte (the wall-clock line goes to stderr).
full-tables:
	$(GO) run ./cmd/gangsim all | cmp - results_full.txt

fuzz-smoke:
	$(GO) run ./cmd/gangsim fuzz -seed 1 -runs 5
	$(GO) run ./cmd/gangsim fuzz -compare -seed 77
	$(GO) run ./cmd/gangsim fuzz -recovery -seed 1 -runs 400

# Coverage-guided fuzzing, time-boxed. The trace parser: malformed input
# must error without panicking, and accepted input must round-trip
# through the formatter. The gang matrix: random Place/Remove/Unify/
# KillColumn/ReviveColumn sequences must keep Matrix.Audit clean and
# agree with a naive recount of live and free columns. A failing input is
# saved under the package's testdata/fuzz and replays in every later
# `go test`. Inputs are kept as found, failing ones included
# (-fuzzminimizetime 0x): Go's default of up to 60 s of minimizing per
# input would spend most of each 10 s budget shrinking instead of running.
fuzz-native:
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceFull$$' -fuzztime 10s -fuzzminimizetime 0x ./internal/schedeval
	$(GO) test -run '^$$' -fuzz '^FuzzMatrixOps$$' -fuzztime 10s -fuzzminimizetime 0x ./internal/gang

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
# decision logs are a pure function of the seed, identical across sharded
# runs at any shards × workers. This seed's unsharded run matches them
# too; that holds for most seeds, not all (DESIGN.md §7).
churn-smoke:
	$(call same-output,churn -quick -log,churn,$(SHARDED))

# Failure-aware smoke: the same showdown with fail-stop node crashes armed
# — the heartbeat detects them, recovery evicts the dead nodes, the
# daemons requeue the killed jobs, and the availability table is
# appended. Crash plans key every fault decision on simulation state, so
# the sharded run must again be byte-identical to the unsharded one, quick
# and full size (true of these seeds; see churn-smoke).
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
# (one pending event), BenchmarkEngineHeap64 (64, all in the near ring)
# and BenchmarkEngineWide (64, most in the far heap) must stay at 0
# allocs/op (see DESIGN.md §6); BenchmarkPhaseTrackerEpoch
# reports the flush tracker's ns/arrival, which stays flat in the peer
# count; BenchmarkCardStream reports the engine events per packet of one
# card streaming small packets; BenchmarkSwitchRound256 reports one whole
# switch round on 256 nodes; BenchmarkClusterSetup256 and
# BenchmarkClusterSetup512 report the bytes allocated building a 256-node
# (512-node) sharded cluster with 128 (256) pair jobs, in all and per node;
# BenchmarkShardedScale256 runs one 256-node, 128-pair bandwidth point
# unsharded and on 16 shards × 1 and × 2 workers, with its events, windows
# and parallel windows per point.
bench:
	$(GO) test -run XXX -bench . -benchmem . ./internal/lanai ./internal/parpar

# One iteration of each 64-deep event-queue benchmark, so they keep
# compiling and running.
engine-bench-smoke:
	$(GO) test -run XXX -bench 'EngineHeap64|EngineWide' -benchtime 1x .

# One iteration of the flush-tracker micro-benchmark, likewise.
tracker-bench-smoke:
	$(GO) test -run XXX -bench PhaseTracker -benchtime 1x ./internal/lanai

# A short run of the card-streaming benchmark, likewise; it prints its
# events per packet.
card-bench-smoke:
	$(GO) test -run XXX -bench CardStream -benchtime 1000x ./internal/lanai

# One iteration of the 256-node switch-round benchmark, likewise.
switch-bench-smoke:
	$(GO) test -run XXX -bench SwitchRound256 -benchtime 1x ./internal/parpar

# A short run of the 256- and 512-node set-up benchmarks, with their B/op
# and B/node.
setup-bench-smoke:
	$(GO) test -run XXX -bench 'ClusterSetup(256|512)' -benchtime 3x -benchmem ./internal/parpar

# One point of each sharded-scale sub-benchmark, likewise.
sharded-bench-smoke:
	$(GO) test -run XXX -bench ShardedScale256 -benchtime 1x ./internal/parpar

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

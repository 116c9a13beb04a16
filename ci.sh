#!/bin/sh
# ci.sh — the repository's CI gate, runnable locally or from a workflow.
# Equivalent to `make check`; kept as a script so CI needs only a shell.
set -eux

go vet ./...
go build ./...
go test -race ./...
# The concurrent components — the sharded parallel engine, the sweep
# harness, and the chaos injector/auditor and scheduler daemon whose hooks
# fire from concurrent shard workers — get an explicit -race pass even when
# the full matrix above is trimmed; the root package holds the
# sharded-vs-serial equivalence tests, whose worker pools are the hottest
# synchronization in the tree.
go test -race ./internal/sim/... ./internal/experiments/... ./internal/chaos/... ./internal/schedd/...
go test -race -run 'TestParallel' .

# Chaos-fuzz smoke: a short fixed-seed campaign plus the paper-§2.2
# differential (FM wedges under loss, go-back-N recovers). Both are
# deterministic by construction, so they are safe to gate on.
go run ./cmd/gangsim fuzz -seed 1 -runs 5
go run ./cmd/gangsim fuzz -compare -seed 77

# Recovery differential: each sampled plan runs bare and with the
# self-healing switch layer; any recovery-enabled failure exits non-zero.
go run ./cmd/gangsim fuzz -recovery -seed 1 -runs 25

# Scheduler-evaluation smoke: the sched tables are a pure function of the
# seed, so run the quick grid twice and demand byte-identical output.
go run ./cmd/gangsim sched -quick > /tmp/sched-ci-a.txt
go run ./cmd/gangsim sched -quick > /tmp/sched-ci-b.txt
cmp /tmp/sched-ci-a.txt /tmp/sched-ci-b.txt

# Online-scheduling smoke: the churn grid and its full decision logs are
# also a pure function of the seed — run twice (the second time on the
# sharded engine with 4 workers) and demand byte-identical output.
go run ./cmd/gangsim churn -quick -log > /tmp/churn-ci-a.txt
go run ./cmd/gangsim churn -quick -log -shards 4 -workers 4 > /tmp/churn-ci-b.txt
cmp /tmp/churn-ci-a.txt /tmp/churn-ci-b.txt

# Failure-aware smoke: crashes armed on top of the churn stream. Crash
# plans key every fault decision on simulation state, so the availability
# table and the full decision logs must also be byte-identical with the
# second leg sharded (4 shards, windows on 4 workers).
go run ./cmd/gangsim churn -quick -crash 0.35 -adaptive -log > /tmp/churn-crash-ci-a.txt
go run ./cmd/gangsim churn -quick -crash 0.35 -adaptive -log -shards 4 -workers 4 > /tmp/churn-crash-ci-b.txt
cmp /tmp/churn-crash-ci-a.txt /tmp/churn-crash-ci-b.txt

# Repair smoke: the closed failure loop — heartbeat detection plus node
# rejoin on top of the crash machinery. Same promise, so the second
# (sharded, windowed) leg must again be byte-identical.
go run ./cmd/gangsim churn -quick -crash 0.35 -repair 0.75 -adaptive -log > /tmp/churn-repair-ci-a.txt
go run ./cmd/gangsim churn -quick -crash 0.35 -repair 0.75 -adaptive -log -shards 4 -workers 4 > /tmp/churn-repair-ci-b.txt
cmp /tmp/churn-repair-ci-a.txt /tmp/churn-repair-ci-b.txt

# Benchmark pipeline smoke: the report must build and serialize, and the
# -compare path must parse it back and pass against itself re-measured
# (allocs/event is deterministic, so self-comparison never regresses).
go run ./cmd/gangsim bench -quick -o /tmp/bench-ci.json
go run ./cmd/gangsim bench -quick -o /tmp/bench-ci2.json -compare /tmp/bench-ci.json

# Hot-path closure lint: audited packages must stay closure-free at their
# Schedule/At call sites (allowlist in tools/hotpath_allow.txt).
make lint-hotpath

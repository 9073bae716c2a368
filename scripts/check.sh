#!/usr/bin/env sh
# check.sh — the repo's pre-commit gate: formatting, vet, build, the full
# test suite under the race detector (including the chaos fault-injection
# session and the parallel-vs-serial parity tests), a trainer benchmark
# smoke, and short fuzz smokes over the wire-frame and run-state decoders.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
# The round benchmark is its own Go module, so ./... above never builds
# it: vet and test it explicitly so an API change cannot break it silently.
(cd roundbench && go vet ./... && go test ./...)
# Project-specific invariants (determinism zones, lock discipline, error
# handling, telemetry naming, float comparisons, goroutine lifecycle,
# kernel allocation discipline, wire exhaustiveness) — exits non-zero on
# any finding; see cmd/fedmigr-lint and DESIGN.md §6.
go run ./cmd/fedmigr-lint ./...
# Self-lint: the lint engine is held to its own bar. -all-zones disables
# the package-path gates so errcheck and lockcheck apply to
# internal/analysis itself even though it sits in no analyzer zone.
go run ./cmd/fedmigr-lint -only errcheck,lockcheck -all-zones ./internal/analysis/...
# internal/experiments alone runs ~9 min under the race detector on a
# single core, right at go test's default 10m per-package timeout; give
# the suite explicit headroom so slow hosts don't flake.
go test -race -timeout 30m ./...
# Determinism parity under the race detector: parallel kernels and the
# worker-invariance proofs run again explicitly so a -run filter in the
# suite above can never silently skip them.
go test -race -run 'Parity|WorkerCountInvariance|ParallelRunMatchesSerial' ./internal/tensor ./internal/core .
# Multi-tenant determinism under the race detector: three concurrent jobs
# over a shared 1000-client fleet must produce bit-identical per-job
# models at 1 and 8 workers.
go test -race -run 'TestFleetWorkerInvariance1k' .
# Clustered-federation determinism under the race detector: the EMD
# clustering must recover the latent LAN grouping exactly and beat the
# single-global-model baseline, and both the clustered and one-shot
# analytic paths must be bit-identical at 1 vs 8 workers.
go test -race -run 'TestClusteredWorkerInvariance|TestClusteredRecovery' .
go test -race -run 'TestAnalyticWorkerCountInvariance' ./internal/core
# Dynamic-membership chaos under the race detector: 8 founding clients,
# two mid-session joins with warm handoff, one graceful leave whose
# in-flight TrainState is adopted by a survivor, and one crash — the
# session must lose zero rounds, and the test checks goroutine leaks.
go test -race -run 'TestChurnChaosSession' ./internal/fednet
# Checkpoint-resume smoke: fedmigr-sim has no Go tests, so these
# end-to-end runs are its gate — a resumed crash, bandwidth-budget or
# two-job run must print the uninterrupted run's rows, traffic and
# stopping epoch.
scripts/resume-smoke.sh
# 100k-client streaming smoke: one full cohort-sampled, hierarchically
# aggregated run at 100 000 simulated clients. The test itself asserts the
# post-GC heap ceiling (256 MB) and that peak hydrated replicas equal the
# cohort size — the O(1)-memory contract of the streaming upload path.
go test -run 'Test100kClientStreamingSmoke' .
# Scheduler benchmark smoke: one iteration of the 50-client round at each
# worker count (compile + run sanity, not a measurement).
go test -run '^$' -bench 'BenchmarkTrainer' -benchtime=1x .
go test -run '^$' -fuzz FuzzReadMessage -fuzztime 10s ./internal/fednet
go test -run '^$' -fuzz FuzzLoadRunState -fuzztime 10s ./internal/checkpoint
echo "check.sh: all checks passed"

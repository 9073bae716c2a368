#!/usr/bin/env sh
# bench.sh — runs the scheduler-related benchmarks (sched primitives,
# parallel tensor kernels, the 50-client trainer round) across worker
# counts and writes BENCH_sched.json: one record per (op, workers) with
# ns/op, allocs/op and the speedup against that op's workers=1 baseline.
# Then sweeps the aggregation path with fedmigr-sim and writes
# BENCH_agg.json: one record per (clients, mode) — streaming at fan-out
# 1/4/16 — with post-GC heap, Go runtime footprint
# (the peak-RSS proxy), peak hydrated replicas, and ns/round. The point
# of the sweep is the flat heap column as clients grows 1000 → 100000.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=5x scripts/bench.sh   # longer runs for stabler numbers
#
# The `cores` field records how many CPUs the host actually had: speedups
# can only materialize up to that bound (workers beyond cores add nothing
# but scheduling noise).
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_sched.json}"
benchtime="${BENCHTIME:-2x}"

# Numbers from a tree that violates the determinism/lock invariants are
# not comparable run-to-run; refuse to record them.
if ! go run ./cmd/fedmigr-lint ./...; then
    echo "bench.sh: refusing to record benchmarks from a tree that fails lint" >&2
    exit 1
fi

# ---- lint engine cold/warm -> BENCH_lint.json -------------------------
# Times a whole-tree lint with an empty incremental cache and again with
# the warm cache the first run just wrote. The warm number is the cost CI
# pays on an unchanged tree; the ratio is the cache's whole reason to
# exist (the CI lint step asserts warm >= 5x faster).
lint_out="BENCH_lint.json"
lintbin=$(mktemp)
lintcache=$(mktemp -d)
go build -o "$lintbin" ./cmd/fedmigr-lint
start=$(date +%s%N)
"$lintbin" -cache-dir "$lintcache" ./...
cold=$(($(date +%s%N) - start))
start=$(date +%s%N)
"$lintbin" -cache-dir "$lintcache" ./...
warm=$(($(date +%s%N) - start))
rm -rf "$lintbin" "$lintcache"
awk -v cold="$cold" -v warm="$warm" 'BEGIN {
    # %.0f, not %d: a cold whole-tree lint is tens of seconds, past 2^31 ns.
    sp = (warm > 0) ? cold / warm : 0
    printf "[\n  {\"op\": \"lint_cold\", \"ns_total\": %.0f},\n", cold
    printf "  {\"op\": \"lint_warm\", \"ns_total\": %.0f, \"speedup_vs_cold\": %.1f}\n]\n", warm, sp
}' > "$lint_out"
echo "bench.sh: wrote $lint_out (cold $((cold / 1000000)) ms, warm $((warm / 1000000)) ms)"

cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkForEach|BenchmarkParallelFor|BenchmarkArena' -benchtime "$benchtime" ./internal/sched | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkMatMul$|BenchmarkConv2D$' -benchtime "$benchtime" ./internal/tensor | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkTrainerRound' -benchtime "$benchtime" . | tee -a "$tmp"

awk -v cores="$cores" '
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)            # strip the GOMAXPROCS suffix
    workers = 1
    if (match(name, /workers=[0-9]+/))
        workers = substr(name, RSTART + 8, RLENGTH - 8) + 0
    op = name
    sub(/^Benchmark/, "", op)
    sub(/\/?(clients=[0-9]+\/)?workers=[0-9]+/, "", op)
    ns = $3 + 0
    allocs = "null"
    for (i = 1; i <= NF; i++)
        if ($i == "allocs/op") allocs = $(i - 1)
    n++
    ops[n] = op; ws[n] = workers; nss[n] = ns; als[n] = allocs
    if (workers == 1 && !(op in base)) base[op] = ns
}
END {
    printf "[\n"
    for (i = 1; i <= n; i++) {
        sp = (ops[i] in base && nss[i] > 0) ? base[ops[i]] / nss[i] : 1
        printf "  {\"op\": \"%s\", \"workers\": %d, \"ns_per_op\": %.1f, \"allocs_per_op\": %s, \"speedup_vs_serial\": %.3f, \"cores\": %d}%s\n", \
            ops[i], ws[i], nss[i], als[i], sp, cores, (i < n ? "," : "")
    }
    printf "]\n"
}' "$tmp" > "$out"

echo "bench.sh: wrote $out ($(grep -c '"op"' "$out") records, $cores cores)"

# ---- aggregation-path sweep -> BENCH_agg.json -------------------------
# Every run samples a 64-client cohort per round (memory must not depend
# on the total client count), partitions data over a replicated shard pool
# and prints a `memstats:` line the awk below turns into JSON. ns/round
# divides measured wall time by the run's aggregation rounds (epochs-1 at
# -agg 1); it is a smoke-grade number, not a microbenchmark.
agg_out="BENCH_agg.json"
simbin=$(mktemp)
trap 'rm -f "$tmp" "$simbin"' EXIT
go build -o "$simbin" ./cmd/fedmigr-sim

epochs=3
rounds=$((epochs - 1))
: > "$tmp"
for k in 1000 10000 100000; do
    for mode in stream-fan1 stream-fan4 stream-fan16; do
        case "$mode" in
        stream-fan1)  modeflags="-aggregators 1" ;;
        stream-fan4)  modeflags="-aggregators 4" ;;
        stream-fan16) modeflags="-aggregators 16" ;;
        esac
        start=$(date +%s%N)
        line=$("$simbin" -scheme fedavg -model mlp -partition replicate \
            -clients "$k" -lans 16 -perclass 32 -epochs "$epochs" -agg 1 \
            -batch 8 -cohort 64 -seed 3 -quiet -memstats $modeflags |
            grep '^memstats:')
        elapsed=$(($(date +%s%N) - start))
        echo "$k $mode $((elapsed / rounds)) $line"
    done
done | tee -a "$tmp"

awk '
{
    heap = sys = hyd = "null"
    for (i = 4; i <= NF; i++) {
        if (sub(/^heap_alloc_mb=/, "", $i)) heap = $i
        if (sub(/^sys_mb=/, "", $i))        sys = $i
        if (sub(/^max_hydrated=/, "", $i))  hyd = $i
    }
    n++
    printf "%s  {\"clients\": %d, \"mode\": \"%s\", \"ns_per_round\": %d, \"heap_alloc_mb\": %s, \"sys_mb\": %s, \"max_hydrated\": %s}", \
        (n > 1 ? ",\n" : "[\n"), $1, $2, $3, heap, sys, hyd
}
END { printf "\n]\n" }' "$tmp" > "$agg_out"

echo "bench.sh: wrote $agg_out ($(grep -c '"mode"' "$agg_out") records)"

# ---- multi-job fleet sweep -> BENCH_jobs.json -------------------------
# Sweeps the multi-tenant job manager at 1/3/8 concurrent jobs over a
# shared 1000-client fleet (2 fleet rounds each), plus a back-to-back
# sequential baseline of the same 3 jobs in their own single-job fleets.
# The headline number is ratio_vs_sequential on the 3-job multi record:
# concurrent tenancy must stay within 1.3x of sequential (jobs step
# serially inside a round by design, so the overhead is allocator +
# bookkeeping only). Also records the Hungarian assignment solver
# microbenchmark from internal/qp (the allocator's slots × clients solve).
jobs_out="BENCH_jobs.json"
qp_tmp=$(mktemp)
trap 'rm -f "$tmp" "$simbin" "$qp_tmp"' EXIT
go test -run '^$' -bench 'BenchmarkAssignment' -benchtime "$benchtime" ./internal/qp | tee "$qp_tmp"

jobspec() {
    n=$1 i=0 spec=""
    while [ "$i" -lt "$n" ]; do
        spec="${spec}name=j$i,model=mlp,demand=8,rounds=2,seed=$((i + 1));"
        i=$((i + 1))
    done
    printf '%s' "$spec"
}

fleetflags="-clients 1000 -lans 10 -partition replicate -replica-shards 8 \
    -perclass 8 -agg 2 -batch 8 -seed 9 -quiet"

: > "$tmp"
for n in 1 3 8; do
    start=$(date +%s%N)
    $simbin -jobs "$(jobspec "$n")" $fleetflags > /dev/null
    elapsed=$(($(date +%s%N) - start))
    echo "$n multi $elapsed"
done | tee -a "$tmp"

seq_total=0
for i in 0 1 2; do
    start=$(date +%s%N)
    $simbin -jobs "name=j$i,model=mlp,demand=8,rounds=2,seed=$((i + 1))" \
        $fleetflags > /dev/null
    seq_total=$((seq_total + $(date +%s%N) - start))
done
echo "3 sequential $seq_total" | tee -a "$tmp"

awk -v qpfile="$qp_tmp" '
{
    n++
    jobs[n] = $1; mode[n] = $2; ns[n] = $3
    if ($1 == 3 && $2 == "sequential") seq3 = $3
    if ($1 == 3 && $2 == "multi")      multi3 = $3
}
END {
    printf "[\n"
    for (i = 1; i <= n; i++) {
        ratio = "null"
        if (jobs[i] == 3 && mode[i] == "multi" && seq3 > 0)
            ratio = sprintf("%.3f", multi3 / seq3)
        printf "  {\"jobs\": %d, \"clients\": 1000, \"mode\": \"%s\", \"ns_total\": %d, \"ns_per_fleet_round\": %d, \"ratio_vs_sequential\": %s},\n", \
            jobs[i], mode[i], ns[i], ns[i] / 2, ratio
    }
    while ((getline line < qpfile) > 0) {
        if (line !~ /^BenchmarkAssignment/) continue
        split(line, f, /[ \t]+/)
        name = f[1]; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
        m++
        printf "%s  {\"op\": \"%s\", \"ns_per_op\": %.1f}", (m > 1 ? ",\n" : ""), name, f[3]
    }
    printf "\n]\n"
}' "$tmp" > "$jobs_out"

echo "bench.sh: wrote $jobs_out ($(grep -c '"jobs"\|"op"' "$jobs_out") records)"

# ---- churn-rate sweep -> BENCH_churn.json -----------------------------
# Sweeps the seeded arrival process: a 64-client founding cohort plus
# 0/64/256/1024 late joiners arriving over epochs [1,5). Every join epoch
# is a splitmix64 hash of (plan seed, client id), so the schedule replays
# identically at any rate; the sweep records the replayed arrival rate in
# joins per simulated minute (reaching thousands at the top end) and the
# wall cost per epoch, which must stay near-flat — admission is O(1) per
# joiner, not a cohort-wide reshuffle.
churn_out="BENCH_churn.json"
epochs=6
: > "$tmp"
for n in 0 64 256 1024; do
    churnflags=""
    if [ "$n" -gt 0 ]; then churnflags="-churn 64:$n:1-5"; fi
    start=$(date +%s%N)
    run=$("$simbin" -scheme fedavg -model mlp -partition replicate \
        -replica-shards 8 -clients $((64 + n)) -lans 8 -perclass 8 \
        -epochs "$epochs" -agg 2 -batch 8 -cohort 32 -seed 11 -quiet $churnflags)
    elapsed=$(($(date +%s%N) - start))
    joins=$(printf '%s\n' "$run" | sed -n 's/^churn: joins=\([0-9]*\).*/\1/p')
    simwall=$(printf '%s\n' "$run" | sed -n 's/^time: wall=\([0-9.]*\)s.*/\1/p')
    echo "$n ${joins:-0} ${simwall:-0} $((elapsed / epochs))"
done | tee -a "$tmp"

awk '
{
    n++
    rate = ($3 > 0) ? $2 / ($3 / 60) : 0
    printf "%s  {\"founding\": 64, \"joiners\": %d, \"joins\": %d, \"sim_wall_s\": %s, \"joins_per_sim_min\": %.1f, \"ns_per_epoch\": %d}", \
        (n > 1 ? ",\n" : "[\n"), $1, $2, $3, rate, $4
}
END { printf "\n]\n" }' "$tmp" > "$churn_out"

echo "bench.sh: wrote $churn_out ($(grep -c '"joiners"' "$churn_out") records)"

# ---- clustered-federation sweep -> BENCH_cluster.json -----------------
# Sweeps clusters 1/2/4/8 x clients 100/1000 on a LAN-correlated workload
# with 8 latent label groups, recording rounds-to-target (routed accuracy
# 0.7, -1 = not reached in the 30-round budget) and total upload bytes.
# The headline shape: as the cluster count approaches the latent group
# count, rounds-to-target collapses — one global model (clusters=1) burns
# the whole budget reconciling 8 label distributions that per-group models
# fit in a round or two. Then records the one-shot analytic baseline and
# an iterative FedMigr run at each fleet size; the analytic record carries
# saving_vs_fedmigr = FedMigr's total traffic over the analytic upload —
# the communication price of iterating at all on this workload.
cluster_out="BENCH_cluster.json"
cluster_target=0.7
: > "$tmp"
for k in 100 1000; do
    case "$k" in
    100)  pc=100 ;;
    1000) pc=300 ;;
    esac
    clusterflags="-partition lan -clients $k -lans 8 -perclass $pc \
        -scheme fedavg -agg 1 -batch 8 -cohort 16 -seed 5 -quiet"
    for c in 1 2 4 8; do
        line=$("$simbin" -clusters "$c" -cluster-rounds 30 \
            -target "$cluster_target" $clusterflags | grep '^clustered:')
        echo "clustered $c $k $line"
    done
    aline=$("$simbin" -analytic $clusterflags | grep '^analytic:')
    echo "analytic 0 $k $aline"
    mrun=$("$simbin" -scheme fedmigr -migrator greedy -partition lan \
        -clients "$k" -lans 8 -perclass "$pc" -epochs 30 -batch 8 \
        -cohort 16 -target "$cluster_target" -seed 5 -quiet)
    mbytes=$(printf '%s\n' "$mrun" | sed -n 's/^traffic: total=\([0-9.]*\)MB.*/\1/p')
    macc=$(printf '%s\n' "$mrun" | sed -n 's/.*final_acc=\([0-9.]*\).*/\1/p')
    echo "fedmigr 0 $k total_mb=${mbytes:-0} acc=${macc:-0}"
done | tee -a "$tmp"

# Records are buffered and printed in END so the analytic records can
# carry the saving ratio against the FedMigr run parsed later.
awk -v target="$cluster_target" '
{
    for (i = 4; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
    if ($1 == "clustered") {
        n++
        rec[n] = sprintf("{\"mode\": \"clustered\", \"clusters\": %d, \"clients\": %d, \"target_acc\": %s, \"rounds_to_target\": %s, \"rounds\": %s, \"routed_acc\": %s, \"total_bytes\": %s, \"handoff_bytes\": %s}", \
            $2, $3, target, v["rounds_to_target"], v["rounds"], v["routed_acc"], v["total_bytes"], v["handoff_bytes"])
    } else if ($1 == "analytic") {
        n++
        rec[n] = sprintf("{\"mode\": \"analytic\", \"clients\": %d, \"rounds\": 1, \"acc\": %s, \"upload_bytes\": %s", $3, v["acc"], v["upload_bytes"])
        ak[n] = $3                       # patched with the saving in END
        ab[$3] = v["upload_bytes"]
    } else if ($1 == "fedmigr") {
        n++
        rec[n] = sprintf("{\"mode\": \"fedmigr\", \"clients\": %d, \"acc\": %s, \"total_bytes\": %.0f}", $3, v["acc"], v["total_mb"] * 1e6)
        fb[$3] = v["total_mb"] * 1e6
    }
    delete v
}
END {
    printf "[\n"
    for (i = 1; i <= n; i++) {
        if (i in ak) {
            saving = (ab[ak[i]] > 0) ? fb[ak[i]] / ab[ak[i]] : 0
            rec[i] = rec[i] sprintf(", \"saving_vs_fedmigr\": %.2f}", saving)
        }
        printf "  %s%s\n", rec[i], (i < n ? "," : "")
    }
    printf "]\n"
}' "$tmp" > "$cluster_out"

echo "bench.sh: wrote $cluster_out ($(grep -c '"mode"' "$cluster_out") records)"

#!/usr/bin/env sh
# resume-smoke.sh — end-to-end gate for fedmigr-sim's checkpoint resume
# (the command has no Go tests of its own). Each scenario runs twice:
# uninterrupted, and checkpointed part-way followed by -resume.
#   crash:  FedAvg with a client crash at epoch 12, 20 epochs vs 10 + 10.
#           The epoch, round, loss, accuracy and traffic columns after the
#           resume point and the traffic summary must match.
#   budget: FedAvg under a 4 MB bandwidth budget, which stops the
#           uninterrupted run at epoch 15; resumed at epoch 10 with room for
#           30 epochs, it must stop at the same epoch with the same traffic.
#   jobs:   two FedAvg jobs over one fleet, -max-rounds 3 then -resume; the
#           per-job rows and summaries must match.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/fedmigr-sim" ./cmd/fedmigr-sim

# run NAME ARGS...: the uninterrupted run into NAME.full, then the split
# run into NAME.resumed; the split's first leg takes its own stop flag
# from $first.
run() {
    name=$1
    shift
    # shellcheck disable=SC2086 # last is a deliberate word list
    "$tmp/fedmigr-sim" "$@" $last >"$tmp/$name.full"
    # shellcheck disable=SC2086 # first is a deliberate word list
    "$tmp/fedmigr-sim" "$@" $first -checkpoint-every 1 -checkpoint-dir "$tmp/$name.ck" >/dev/null
    # shellcheck disable=SC2086 # last is a deliberate word list
    "$tmp/fedmigr-sim" "$@" $last -checkpoint-every 1 -checkpoint-dir "$tmp/$name.ck" -resume >"$tmp/$name.resumed"
}

# same NAME FILTER: the filtered output of both runs must be non-empty and
# equal.
same() {
    awk "$2" "$tmp/$1.full" >"$tmp/$1.full.rows"
    awk "$2" "$tmp/$1.resumed" >"$tmp/$1.resumed.rows"
    if [ ! -s "$tmp/$1.full.rows" ]; then
        echo "resume-smoke: $1: the uninterrupted run printed nothing to compare" >&2
        exit 1
    fi
    if ! diff "$tmp/$1.full.rows" "$tmp/$1.resumed.rows"; then
        echo "resume-smoke: $1: the resumed run differs from the uninterrupted run" >&2
        exit 1
    fi
}

# History rows past the resume point (epoch round loss acc traffic) and
# the stop and traffic summary lines.
single='$1 ~ /^[0-9]+$/ && $1 > 10 { print $1, $2, $3, $4, $5 }; /^scheme=|^traffic:/'

first="-epochs 10" last="-epochs 20" run crash -scheme fedavg -clients 10 -agg 5 -crash 3@12 -workers 1
same crash "$single"

first="-epochs 10" last="-epochs 30" run budget -scheme fedavg -clients 10 -agg 5 -workers 1 -bw-budget 4000000
same budget "$single; /^stopped on budget/"

jobs="name=a,model=mlp,demand=4,rounds=6;name=b,model=mlp,demand=3,rounds=6"
first="-max-rounds 3" last="" run jobs -jobs "$jobs" -scheme fedavg -clients 10 -workers 1
same jobs '/^job|^[0-9]+ |^fleet:/'

echo "resume-smoke: crash, budget and jobs resumes match the uninterrupted runs"

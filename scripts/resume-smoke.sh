#!/usr/bin/env sh
# resume-smoke.sh — end-to-end gate for fedmigr-sim's single-job
# checkpoint resume (the command has no Go tests of its own). A FedAvg run
# with a client crash at epoch 12 runs twice: 20 epochs uninterrupted, and
# 10 checkpointed epochs followed by -resume to 20. The epoch, round, loss
# and accuracy columns after the resume point must match.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/fedmigr-sim" ./cmd/fedmigr-sim
args="-scheme fedavg -clients 10 -agg 5 -crash 3@12 -workers 1"
# shellcheck disable=SC2086 # args is a deliberate word list
"$tmp/fedmigr-sim" $args -epochs 20 >"$tmp/full.txt"
# shellcheck disable=SC2086
"$tmp/fedmigr-sim" $args -epochs 10 -checkpoint-every 1 -checkpoint-dir "$tmp/ck" >/dev/null
# shellcheck disable=SC2086
"$tmp/fedmigr-sim" $args -epochs 20 -checkpoint-every 1 -checkpoint-dir "$tmp/ck" -resume >"$tmp/resumed.txt"

# History rows past the resume point: epoch round loss acc.
rows() { awk '$1 ~ /^[0-9]+$/ && $1 > 10 { print $1, $2, $3, $4 }' "$1"; }
rows "$tmp/full.txt" >"$tmp/full.rows"
rows "$tmp/resumed.txt" >"$tmp/resumed.rows"
if [ ! -s "$tmp/full.rows" ]; then
    echo "resume-smoke: the uninterrupted run printed no rows past epoch 10" >&2
    exit 1
fi
if ! diff "$tmp/full.rows" "$tmp/resumed.rows"; then
    echo "resume-smoke: resumed rows differ from the uninterrupted run" >&2
    exit 1
fi
echo "resume-smoke: resumed rows match the uninterrupted run"

#!/usr/bin/env bash
# Builds the benchmark and runs one measured block of every workload at 1/20
# of the operation counts (plus one traced run, so the span and ledger paths
# are exercised too). Takes a few seconds once built; the exit status is
# non-zero if anything fails to build or fails a correctness check. It says
# nothing about speed: blocks this short are noise.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0
run() {
    if cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --scale 0.05 --blocks 1 "$@" >/dev/null; then
        echo "ok     $*"
    else
        echo "FAILED $*"
        status=1
    fi
}

for workload in coded_clean coded_byz sim_faults live_steady live_byz; do
    run --workload "$workload" --trace 0
done
run --workload coded_byz --trace 1
exit $status

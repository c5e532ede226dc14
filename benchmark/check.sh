#!/usr/bin/env bash
# Unit tests, then a quick pass of all five workloads (and one traced run):
# does everything still build, run and check its outputs? Under a minute once
# built. The numbers of a --quick run mean nothing.
set -euo pipefail
cd "$(dirname "$0")"

cargo test --release --offline --quiet

run() {
    local last
    last=$(cargo run --release --offline --quiet -- "$@" | tail -n 1)
    case "$last" in
    *'"correct": true'*'"failed": 0'*) echo "ok   $*" ;;
    *) echo "FAIL $*: $last" && exit 1 ;;
    esac
}

for w in rpc_small bulk_getperson payload_4m q7_mix update_2pc; do
    run --workload "$w" --seed 7 --quick
done
run --workload rpc_small --seed 7 --quick --trace 1

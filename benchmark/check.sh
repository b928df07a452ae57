#!/usr/bin/env bash
# Runs the full benchmark twice on the same code and prints the two result
# sets side by side: every end-to-end time metric on every workload must agree
# within its own bound, and every simulated or counted metric must be
# bit-equal. The two sets are taken run by run (each workload's run of set 1
# is followed at once by the same run of set 2), because the host's speed
# drifts by 20 % over minutes. Extra arguments go to the runs (e.g. `--seed 7`,
# or `--quick` for a smoke test of the script itself). Exits non-zero on any
# disagreement or failed correctness check.
set -euo pipefail
cd "$(dirname "$0")"
exec cargo run --release --offline --quiet -- --check --out out/check "$@"

#!/usr/bin/env bash
# The benchmark's one command.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of the builder contract; the last line of standard output
#       is the result object
#   run.sh [--workload W] [--seed N] [--seconds S] [--sets K]
#       untraced and traced run of every (or one) workload in child
#       processes; prints `workload name value unit`, writes
#       out/results.json, and with --sets 2 the repeatability report
#   run.sh --smoke
#       all four workloads at a tenth of the scale, for a quick check
#
# Exits non-zero when the build fails, a check fails or a metric is missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
# Engine threads are pinned to one: a second core made `augment` no
# faster and noisier on the two-core box (see README.md).
export VADALINK_THREADS=1

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/vadalink-benchmark" --out "$here/out" "$@"

#!/usr/bin/env bash
# The benchmark's one command.  Builds `sild` from the checkout's own
# workspace and the two ledger binaries from this package, then runs them.
#
#   benchmark/run.sh                      the whole suite (about five minutes)
#   benchmark/run.sh --smoke              the same with 2 s windows
#   benchmark/run.sh --only warm_zipf     one workload, then the layers
#   benchmark/run.sh --aa                 the suite twice, compared to the bounds
#   benchmark/run.sh --seed 7             another request stream
#   benchmark/run.sh --regen-corpus       rewrite corpus/ from sil_workloads
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run for the PR driver; the last
#                                         line of output is its JSON result
#
# Exits non-zero if anything fails to build or run, or any reply was wrong.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds when the caller names one (the driver
# does); otherwise each workspace keeps its own.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
  esac
  export CARGO_TARGET_DIR
  sild_dir="$CARGO_TARGET_DIR"
  ledger_dir="$CARGO_TARGET_DIR"
else
  sild_dir="$root/target"
  ledger_dir="$root/benchmark/target"
fi

# Build output goes to stderr: stdout carries metrics only.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p sil-engine --bin sild 1>&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" 1>&2

export LEDGER_ROOT="$root"
export LEDGER_DIR="$root/benchmark"
export LEDGER_SILD="$sild_dir/release/sild"
export LEDGER_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"

for arg in "$@"; do
  if [ "$arg" = "--regen-corpus" ]; then
    exec "$ledger_dir/release/ledger-layers" --regen-corpus
  fi
done
exec "$ledger_dir/release/ledger-e2e" "$@"

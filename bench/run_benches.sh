#!/usr/bin/env bash
# Builds the Release preset, runs the benchmark binaries and collects the
# BENCH_*.json artifacts into the repository root.
#
# Usage: bench/run_benches.sh [--full] [--force] [--experiments]
#   --full         run bench_runtime_scale with the 500k-node configuration,
#                  bench_generator_scale with the 4M-node configuration,
#                  bench_parallel_scale with the 1M-node configurations, and
#                  print the 1M-node fault curves and the 1M-node end-to-end
#                  protocol sweep (slow)
#   --force        allow overwriting the committed BENCH_*.json artifacts
#                  with a quick (non --full) run
#   --experiments  also run the paper's experiments, bench/specs/e*.json
#                  (7–9 min in Release on 4 cores) and print their tables
#
# The committed BENCH_*.json artifacts are full-configuration runs; a quick
# run writes rows for fewer configurations and would silently shrink the
# artifacts. The script therefore refuses to overwrite committed artifacts
# unless --full (regenerating the real thing) or --force (you know what
# you're doing) is given.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)
BUILD_DIR=build-release

FULL_FLAG=""
FORCE=0
RUN_EXPERIMENTS=0
for arg in "$@"; do
  case "$arg" in
    --full) FULL_FLAG="--full" ;;
    --force) FORCE=1 ;;
    --experiments) RUN_EXPERIMENTS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [[ -z "$FULL_FLAG" && "$FORCE" -ne 1 ]]; then
  committed=$(cd "$REPO_ROOT" && git ls-files 'BENCH_*.json' 2>/dev/null || true)
  for f in $committed; do
    if [[ -e "$REPO_ROOT/$f" ]]; then
      echo "error: a quick run would overwrite the committed artifact $f." >&2
      echo "Rerun with --full to regenerate the full artifacts, or --force" >&2
      echo "to overwrite them with a quick run anyway." >&2
      exit 2
    fi
  done
fi

cmake --preset release -DNC_BUILD_TESTS=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

"$BUILD_DIR/bench_runtime_scale" $FULL_FLAG --json "$REPO_ROOT/BENCH_runtime.json"
"$BUILD_DIR/bench_generator_scale" $FULL_FLAG --json "$REPO_ROOT/BENCH_generators.json"
# Sharded-engine scaling at 1/2/4/8 threads; also re-verifies that every
# thread count reproduces the 1-thread RunStats bit-for-bit. Interpret
# speedups against the recorded hardware_concurrency (docs/benchmarks.md).
"$BUILD_DIR/bench_parallel_scale" $FULL_FLAG --json "$REPO_ROOT/BENCH_parallel.json"

# Fault-sweep curves: protocol quality + rounds-to-completion under
# message loss, link delay and node churn, one bracketed dist_near_clique
# entry per configuration in bench/specs/faults.json (100k). Each JSON line
# carries the row's merged params (loss, delay_*, crash_*, rel_mode) and
# its summed RunStats (stats_total: lost, delayed, retransmitted, ACK and
# repair counters). Fault and reliability decisions are keyed hashes, so
# the rows are bit-identical at any thread count (docs/benchmarks.md).
# BENCH_faults.json holds these rows in every mode; with --full the 1M
# curves of faults_1m.json only print their table, like the closing 1M
# sweep below.
"$BUILD_DIR/nearclique" sweep --spec="$REPO_ROOT/bench/specs/faults.json" \
    --json="$REPO_ROOT/BENCH_faults.json"
if [[ -n "$FULL_FLAG" ]]; then
  "$BUILD_DIR/nearclique" sweep --spec="$REPO_ROOT/bench/specs/faults_1m.json"
fi

# Small fixed-seed comparative sweep through the registry pair (scenario x
# algorithm, see src/expt/README.md) so future PRs can track the
# DistNearClique-vs-baselines trajectory: bench/specs/sweep.json holds
# eps = 0.2 fixed for every algorithm that declares it (neighbors2 and
# grasp parameterize differently; theorem57 falls back to its own
# eps = 0.2 for them), so the rows are comparable; the JSON records each
# row's fully merged parameters. JSON lines in BENCH_sweep.json.
"$BUILD_DIR/nearclique" sweep --spec="$REPO_ROOT/bench/specs/sweep.json" \
    --json="$REPO_ROOT/BENCH_sweep.json"

if [[ -n "$FULL_FLAG" ]]; then
  # The 1M-node end-to-end story (see README.md): a streaming-family
  # instance through the full DistNearClique protocol via the sweep runner
  # and the sharded delivery engine. pn=5000 keeps the sampled set large
  # enough to hit the 1000-node planted clique at n=1M (the paper's
  # guarantee assumes a *linear-size* clique; at million-node scale a dense
  # linear-size set would need ~n^2/8 edges, so the demo plants a small
  # dense set and raises the sampling rate instead). Not a committed
  # artifact — a completion check with a visible table.
  "$BUILD_DIR/nearclique" sweep --scenario=planted_near_clique \
      --params=n=1000000,clique_size=1000,background_p=0.00001,halo_p=0.00001 \
      --algos='dist_near_clique[eps=0.2,pn=5000]' \
      --trials=1 --seed=3 --threads=8 --success=effective \
      --title="1M-node end-to-end protocol sweep"
fi

if [[ "$RUN_EXPERIMENTS" -eq 1 ]]; then
  # The paper's experiments (docs/benchmarks.md maps E1..E12 to these specs
  # and to the tier-1 tests): tables only, no artifact.
  for spec in "$REPO_ROOT"/bench/specs/e*.json; do
    "$BUILD_DIR/nearclique" sweep --spec="$spec"
  done
fi

echo "artifacts:"
ls -1 "$REPO_ROOT"/BENCH_*.json

#!/bin/sh
# Sanitized test runs and smoke modes.  Every mode is one row of the table at
# the bottom: each `stage` call configures a build tree (with the given
# MOIRA_SANITIZE mode; empty = leave the tree's setting alone), builds the
# listed targets (all when empty), runs the test commands, then runs the
# report-generating bench binary once with the timing loops filtered out
# (--benchmark_filter='^$') in <build-dir>/<mode>/ and validates the
# BENCH_*.json it writes.  Every gate is an exit code: a failing test, a bench
# whose acceptance gates fail, or a malformed report stops the run.
# Usage: scripts/check.sh [build-dir]                   (default: build-asan)
#        scripts/check.sh --bench-smoke [build-dir]     (default: build)
#        scripts/check.sh --dcm-smoke [build-dir]       (default: build)
#        scripts/check.sh --failover-smoke [build-dir] [tsan-build-dir]
#                                          (defaults: build-asan, build-tsan)
#        scripts/check.sh --fault-smoke [build-dir]     (default: build-asan)
#        scripts/check.sh --quota-smoke [build-dir] [plain-build-dir]
#                                          (defaults: build-asan, build)
#        scripts/check.sh --repl-smoke [build-dir]      (default: build-asan)
#        scripts/check.sh --restore-smoke [build-dir]   (default: build-asan)
#        scripts/check.sh --tsan-smoke [build-dir]      (default: build-tsan)
set -e
cd "$(dirname "$0")/.."

MODE=""
case "$1" in --*) MODE="$1"; shift ;; esac
DIR1="$1"
DIR2="$2"

# Private scratch for a row's tests; removed however the run ends.
SMOKE_TMP=""
trap 'if [ -n "$SMOKE_TMP" ]; then rm -rf "$SMOKE_TMP"; fi' EXIT

# stage SANITIZER BUILD_DIR "TARGETS" 'TESTS' [BENCH [ENV=VALUE]]
# TESTS is evaluated as shell commands, with $B set to the build dir.
stage() {
  B="$2"
  cmake -B "$B" -S . ${1:+-DMOIRA_SANITIZE=$1} >/dev/null
  TARGETS=""
  for t in $3; do TARGETS="$TARGETS --target $t"; done
  cmake --build "$B" -j $TARGETS
  eval "$4"
  if [ -n "$5" ]; then
    SMOKE_DIR="$B/${MODE#--}"
    rm -rf "$SMOKE_DIR"
    mkdir -p "$SMOKE_DIR"
    BENCH_BIN="$(cd "$B/bench" && pwd)/$5"
    (cd "$SMOKE_DIR" && env $6 "$BENCH_BIN" --benchmark_filter='^$')
    python3 scripts/validate_bench_json.py "$SMOKE_DIR"/BENCH_*.json
  fi
}

# The point-in-time test hands its data directory over as
# moira-test/restore-pit; replay it through the offline CLI to a mid-history
# seq and to the end, the recovery path an operator would run.
restore_replay() {
  PIT_DIR="$SMOKE_TMP/moira-test/restore-pit"
  if [ ! -d "$PIT_DIR" ]; then
    echo "restore-smoke: missing $PIT_DIR (test_restore should have left it)" >&2
    exit 1
  fi
  "$B"/examples/mrrestore "$PIT_DIR" --to-seq 5 >/dev/null
  "$B"/examples/mrrestore "$PIT_DIR" --dump >/dev/null
  echo "restore-smoke: ok"
}

case "$MODE" in
  # Tier-1: the whole suite under ASan+UBSan.
  "")
    stage ON "${DIR1:-build-asan}" "" \
      'ctest --test-dir "$B" --output-on-failure -j' ;;
  # The query reports (planner vs scan, joins, sharded fan-out).
  --bench-smoke)
    stage "" "${DIR1:-build}" "bench_queries" "" bench_queries ;;
  # Incremental propagation at 10k and 100k users: >= 50x fewer rows and
  # bytes than full regeneration, patched fleets byte-identical to a fresh
  # full regeneration under the seeded fault plan.
  --dcm-smoke)
    stage "" "${DIR1:-build}" "bench_propagation test_dcm_incremental" \
      '"$B"/tests/test_dcm_incremental' \
      bench_propagation MOIRA_BENCH_INCREMENTAL_MAX_USERS=100000 ;;
  # Quorum writes and automatic failover (elections, epoch fencing, router
  # replay, the randomized partition/flap/crash sweep), then the failover
  # gates: zero acked writes lost, automatic convergence, one primary per
  # epoch.  The suite runs again under TSan (TSan and ASan cannot share a
  # build tree, hence the second one).
  --failover-smoke)
    stage ON "${DIR1:-build-asan}" "test_failover bench_replication" \
      '"$B"/tests/test_failover' bench_replication
    stage thread "${DIR2:-build-tsan}" "test_failover" '"$B"/tests/test_failover' ;;
  # The flaky-fleet sweep: the resilience layer must converge the fleet
  # faster than the baseline.  The incremental sweep is capped at 10k users;
  # the sanitizers make the 100k arm a --dcm-smoke job.
  --fault-smoke)
    stage ON "${DIR1:-build-asan}" "bench_propagation" "" \
      bench_propagation MOIRA_BENCH_INCREMENTAL_MAX_USERS=10000 ;;
  # The quota suite under the sanitizers, then the bench gates (rollups
  # examine >= 50x fewer rows than a full scan; the seeded-fault sweep fires
  # every oracle-expected notice exactly once) in a plain build, since the
  # 100k-user rollup arm is too slow under the sanitizers.
  --quota-smoke)
    stage ON "${DIR1:-build-asan}" "test_quota" '"$B"/tests/test_quota'
    stage "" "${DIR2:-build}" "bench_quota" "" bench_quota ;;
  # Read scaling (>= 3x with 4 replicas under seeded faults),
  # read-your-writes and byte-identical convergence.
  --repl-smoke)
    stage ON "${DIR1:-build-asan}" "bench_replication" "" bench_replication ;;
  # The checkpoint/changelog lifecycle (checkpoint -> rotate -> truncate ->
  # restart -> replica bootstrap under seeded faults), with test scratch
  # under a private TMPDIR so a concurrent ctest run cannot replace the
  # directory replayed by restore_replay.
  --restore-smoke)
    SMOKE_TMP="$(mktemp -d)"
    stage ON "${DIR1:-build-asan}" "test_restore mrrestore" \
      'TMPDIR="$SMOKE_TMP" "$B"/tests/test_restore; restore_replay' ;;
  # The tests that run on several threads: the worker pool, parallel shard
  # fan-out and server batch dispatch (the shard-count sweeps are serial and
  # covered by the tier-1 run).
  --tsan-smoke)
    stage thread "${DIR1:-build-tsan}" "test_worker_pool test_shard_consistency" \
      '"$B"/tests/test_worker_pool; "$B"/tests/test_shard_consistency --gtest_filter="*Parallel*"' ;;
  *)
    echo "check.sh: unknown mode $MODE (see the usage at the top)" >&2
    exit 2 ;;
esac

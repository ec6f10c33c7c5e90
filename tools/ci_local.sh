#!/usr/bin/env bash
# Reproduce the CI pipeline (.github/workflows/ci.yml) locally, stage by
# stage, so a green run here predicts a green run there:
#
#   tools/ci_local.sh                 # everything the local toolchain supports
#   tools/ci_local.sh --quick        # build + ctest only
#   tools/ci_local.sh --skip-sanitizers --skip-bench
#
# Stages (each skippable):
#   build-test    Release configure/build + full ctest, plus a  (always)
#                 configure-only -DNNCS_BUILD_BENCHES=OFF check
#   sanitizers    tools/run_sanitizers.sh asan + tsan           (--skip-sanitizers)
#   perf-gate     tools/perf_gate.cmake at 300% vs              (--skip-bench)
#                 bench/baselines, python3 perfbench/run.py --test
#   format        clang-format --dry-run on the CI-pinned list  (--skip-format)
#
# Stages whose tools are missing (clang-format, sanitizer-capable compiler)
# are reported as SKIPPED, not failed — CI remains the authority; this
# script is the fast local approximation.

set -uo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
  exit 0
}

run_sanitizers=1
run_bench=1
run_format=1
jobs="$(nproc 2>/dev/null || echo 2)"
for arg in "$@"; do
  case "$arg" in
    -h|--help) usage ;;
    --quick) run_sanitizers=0; run_bench=0; run_format=0 ;;
    --skip-sanitizers) run_sanitizers=0 ;;
    --skip-bench) run_bench=0 ;;
    --skip-format) run_format=0 ;;
    *) echo "ci_local: unknown argument '$arg' (try --help)" >&2; exit 2 ;;
  esac
done

failures=0
summary=()
note() { summary+=("$1"); echo "== ci_local: $1"; }
stage_fail() { summary+=("$1 FAILED"); echo "== ci_local: $1 FAILED" >&2; failures=$((failures+1)); }

# --- build-test -------------------------------------------------------------
if cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release \
    && cmake --build build-ci -j"$jobs" \
    && ctest --test-dir build-ci --output-on-failure -j"$jobs" \
    && cmake -B build-ci-nobench -S . -DCMAKE_BUILD_TYPE=Release -DNNCS_BUILD_BENCHES=OFF; then
  note "build-test OK"
else
  stage_fail "build-test"
fi

# --- sanitizers -------------------------------------------------------------
if [ "$run_sanitizers" -eq 1 ]; then
  for mode in asan tsan; do
    if tools/run_sanitizers.sh "$mode"; then
      note "sanitizers($mode) OK"
    else
      stage_fail "sanitizers($mode)"
    fi
  done
else
  note "sanitizers SKIPPED (flag)"
fi

# --- perf-gate --------------------------------------------------------------
if [ "$run_bench" -eq 1 ]; then
  if cmake -DVERIFY=build-ci/tools/nncs_verify -DCOMPARE=build-ci/tools/nncs_bench_compare \
      -DSOURCE="$PWD" -DOUT=build-ci/bench-out -DMAX_REGRESS=300 -P tools/perf_gate.cmake; then
    note "perf-gate OK"
  else
    stage_fail "perf-gate"
  fi
  # The end-to-end benchmark's own tests, same command as the CI
  # perfbench-tests job (builds into .bench_build/ on first use).
  if ! command -v python3 >/dev/null 2>&1; then
    note "perf-gate(perfbench tests) SKIPPED (python3 not installed)"
  elif python3 perfbench/run.py --test; then
    note "perf-gate(perfbench tests) OK"
  else
    stage_fail "perf-gate(perfbench tests)"
  fi
else
  note "perf-gate SKIPPED (flag)"
fi

# --- format -----------------------------------------------------------------
# Same pinned list as the CI format job.
format_files=(src/nn/kernels.hpp src/nn/kernels.cpp src/nn/kernels_avx2.cpp
              src/nn/matrix.hpp tests/test_kernels.cpp)
if [ "$run_format" -eq 1 ]; then
  if command -v clang-format >/dev/null 2>&1; then
    if clang-format --dry-run -Werror "${format_files[@]}"; then
      note "format OK"
    else
      stage_fail "format"
    fi
  else
    note "format SKIPPED (clang-format not installed)"
  fi
else
  note "format SKIPPED (flag)"
fi

echo
echo "== ci_local summary =="
printf '  %s\n' "${summary[@]}"
exit "$((failures > 0 ? 1 : 0))"

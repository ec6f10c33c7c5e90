#!/usr/bin/env bash
# Build and run the test suite under sanitizers, driven through ctest.
#
#   tools/run_sanitizers.sh              # address,undefined over the full suite
#   tools/run_sanitizers.sh tsan         # thread sanitizer (concurrency tests)
#   tools/run_sanitizers.sh tsan -R QueryCache   # extra args forwarded to ctest
#
# Each mode uses its own build tree (build-asan / build-tsan) so sanitized
# objects never mix with the regular build. The TSan mode runs the
# concurrency-heavy suites (engine, verifier, obs, NN query cache) by default;
# ASan/UBSan runs everything, with UBSan findings fatal (a report fails its
# test) and libstdc++'s bounds and precondition assertions on.

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-asan}"
shift || true

case "$mode" in
  asan)
    build=build-asan
    sanitize="address,undefined"
    cxx_flags="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
    default_filter=()
    ;;
  tsan)
    build=build-tsan
    sanitize="thread"
    cxx_flags=""
    # Concurrency-relevant suites (the engine, its worker-pool, verifier,
    # scenario and domain tests drive the threaded engine — the last over
    # the zonotope loop path; the artifact/profile suites snapshot the
    # sharded registry and heartbeat sink; NeuralController runs one
    # controller's shared network packs from several threads;
    # AffineStepThreads steps one integrator, whose affine steps read
    # per-thread propagator tables, from several threads); pass your own
    # -R/-E to override.
    default_filter=(-R "QueryCache|Engine|ThreadPool|Verifier|Obs|Scenario|Artifact|Profile|BenchCompare|Domain|NeuralController|AffineStepThreads")
    ;;
  *)
    echo "usage: $0 [asan|tsan] [extra ctest args...]" >&2
    exit 2
    ;;
esac

cmake -B "$build" -S . -DNNCS_SANITIZE="$sanitize" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$cxx_flags"
cmake --build "$build" -j"$(nproc)"

filter=("${default_filter[@]}")
if [ "$#" -gt 0 ]; then
  filter=("$@")
fi
ctest --test-dir "$build" --output-on-failure -j"$(nproc)" "${filter[@]}"

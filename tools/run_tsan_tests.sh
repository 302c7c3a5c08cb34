#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DXENIC_SANITIZE=thread) and runs
# the one threaded code path under it: harness::SweepExecutor, which fans
# independent simulation runs out over a worker pool. Covered by sweep_test
# (including full simulation sweeps at 1, 2 and 8 workers) and by the
# --jobs 1 / --jobs 4 sections of tools/check_determinism.sh (sweeps and
# chaos seed ranges). The engine itself is serial, so a TSan report here
# means two runs shared mutable state.
#
# Usage: tools/run_tsan_tests.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build-tsan}

cmake -B "$BUILD_DIR" -S . -DXENIC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
      sweep_test xenic_sweep_check xenic_chaos_runner

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

"$BUILD_DIR"/tests/sweep_test
bash tools/check_determinism.sh "$BUILD_DIR"/tools/xenic_sweep_check \
     "$BUILD_DIR"/tools/chaos_runner

echo "tsan run OK"

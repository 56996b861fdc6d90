#!/usr/bin/env sh
# One-shot reproduction: build, test (plain and sanitized), and regenerate
# every table/figure.
#
#   $ scripts/reproduce.sh [BUILD_DIR]
#
# Writes test_output.txt, test_output_sanitize.txt and bench_output.txt at
# the repository root. Set PSA_SKIP_SANITIZE=1 to skip the ASan+UBSan pass
# (it rebuilds the tree and roughly doubles the test wall-clock).
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# Fail fast with an actionable message when the toolchain is missing —
# better than a cryptic CMake trace three steps in.
missing=""
for tool in cmake ctest ninja; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    missing="$missing $tool"
  fi
done
if ! command -v c++ >/dev/null 2>&1 && ! command -v g++ >/dev/null 2>&1 \
    && ! command -v clang++ >/dev/null 2>&1; then
  missing="$missing c++/g++/clang++"
fi
if [ -n "$missing" ]; then
  echo "error: required tools not found:$missing" >&2
  echo "install a C++20 compiler plus CMake >= 3.20 and Ninja, e.g.:" >&2
  echo "  apt-get install build-essential cmake ninja-build" >&2
  exit 1
fi

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"

ctest --test-dir "$BUILD" 2>&1 | tee test_output.txt

# Tier-1 under AddressSanitizer + UndefinedBehaviorSanitizer (the `sanitize`
# preset): memory errors in the governor's abort and cancellation paths show
# up here, not in the plain build.
if [ "${PSA_SKIP_SANITIZE:-0}" != "1" ]; then
  cmake -B build-sanitize -G Ninja -DPSA_SANITIZE=ON
  cmake --build build-sanitize
  ctest --test-dir build-sanitize 2>&1 | tee test_output_sanitize.txt
fi

{
  for b in "$BUILD"/bench/*; do
    if [ -x "$b" ] && [ -f "$b" ]; then
      echo "===== $(basename "$b") ====="
      "$b"
    fi
  done
} 2>&1 | tee bench_output.txt

echo "done: test_output.txt, test_output_sanitize.txt, bench_output.txt"

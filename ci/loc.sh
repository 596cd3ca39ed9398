#!/usr/bin/env bash
# Prints the line counts ROADMAP.md's "Net state" tracks: C++ sources
# and headers under src (and its index, ledger and common parts),
# spitz_db.{h,cc} and its two components (index/versioned_index.{h,cc}
# and ledger/ledger.{h,cc}), tests and bench, plus spitzbench's C++ and Python,
# and the number of ctest cases in the given build directory. It gates
# nothing.
#
# Usage: ci/loc.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"

# Total lines of the files under $1 whose names match the -name tests
# that follow.
lines() {
  local dir="$1"
  shift
  find "${dir}" -type f \( "$@" \) -print0 | xargs -0 cat | wc -l
}
cpp() { lines "$1" -name '*.cc' -o -name '*.h'; }

row() { printf '%-16s %s\n' "$1" "$2"; }
row src "$(cpp src)"
row src/index "$(cpp src/index)"
row src/ledger "$(cpp src/ledger)"
row src/common "$(cpp src/common)"
row 'spitz_db.{h,cc}' "$(cat src/core/spitz_db.h src/core/spitz_db.cc | wc -l)"
row 'versioned_index.{h,cc}' \
    "$(cat src/index/versioned_index.h src/index/versioned_index.cc | wc -l)"
row 'ledger.{h,cc}' "$(cat src/ledger/ledger.h src/ledger/ledger.cc | wc -l)"
row tests "$(cpp tests)"
row bench "$(cpp bench)"
row spitzbench "$(lines spitzbench -name '*.cc' -o -name '*.h' -o -name '*.py')"
if [ -f "${BUILD}/CTestTestfile.cmake" ]; then
  row 'ctest cases' \
      "$(ctest --test-dir "${BUILD}" -N | sed -n 's/^Total Tests: //p')"
else
  row 'ctest cases' "(no build in ${BUILD})"
fi

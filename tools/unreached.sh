#!/usr/bin/env bash
# Reachability audit: lists every clflow:: function that a libclflow_*.a
# defines but no shipped executable keeps.
#
# The examples, benches, tools and the standalone bench_e2e package are
# built at -O0 (nothing is inlined away) with -ffunction-sections, and
# linked with --gc-sections, so a function survives in an executable only
# when something it runs can call it. Tests are not built: code that only
# tests reach is what the audit is for. Every function the libraries
# define (`nm -C --defined-only`, text symbols) that no executable defines
# is printed by its qualified name, without the argument list (overloads
# share a line, and the output does not depend on how a compiler spells
# parameter types), sorted, one per line. Template instantiations,
# lambdas, anonymous-namespace helpers and copy/move constructors and
# assignments are left out.
#
#   tools/unreached.sh [BUILD_DIR]    (default: build-unreached/)
#
# CI diffs the output against tools/unreached.txt, which lists every
# function kept anyway with the reason it is kept after a "  # ".
set -euo pipefail
export LC_ALL=C

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=${1:-$ROOT/build-unreached}
JOBS=$(nproc 2>/dev/null || echo 2)
FLAGS=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Builds quietly; on failure the build log goes to stderr.
quiet() {
  mkdir -p "$OUT"
  "$@" > "$OUT/build.log" 2>&1 || { cat "$OUT/build.log" >&2; exit 1; }
}
quiet cmake -S "$ROOT" -B "$OUT/main" -DCLFLOW_BUILD_TESTS=OFF "${FLAGS[@]}"
quiet cmake --build "$OUT/main" -j "$JOBS"
quiet cmake -S "$ROOT/bench_e2e" -B "$OUT/e2e" "${FLAGS[@]}"
quiet cmake --build "$OUT/e2e" -j "$JOBS" --target bench_e2e

# Text symbols under clflow::, one name per line.
symbols() {
  nm -C --defined-only "$@" 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    grep '^clflow::' | sort -u
}

libs=$(find "$OUT/main/src" -name 'libclflow_*.a' | sort)
exes=$(find "$OUT/main/examples" "$OUT/main/bench" "$OUT/main/tools" \
            "$OUT/e2e" -maxdepth 1 -type f -perm -u+x | sort)

# Lambdas and anonymous-namespace helpers go with their enclosing
# function; a template instantiation is recognised by the return type
# its demangled name starts with (a space before the argument list).
# shellcheck disable=SC2086
comm -23 <(symbols $libs) <(symbols $exes) |
  grep -v -e '::{lambda(' -e '(anonymous namespace)' |
  grep -Pv '^((?:\w+::)*)(\w+)::(?:\2|operator=)\(\1\2(?: const)?&&?\)$' |
  perl -ne 'my $d = 0; for (split //) { $d++ if $_ eq "<"; $d-- if $_ eq ">";
              last if $_ eq "(" && $d == 0;
              if ($_ eq " " && $d == 0) { $d = -1; last } }
            print if $d >= 0' |
  sed -E 's/\[abi:[a-z0-9]+\]//g; s/\(.*//' | sort -u || true

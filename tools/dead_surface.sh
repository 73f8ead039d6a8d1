#!/usr/bin/env bash
# Dead-surface sweep: list the out-of-line infless:: functions that src/
# defines and that no binary links.
#
# One -O0 build with every function and object in its own section, linked
# with --gc-sections, so each executable keeps exactly the functions it
# reaches. The binaries searched are every bench, example and test
# executable of the main project, plus benchmark/infless_bench.cc compiled
# against the same archives. A function counts as defined by src/ when an
# archive holds it as a global text symbol (nm type T); inline functions
# are weak and are not counted.
#
# Usage: tools/dead_surface.sh [build-dir]   (default: build-dead-surface)
# Prints the dead functions, one per line, then their count. Exits 1 if
# there is any.

set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-dead-surface}
flags="-O0 -g0 -ffunction-sections -fdata-sections"

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
cmake --build "$build" -j "$(nproc)" > /dev/null

# The same compiler CMake built the archives with.
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")

mapfile -t archives < <(find "$build/src" -name 'libinfless_*.a' | sort)
"$cxx" -std=c++20 $flags -I"$root/src" \
    "$root/benchmark/infless_bench.cc" -o "$build/infless_bench" \
    -Wl,--gc-sections -Wl,--start-group "${archives[@]}" -Wl,--end-group \
    -pthread

# Demangled infless:: names of the global text symbols (nm type T); a
# name keeps its parameter list, so overloads stay apart.
text_symbols() {
    nm -C --defined-only "$@" 2>/dev/null |
        awk '$2 == "T" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
        grep '^infless::' | sort -u
}

mapfile -t binaries < <(
    find "$build/bench" "$build/examples" "$build/tests" \
        -maxdepth 1 -type f -perm -u+x
    echo "$build/infless_bench")

defined=$(text_symbols "${archives[@]}")
linked=$(text_symbols "${binaries[@]}")

dead=$(comm -23 <(echo "$defined") <(echo "$linked") | sed '/^$/d')
if [ -n "$dead" ]; then
    echo "$dead"
    count=$(echo "$dead" | wc -l)
else
    count=0
fi
echo "dead out-of-line functions: $count"
[ "$count" -eq 0 ]

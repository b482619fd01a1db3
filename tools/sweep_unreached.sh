#!/usr/bin/env bash
# Lists the latte:: functions that no shipped binary keeps: the link-time
# half of the "Code nothing runs" rule in EXPERIMENTS.md.
#
#   tools/sweep_unreached.sh <build-dir>
#
# Builds every shipped binary (latte-lint, one per bench/*.cpp, one per
# examples/*.cpp) and perfbench unoptimized, one section per function,
# links them with --gc-sections, and prints the demangled liblatte.a
# functions that none of them kept, one per line, sorted. Build output
# goes to stderr. <build-dir> is configured with the sweep's flags, so
# give it a directory of its own (about 4 minutes cold on 4 cores).
#
# The sweep sees whole functions only: a dead branch inside a live
# function, or an option field that nothing sets, does not show. What it
# lists may still stay, when tests use it to check other code or the
# README or DESIGN.md documents it.
set -euo pipefail
export LC_ALL=C

if [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
Root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
Out=$(cd "$1" && pwd)
Flags="-O0 -ffunction-sections -fdata-sections"
Link=-Wl,--gc-sections

Targets=(latte-lint)
Bins=("$Out/latte-lint" "$Out/perfbench/perfbench")
for Dir in bench examples; do
  for Src in "$Root/$Dir"/*.cpp; do
    Name=$(basename "$Src" .cpp)
    Targets+=("$Name")
    Bins+=("$Out/$Dir/$Name")
  done
done

cmake -S "$Root" -B "$Out" -DCMAKE_BUILD_TYPE=None \
      -DCMAKE_CXX_FLAGS="$Flags" -DCMAKE_EXE_LINKER_FLAGS="$Link" >&2
cmake --build "$Out" -j"$(nproc)" --target "${Targets[@]}" >&2
cmake -S "$Root/perfbench" -B "$Out/perfbench" -DCMAKE_BUILD_TYPE=None \
      -DCMAKE_CXX_FLAGS="$Flags" -DCMAKE_EXE_LINKER_FLAGS="$Link" >&2
cmake --build "$Out/perfbench" -j"$(nproc)" >&2

# Defined code symbols (T, W), demangled, one per line.
fns() {
  nm -C --defined-only "$@" |
    awk '$2 ~ /^[TW]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    sort -u
}
# The second grep drops std:: templates instantiated over latte types
# ("latte::X* std::__addressof<latte::X>(...)"): their demangled names
# start with the return type.
comm -23 <(fns "$Out/liblatte.a") <(fns "${Bins[@]}") |
  grep '^latte::' | grep -v '^latte::[^(]* std::' || true

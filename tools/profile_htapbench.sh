#!/usr/bin/env bash
# Profiles one htapbench workload with gprof.
#
#   tools/profile_htapbench.sh [workload] [seconds] [seed] [function] [top]
#
# Defaults: tpcc, 25 s, seed 1, callers of LookupSegmentsByCols, top 25.
# Configures htapbench/ into build-gprof/ (Release plus -pg), runs the
# workload untraced with its data under build-gprof/, then prints gprof's
# flat profile (the `top` entries by self time) and the call-graph entry of
# every function whose name contains `function`, which lists its callers
# and callees. gmon.out and gprof's output (gprof-flat.txt,
# gprof-graph.txt) stay in build-gprof/.
#
# gprof names a caller by the symbol whose address range holds the call.
# -fno-ipa-icf keeps GCC from folding identical functions into one symbol,
# which would credit calls to whichever name the folded body kept. gprof
# also drops GCC's clone symbols (foo.constprop.0, .isra.0, .part.0,
# .cold) and credits their samples and calls to the symbol before them;
# the other -fno-* flags keep GCC from making such clones. Without them
# LzDecompress showed up as called by DictReader::~DictReader, the symbol
# before LzStringReader::ReadValue's .constprop clone.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:-tpcc}"
seconds="${2:-25}"
seed="${3:-1}"
function="${4:-LookupSegmentsByCols}"
top="${5:-25}"

build=build-gprof
flags="-pg -fno-omit-frame-pointer -fno-ipa-icf -fno-ipa-cp-clone"
flags+=" -fno-ipa-sra -fno-partial-inlining -fno-reorder-blocks-and-partition"
generator=()
if command -v ninja >/dev/null; then generator=(-G Ninja); fi
if [[ -f "$build/CMakeCache.txt" ]]; then generator=(); fi
cmake -S htapbench -B "$build" "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS="-pg" >&2
cmake --build "$build" -j3 >&2

data="$PWD/$build/data-$$"
rm -f "$build/gmon.out"
mkdir -p "$data"
trap 'rm -rf "$data"' EXIT
# gmon.out is written to the working directory when the process exits.
(cd "$build" && ./htapbench --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace 0 --data-dir "$data") >&2

gprof -b -p "$build/htapbench" "$build/gmon.out" > "$build/gprof-flat.txt"
gprof -b -q "$build/htapbench" "$build/gmon.out" > "$build/gprof-graph.txt"
head -n "$((top + 5))" "$build/gprof-flat.txt"
echo
echo "=== call graph entries matching '$function' ==="
# In gprof's call graph a function's entry runs from the line after the
# previous '-----' separator to the next one: callers, the [N] line with
# its share of samples including children, then callees. Only functions
# whose qualified name ends in `function` match, not lambdas or types
# defined inside it.
awk -v fn="$function" '
  /^-+$/ { if (hit) print block "-----"; block = ""; hit = 0; next }
  { block = block $0 "\n" }
  $1 ~ /^\[[0-9]+\]$/ && $0 ~ ("[0-9] +[A-Za-z0-9_:]*" fn "\\(") { hit = 1 }
' "$build/gprof-graph.txt"

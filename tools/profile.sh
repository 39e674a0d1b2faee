#!/bin/sh
# Host-time profile of one simulator binary, bucketed by layer.
#
#   sh tools/profile.sh <target> [args...]
#
# <target> is a bench binary (fig9_laplace, kv_serving, scaling, ...) or
# perfbench_driver. The script builds it with gprof instrumentation
# (Release, -pg) into build-profile/ (perfbench_driver: into
# build-profile/perfbench/), runs it with [args...] inside a temporary
# directory, so neither its BENCH_*.json nor gmon.out lands in the tree,
# and prints gprof's flat-profile self time summed per layer. A symbol
# counts toward the first msvm::<module> namespace in its demangled name
# (msvm::scc is the sccsim layer, msvm::mbox the mailbox); symbols outside
# msvm, such as std:: helpers or the workload drivers, count as "other".
# Only the binary's own code is sampled: time in shared libraries (libc's
# memcpy, for instance) is not in the table.
#
# Example: sh tools/profile.sh fig9_laplace --quick
#          sh tools/profile.sh perfbench_driver --workload kv48 --seconds 10
set -eu

if [ "$#" -lt 1 ]; then
  echo "usage: sh tools/profile.sh <bench target | perfbench_driver> [args...]" >&2
  exit 2
fi
target=$1
shift

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4

if [ "$target" = perfbench_driver ]; then
  src=$root/perfbench
  build=$root/build-profile/perfbench
  binary=$build/perfbench_driver
else
  src=$root
  build=$root/build-profile
  binary=$build/bench/$target
fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
cmake --build "$build" -j "$jobs" --target "$target" >&2

run_dir=$(mktemp -d)
trap 'rm -rf "$run_dir"' EXIT
(cd "$run_dir" && "$binary" "$@") >&2
if [ ! -f "$run_dir/gmon.out" ]; then
  echo "profile.sh: $target wrote no gmon.out" >&2
  exit 1
fi

echo "host self time by layer: $target $*"
gprof -b -p "$binary" "$run_dir/gmon.out" | awk '
  # The symbol with template arguments and parameter lists removed, so
  # std::function<void (msvm::cluster::Node&)> counts as std, not cluster.
  function bare(name,    out, depth, k, c) {
    out = ""
    depth = 0
    for (k = 1; k <= length(name); k++) {
      c = substr(name, k, 1)
      if (c == "<" || c == "(") depth++
      else if (c == ">" || c == ")") depth--
      else if (depth == 0) out = out c
    }
    return out
  }
  # Flat-profile rows: %time, cumulative s, self s, then up to three
  # call-count columns (blank for unprofiled callers), then the name.
  $1 ~ /^[0-9.]+$/ && $2 ~ /^[0-9.]+$/ && $3 ~ /^[0-9.]+$/ {
    i = 4
    while (i <= 6 && i < NF && $i ~ /^[0-9.]+$/) i++
    name = $i
    for (j = i + 1; j <= NF; j++) name = name " " $j
    name = bare(name)
    layer = "other"
    if (name ~ /^msvm_fiber_swap/) {
      layer = "sim"
    } else if (match(name, /msvm::[a-z_]+::/)) {
      ns = substr(name, RSTART + 6, RLENGTH - 8)
      if (ns == "scc") layer = "sccsim"
      else if (ns == "mbox") layer = "mailbox"
      else if (ns ~ /^(sim|svm|kernel|rcce|serve|obs|cluster)$/) layer = ns
    }
    self[layer] += $3
    total += $3
  }
  END {
    n = split("sim sccsim svm mailbox kernel rcce serve obs cluster other",
              order, " ")
    printf "%-8s %10s %7s\n", "layer", "self_s", "share"
    for (k = 1; k <= n; k++) {
      l = order[k]
      share = total > 0 ? 100 * self[l] / total : 0
      printf "%-8s %10.2f %6.1f%%\n", l, self[l], share
    }
    printf "%-8s %10.2f\n", "total", total
  }'

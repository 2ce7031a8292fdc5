#!/usr/bin/env bash
# Byte-compares the simulator's figure output of two build trees.
#
#   tools/fig_diff.sh <build-a> <build-b> [bench args...]
#
# Runs every fig*, abl_* , ext_checkpoint and ext_collective bench from
# <build-a>/bench and <build-b>/bench, each in its own temporary directory
# (the benches write results/*.csv relative to where they run), then diffs
# the CSVs and standard output. Extra arguments (e.g. --quick) go to every
# bench. The two trees' runs of one bench go side by side, so a full-mode
# comparison takes about as long as one tree's benches.
#
# Exit status: 0 when every output is byte-identical, 1 when any differs
# (the temporary directory is kept and named), 2 on a usage or run error.
set -u

if [ $# -lt 2 ]; then
  echo "usage: $0 <build-a> <build-b> [bench args...]" >&2
  exit 2
fi
a=$(cd "$1" && pwd) || exit 2
b=$(cd "$2" && pwd) || exit 2
shift 2

benches=()
for path in "$a"/bench/fig* "$a"/bench/abl_* "$a"/bench/ext_checkpoint "$a"/bench/ext_collective; do
  [ -x "$path" ] && [ -f "$path" ] && benches+=("$(basename "$path")")
done
if [ ${#benches[@]} -eq 0 ]; then
  echo "$0: no benches under $a/bench" >&2
  exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/fig_diff.XXXXXX") || exit 2

# run <tree> <side> <bench> [args...]: one bench in <work>/<side>/<bench>.
run() {
  local tree=$1 side=$2 bench=$3
  shift 3
  local dir="$work/$side/$bench"
  mkdir -p "$dir"
  if [ ! -x "$tree/bench/$bench" ]; then
    echo "missing $tree/bench/$bench" >"$dir/stdout.txt"
    return 1
  fi
  (cd "$dir" && "$tree/bench/$bench" "$@" >stdout.txt 2>stderr.txt)
}

status=0
for bench in "${benches[@]}"; do
  start=$(date +%s)
  run "$a" a "$bench" "$@" &
  pa=$!
  run "$b" b "$bench" "$@" &
  pb=$!
  wait "$pa"; ra=$?
  wait "$pb"; rb=$?
  # Standard error carries progress and timing only; compare what a figure
  # consists of.
  if [ "$ra" -ne "$rb" ]; then
    verdict="DIFFERS (exit $ra vs $rb)"
    status=1
  elif diff -r -q -x stderr.txt "$work/a/$bench" "$work/b/$bench" >/dev/null; then
    ncsv=$(find "$work/a/$bench" -name '*.csv' | wc -l)
    verdict="identical (exit $ra, $ncsv csv + stdout)"
  else
    verdict="DIFFERS"
    diff -r -x stderr.txt "$work/a/$bench" "$work/b/$bench" | head -20
    status=1
  fi
  printf '%-20s %4ss  %s\n' "$bench" "$(($(date +%s) - start))" "$verdict"
done

if [ $status -eq 0 ]; then
  echo "all ${#benches[@]} benches byte-identical"
  rm -rf "$work"
else
  echo "outputs differ; kept in $work"
fi
exit $status

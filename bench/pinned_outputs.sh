#!/usr/bin/env bash
# Pins every value the ten paper benches print at MRVD_SCALE=0.02.
#
#   bench/pinned_outputs.sh <build>/bench           # diff against the pins
#   bench/pinned_outputs.sh <build>/bench --update  # rewrite the pins
#
# Runs each bench in the current directory (the campaign benches write and
# resume bench_artifacts/<campaign>/ there, so start from a directory
# without one), drops what varies run to run, and compares the rest with
# bench/pinned/<bench>.txt. What varies: the "(b)" tables of mean batch
# running time (each runs to the next blank line) and the campaign lines
# "<campaign>: N executed, M resumed from ...". Exits non-zero when a bench
# fails or any pinned value differs, after printing every diff. A change
# that moves a figure re-pins with --update and says why.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || ( $# -eq 2 && "$2" != "--update" ) ]]; then
  echo "usage: $0 <bench-binary-dir> [--update]" >&2
  exit 2
fi
bench_dir=$1
update=${2:-}
pinned_dir="$(cd "$(dirname "$0")" && pwd)/pinned"

# The filter: every line a bench prints, minus the run-to-run ones.
drop_varying() {
  awk '
    /\(b\): mean batch running time/ { in_timing_table = 1 }
    in_timing_table { if ($0 == "") in_timing_table = 0; next }
    /^[A-Za-z0-9_]+: [0-9]+ executed, [0-9]+ resumed/ { next }
    { print }
  '
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for b in fig5_order_distribution fig7_vary_n fig8_vary_delta fig9_vary_tc \
         fig10_vary_tau fig13_served_orders table3_idle_time \
         table4_prediction_effect table6_prediction_accuracy \
         table7_8_chisquare; do
  out="$tmp/$b.txt"
  if ! MRVD_SCALE=0.02 "$bench_dir/bench_$b" | drop_varying > "$out"; then
    echo "bench_$b failed" >&2
    status=1
    continue
  fi
  if [[ "$update" == "--update" ]]; then
    cp "$out" "$pinned_dir/$b.txt"
  elif ! diff -u "$pinned_dir/$b.txt" "$out"; then
    echo "bench_$b: printed values differ from bench/pinned/$b.txt" >&2
    status=1
  fi
done
exit $status

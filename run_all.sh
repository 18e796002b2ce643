#!/bin/sh
# Regenerates every deterministic result with a canonical run (full
# windows, default seeds) and gates it against its committed golden.
#
# results/goldens.txt is the one table of what is gated. The simulation
# is deterministic, so a gated CSV must come back byte for byte; any
# drift means a change altered scheduling decisions, and this script
# fails loudly instead of silently shipping new numbers. Host-timed CSVs
# are listed there too but not run here: refresh one by running its
# binary on its own.
cd "$(dirname "$0")" || exit 1
cargo build --release -q -p skyloft-bench --bins || exit 1
table=results/goldens.txt
status=0
for b in $(awk '!/^#/ && $3 == "gated" && !seen[$2]++ { print $2 }' "$table"); do
  echo "### $b"
  if ! ./target/release/"$b"; then
    echo "### $b: FAILED"
    status=1
  fi
done
for f in $(awk '!/^#/ && $3 == "gated" { print $1 }' "$table"); do
  if git diff --quiet -- "results/$f.csv"; then
    echo "### golden $f.csv: identical"
  else
    echo "### golden $f.csv: DRIFT (regenerated output differs from committed golden)"
    git --no-pager diff -- "results/$f.csv"
    status=1
  fi
done
exit $status

#!/bin/sh
# Re-records crates/sim/tests/golden/: every `repro` driver's quick-preset
# output, pretty (<name>.txt) and --csv (<name>.csv), which the ignored
# test `every_driver_prints_its_golden_bytes` in
# crates/sim/tests/repro_cli.rs compares byte for byte.
#
#   scripts/golden.sh   # release build of repro, then a .txt and a .csv per name (~10 s)
#
# Re-record only for a change that moves printed numbers on purpose (a new
# sampler, a new seed), and list every moved file in CHANGES.md: the files
# are what a change that claims "no printed number moved" is held to.
set -eu
cd "$(dirname "$0")/.."
dir=crates/sim/tests/golden
repro() { cargo run --release --offline -q -p flexcore-sim --bin repro -- "$@"; }
# `repro` with no name lists the names on stderr and exits 2.
names=$(repro 2>&1 >/dev/null | sed -n 's/^names: //p' || true)
[ -n "$names" ] || { echo "golden.sh: repro listed no names" >&2; exit 1; }
mkdir -p "$dir"
for n in $names; do
  repro "$n" > "$dir/$n.txt"
  repro "$n" --csv > "$dir/$n.csv"
done
git status --short -- "$dir"

#!/bin/sh
# Check that the top-level docs and the verify skill still describe the
# tree:
#
#   scripts/docs.sh        # prints one line per finding; exits 1 if any
#
# - ARCHITECTURE.md is at most 500 lines, README.md at most 300 and
#   .claude/skills/verify/SKILL.md at most 300;
# - no ARCHITECTURE.md heading matches `PR [0-9]`: history is CHANGES.md;
# - every backticked repo path in the three files (`crates/…`, `tests/…`,
#   `scripts/…`, `examples/…`, `benchmark/…`, read up to the first
#   character that cannot be part of a path) exists;
# - every backticked `file::…::name` whose first segment is the stem of a
#   `.rs` file in the tree (`tick::tests::x`, `tests/frame_engine.rs::x`)
#   and whose last segment is a lowercase name has a `fn name` somewhere in
#   the tree's Rust sources. A module path (`flexcore_sim::city`,
#   `city::traffic`: a first segment that is no file stem, or a last one
#   that is) is not checked.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
bad=0
fail() { echo "$1"; bad=1; }

for pair in ARCHITECTURE.md:500 README.md:300 .claude/skills/verify/SKILL.md:300; do
    doc=${pair%%:*} max=${pair##*:}
    n=$(wc -l < "$doc")
    [ "$n" -le "$max" ] || fail "$doc: $n lines (at most $max)"
done

grep -nE '^#+ .*PR [0-9]' ARCHITECTURE.md | sed 's/^/ARCHITECTURE.md: heading names a PR: /' \
    | grep . && bad=1

sources=$(find crates tests examples src benchmark/src -name '*.rs' -not -path '*/target/*')
stems=$(printf '%s\n' $sources | sed 's|.*/||; s|\.rs$||' | LC_ALL=C sort -u)

spans=$(grep -Hno '`[^`]*`' ARCHITECTURE.md README.md .claude/skills/verify/SKILL.md | tr -d '`')
paths=$(printf '%s\n' "$spans" \
    | grep -oE '^[^:]+:[0-9]+:(.*[ (=])?(crates|tests|scripts|examples|benchmark)/[A-Za-z0-9_./-]*' \
    | sed -E 's/^([^:]+:[0-9]+:).*(^|[ (=:])((crates|tests|scripts|examples|benchmark)\/)/\1\3/' || true)
for hit in $paths; do
    path=${hit#*:*:}
    [ -e "$path" ] || fail "${hit%:"$path"}: no such path: $path"
done

cites=$(printf '%s\n' "$spans" | sed 's/^\([^:]*:[0-9]*:\)/\1 /' | awk '{
    for (i = 2; i <= NF; i++) {
        w = $i; sub(/\(\)$/, "", w)
        if (w ~ /^[A-Za-z0-9_\/.]+(::[A-Za-z0-9_]+)*::[a-z][a-z0-9_]*$/) print $1 w
    }}')
for hit in $cites; do
    cite=${hit#*:*:}
    stem=${cite%%::*}
    stem=${stem##*/}
    stem=${stem%.rs}
    printf '%s\n' "$stems" | grep -qxF "$stem" || continue
    name=${cite##*::}
    printf '%s\n' "$stems" | grep -qxF "$name" && continue
    printf '%s\n' $sources | xargs grep -qwE "fn $name" \
        || fail "${hit%:"$cite"}: no fn $name in the tree: $cite"
done

exit $bad

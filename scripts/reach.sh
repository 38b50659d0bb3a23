#!/bin/sh
# Print every named `pub` item of one workspace crate that no product code
# outside that crate mentions: the "is this item reached?" audit.
#
#   scripts/reach.sh numeric          # or: scripts/reach.sh crates/numeric
#
# Items are the names after `pub fn|struct|enum|trait|type|const|static|mod`
# in the crate's non-test library source (`pub(crate)` and fields are not
# items). Product code is every `crates/*/src` file of the other crates
# except the lint tool's, the crate's own binaries (`src/bin/*.rs`,
# `src/main.rs`), `examples/` and `benchmark/src`. A file's `#[cfg(test)] mod
# tests` block, every `tests/` directory and every comment line are skipped,
# so a README doctest, a doc link or a test caller does not count as reach.
# A name is matched as a whole word, so a common method name can read as
# reached through an unrelated item: read the hits before keeping one.
# Prints `crate: item (file:line)` per unreached item; exits 0 either way.
#
#   scripts/reach.sh --check
#
# is the gate: it runs the audit over every crate but the lint tool (a
# build tool, never audited) and compares the printed `crate: item` set
# with `scripts/reach.keep`, the items kept `pub` by a named rule (one
# `crate: item — rule` line each). It prints every printed item the file
# does not list and every listed item no longer printed, and exits 1 if
# there is either.
set -eu

root=$(git rev-parse --show-toplevel)
if [ "${1:-}" = --check ]; then
    printed=$(mktemp)
    listed=$(mktemp)
    trap 'rm -f "$printed" "$listed"' EXIT
    for c in "$root"/crates/*; do
        [ "${c##*/}" = lint ] || "$0" "${c##*/}"
    done | sed 's/ (.*)$//' | LC_ALL=C sort -u > "$printed"
    grep -v -e '^#' -e '^$' "$root/scripts/reach.keep" | sed 's/ — .*$//' | LC_ALL=C sort -u > "$listed"
    missing=$(LC_ALL=C comm -23 "$printed" "$listed")
    stale=$(LC_ALL=C comm -13 "$printed" "$listed")
    [ -z "$missing" ] || printf '%s\n' "$missing" | sed 's/^/unreached, not kept by a rule: /'
    [ -z "$stale" ] || printf '%s\n' "$stale" | sed 's/^/kept by a rule, no longer unreached: /'
    [ -z "$missing$stale" ] || exit 1
    echo "reach: each of the $(wc -l < "$printed") unreached items is kept by a rule"
    exit 0
fi

crate=${1:?usage: scripts/reach.sh <crate> | --check}
crate=${crate#crates/}
crate=${crate%/}
cd "$root"
[ -d "crates/$crate/src" ] || { echo "no such crate: crates/$crate" >&2; exit 2; }

# Non-test, non-comment lines of the given files, as `file:line: text`.
strip() {
    awk 'FNR == 1 { skip = 0 }
         /^mod tests/ && prev ~ /^#\[cfg\(test\)\]/ { skip = 1 }
         !skip && $0 !~ /^[ \t]*\/\// { print FILENAME ":" FNR ": " $0 }
         { prev = $0 }' "$@"
}

product=$(mktemp)
trap 'rm -f "$product"' EXIT
bins="^crates/$crate/src/(bin/.*|main\.rs)$"
{
    git ls-files 'crates/*/src/*.rs' 'examples/*.rs' 'benchmark/src/*.rs' \
        | grep -v -e '^crates/lint/' -e "^crates/$crate/"
    git ls-files "crates/$crate/src/*.rs" | grep -E "$bins" || true
} | while read -r f; do strip "$f"; done > "$product"

git ls-files "crates/$crate/src/*.rs" \
    | grep -v -E "$bins" \
    | while read -r f; do strip "$f"; done \
    | sed -nE 's/^([^:]+:[0-9]+): [ \t]*pub (const |unsafe |async |extern "C" )*(fn|struct|enum|trait|type|const|static|mod) +([A-Za-z_][A-Za-z0-9_]*).*/\1 \4/p' \
    | while read -r at item; do
        grep -qw -- "$item" "$product" || echo "$crate: $item ($at)"
    done

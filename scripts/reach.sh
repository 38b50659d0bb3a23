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
set -eu

crate=${1:?usage: scripts/reach.sh <crate>}
crate=${crate#crates/}
crate=${crate%/}
root=$(git rev-parse --show-toplevel)
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

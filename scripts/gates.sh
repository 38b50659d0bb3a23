#!/bin/sh
# Every check CI runs, one function each, in named groups:
#
#   scripts/gates.sh <group>...      # e.g. scripts/gates.sh static test
#
# No argument (or an unknown group) prints the groups and their checks and
# exits 2. A group runs all of its checks, even after one fails, and then
# `lock_files`; it ends with `gates: <group>: ok` or the failed checks'
# names, and the script exits 1 if any group failed. Outputs a check keeps
# (the lint report, the repro and smoke captures) go to target/gates/.
#
# The settings that change what cargo builds or which libm glibc picks are
# cleared, so a local run is CI's run: nothing in the environment can skip
# or weaken a check.
set -eu
cd "$(git rev-parse --show-toplevel)"
unset RUSTFLAGS CARGO_ENCODED_RUSTFLAGS CARGO_BUILD_RUSTFLAGS RUSTDOCFLAGS \
    CARGO_TARGET_DIR CARGO_BUILD_TARGET_DIR GLIBC_TUNABLES
work=target/gates
groups='static test release repro bench substrate'

checks() {
    case $1 in
        static) echo clippy lint allow_ceiling surface unsafe_attributes docs reach rustdoc formatting ;;
        test) echo debug_tests vendor_tests ;;
        release) echo build examples packed_kernels release_tests ignored_suites pool_loop timing_audit ;;
        repro) echo determinism ;;
        bench) echo bench_tests bench_smoke ;;
        substrate) echo substrate_goldens substrate_smoke ;;
        *) return 1 ;;
    esac
}

# --- static -----------------------------------------------------------

# All targets includes build scripts: flexcore-modulation's `build.rs`
# derives the predefined ordering at build time.
clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

# The project disciplines FL000–FL007 (crates/lint/README.md): zero
# findings. The JSON report is kept either way (CI uploads it).
lint() {
    rm -f "$work/flexcore-lint.json"
    cargo run --release -p flexcore-lint -- check --json "$work/flexcore-lint.json"
}

# Each `allow(...)` marker is a reviewed exception to a discipline. The
# ceiling is written here, so a new allow needs an edit a reviewer sees;
# lower it when an allow goes. One allow record per report line, each with
# a "codes" list.
allow_ceiling() {
    ceiling=25
    allows=$(grep -c '"codes": \[' "$work/flexcore-lint.json" || true)
    echo "flexcore-lint allows: $allows (ceiling $ceiling)"
    [ "$allows" -le "$ceiling" ] || { echo "allows rose above $ceiling"; return 1; }
}

# Not a bound, a trend to read change over change: one `surface` row per
# crate (code lines and `pub` items) from the lint report.
surface() { grep -E '"crate": "crates/[a-z]+"' "$work/flexcore-lint.json"; }

# Every library crate forbids `unsafe` except flexcore-parallel, which
# denies it for the work-queue pool's one lifetime erasure (FL006 polices
# where in that crate it may live). The lint tool never had the attribute.
unsafe_attributes() {
    for lib in crates/*/src/lib.rs; do
        case $lib in
            crates/lint/*) continue ;;
            crates/parallel/*) want='#![deny(unsafe_code)]' ;;
            *) want='#![forbid(unsafe_code)]' ;;
        esac
        grep -qxF "$want" "$lib" || { echo "$lib: missing $want"; return 1; }
    done
}

docs() { scripts/docs.sh; }

reach() { scripts/reach.sh --check; }

# Every workspace crate, not just the root.
rustdoc() { RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace; }

formatting() { cargo fmt --check; }

# --- test -------------------------------------------------------------

debug_tests() { cargo test -q --workspace; }

vendor_tests() {
    for crate in rand parking_lot crossbeam; do
        cargo test -q --manifest-path "vendor/$crate/Cargo.toml"
    done
}

# --- release ----------------------------------------------------------

build() { cargo build --release; }

# Compiling is not enough: a public item stays in the tree when a
# documented example calls it, so every example must also run to a zero
# exit. All six together take about a second.
examples() {
    for ex in examples/*.rs; do
        name=$(basename "$ex" .rs)
        echo "example $name"
        cargo run -q --release --example "$name" || { echo "example $name failed"; return 1; }
    done
}

# A de-vectorised kernel passes every test and only costs time, so the
# release build's disassembly is checked for it. One row per kernel:
#
#   kernel <example> <symbol> <scalar> <call-in-sweep> <packed>
#
# <symbol> is an ERE for objdump's `<symbol>:` line and may match several
# bodies (one per instantiation); each body must hold every `;`-separated
# ERE of <packed>, no body may hold <scalar> (`-`: no such check), and with
# <call-in-sweep> `no` no call may sit between the first and the last line
# that matches the first <packed> ERE. A symbol with no body fails.
#
# - `LocatedOrderingTable::locate_bases` is written so that stable safe
#   Rust packs it, four lanes per rounding. Scalar again, each sibling
#   chain costs ~150 cycles more: `locate_array` once sat scalar behind a
#   "the compiler vectorises this" comment for ten changes.
# - `conv::forward` holds the inlined Viterbi add-compare-select step; de-
#   vectorised, it costs `cell_coded` several times over. `uplink_12x12`
#   links only its hard instantiation, whose 8-bit metrics (a step is two
#   32-lane byte vectors) must meet a packed unsigned 8-bit min.
# - `sweep_q_rows`, the blocked rotate's G-way sweep, keeps G accumulator
#   chains in eight ymm registers with nothing but packed multiplies and
#   adds between them. What goes wrong is quiet: given a `range` on the
#   coefficient count (a caller guard LLVM sees through is enough), the
#   SLP vectoriser splits two accumulators into xmm halves and scalars.
#   Its bounds-check panic calls sit after the `ret`, so no call may sit
#   inside the sweep.
# - `project_rows` and `update_rows`, the SQRD's two sweeps (one body per
#   group width), keep `R(k, ·)` lanes in registers down the rows; the
#   update folds the next pivot's norm with packed lanes precisely so that
#   a scalar multiply there means a lane de-vectorised.
# - `walk_lane_group` puts four subcarriers' SIC chains in the lanes of
#   one block (one body per plane size, 4 and 8), so its rotate, its
#   cancellation and `acc · 1/R(row,row)` stay packed ymm multiplies; an
#   early draft lost two lanes of that product to `vmulsd`. Its table and
#   fallback calls sit between the multiplies.
packed_kernels() {
    if ! command -v objdump >/dev/null; then
        echo "::notice::objdump not installed: packed-kernel checks skipped"
        return 0
    fi
    cargo build --release --example frame_engine --example uplink_12x12
    bad=0
    kernel frame_engine '.*LocatedOrderingTable::locate_bases' - yes 'vroundpd|roundpd|vrndscalepd' || bad=1
    kernel uplink_12x12 'flexcore_coding::conv::forward' - yes 'vpminub|pminub' || bad=1
    kernel frame_engine 'flexcore_numeric::qr::sweep_q_rows' 'mulsd ' no 'mulpd .*%ymm;(addpd|subpd) .*%ymm' || bad=1
    kernel frame_engine 'flexcore_numeric::qr::project_rows' 'mulsd ' no 'mulpd .*%ymm;(addpd|subpd) .*%ymm' || bad=1
    kernel frame_engine 'flexcore_numeric::qr::update_rows' 'mulsd ' no 'mulpd .*%ymm;(addpd|subpd) .*%ymm' || bad=1
    kernel frame_engine 'flexcore::detector::FlexCoreDetector::walk_lane_group' 'mulsd ' yes 'mulpd .*%ymm' || bad=1
    return $bad
}

kernel() {
    objdump -d -C "target/release/examples/$1" | awk -v sym="$2" -v scalar="$3" -v calls="$4" -v packed="$5" '
        function fail(msg) { print name ": " msg; bad = 1 }
        BEGIN { n = split(packed, pat, ";"); name = sym; sub(/^\.\*/, "", name) }
        $0 ~ ("<" sym ">:$") {
            inside = 1; bodies++; first = last = ncalls = 0
            for (i = 1; i <= n; i++) seen[i] = 0
            next
        }
        !inside { next }
        /^$/ {
            inside = 0
            for (i = 1; i <= n; i++)
                if (!seen[i]) fail("no packed " pat[i] ": the kernel de-vectorised")
            if (calls == "no")
                for (i = 1; i <= ncalls; i++)
                    if (call[i] > first && call[i] < last) fail("call inside the sweep")
            next
        }
        $0 ~ pat[1] { if (!first) first = NR; last = NR }
        { for (i = 1; i <= n; i++) if ($0 ~ pat[i]) seen[i] = 1 }
        scalar != "-" && $0 ~ scalar { fail("holds /" scalar "/: a lane split off, the kernel half de-vectorised") }
        /\tcall / { call[++ncalls] = NR }
        END {
            if (!bodies) fail("no symbol: #[inline(never)] lost?")
            exit bad
        }'
}

# Re-run in release so that UB or overflow differences between debug and
# optimised builds cannot hide.
release_tests() { cargo test -q --workspace --release; }

# Every `#[ignore]` test but the timing audit, so a new one runs without an
# edit here: the 256-QAM ordering and located-table pins, the path-trie
# sweep against the path scan (200 000 selections), the ziggurat's
# chi-squared test on 4e7 components, the experiment smoke (the city
# sweep's bands among it) and the 22 repro goldens (a deliberate re-pin
# re-records them with scripts/golden.sh and lists every moved file in
# CHANGES.md).
ignored_suites() {
    cargo test -q --release --workspace -- --ignored --skip fabric_makespan_prediction_tracks_real_detection_cost
}

# The pool hands borrowed tasks to threads that outlive the call; a
# publish / retract race shows as a flake, not as one red run. The bounded
# channel's contract (FIFO, blocking send, end of stream) couples the
# pipelined cell's stages and the benchmark's ping-pong probe, so its
# tests loop too, and so do the pipeline's own (stage hand-off, stage
# panics).
pool_loop() {
    for i in $(seq 20); do
        cargo test -q --release -p flexcore-parallel -- pool:: channel::
        cargo test -q --release -p flexcore-engine -- pipeline::
    done
}

# The one wall-clock gate outside benchmark/: a one-user plan's prices,
# placed on the LTE small-cell fabric by weighted LPT, must predict the
# makespan of that plan on a test-local timed pool within 25 % on the
# quietest of 9 frames. One thread, so no other test shares the cores.
timing_audit() {
    cargo test -q --release --test frame_engine -- --ignored fabric_makespan_prediction_tracks_real_detection_cost --test-threads=1
}

# --- repro ------------------------------------------------------------

# Every driver takes an explicit seed, so two runs print the same bytes.
# A deliberate re-pin moves the bytes against the parent on purpose, so
# only run-to-run identity defends it. `repro` with no name lists the names
# on stderr and exits 2.
determinism() {
    cargo build --release -q -p flexcore-sim --bin repro
    names=$(target/release/repro 2>&1 >/dev/null | sed -n 's/^names: //p' || true)
    [ -n "$names" ] || { echo "repro listed no names"; return 1; }
    rm -rf "$work/repro-1" "$work/repro-2"
    for run in 1 2; do
        mkdir "$work/repro-$run"
        for n in $names; do
            target/release/repro "$n" > "$work/repro-$run/$n.txt"
            target/release/repro "$n" --csv > "$work/repro-$run/$n.csv"
        done
    done
    diff -r "$work/repro-1" "$work/repro-2"
}

# --- bench ------------------------------------------------------------

# benchmark/ times the product through its public items from a package of
# its own that product changes do not edit, so an API change that breaks
# it fails here.
bench_tests() { cargo test --offline --manifest-path benchmark/Cargo.toml; }

# All five workloads, correctness gates on: a wrong unit exits non-zero.
bench_smoke() { cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke; }

# --- substrate --------------------------------------------------------

# Bits must not depend on the host. glibc picks the `exp` / `log` / `pow`
# / `sin` / `cos` the product calls at load time by CPU feature (an FMA
# variant or an SSE2 one), and the variants round differently in the last
# ulp. Nothing pinned moves today; this group keeps it so on a second
# substrate: an x86-64 baseline build (no AVX or FMA in the product's own
# code), in a target directory of its own so the native build stays, run
# with glibc's FMA and AVX2 variants masked (the tunable changes only the
# process it is set for).
baseline() { export RUSTFLAGS='-C target-cpu=x86-64' CARGO_TARGET_DIR=target/x86-64; }
masked=glibc.cpu.hwcaps=-FMA,-AVX2

substrate_goldens() {
    baseline
    GLIBC_TUNABLES=$masked cargo test -q --release -p flexcore-sim --test repro_cli -- --ignored every_driver_prints_its_golden_bytes
    GLIBC_TUNABLES=$masked cargo test -q --release -p flexcore-sim --test city_invariants
}

# The same baseline binary with and without the mask: each workload's
# header, error count and digest line must match.
substrate_smoke() {
    baseline
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    bin=$CARGO_TARGET_DIR/release/flexcore-benchmark
    pick='^== |errors:|digest 0x'
    "$bin" --smoke | grep -E "$pick" > "$work/smoke-default.txt"
    GLIBC_TUNABLES=$masked "$bin" --smoke | grep -E "$pick" > "$work/smoke-masked.txt"
    [ "$(grep -c 'digest 0x' "$work/smoke-default.txt")" -eq 5 ] \
        || { echo "expected five workload digests"; cat "$work/smoke-default.txt"; return 1; }
    diff "$work/smoke-default.txt" "$work/smoke-masked.txt"
}

# --- every group ------------------------------------------------------

# Every check builds from the committed lock files (or staged ones); a
# build that had to move one, such as a dependency added without its lock
# entry, fails here.
lock_files() { git diff --exit-code -- Cargo.lock benchmark/Cargo.lock; }

# Runs in a subshell with `set -e`, so a check stops at its first failing
# command and cannot change the next one's state.
run_group() {
    failed=
    for check in $(checks "$1") lock_files; do
        echo "== gates: $1: $check"
        set +e
        (set -e; "$check")
        status=$?
        set -e
        [ "$status" -eq 0 ] || failed="$failed $check"
    done
    if [ -z "$failed" ]; then
        echo "gates: $1: ok"
    else
        echo "gates: $1: FAILED:$failed"
        bad=1
    fi
}

usage() {
    echo "usage: scripts/gates.sh <group>..." >&2
    for g in $groups; do
        printf '  %-10s %s\n' "$g" "$(checks "$g")" >&2
    done
    exit 2
}

[ $# -gt 0 ] || usage
for g; do checks "$g" >/dev/null || usage; done
mkdir -p "$work"
bad=0
for g; do run_group "$g"; done
exit $bad

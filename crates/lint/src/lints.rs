//! The seven FlexCore lints, as token-pattern checks over a
//! [`FileScan`].
//!
//! | code  | slug              | scope                                    |
//! |-------|-------------------|------------------------------------------|
//! | FL000 | marker-syntax     | malformed `flexcore-lint:` markers       |
//! | FL001 | hot-path-alloc    | allocating idioms inside `hot-path` regions |
//! | FL002 | float-determinism | libm / reassociation hazards inside `bit-identity` regions |
//! | FL003 | lane-twin         | `*_block` lane kernels must name an existing scalar twin |
//! | FL004 | panic-surface     | `unwrap` / `expect` / panicking macros in non-test library code |
//! | FL005 | env-discipline    | any environment read in library code     |
//! | FL006 | unsafe-surface    | `unsafe` outside the sanctioned module, or there without a `// SAFETY:` comment |
//! | FL007 | wall-clock        | `Instant::now()` / `SystemTime::now()` in non-test library code |

use crate::scan::{FileScan, RegionKind};
use crate::{FileClass, Finding};
use std::collections::BTreeSet;

/// Stable code/slug pairs, in report order.
pub const LINTS: &[(&str, &str, &str)] = &[
    (
        "FL000",
        "marker-syntax",
        "flexcore-lint markers must parse: allow(...) needs codes and a non-empty reason",
    ),
    (
        "FL001",
        "hot-path-alloc",
        "allocating idioms are forbidden inside `// flexcore-lint: hot-path` regions",
    ),
    (
        "FL002",
        "float-determinism",
        "non-deterministic float operations are forbidden inside `// flexcore-lint: bit-identity` regions",
    ),
    (
        "FL003",
        "lane-twin",
        "every `*_block` lane kernel must declare `// flexcore-lint: scalar-twin = <fn>` and the twin must exist",
    ),
    (
        "FL004",
        "panic-surface",
        "`unwrap`/`expect`/panicking macros are forbidden in non-test library code",
    ),
    (
        "FL005",
        "env-discipline",
        "environment reads are forbidden in library code: behaviour never depends on a setting",
    ),
    (
        "FL006",
        "unsafe-surface",
        "`unsafe` is only permitted in the sanctioned module, directly below a `// SAFETY:` comment",
    ),
    (
        "FL007",
        "wall-clock",
        "wall-clock reads are forbidden in library code: time is modelled from prices, not measured",
    ),
];

/// Modules permitted to hold `unsafe` code: the work-queue pool's one
/// lifetime erasure. Every crate but `flexcore-parallel` also carries
/// `#![forbid(unsafe_code)]`; this lint says where inside that crate the
/// exception may live.
pub const UNSAFE_SANCTIONED: &[&str] = &["crates/parallel/src/pool.rs"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Owner types whose constructors allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Rc", "Arc",
];

/// Constructor-like associated functions on [`ALLOC_TYPES`] that
/// allocate (or may allocate) on call.
const ALLOC_CTORS: &[&str] = &[
    "new",
    "with_capacity",
    "from",
    "from_iter",
    "default",
    "leak",
];

/// Method calls that allocate their result.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "clone",
    "into_boxed_slice",
    "into_vec",
    "repeat",
];

/// Float operations that are *not* in the sanctioned deterministic set.
///
/// The lane kernels' bit-identity contract allows exactly the IEEE-754
/// correctly-rounded operations plus exact sign/compare manipulation:
/// `+ - * / sqrt abs floor ceil trunc round signum copysign min max
/// clamp to_bits from_bits total_cmp` — everything whose result is
/// bit-reproducible across libm versions and cannot silently contract
/// an op chain. Everything below is denied: `mul_add` fuses (different
/// rounding than mul-then-add), `powi` is iterated multiplication in an
/// unspecified association order, and the transcendentals are libm
/// calls with platform-dependent last-ulp behaviour.
const NONDET_FLOAT_METHODS: &[&str] = &[
    "mul_add",
    "powi",
    "powf",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "asinh",
    "acosh",
    "atanh",
    "exp",
    "exp2",
    "exp_m1",
    "ln",
    "ln_1p",
    "log",
    "log2",
    "log10",
    "hypot",
    "cbrt",
    "rem_euclid",
    "div_euclid",
    "sin_cos",
    "to_degrees",
    "to_radians",
    "gamma",
    "ln_gamma",
];

/// Panicking macros denied in library code.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Panicking `Option`/`Result` escape hatches denied in library code.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Clock types whose `now()` reads the wall clock.
const CLOCKS: &[&str] = &["Instant", "SystemTime"];

/// Trees whose job is to measure, exempt from FL007: the benchmark
/// package times the product crates through their public items.
const CLOCK_SANCTIONED: &[&str] = &["benchmark/"];

/// Runtime environment readers.
const ENV_READERS: &[&str] = &["var", "var_os", "vars", "vars_os", "args", "args_os"];

/// Cross-file context needed by FL003: the set of scalar fn names that
/// twins may point at.
#[derive(Debug, Default)]
pub struct TwinUniverse {
    names: BTreeSet<String>,
}

impl TwinUniverse {
    /// Collects candidate twin targets: non-test `fn` items in library
    /// code across the whole workspace.
    pub fn add_file(&mut self, class: FileClass, scan: &FileScan) {
        if class != FileClass::Lib {
            return;
        }
        for f in &scan.fns {
            if !f.is_test {
                self.names.insert(f.name.clone());
            }
        }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }
}

fn finding(code: &str, path: &str, line: u32, col: u32, message: String) -> Finding {
    let slug = LINTS
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, s, _)| *s)
        .unwrap_or("unknown");
    Finding {
        code: code.to_string(),
        slug: slug.to_string(),
        path: path.to_string(),
        line,
        col,
        message,
    }
}

/// Runs every per-file lint. `twins` must already contain the whole
/// workspace's fn names (two-pass driver).
pub fn lint_file(
    rel_path: &str,
    class: FileClass,
    scan: &FileScan,
    twins: &TwinUniverse,
) -> Vec<Finding> {
    let mut out = Vec::new();

    // FL000: marker errors are never suppressible — a broken marker is a
    // broken suppression.
    for e in &scan.marker_errors {
        out.push(finding("FL000", rel_path, e.line, 1, e.message.clone()));
    }

    check_patterns(rel_path, class, scan, &mut out);
    check_lane_twins(rel_path, class, scan, twins, &mut out);
    out
}

/// Emits unless the line is test code or carries a matching allow.
fn emit(
    out: &mut Vec<Finding>,
    scan: &FileScan,
    code: &str,
    path: &str,
    line: u32,
    col: u32,
    message: String,
) {
    if scan.in_test(line) || scan.allowed(code, line) {
        return;
    }
    out.push(finding(code, path, line, col, message));
}

/// Skips a turbofish (`::<…>`) starting at index `i` in the code
/// stream; returns the index of the token just past it (or `i` when no
/// turbofish is present).
fn skip_turbofish(scan: &FileScan, i: usize) -> usize {
    let code = &scan.code;
    if !(code.get(i).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct('<')))
    {
        return i;
    }
    let mut depth = 0usize;
    let mut j = i + 2;
    while j < code.len() {
        if code[j].is_punct('<') {
            depth += 1;
        } else if code[j].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// The token-pattern lints: FL001, FL002, FL004, FL005, FL006, FL007.
fn check_patterns(rel_path: &str, class: FileClass, scan: &FileScan, out: &mut Vec<Finding>) {
    let code = &scan.code;
    let lib = class == FileClass::Lib;
    let unsafe_ok = UNSAFE_SANCTIONED.contains(&rel_path);
    let clock_ok = CLOCK_SANCTIONED
        .iter()
        .any(|tree| rel_path.starts_with(tree));
    for i in 0..code.len() {
        let t = &code[i];
        let Some(id) = t.ident() else { continue };
        let (line, col) = (t.line, t.col);
        let next_bang = code.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let prev_dot = i > 0 && code[i - 1].is_punct('.');
        let prev_path = i >= 2 && code[i - 1].is_punct(':') && code[i - 2].is_punct(':');
        let after = skip_turbofish(scan, i + 1);
        let call = code.get(after).is_some_and(|n| n.is_punct('('));

        // ---- FL001: allocating idioms in hot-path regions ----------------
        if scan.in_region(RegionKind::HotPath, line) {
            if next_bang && ALLOC_MACROS.contains(&id) {
                emit(
                    out,
                    scan,
                    "FL001",
                    rel_path,
                    line,
                    col,
                    format!("`{id}!` allocates on the hot path"),
                );
            }
            if ALLOC_TYPES.contains(&id) && !prev_dot {
                // Vec::new / Box::<T>::new / String::from …
                let mut j = skip_turbofish(scan, i + 1);
                if code.get(j).is_some_and(|n| n.is_punct(':'))
                    && code.get(j + 1).is_some_and(|n| n.is_punct(':'))
                {
                    j += 2;
                    if let Some(m) = code.get(j).and_then(|n| n.ident()) {
                        if ALLOC_CTORS.contains(&m) {
                            emit(
                                out,
                                scan,
                                "FL001",
                                rel_path,
                                line,
                                col,
                                format!("`{id}::{m}` allocates on the hot path"),
                            );
                        }
                    }
                }
            }
            if prev_dot && call && ALLOC_METHODS.contains(&id) {
                let hint = if id == "clone" {
                    " (reuse scratch via `clone_from`, or allow with reason for a Copy type)"
                } else {
                    ""
                };
                emit(
                    out,
                    scan,
                    "FL001",
                    rel_path,
                    line,
                    col,
                    format!("`.{id}()` allocates on the hot path{hint}"),
                );
            }
        }

        // ---- FL002: float determinism in bit-identity regions ------------
        if scan.in_region(RegionKind::BitIdentity, line)
            && (prev_dot || prev_path)
            && call
            && NONDET_FLOAT_METHODS.contains(&id)
        {
            emit(
                out,
                scan,
                "FL002",
                rel_path,
                line,
                col,
                format!(
                    "`{id}` is outside the sanctioned deterministic float set (IEEE \
                     +,-,*,/,sqrt,abs,rounding,sign/compare): it fuses, reassociates, \
                     or calls libm"
                ),
            );
        }

        // ---- FL004: panic surface in library code ------------------------
        if lib {
            if prev_dot && call && PANIC_METHODS.contains(&id) {
                emit(
                    out,
                    scan,
                    "FL004",
                    rel_path,
                    line,
                    col,
                    format!(
                        "`.{id}()` panics in library code; return a Result or allow with a reason"
                    ),
                );
            }
            if next_bang && PANIC_MACROS.contains(&id) {
                // `panic!` et al. — but `assert!`-family stays legal.
                emit(
                    out,
                    scan,
                    "FL004",
                    rel_path,
                    line,
                    col,
                    format!(
                        "`{id}!` panics in library code; return a Result or allow with a reason"
                    ),
                );
            }
        }

        // ---- FL005: env reads in library code ----------------------------
        if lib
            && id == "env"
            && !prev_dot
            && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            if let Some(m) = code.get(i + 3).and_then(|n| n.ident()) {
                if ENV_READERS.contains(&m) {
                    let msg = format!("`env::{m}` in library code: no setting selects behaviour");
                    emit(out, scan, "FL005", rel_path, line, col, msg);
                }
            }
        }

        // ---- FL007: wall-clock reads in library code ---------------------
        if lib
            && !clock_ok
            && CLOCKS.contains(&id)
            && !prev_dot
            && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 3).and_then(|n| n.ident()) == Some("now")
        {
            let msg = format!("`{id}::now` in library code: time is modelled, not measured");
            emit(out, scan, "FL007", rel_path, line, col, msg);
        }

        // ---- FL006: unsafe outside the audited surface -------------------
        if lib && id == "unsafe" {
            let problem = if !unsafe_ok {
                Some(format!(
                    "outside the sanctioned module ({})",
                    UNSAFE_SANCTIONED.join(", ")
                ))
            } else if !scan.safety_documented(line) {
                Some("without a `// SAFETY:` comment directly above it".to_string())
            } else {
                None
            };
            if let Some(problem) = problem {
                emit(
                    out,
                    scan,
                    "FL006",
                    rel_path,
                    line,
                    col,
                    format!(
                        "`unsafe` {problem}: the workspace's unsafe surface is one audited block"
                    ),
                );
            }
        }
    }
}

/// FL003: `*_block` lane kernels in library code must name an existing
/// scalar twin.
fn check_lane_twins(
    rel_path: &str,
    class: FileClass,
    scan: &FileScan,
    twins: &TwinUniverse,
    out: &mut Vec<Finding>,
) {
    if class != FileClass::Lib {
        return;
    }
    for f in &scan.fns {
        if f.is_test || !is_lane_kernel_name(&f.name) {
            continue;
        }
        if scan.in_test(f.line) || scan.allowed("FL003", f.line) {
            continue;
        }
        match &f.twin {
            None => out.push(finding(
                "FL003",
                rel_path,
                f.line,
                1,
                format!(
                    "lane kernel `{}` declares no scalar twin; add \
                     `// flexcore-lint: scalar-twin = <fn>` in its body",
                    f.name
                ),
            )),
            Some(twin) if !twins.contains(twin) => out.push(finding(
                "FL003",
                rel_path,
                f.line,
                1,
                format!(
                    "lane kernel `{}` names scalar twin `{twin}`, which does not \
                     exist as a library fn anywhere in the workspace",
                    f.name
                ),
            )),
            Some(_) => {}
        }
    }
}

/// Lane-kernel naming convention: `…_block` or `…_block_…`.
fn is_lane_kernel_name(name: &str) -> bool {
    name.ends_with("_block") || name.contains("_block_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn lint_lib(src: &str) -> Vec<Finding> {
        let s = scan(src);
        let mut tw = TwinUniverse::default();
        tw.add_file(FileClass::Lib, &s);
        lint_file("crates/x/src/lib.rs", FileClass::Lib, &s, &tw)
    }

    fn codes(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn fl001_fires_only_in_hot_regions() {
        let cold = "fn f() { let v = vec![1, 2]; }";
        assert!(codes(&lint_lib(cold)).is_empty());
        let hot = "fn f() {\n    // flexcore-lint: hot-path\n    let v = vec![1, 2];\n}";
        assert_eq!(codes(&lint_lib(hot)), ["FL001"]);
    }

    #[test]
    fn fl001_catches_the_idiom_family() {
        for (snippet, what) in [
            ("let v = Vec::new();", "Vec::new"),
            (
                "let v = Vec::<u8>::with_capacity(4);",
                "with_capacity turbofish",
            ),
            ("let b = Box::new(3);", "Box::new"),
            ("let s = String::from(\"x\");", "String::from"),
            ("let s = x.to_vec();", "to_vec"),
            ("let s = it.collect::<Vec<_>>();", "collect turbofish"),
            ("let s = y.clone();", "clone"),
            ("let s = format!(\"{y}\");", "format!"),
        ] {
            let src = format!("fn f(x: &[u8], y: &Y, it: I) {{\n    // flexcore-lint: hot-path\n    {snippet}\n}}");
            assert_eq!(codes(&lint_lib(&src)), ["FL001"], "{what}");
        }
    }

    #[test]
    fn fl001_allows_scratch_idioms() {
        let src = "fn f(dst: &mut SymVec, src: &SymVec) {\n    // flexcore-lint: hot-path\n    dst.clone_from(src);\n    dst.reset(4);\n    let n = dst.len();\n}";
        assert!(codes(&lint_lib(src)).is_empty());
    }

    #[test]
    fn fl002_denies_libm_in_bit_identity() {
        let src = "fn k(x: f64, a: f64) -> f64 {\n    // flexcore-lint: bit-identity\n    x.mul_add(a, 1.0)\n}";
        assert_eq!(codes(&lint_lib(src)), ["FL002"]);
        let src =
            "fn k(x: f64) -> f64 {\n    // flexcore-lint: bit-identity\n    f64::atan2(x, x)\n}";
        assert_eq!(codes(&lint_lib(src)), ["FL002"]);
    }

    #[test]
    fn fl002_sanctioned_set_is_clean() {
        let src = "fn k(x: f64, y: f64) -> f64 {\n    // flexcore-lint: bit-identity\n    let d = (x * x + y * y).sqrt().abs();\n    d.max(0.0).floor()\n}";
        assert!(codes(&lint_lib(src)).is_empty());
    }

    #[test]
    fn fl003_requires_existing_twin() {
        // No marker at all.
        let src = "fn walk_block(x: usize) -> usize { x }\nfn walk_scalar(x: usize) -> usize { x }";
        assert_eq!(codes(&lint_lib(src)), ["FL003"]);
        // Marker naming a real twin.
        let src = "fn walk_block(x: usize) -> usize {\n    // flexcore-lint: scalar-twin = walk_scalar\n    x\n}\nfn walk_scalar(x: usize) -> usize { x }";
        assert!(codes(&lint_lib(src)).is_empty());
        // Marker naming a ghost.
        let src = "fn walk_block(x: usize) -> usize {\n    // flexcore-lint: scalar-twin = ghost\n    x\n}";
        assert_eq!(codes(&lint_lib(src)), ["FL003"]);
    }

    #[test]
    fn fl004_lib_only_and_test_exempt() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(codes(&lint_lib(src)), ["FL004"]);
        let s = scan(src);
        let tw = TwinUniverse::default();
        for class in [FileClass::Bin, FileClass::Test, FileClass::Example] {
            assert!(lint_file("p", class, &s, &tw).is_empty(), "{class:?}");
        }
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}";
        assert!(codes(&lint_lib(test_src)).is_empty());
    }

    #[test]
    fn fl004_macros_but_not_asserts() {
        assert_eq!(codes(&lint_lib("fn f() { panic!(\"boom\"); }")), ["FL004"]);
        assert_eq!(codes(&lint_lib("fn f() { unreachable!(); }")), ["FL004"]);
        assert!(codes(&lint_lib(
            "fn f(x: u8) { assert!(x > 0); assert_eq!(x, x); debug_assert!(true); }"
        ))
        .is_empty());
    }

    #[test]
    fn fl004_allow_with_reason_suppresses() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // flexcore-lint: allow(FL004, reason = \"len checked two lines up\")\n    x.unwrap()\n}";
        assert!(codes(&lint_lib(src)).is_empty());
        // Wrong code in the allow: still fires.
        let src = "fn f(x: Option<u8>) -> u8 {\n    // flexcore-lint: allow(FL001, reason = \"wrong code\")\n    x.unwrap()\n}";
        assert_eq!(codes(&lint_lib(src)), ["FL004"]);
    }

    #[test]
    fn fl005_every_library_env_read_is_a_finding() {
        let src = "fn f() -> bool { std::env::var(\"X\").is_ok() }";
        assert_eq!(codes(&lint_lib(src)), ["FL005"]);
        // No module is exempt, the lane kernels' included.
        let s = scan(src);
        let tw = TwinUniverse::default();
        let found = lint_file("crates/numeric/src/lanes.rs", FileClass::Lib, &s, &tw);
        assert_eq!(codes(&found), ["FL005"]);
        // …and compile-time env! is not a runtime read.
        assert!(codes(&lint_lib(
            "fn f() -> &'static str { env!(\"CARGO_MANIFEST_DIR\") }"
        ))
        .is_empty());
    }

    #[test]
    fn fl006_unsafe_needs_the_sanctioned_module_and_a_safety_comment() {
        let documented =
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid, the caller checked.\n    // (second comment line)\n    unsafe { *p }\n}";
        let bare = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}";
        // Anywhere else, even a documented block is a finding.
        assert_eq!(codes(&lint_lib(documented)), ["FL006"]);
        let lint_pool = |src: &str| {
            let tw = TwinUniverse::default();
            lint_file(UNSAFE_SANCTIONED[0], FileClass::Lib, &scan(src), &tw)
        };
        assert!(lint_pool(documented).is_empty());
        assert_eq!(codes(&lint_pool(bare)), ["FL006"]);
        // A comment that documents an earlier line does not carry over.
        let stale = "fn f(p: *const u8) -> u8 {\n    // SAFETY: about the next line only.\n    let q = p;\n    unsafe { *q }\n}";
        assert_eq!(codes(&lint_pool(stale)), ["FL006"]);
        // Test code and the `unsafe_code` lint name in attributes are not findings.
        let exempt = "#![deny(unsafe_code)]\n#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 { unsafe { *p } }\n}";
        assert!(lint_lib(exempt).is_empty());
    }

    #[test]
    fn fl007_every_library_clock_read_is_a_finding() {
        let src = "fn f() -> std::time::Instant { std::time::Instant::now() }";
        assert_eq!(codes(&lint_lib(src)), ["FL007"]);
        let src = "use std::time::SystemTime;\nfn f() -> SystemTime { SystemTime::now() }";
        assert_eq!(codes(&lint_lib(src)), ["FL007"]);
        // Binaries, tests and examples may read the clock, and test code
        // inside a library is exempt.
        let s = scan("fn f() { let t = Instant::now(); }");
        let tw = TwinUniverse::default();
        for class in [FileClass::Bin, FileClass::Test, FileClass::Example] {
            assert!(lint_file("p", class, &s, &tw).is_empty(), "{class:?}");
        }
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}";
        assert!(codes(&lint_lib(test_src)).is_empty());
        // The benchmark package measures: its clock reads are its job.
        assert!(lint_file("benchmark/src/workloads.rs", FileClass::Lib, &s, &tw).is_empty());
        // Elapsed-time arithmetic on a stamp handed in is not a read.
        assert!(codes(&lint_lib(
            "fn f(t0: Instant) -> f64 { t0.elapsed().as_secs_f64() }"
        ))
        .is_empty());
        // A reasoned allow suppresses it.
        let src = "fn f() {\n    // flexcore-lint: allow(FL007, reason = \"latency stamp\")\n    let t = Instant::now();\n}";
        assert!(codes(&lint_lib(src)).is_empty());
    }

    #[test]
    fn fl000_surfaces_marker_errors() {
        let src = "// flexcore-lint: allow(FL004)\nfn f() {}";
        assert_eq!(codes(&lint_lib(src)), ["FL000"]);
    }
}

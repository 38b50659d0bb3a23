//! Fixture-corpus and self-check tests for `flexcore-lint`.
//!
//! Every file under `tests/fixtures/bad/` is a known violation whose
//! filename prefix (`fl001_…`) names the exact code it must fail with;
//! every file under `tests/fixtures/good/` must lint clean. The final
//! test turns the tool on the live workspace: the whole repo must stay
//! lint-clean, so a regression in any crate fails this crate's tests.

use flexcore_lint::{lint_source, lint_workspace};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
}

fn fixture_files(kind: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(fixture_dir(kind))
        .expect("fixture dir")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no {kind} fixtures found");
    files
}

/// The `FLxxx` code a bad fixture's filename promises (`fl004_…` → FL004).
fn expected_code(path: &Path) -> String {
    let stem = path.file_stem().expect("stem").to_string_lossy();
    let digits = &stem[2..5];
    assert!(
        stem.starts_with("fl") && digits.chars().all(|c| c.is_ascii_digit()),
        "bad fixture name {stem}: want flNNN_<slug>.rs"
    );
    format!("FL{digits}")
}

#[test]
fn every_bad_fixture_fails_with_its_documented_code() {
    for path in fixture_files("bad") {
        let want = expected_code(&path);
        let src = fs::read_to_string(&path).expect("read fixture");
        let findings = lint_source("crates/x/src/fixture.rs", &src);
        assert!(
            findings.iter().any(|f| f.code == want),
            "{}: expected a {want} finding, got {:?}",
            path.display(),
            findings
        );
        // A bad fixture demonstrates exactly one discipline violation
        // class — any finding with a different code means the snippet
        // drifted from what its filename documents.
        for f in &findings {
            assert_eq!(
                f.code,
                want,
                "{}: stray {} finding: {f}",
                path.display(),
                f.code
            );
        }
    }
}

#[test]
fn every_good_fixture_passes() {
    for path in fixture_files("good") {
        let src = fs::read_to_string(&path).expect("read fixture");
        let findings = lint_source("crates/x/src/fixture.rs", &src);
        assert!(
            findings.is_empty(),
            "{}: expected clean, got {:?}",
            path.display(),
            findings
        );
    }
}

/// FL006's second failure mode only shows in the sanctioned module:
/// there a documented `unsafe` block is clean and an undocumented one is
/// still a finding.
#[test]
fn fl006_in_the_sanctioned_module_turns_on_the_safety_comment() {
    let pool = flexcore_lint::lints::UNSAFE_SANCTIONED[0];
    let read = |name: &str| fs::read_to_string(fixture_dir("bad").join(name)).expect("fixture");
    let documented = lint_source(pool, &read("fl006_unsafe_outside_sanctioned.rs"));
    assert!(documented.is_empty(), "{documented:?}");
    let bare = lint_source(pool, &read("fl006_unsafe_without_safety.rs"));
    assert_eq!(bare.len(), 1, "{bare:?}");
    assert_eq!(bare[0].code, "FL006");
}

/// FL007's one exempt tree: the same clock read that fails in a product
/// crate is the benchmark package's job.
#[test]
fn fl007_exempts_the_benchmark_package() {
    let src = fs::read_to_string(fixture_dir("bad").join("fl007_wall_clock.rs")).expect("fixture");
    let product = lint_source("crates/engine/src/fixture.rs", &src);
    assert_eq!(product.len(), 1, "{product:?}");
    assert_eq!(product[0].code, "FL007");
    let bench = lint_source("benchmark/src/fixture.rs", &src);
    assert!(bench.is_empty(), "{bench:?}");
}

/// The `surface` report counts code lines and `pub` items outside test
/// code from the token stream: comments, blanks, attribute-only lines,
/// `pub(crate)` items, `pub` fields and everything under `#[cfg(test)]`
/// stay out.
#[test]
fn surface_counts_code_lines_and_pub_items_outside_tests() {
    let src = fs::read_to_string(fixture_dir("good").join("surface.rs")).expect("read fixture");
    assert_eq!(flexcore_lint::scan::scan(&src).surface(), (12, 3));
}

/// The tool turned on itself and everything else: the live workspace must
/// be lint-clean. This is the same gate CI runs via
/// `cargo run -p flexcore-lint -- check`.
#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = lint_workspace(&root).expect("scan workspace");
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The surface section has one row per crate, lower crates included.
    for krate in ["numeric", "modulation", "detect", "core"] {
        let row = report
            .surface
            .iter()
            .find(|c| c.krate == format!("crates/{krate}"))
            .unwrap_or_else(|| panic!("no surface row for {krate}"));
        assert!(row.code_lines > 100 && row.pub_items > 0, "{row:?}");
    }
    // Every allow that suppresses something must carry a reason — the
    // scanner enforces non-empty reasons at parse time, so just pin the
    // invariant here against future loosening.
    for a in &report.allows {
        assert!(
            !a.reason.trim().is_empty(),
            "{}:{}: allow without reason",
            a.path,
            a.line
        );
    }
}

/// The bit-identity discipline must stay pinned to the lane kernels: the
/// files holding `_block` kernels and the trie walk all carry regions.
#[test]
fn bit_identity_regions_cover_lane_kernel_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = lint_workspace(&root).expect("scan workspace");
    for must in [
        "crates/numeric/src/lanes.rs",
        "crates/numeric/src/qr.rs",
        "crates/core/src/detector.rs",
        "crates/detect/src/common.rs",
        "crates/detect/src/fcsd.rs",
    ] {
        assert!(
            report.bit_identity_modules.iter().any(|m| m == must),
            "{must} lost its bit-identity region; modules: {:?}",
            report.bit_identity_modules
        );
    }
}

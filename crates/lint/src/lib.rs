//! `flexcore-lint` — project-specific static analysis for the FlexCore
//! workspace.
//!
//! The repo's performance story rests on two hand-enforced disciplines:
//! the scratch rule (no allocation on the post-`prepare()` detection hot
//! path) and the bit-identity rule (lane kernels replay the scalar op
//! chain — no FMA, no reassociation, no libm in the locate path). Both
//! were policed only dynamically, by a counting-allocator test and
//! sampled identity property tests. This crate makes them static: a
//! hand-rolled lexer (no crates.io access, so no `syn`) feeds a
//! region/item scanner, and six token-pattern lints with stable `FLxxx`
//! codes walk every workspace crate. See [`lints::LINTS`] for the code
//! table and the crate README for the marker syntax.
//!
//! Use as a library (the workspace's own tests assert lint-cleanliness
//! and marker coverage through [`lint_workspace`] and
//! [`hot_path_modules`]) or as a binary:
//!
//! ```text
//! cargo run -p flexcore-lint -- check --json target/flexcore-lint.json
//! ```

pub mod lexer;
pub mod lints;
pub mod report;
pub mod scan;

use lints::TwinUniverse;
use scan::FileScan;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable code, e.g. `FL001`.
    pub code: String,
    /// Human slug, e.g. `hot-path-alloc`.
    pub slug: String,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}: {}",
            self.path, self.line, self.col, self.code, self.slug, self.message
        )
    }
}

/// How a file participates in the build — decides which lints apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: full discipline (FL001–FL007 as marked/applicable).
    Lib,
    /// Binary entry points (`src/bin/**`, `src/main.rs`, a `build.rs`
    /// build script): marker-driven lints only — bins legitimately read
    /// env vars and exit loudly.
    Bin,
    /// Integration tests.
    Test,
    /// Examples.
    Example,
}

/// An allow marker, for the machine-readable report: the lint surface
/// that has been explicitly reasoned away, diffable across PRs.
#[derive(Clone, Debug)]
pub struct AllowRecord {
    pub path: String,
    pub line: u32,
    pub codes: Vec<String>,
    pub reason: String,
}

/// One crate's library size, for the report's `surface` section: the
/// trend ROADMAP's "Quality of design" aim asks to see PR over PR.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrateSurface {
    /// The crate's directory (`crates/<name>`, or `src` for the root).
    pub krate: String,
    /// Lines carrying code, outside `#[cfg(test)]`.
    pub code_lines: usize,
    /// `pub` items, outside `#[cfg(test)]`.
    pub pub_items: usize,
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Workspace root the walk started from.
    pub root: String,
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    pub allows: Vec<AllowRecord>,
    /// Files containing at least one `hot-path` region.
    pub hot_path_modules: Vec<String>,
    /// Files containing at least one `bit-identity` region.
    pub bit_identity_modules: Vec<String>,
    /// Library size per crate, sorted by crate directory — see
    /// [`scan::FileScan::surface`] for what counts.
    pub surface: Vec<CrateSurface>,
}

impl Report {
    /// Finding counts per code, plus `"total"`.
    pub fn summary(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for (code, _, _) in lints::LINTS {
            m.insert((*code).to_string(), 0usize);
        }
        for f in &self.findings {
            *m.entry(f.code.clone()).or_insert(0) += 1;
        }
        m.insert("total".to_string(), self.findings.len());
        m
    }

    /// True when the workspace is lint-clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Classifies a repo-relative path.
pub fn classify(rel: &str) -> FileClass {
    let in_crate = rel
        .strip_prefix("crates/")
        .map(|r| r.split_once('/').map(|(_, rest)| rest).unwrap_or(r));
    let local = in_crate.unwrap_or(rel);
    if local.starts_with("src/bin/") || local == "src/main.rs" || local == "build.rs" {
        FileClass::Bin
    } else if local.starts_with("tests/") {
        FileClass::Test
    } else if local.starts_with("examples/") {
        FileClass::Example
    } else {
        FileClass::Lib
    }
}

/// The crate directory a repo-relative path belongs to: `crates/<name>`,
/// or the first path component outside `crates/`.
fn crate_dir(rel: &str) -> &str {
    let depth = if rel.starts_with("crates/") { 2 } else { 1 };
    rel.match_indices('/')
        .nth(depth - 1)
        .map_or(rel, |(end, _)| &rel[..end])
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "node_modules"];

/// Path suffixes excluded from workspace scans: the lint tool's own
/// fixture corpus is deliberate violations.
const SKIP_PATHS: &[&str] = &["crates/lint/tests/fixtures"];

/// Recursively collects `.rs` files under `root`, repo-relative and
/// sorted for deterministic reports.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = rel_str(root, &path);
            if SKIP_PATHS.iter().any(|s| rel == *s) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints one source text in isolation (fixture tests use this). The
/// twin universe is built from the file itself.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let class = classify(rel_path);
    let scanned = scan::scan(src);
    let mut twins = TwinUniverse::default();
    twins.add_file(class, &scanned);
    lints::lint_file(rel_path, class, &scanned, &twins)
}

/// Walks and lints the whole workspace rooted at `root`.
///
/// Two passes: the first scans every file and accumulates the scalar
/// twin universe, the second runs the lints (FL003 needs cross-file fn
/// resolution).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = collect_rs_files(root)?;
    let mut scans: Vec<(String, FileClass, FileScan)> = Vec::with_capacity(files.len());
    let mut twins = TwinUniverse::default();
    for path in &files {
        let src = fs::read_to_string(path)?;
        let rel = rel_str(root, path);
        let class = classify(&rel);
        let scanned = scan::scan(&src);
        twins.add_file(class, &scanned);
        scans.push((rel, class, scanned));
    }

    let mut report = Report {
        root: root.to_string_lossy().into_owned(),
        files_scanned: scans.len(),
        ..Report::default()
    };
    let mut surface: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (rel, class, scanned) in &scans {
        if *class == FileClass::Lib {
            let entry = surface.entry(crate_dir(rel)).or_default();
            let (lines, items) = scanned.surface();
            entry.0 += lines;
            entry.1 += items;
        }
        report
            .findings
            .extend(lints::lint_file(rel, *class, scanned, &twins));
        for a in &scanned.allows {
            report.allows.push(AllowRecord {
                path: rel.clone(),
                line: a.line,
                codes: a.codes.clone(),
                reason: a.reason.clone(),
            });
        }
        if scanned
            .regions
            .iter()
            .any(|r| r.kind == scan::RegionKind::HotPath)
        {
            report.hot_path_modules.push(rel.clone());
        }
        if scanned
            .regions
            .iter()
            .any(|r| r.kind == scan::RegionKind::BitIdentity)
        {
            report.bit_identity_modules.push(rel.clone());
        }
    }
    report.surface = surface
        .into_iter()
        .map(|(krate, (code_lines, pub_items))| CrateSurface {
            krate: krate.to_string(),
            code_lines,
            pub_items,
        })
        .collect();
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.code).cmp(&(&b.path, b.line, b.col, &b.code)));
    Ok(report)
}

/// The set of repo-relative module paths carrying `hot-path` markers —
/// the workspace tests cross-check this against the modules the
/// counting-allocator guard exercises.
pub fn hot_path_modules(root: &Path) -> io::Result<Vec<String>> {
    Ok(lint_workspace(root)?.hot_path_modules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/numeric/src/lanes.rs"), FileClass::Lib);
        assert_eq!(classify("crates/sim/src/bin/repro.rs"), FileClass::Bin);
        assert_eq!(classify("crates/lint/src/main.rs"), FileClass::Bin);
        assert_eq!(classify("crates/modulation/build.rs"), FileClass::Bin);
        assert_eq!(
            classify("crates/sim/tests/experiment_smoke.rs"),
            FileClass::Test
        );
        assert_eq!(classify("tests/alloc_regression.rs"), FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
    }

    #[test]
    fn lint_source_smoke() {
        let findings = lint_source(
            "crates/x/src/y.rs",
            "fn f(v: Option<u8>) -> u8 { v.unwrap() }",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "FL004");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn display_format_is_grep_friendly() {
        let f = Finding {
            code: "FL004".into(),
            slug: "panic-surface".into(),
            path: "crates/x/src/y.rs".into(),
            line: 3,
            col: 7,
            message: "m".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/y.rs:3:7: FL004 panic-surface: m"
        );
    }
}

//! Report rendering: human diagnostics and a machine-readable JSON
//! document (hand-rolled — the build environment has no serde).
//!
//! The JSON schema is intentionally small and stable so CI can upload
//! the report as a build artifact and lint-surface growth stays
//! diffable across PRs:
//!
//! ```json
//! {
//!   "tool": "flexcore-lint",
//!   "files_scanned": 101,
//!   "summary": {"FL000": 0, "FL001": 0, "…": 0, "total": 0},
//!   "findings": [{"code": "…", "slug": "…", "path": "…",
//!                 "line": 1, "col": 1, "message": "…"}],
//!   "allows": [{"path": "…", "line": 1, "codes": ["FL004"],
//!               "reason": "…"}],
//!   "hot_path_modules": ["crates/…"],
//!   "bit_identity_modules": ["crates/…"],
//!   "surface": [{"crate": "crates/…", "code_lines": 1, "pub_items": 1}]
//! }
//! ```

use crate::lints::LINTS;
use crate::Report;
use std::fmt::Write as _;

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!("[{}]", quoted.join(", "))
}

/// Renders the report as the stable JSON document described in the
/// module docs.
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"tool\": \"flexcore-lint\",");
    let _ = writeln!(out, "  \"root\": \"{}\",", esc(&report.root));
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);

    let summary = report.summary();
    let parts: Vec<String> = summary
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", esc(k)))
        .collect();
    let _ = writeln!(out, "  \"summary\": {{{}}},", parts.join(", "));

    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let comma = if i + 1 < report.findings.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"code\": \"{}\", \"slug\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}{comma}",
            esc(&f.code),
            esc(&f.slug),
            esc(&f.path),
            f.line,
            f.col,
            esc(&f.message),
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"allows\": [\n");
    for (i, a) in report.allows.iter().enumerate() {
        let comma = if i + 1 < report.allows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"path\": \"{}\", \"line\": {}, \"codes\": {}, \"reason\": \"{}\"}}{comma}",
            esc(&a.path),
            a.line,
            json_str_list(&a.codes),
            esc(&a.reason),
        );
    }
    out.push_str("  ],\n");

    let _ = writeln!(
        out,
        "  \"hot_path_modules\": {},",
        json_str_list(&report.hot_path_modules)
    );
    let _ = writeln!(
        out,
        "  \"bit_identity_modules\": {},",
        json_str_list(&report.bit_identity_modules)
    );
    // One row per line, so `grep '"crate": "crates/core"'` prints a row.
    out.push_str("  \"surface\": [\n");
    for (i, c) in report.surface.iter().enumerate() {
        let comma = if i + 1 < report.surface.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"crate\": \"{}\", \"code_lines\": {}, \"pub_items\": {}}}{comma}",
            esc(&c.krate),
            c.code_lines,
            c.pub_items,
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Renders human diagnostics plus a one-line verdict.
pub fn to_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{f}");
    }
    let summary = report.summary();
    if report.clean() {
        let _ = writeln!(
            out,
            "flexcore-lint: clean — {} files, {} allows, {} hot-path modules, {} bit-identity modules",
            report.files_scanned,
            report.allows.len(),
            report.hot_path_modules.len(),
            report.bit_identity_modules.len(),
        );
    } else {
        let per_code: Vec<String> = summary
            .iter()
            .filter(|(k, v)| k.as_str() != "total" && **v > 0)
            .map(|(k, v)| format!("{k}×{v}"))
            .collect();
        let _ = writeln!(
            out,
            "flexcore-lint: {} finding(s) in {} files ({})",
            report.findings.len(),
            report.files_scanned,
            per_code.join(", "),
        );
    }
    out
}

/// The `lints` subcommand: the stable code table.
pub fn lint_table() -> String {
    let mut out = String::new();
    for (code, slug, desc) in LINTS {
        let _ = writeln!(out, "{code}  {slug:<18} {desc}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllowRecord, CrateSurface, Finding};

    fn sample() -> Report {
        Report {
            root: "/repo".into(),
            files_scanned: 2,
            findings: vec![Finding {
                code: "FL004".into(),
                slug: "panic-surface".into(),
                path: "crates/x/src/a.rs".into(),
                line: 10,
                col: 5,
                message: "`.unwrap()` panics \"here\"".into(),
            }],
            allows: vec![AllowRecord {
                path: "crates/x/src/b.rs".into(),
                line: 3,
                codes: vec!["FL001".into()],
                reason: "copy type".into(),
            }],
            hot_path_modules: vec!["crates/x/src/b.rs".into()],
            bit_identity_modules: vec![],
            surface: vec![CrateSurface {
                krate: "crates/x".into(),
                code_lines: 40,
                pub_items: 3,
            }],
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = to_json(&sample());
        // Balanced braces/brackets and escaped quotes in messages.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains(r#"panics \"here\""#));
        assert!(j.contains("\"FL004\": 1"));
        assert!(j.contains("\"total\": 1"));
        assert!(j.contains(r#"{"crate": "crates/x", "code_lines": 40, "pub_items": 3}"#));
    }

    #[test]
    fn human_output_mentions_findings_and_verdict() {
        let h = to_human(&sample());
        assert!(h.contains("crates/x/src/a.rs:10:5: FL004"));
        assert!(h.contains("1 finding(s)"));
        let clean = Report {
            findings: vec![],
            ..sample()
        };
        assert!(to_human(&clean).contains("clean"));
    }

    #[test]
    fn table_lists_every_code() {
        let t = lint_table();
        for code in [
            "FL000", "FL001", "FL002", "FL003", "FL004", "FL005", "FL006", "FL007",
        ] {
            assert!(t.contains(code), "{code}");
        }
    }
}

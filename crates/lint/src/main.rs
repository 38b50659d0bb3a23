//! CLI driver: `flexcore-lint check [--root DIR] [--json FILE] [--quiet]`
//! and `flexcore-lint lints`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use flexcore_lint::{lint_workspace, report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
flexcore-lint — FlexCore project discipline lints

USAGE:
    flexcore-lint check [--root DIR] [--json FILE] [--quiet]
    flexcore-lint lints

COMMANDS:
    check    Walk the workspace and report FL000–FL007 findings
    lints    Print the stable lint-code table

OPTIONS:
    --root DIR    Workspace root to scan (default: current directory)
    --json FILE   Also write the machine-readable report to FILE
    --quiet       Suppress per-finding output; verdict line only
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("lints") => {
            print!("{}", report::lint_table());
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a directory"),
            },
            "--json" => match it.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage_error("--json needs a file path"),
            },
            "--quiet" => quiet = true,
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }

    let report_data = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flexcore-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json_out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("flexcore-lint: cannot create {}: {e}", parent.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(&path, report::to_json(&report_data)) {
            eprintln!("flexcore-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let human = report::to_human(&report_data);
    if quiet {
        if let Some(verdict) = human.lines().last() {
            println!("{verdict}");
        }
    } else {
        print!("{human}");
    }

    if report_data.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("flexcore-lint: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

//! `repro`'s command line, run as a process: the usage path, the analytic
//! drivers printing the same bytes whatever the preset flag, and every
//! driver's quick-preset bytes against the recorded `tests/golden/`.

use std::path::Path;
use std::process::{Command, Output};

/// Every driver name, in the order `repro` lists them.
const NAMES: &str = "fig9 fig10 fig11 fig12 fig13 fig14 table1 table2 table3 hwtable ablation city";

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

#[test]
fn a_missing_or_unknown_name_lists_every_name_and_exits_2() {
    for args in [&[][..], &["fig99"], &["--full"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
        assert!(
            stderr.lines().any(|l| l == format!("names: {NAMES}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn analytic_drivers_print_the_same_bytes_with_and_without_full() {
    for name in ["fig11", "fig13", "table3"] {
        for format in [&[][..], &["--csv"]] {
            let quick = repro(&[&[name][..], format].concat());
            let full = repro(&[&[name, "--full"][..], format].concat());
            assert!(quick.status.success() && full.status.success(), "{name}");
            assert!(!quick.stdout.is_empty(), "{name} {format:?}");
            assert_eq!(quick.stdout, full.stdout, "{name} {format:?}");
        }
    }
}

/// Every driver, pretty and `--csv`, prints exactly the bytes recorded in
/// `tests/golden/<name>.{txt,csv}`, so a change that moves no printed
/// number proves it here. Ignored by default (about 8 s in release, far
/// longer in debug); CI runs it in release with `--ignored`. A change that
/// moves output on purpose re-records the files with `scripts/golden.sh`.
#[test]
#[ignore]
fn every_driver_prints_its_golden_bytes() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut moved = Vec::new();
    for name in NAMES.split(' ') {
        for (ext, format) in [("txt", &[][..]), ("csv", &["--csv"][..])] {
            let out = repro(&[&[name][..], format].concat());
            assert!(out.status.success(), "{name} {format:?}");
            let path = golden.join(format!("{name}.{ext}"));
            let want = std::fs::read(&path).unwrap_or_else(|e| {
                panic!("{}: {e} (scripts/golden.sh records it)", path.display())
            });
            if out.stdout != want {
                moved.push(format!("{name}.{ext}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "repro output moved in {moved:?}: `scripts/golden.sh` then `git diff` shows how"
    );
}

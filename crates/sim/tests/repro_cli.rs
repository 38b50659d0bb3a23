//! `repro`'s command line, run as a process: the usage path, and the
//! analytic drivers printing the same bytes whatever the preset flag.

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

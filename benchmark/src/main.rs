//! The FlexCore benchmark: five workloads, quiet-decile estimators, and a
//! traced per-layer pass. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! flexcore-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>]
//!                    [--trace <0|1>] [--smoke] [--record <file.jsonl>]
//! flexcore-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line of
//! standard output is the result of the (last) workload as one JSON
//! object with exactly `correct`, `attempted`, `failed` and `metrics`.
//! A failed correctness gate exits non-zero and prints no metric.

mod compare;
mod json;
mod metrics;
mod probes;
mod reference;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Outcome, Plan};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use workloads::Spec;

/// `--seconds` when none is given: the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 12;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    record: Option<String>,
    setup_probe: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::specs().iter().map(|s| s.name).collect();
    format!(
        "usage: flexcore-benchmark [--workload <{}>] [--seed <u64>] [--seconds <1..60>] \
         [--trace <0|1>] [--smoke] [--record <file.jsonl>]\n       \
         flexcore-benchmark compare <a.jsonl> <b.jsonl>",
        names.join("|")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        record: None,
        setup_probe: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--setup-probe" => o.setup_probe = Some(value.clone()),
            "--record" => o.record = Some(value.clone()),
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.clamp(1, 60),
            "--trace" => o.traced = number()? != 0,
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    Ok(o)
}

fn find_spec(name: &str) -> Result<Spec, String> {
    workloads::specs()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))
}

fn print_outcome(spec: &Spec, o: &Options, outcome: &Outcome) -> Result<(), String> {
    let mode = if o.traced { "traced" } else { "untraced" };
    println!("== {} ({mode}, seed {}) ==", spec.name, o.seed);
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &o.record {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("--record {path}: {e}"))?;
        writeln!(file, "{}", outcome.record_line(spec.name, o.seed, o.traced))
            .map_err(|e| format!("--record {path}: {e}"))?;
    }
    println!("{}", outcome.result_line());
    Ok(())
}

fn run_workloads(o: &Options) -> Result<(), String> {
    let specs = match &o.workload {
        Some(name) => vec![find_spec(name)?],
        None => workloads::specs(),
    };
    for spec in specs {
        let (spec, plan) = if o.smoke {
            (spec.smoke(), Plan::smoke(o.traced))
        } else {
            (spec, Plan::for_seconds(o.seconds, o.traced))
        };
        let outcome = if o.traced {
            run::traced(&spec, o.seed, &plan)?
        } else {
            run::untraced(&spec, o.seed, &plan)?
        };
        print_outcome(&spec, o, &outcome)?;
    }
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = compare::parse_bounds(&read(&manifest.to_string_lossy())?)?;
    let (report, failures) = compare::compare(&read(a)?, &read(b)?, &bounds)?;
    print!("{report}");
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => compare_files(a, b),
            _ => Err(usage()),
        };
    }
    let o = parse_options(args)?;
    match &o.setup_probe {
        Some(name) => run::setup_probe_child(&find_spec(name)?, o.seed),
        None => run_workloads(&o)?,
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // flexcore-lint: allow(FL005, reason = "a command-line tool reads its arguments; this is the one place the benchmark does")
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("flexcore-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` and the source tables must name the same
    /// workloads and metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_source_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |section: &str| -> Vec<String> {
            doc.get(section)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let spec_names: Vec<String> = workloads::specs()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(names("workloads"), spec_names);
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(section).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{section}");
            for (m, (name, unit, better)) in listed.iter().zip(table) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(*name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
                let b = m.get("better").and_then(Json::as_str).unwrap();
                assert_eq!(stats::Better::parse(b), Some(*better), "{name}");
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
    }

    /// Both passes of all five workloads at smoke size, gates on: every
    /// metric of the pass is present, nothing is refused, outputs repeat.
    #[test]
    fn smoke_run_of_every_workload() {
        for spec in workloads::specs() {
            let spec = spec.smoke();
            let plain = run::untraced(&spec, 7, &Plan::smoke(false)).unwrap();
            assert_eq!(plain.failed, 0, "{}", spec.name);
            assert!(plain.correct, "{}", spec.name);
            assert_eq!(plain.attempted, 6, "{}: 2 blocks x 3 ops", spec.name);
            assert_eq!(plain.metrics.len(), END_TO_END.len());
            for m in &plain.metrics {
                assert!(m.value.is_finite(), "{} {}", spec.name, m.name);
                assert!(
                    m.value > 0.0 || m.name == "error_ratio",
                    "{} {} = {}",
                    spec.name,
                    m.name,
                    m.value
                );
            }
            let again = run::untraced(&spec, 7, &Plan::smoke(false)).unwrap();
            assert_eq!(plain.counts, again.counts, "{}: same seed", spec.name);
            let other = run::untraced(&spec, 8, &Plan::smoke(false)).unwrap();
            assert_ne!(plain.counts, other.counts, "{}: other seed", spec.name);

            let traced = run::traced(&spec, 7, &Plan::smoke(true)).unwrap();
            assert_eq!(traced.failed, 0, "{}", spec.name);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            let value = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .unwrap()
            };
            assert!(value("core.detect_ns_per_vec") > 0.0, "{}", spec.name);
            assert!(value("trace.overhead_ratio") > 0.0, "{}", spec.name);
            assert!(value("numeric.qr_us") > 0.0, "{}", spec.name);
            let line = Json::parse(&traced.result_line()).unwrap();
            assert_eq!(
                line.as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>(),
                ["correct", "attempted", "failed", "metrics"]
            );
            assert!(run::trace_path(spec.name).exists(), "{}", spec.name);
        }
    }

    #[test]
    fn options_parse_the_driver_command_line() {
        let args: Vec<String> = "--workload churn_8x8 --seed 42 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.workload.as_deref(), Some("churn_8x8"));
        assert_eq!(
            (o.seed, o.seconds, o.traced, o.smoke),
            (42, 12, true, false)
        );
        assert!(parse_options(&["--seed".to_string()]).is_err());
        assert!(parse_options(&["--bogus".to_string(), "1".to_string()]).is_err());
        assert!(find_spec("nope").is_err());
    }
}

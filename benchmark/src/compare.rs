//! `compare <a.jsonl> <b.jsonl>`: the two-sets check.
//!
//! Reads two sets of `--record` lines (set A = the parent or the first
//! set, set B = the change or the second set) and prints, per workload ×
//! metric, both medians and quartiles, the relative difference in the
//! "worse" direction, and the bound from `BENCHMARK.json`. A metric whose
//! spread exceeds its bound is `unresolved`; a median worse than its
//! bound allows is a `REGRESSION` and makes the exit code non-zero, as
//! does any count that should repeat exactly for one seed and did not.

use crate::json::Json;
use crate::stats::{median, quartiles, Better};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction and bound of every metric named in `BENCHMARK.json`
/// (per-layer metrics have no bound).
pub type Bounds = BTreeMap<String, (Better, Option<f64>)>;

/// Reads directions and bounds out of the text of `BENCHMARK.json`.
pub fn parse_bounds(benchmark_json: &str) -> Result<Bounds, String> {
    let doc = Json::parse(benchmark_json)?;
    let mut bounds = Bounds::new();
    for section in ["end_to_end", "per_layer"] {
        let list = doc
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no `{section}` list"))?;
        for m in list {
            let name = m.get("name").and_then(Json::as_str);
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!("BENCHMARK.json: malformed entry in `{section}`"));
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            bounds.insert(name.to_string(), (better, bound));
        }
    }
    Ok(bounds)
}

/// One `--record` line.
struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    counts: Vec<(String, u64)>,
    metrics: Vec<(String, f64)>,
}

fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let doc = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("no seed"))?;
        let traced = doc.get("trace").and_then(Json::as_f64) == Some(1.0);
        let counts = doc
            .get("counts")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no counts"))?
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v as u64)))
            .collect();
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no result.metrics"))?
            .iter()
            .filter_map(|(k, v)| {
                v.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (k.clone(), v))
            })
            .collect();
        records.push(Record {
            workload: workload.to_string(),
            seed: seed as u64,
            traced,
            counts,
            metrics,
        });
    }
    Ok(records)
}

/// Spread of a sample the way the acceptance driver takes it: distance
/// between the quartiles as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No bound (per-layer metric): reported, not judged.
    Info,
    /// B's median is within the bound of A's and the spread resolves it.
    Ok,
    /// The spread of A or B exceeds the bound: the comparison cannot tell.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regression,
}

/// Judges B against A for one metric. `worse` is B's relative change in
/// the bad direction (positive = B is worse).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else {
        match better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        }
    };
    let Some(bound) = bound else {
        return (Verdict::Info, worse);
    };
    let verdict = if worse > bound {
        Verdict::Regression
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// The full comparison of two record files: the report text and how many
/// findings (regressions + count mismatches) should fail the command.
pub fn compare(a_text: &str, b_text: &str, bounds: &Bounds) -> Result<(String, usize), String> {
    let a = parse_records(a_text).map_err(|e| format!("set A: {e}"))?;
    let b = parse_records(b_text).map_err(|e| format!("set B: {e}"))?;
    let mut report = String::new();
    let mut failures = 0;

    // Workload × trace mode × metric → (values in A, values in B).
    type Key = (String, bool, String);
    let mut table: BTreeMap<Key, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (set, is_b) in [(&a, false), (&b, true)] {
        for r in set {
            for (name, value) in &r.metrics {
                let entry = table
                    .entry((r.workload.clone(), r.traced, name.clone()))
                    .or_default();
                if is_b {
                    entry.1.push(*value);
                } else {
                    entry.0.push(*value);
                }
            }
        }
    }
    let _ = writeln!(
        report,
        "{:<15} {:<30} {:>3} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "n",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "spread",
        "worse",
        "bound"
    );
    for ((workload, _, name), (va, vb)) in &table {
        if va.is_empty() || vb.is_empty() {
            continue;
        }
        let (better, bound) = bounds.get(name).copied().unwrap_or((Better::Lower, None));
        let (verdict, worse) = judge(va, vb, better, bound);
        failures += usize::from(verdict == Verdict::Regression);
        let (qa, qb) = (quartiles(va), quartiles(vb));
        let _ = writeln!(
            report,
            "{:<15} {:<30} {:>3} {:>12.5} {:>12} {:>12.5} {:>12} {:>7.2}% {:>+7.2}% {:>7}  {}",
            workload,
            name,
            va.len().min(vb.len()),
            median(va),
            format!("±{:.5}", (qa.1 - qa.0) / 2.0),
            median(vb),
            format!("±{:.5}", (qb.1 - qb.0) / 2.0),
            spread(va).max(spread(vb)) * 100.0,
            worse * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            match verdict {
                Verdict::Info => "info",
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            }
        );
    }

    // Counts are fixed by the seed: every run of one (workload, mode,
    // seed) — in either set — must report the same ones.
    type Counts = Vec<(String, u64)>;
    let mut seen: BTreeMap<(String, bool, u64), &Counts> = BTreeMap::new();
    for r in a.iter().chain(&b) {
        let key = (r.workload.clone(), r.traced, r.seed);
        match seen.get(&key) {
            None => {
                seen.insert(key, &r.counts);
            }
            Some(first) if **first != r.counts => {
                failures += 1;
                let _ = writeln!(
                    report,
                    "MISMATCH {} seed {}: counts {:?} vs {:?}",
                    r.workload, r.seed, first, r.counts
                );
            }
            Some(_) => {}
        }
    }
    let _ = writeln!(
        report,
        "{} (workload, mode, seed) groups with identical counts; {failures} finding(s)",
        seen.len()
    );
    Ok((report, failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "frame_p50_ms", "unit": "ms", "better": "lower", "bound": 0.05}],
      "per_layer": [{"name": "core.detect_ns_per_vec", "unit": "ns", "better": "lower"}]}"#;

    fn record(workload: &str, seed: u64, fps: f64, p50: f64, wrong: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"counts\": {{\"units_wrong\": {wrong}}}, \"result\": {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{\"frames_per_s\": {{\"value\": {fps}, \"unit\": \"1/s\"}}, \"frame_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}}}\n"
        )
    }

    fn set(fps: &[f64], p50: f64, wrong: u64) -> String {
        fps.iter()
            .enumerate()
            .map(|(i, &f)| record("detect_8x8", i as u64 % 2 + 1, f, p50, wrong))
            .collect()
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let b = parse_bounds(BENCH).unwrap();
        assert_eq!(b["frames_per_s"], (Better::Higher, Some(0.05)));
        assert_eq!(b["core.detect_ns_per_vec"], (Better::Lower, None));
        assert!(parse_bounds("{}").is_err());
    }

    #[test]
    fn judge_is_direction_aware() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [90.0, 91.0, 89.0, 90.5, 89.5];
        // 10 % fewer frames/s is a regression; 10 % less latency is not.
        assert_eq!(
            judge(&a, &slower, Better::Higher, Some(0.05)).0,
            Verdict::Regression
        );
        assert_eq!(judge(&a, &slower, Better::Lower, Some(0.05)).0, Verdict::Ok);
        assert_eq!(judge(&a, &a, Better::Higher, Some(0.05)).0, Verdict::Ok);
        assert_eq!(judge(&a, &slower, Better::Higher, None).0, Verdict::Info);
        // Spread wider than the bound: cannot tell.
        let wide = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            judge(&wide, &a, Better::Higher, Some(0.05)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_flags_regressions_and_count_mismatches() {
        let bounds = parse_bounds(BENCH).unwrap();
        let a = set(&[100.0, 101.0, 99.0, 100.0], 2.0, 7);
        let same = set(&[100.5, 100.0, 99.5, 101.0], 2.0, 7);
        let (report, failures) = compare(&a, &same, &bounds).unwrap();
        assert_eq!(failures, 0, "{report}");
        assert!(report.contains("ok"));

        let slow = set(&[80.0, 81.0, 79.0, 80.0], 2.0, 7);
        let (report, failures) = compare(&a, &slow, &bounds).unwrap();
        assert_eq!(failures, 1, "{report}");
        assert!(report.contains("REGRESSION"));

        // Same seed, different error count: outputs changed.
        let drifted = set(&[100.0, 101.0, 99.0, 100.0], 2.0, 8);
        let (report, failures) = compare(&a, &drifted, &bounds).unwrap();
        assert!(failures >= 1 && report.contains("MISMATCH"), "{report}");

        assert!(compare("not json\n", &a, &bounds).is_err());
    }
}

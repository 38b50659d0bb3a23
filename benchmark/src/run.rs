//! The two passes over one workload: the untraced pass that yields the
//! end-to-end metrics, and the shorter traced pass that yields the
//! per-layer metrics and the span file.
//!
//! Run shape, both passes: closed loop, one process, set-up → correctness
//! gates on the first warm-up operation → warm-up blocks → timed blocks of
//! a fixed operation count. Every timing metric is computed per block and
//! reported as the quiet-decile across blocks (`stats::quiet_pick`).

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, Layers};
use crate::reference::{host_speed, Reference};
use crate::stats::{median, nearest_rank, quiet_pick, Better};
use crate::trace::{Span, Tracer};
use crate::workloads::{self, Block, Kind, Spec, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

/// How much of each phase to run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Timed blocks (untraced pass) or untraced/traced block pairs
    /// (traced pass).
    pub blocks: usize,
    /// Untimed blocks before the first timed one.
    pub warmup_blocks: usize,
    /// Cold set-up probes: re-executions of this binary, each timing its
    /// own set-up. 0 reports the in-process set-up instead (smoke runs).
    pub setup_probes: usize,
    /// Repetitions per per-layer probe.
    pub probe_reps: usize,
    /// Whether `error_ratio` outside `[0.005, 0.2]` marks the run
    /// incorrect (off at smoke size, where the sample is a few frames).
    pub check_band: bool,
}

/// Nominal seconds of one timed block on the sizing host; `--seconds S`
/// runs `S / BLOCK_SECONDS` blocks of the workload's fixed `F`.
pub const BLOCK_SECONDS: f64 = 0.8;

impl Plan {
    /// The plan for a run that measures for about `seconds` seconds.
    pub fn for_seconds(seconds: u64, traced: bool) -> Plan {
        let blocks = ((seconds as f64 / BLOCK_SECONDS).round() as usize).max(3);
        if traced {
            // A third of the blocks, each run once untraced and once
            // traced, leaves room for the probes in the same wall time.
            Plan {
                blocks: (blocks * 3 / 10).max(2),
                warmup_blocks: 1,
                setup_probes: 0,
                probe_reps: 20,
                check_band: true,
            }
        } else {
            Plan {
                blocks,
                warmup_blocks: 1,
                setup_probes: 9,
                probe_reps: 0,
                check_band: true,
            }
        }
    }

    /// Two blocks, no child processes: exercises every code path of a
    /// pass in a second or two (unit tests, `--smoke`).
    pub fn smoke(traced: bool) -> Plan {
        Plan {
            blocks: 2,
            warmup_blocks: 1,
            setup_probes: 0,
            probe_reps: if traced { 2 } else { 0 },
            check_band: false,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name from `metrics::END_TO_END` or `metrics::PER_LAYER`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit from the same table.
    pub unit: &'static str,
}

/// What one pass over one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Gates passed, nothing refused, error ratio inside its band.
    pub correct: bool,
    /// Operations attempted in the timed blocks.
    pub attempted: u64,
    /// Operations refused, dropped or short of output (0 on a healthy
    /// run; detection errors are `error_ratio`, not failures).
    pub failed: u64,
    /// Every metric of the pass, in table order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: gates, sample counts, whole-run figures.
    pub notes: Vec<String>,
    /// Counts that must repeat exactly for the same seed.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line for `--record` files: the result plus what `compare`
    /// groups and cross-checks by.
    pub fn record_line(&self, workload: &str, seed: u64, traced: bool) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"counts\": {{{}}}, \"result\": {}}}",
            u8::from(traced),
            counts.join(", "),
            self.result_line()
        )
    }
}

/// A float with all its digits, as JSON (which has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One block's timings, scaled to the quiet sizing host by the speed of
/// the reference that ran alongside its operations.
struct BlockFigures {
    host_speed: f64,
    frames_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

fn figures(block: &Block) -> BlockFigures {
    let mut sorted = block.scaled_latencies_s.clone();
    sorted.sort_by(f64::total_cmp);
    let speed = host_speed(block.ref_units, block.ref_s);
    BlockFigures {
        host_speed: speed,
        frames_per_s: block.frames as f64 / block.time_s / speed,
        p50_ms: nearest_rank(&sorted, 0.5) * 1e3,
        p90_ms: nearest_rank(&sorted, 0.9) * 1e3,
    }
}

/// End-to-end timings over a set of blocks: the median across blocks of
/// each block's host-speed-scaled figure. (Scaling makes the block noise
/// two-sided — the reference can be hit harder than the operation — so
/// the median, not a low rank, is the estimator here; the quiet-decile of
/// the raw figures is still printed as `host.raw_frames_per_s`.)
struct Timings {
    host_speed: f64,
    frames_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

fn timings(blocks: &[Block]) -> Timings {
    let figs: Vec<BlockFigures> = blocks.iter().map(figures).collect();
    let mid = |f: &dyn Fn(&BlockFigures) -> f64| median(&figs.iter().map(f).collect::<Vec<f64>>());
    Timings {
        host_speed: mid(&|f| f.host_speed),
        frames_per_s: mid(&|f| f.frames_per_s),
        p50_ms: mid(&|f| f.p50_ms),
        p90_ms: mid(&|f| f.p90_ms),
    }
}

struct Totals {
    ops: u64,
    frames: u64,
    checked: u64,
    wrong: u64,
    refused: u64,
    time_s: f64,
    samples: usize,
}

fn totals(blocks: &[Block]) -> Totals {
    Totals {
        ops: blocks.iter().map(|b| b.ops).sum(),
        frames: blocks.iter().map(|b| b.frames).sum(),
        checked: blocks.iter().map(|b| b.checked).sum(),
        wrong: blocks.iter().map(|b| b.wrong).sum(),
        refused: blocks.iter().map(|b| b.refused).sum(),
        time_s: blocks.iter().map(|b| b.time_s).sum(),
        samples: blocks.iter().map(|b| b.latencies_s.len()).sum(),
    }
}

/// Raw wall-clock figures, unscaled: the quiet-decile frames/s (3rd
/// fastest block), and what a naive harness would report — whole-run
/// frames/s and p99 — plus the share of blocks slower than 1.15× the
/// quiet one. Printed as `host.*` so a reader sees how loud the host was;
/// never end-to-end metrics.
struct HostFigures {
    raw_frames_per_s: f64,
    whole_run_frames_per_s: f64,
    whole_run_p99_ms: f64,
    noisy_block_share: f64,
}

fn host_figures(blocks: &[Block]) -> HostFigures {
    let t = totals(blocks);
    let per_block: Vec<f64> = blocks.iter().map(|b| b.frames as f64 / b.time_s).collect();
    let quiet = quiet_pick(&per_block, Better::Higher);
    let mut all: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.latencies_s.iter().copied())
        .collect();
    all.sort_by(f64::total_cmp);
    let noisy = per_block.iter().filter(|&&f| f < quiet / 1.15).count();
    HostFigures {
        raw_frames_per_s: quiet,
        whole_run_frames_per_s: t.frames as f64 / t.time_s,
        whole_run_p99_ms: nearest_rank(&all, 0.99) * 1e3,
        noisy_block_share: noisy as f64 / blocks.len() as f64,
    }
}

/// The counts a seed fixes: `compare` requires them identical between
/// any two runs of one (workload, pass, seed).
fn repeatable_counts(t: &Totals, w: &dyn Workload) -> Vec<(&'static str, u64)> {
    vec![
        ("ops_attempted", t.ops),
        ("units_checked", t.checked),
        ("units_wrong", t.wrong),
        ("digest", u64::from(w.digest().folded32())),
    ]
}

fn in_band(error_ratio: f64) -> bool {
    (0.005..=0.2).contains(&error_ratio)
}

/// Builds the workload, runs the gates and the warm-up. A failed gate is
/// an `Err`: the caller exits non-zero and prints no metric.
fn prepare(
    spec: &Spec,
    seed: u64,
    plan: &Plan,
    notes: &mut Vec<String>,
) -> Result<(Box<dyn Workload>, f64), String> {
    let (mut w, setup_s) = workloads::build(spec, seed);
    let gate = w
        .gate()
        .map_err(|e| format!("{}: gate failed: {e}", spec.name))?;
    notes.push(format!("gate: {gate}"));
    let reference = Reference::default();
    for _ in 0..plan.warmup_blocks {
        w.run_ops(spec.ops_per_block, None, &reference);
    }
    Ok((w, setup_s))
}

/// Runs one cold set-up probe: this binary again, building `spec` from
/// `seed` in a fresh process and printing its own set-up seconds and the
/// host speed it saw right after. Returns the scaled seconds.
fn setup_probe(exe: &Path, spec: &Spec, seed: u64) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["--setup-probe", spec.name, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("setup probe: cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("setup probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("setup probe printed no {name}"))
    };
    Ok(field("setup_s ")? * field("host_speed ")?)
}

/// Child side of [`setup_probe`]: builds the workload in this fresh
/// process, then measures the host speed, and prints both.
pub fn setup_probe_child(spec: &Spec, seed: u64) {
    // One input is enough to reach the first verified operation.
    let spec = Spec {
        cycle: 1,
        ..spec.clone()
    };
    let (_workload, setup_s) = workloads::build(&spec, seed);
    let speed = host_speed(SETUP_REF_UNITS, Reference::default().run(SETUP_REF_UNITS));
    println!("setup_s {setup_s}");
    println!("host_speed {speed}");
}

/// Reference units a set-up probe runs after its set-up (≈15 ms).
const SETUP_REF_UNITS: u64 = 3000;

/// The untraced pass: every end-to-end metric of one workload.
pub fn untraced(spec: &Spec, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (mut w, first_build_s) = prepare(spec, seed, plan, &mut notes)?;
    let reference = Reference::default();
    let blocks: Vec<Block> = (0..plan.blocks)
        .map(|_| w.run_ops(spec.ops_per_block, None, &reference))
        .collect();

    let setup_s = if plan.setup_probes == 0 {
        first_build_s
    } else {
        let exe = std::env::current_exe()
            .map_err(|e| format!("setup probe: cannot find this executable: {e}"))?;
        let mut cold = Vec::with_capacity(plan.setup_probes);
        for _ in 0..plan.setup_probes {
            cold.push(setup_probe(&exe, spec, seed)?);
        }
        cold.sort_by(f64::total_cmp);
        notes.push(format!(
            "setup: median of {} cold re-executions (scaled), min {:.4} s, max {:.4} s; in-process {:.4} s (raw)",
            cold.len(),
            cold[0],
            cold[cold.len() - 1],
            first_build_s
        ));
        median(&cold)
    };

    let t = totals(&blocks);
    let q = timings(&blocks);
    let error_ratio = t.wrong as f64 / t.checked.max(1) as f64;
    let host = host_figures(&blocks);
    notes.push(format!(
        "ops: {} attempted, {} failed; {} frames in {} blocks of {}; {} latency samples",
        t.ops, t.refused, t.frames, plan.blocks, spec.ops_per_block, t.samples
    ));
    notes.push(format!(
        "errors: {} of {} {} wrong",
        t.wrong,
        t.checked,
        if spec.kind == Kind::Coded {
            "coded packets"
        } else {
            "received vectors"
        }
    ));
    notes.push(format!(
        "host.speed_ratio {:.3} (1 = quiet sizing host), host.raw_frames_per_s {:.2} 1/s (unscaled quiet-decile), host.whole_run_frames_per_s {:.2} 1/s, host.whole_run_p99_ms {:.4} ms, host.noisy_block_share {:.2}",
        q.host_speed,
        host.raw_frames_per_s,
        host.whole_run_frames_per_s,
        host.whole_run_p99_ms,
        host.noisy_block_share
    ));
    notes.push(format!("digest {:#018x}", w.digest().value()));
    notes.push(format!(
        "per-block raw frames/s @ host speed: {}",
        blocks
            .iter()
            .map(|b| format!(
                "{:.0}@{:.2}",
                b.frames as f64 / b.time_s,
                host_speed(b.ref_units, b.ref_s)
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let values = [q.frames_per_s, q.p50_ms, q.p90_ms, error_ratio, setup_s];
    Ok(Outcome {
        correct: t.refused == 0 && (!plan.check_band || in_band(error_ratio)),
        attempted: t.ops,
        failed: t.refused,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric { name, value, unit })
            .collect(),
        notes,
        counts: repeatable_counts(&t, w.as_ref()),
    })
}

/// Peak resident set of this process in MB, from the kernel's own
/// accounting; 0 where `/proc` is not readable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the traced pass writes its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{workload}.json"))
}

/// Layer metrics read off the spans of the traced blocks.
fn span_layers(spec: &Spec, spans: &[Span], traced: &[Block], w: &dyn Workload, out: &mut Layers) {
    let t = totals(traced);
    let frames = t.frames as f64;
    let vectors = frames * spec.vectors_per_frame() as f64;
    let total = |name| Tracer::total_s(spans, name);
    let (detect_s, detect_n) = total("core.detect_batch");
    let (process_s, _) = total("engine.process_frame");
    let (prepare_s, _) = total("engine.prepare");
    let counts = w.counts();
    match spec.kind {
        Kind::Static | Kind::Churn => {
            out.insert("core.detect_ns_per_vec", detect_s / vectors * 1e9);
            out.insert("engine.overhead_share", (process_s - detect_s) / process_s);
            out.insert("engine.tasks_per_frame", detect_n as f64 / frames);
            out.insert("trace.coverage", (prepare_s + process_s) / t.time_s);
        }
        Kind::Coded => {
            let (tick_s, ticks) = total("phy.tick");
            out.insert("phy.tick_ms", tick_s / ticks as f64 * 1e3);
            out.insert("phy.offered_packets", counts.offered_packets as f64);
            out.insert("phy.delivered_packets", counts.delivered_packets as f64);
            out.insert("engine.frames_behind_max", counts.frames_behind_max as f64);
        }
        Kind::Pipelined => {
            let workers = spec.pool_pes as f64;
            let (transmit_s, _) = total("engine.pipe_transmit");
            let (decode_s, _) = total("engine.pipe_decode");
            let (wall_s, _) = total("engine.pipe_run");
            out.insert("core.detect_ns_per_vec", detect_s / vectors * 1e9);
            out.insert("engine.tasks_per_frame", detect_n as f64 / frames);
            out.insert("engine.pipe_transmit_busy", transmit_s / wall_s);
            out.insert("engine.pipe_detect_busy", detect_s / (workers * wall_s));
            out.insert("engine.pipe_decode_busy", decode_s / wall_s);
            // Mean service of one tick in the detect stage (its batches
            // spread over the workers) and in the decode stage; what is
            // left of the median latency is time spent queued.
            let ticks = t.ops as f64;
            let service_ms = (detect_s / workers + decode_s) / ticks * 1e3;
            // Raw against raw: the spans are unscaled wall clock.
            let raw_p50_ms = median(
                &traced
                    .iter()
                    .map(|b| {
                        let mut sorted = b.latencies_s.clone();
                        sorted.sort_by(f64::total_cmp);
                        nearest_rank(&sorted, 0.5) * 1e3
                    })
                    .collect::<Vec<f64>>(),
            );
            out.insert("engine.pipe_queue_wait_ms", raw_p50_ms - service_ms);
            out.insert(
                "trace.coverage",
                (detect_s / workers + transmit_s + decode_s) / wall_s,
            );
        }
    }
    if spec.kind == Kind::Churn {
        let (advance_s, _) = total("channel.advance");
        let (transmit_s, _) = total("channel.transmit");
        let slots = counts.prepared_slots as f64 / counts.prepare_calls.max(1) as f64;
        out.insert("engine.prepare_ms_per_frame", prepare_s / frames * 1e3);
        out.insert("engine.prepare_share", prepare_s / t.time_s);
        out.insert("engine.prepared_slots_per_frame", slots);
        out.insert("engine.cache_hit_ratio", 1.0 - slots / spec.n_sc as f64);
        out.insert("channel.advance_us_per_frame", advance_s / frames * 1e6);
        out.insert("channel.transmit_us_per_frame", transmit_s / frames * 1e6);
    } else if spec.kind != Kind::Coded {
        // The static workloads never call prepare after set-up: the
        // cache is all hits by construction.
        out.insert("engine.cache_hit_ratio", 1.0);
    }
}

/// The traced pass: every per-layer metric of one workload, plus the
/// span file. Untraced and traced blocks alternate so the overhead ratio
/// compares like with like.
pub fn traced(spec: &Spec, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (mut w, first_build_s) = prepare(spec, seed, plan, &mut notes)?;
    // Room for every span of the pass: one per engine task (the engine
    // carves at least one batch per subcarrier) plus a few per frame, so
    // recording never reallocates inside a timed interval.
    let spans_per_op = spec.frames_per_op() * (spec.n_sc + 2) + 2;
    let tracer = Tracer::with_capacity(plan.blocks * spec.ops_per_block * spans_per_op);
    let mut plain = Vec::with_capacity(plan.blocks);
    let mut traced = Vec::with_capacity(plan.blocks);
    let reference = Reference::default();
    for _ in 0..plan.blocks {
        plain.push(w.run_ops(spec.ops_per_block, None, &reference));
        traced.push(w.run_ops(spec.ops_per_block, Some(&tracer), &reference));
    }

    let mut layers = Layers::new();
    probes::common(&w.probe_view(), spec, plan.probe_reps, &mut layers);
    let spans = tracer.snapshot();
    span_layers(spec, &spans, &traced, w.as_ref(), &mut layers);
    if let Some(coded) = w.as_coded() {
        let children: f64 = probes::coded(coded, spec, plan.probe_reps, &mut layers)
            .iter()
            .sum();
        let tick_s = layers.get("phy.tick_ms").copied().unwrap_or(0.0) * 1e-3;
        // An estimate until `phy` has spans of its own: the children are
        // probed warm and in isolation, the tick runs them interleaved.
        layers.insert("phy.glue_share", 1.0 - children / tick_s);
        layers.insert("trace.coverage", children / tick_s);
        let prepare_ms = layers
            .get("engine.prepare_ms_per_frame")
            .copied()
            .unwrap_or(0.0);
        let tick_ms = tick_s * 1e3;
        layers.insert(
            "engine.prepare_share",
            prepare_ms * spec.users as f64 / tick_ms,
        );
    }
    let detect_ns = layers.get("core.detect_ns_per_vec").copied().unwrap_or(0.0);
    let rotate_ns = layers
        .get("numeric.rotate_ns_per_vec")
        .copied()
        .unwrap_or(0.0);
    if detect_ns > 0.0 {
        layers.insert("numeric.rotate_share", rotate_ns / detect_ns);
        layers.insert("core.walk_share", 1.0 - rotate_ns / detect_ns);
    }

    let plain_q = timings(&plain);
    let host = host_figures(&plain);
    layers.insert(
        "trace.overhead_ratio",
        timings(&traced).frames_per_s / plain_q.frames_per_s,
    );
    layers.insert("host.speed_ratio", plain_q.host_speed);
    layers.insert("host.raw_frames_per_s", host.raw_frames_per_s);
    layers.insert("host.whole_run_frames_per_s", host.whole_run_frames_per_s);
    layers.insert("host.whole_run_p99_ms", host.whole_run_p99_ms);
    layers.insert("host.noisy_block_share", host.noisy_block_share);
    layers.insert("setup.first_build_s", first_build_s);
    layers.insert("mem.peak_rss_mb", peak_rss_mb());
    layers.insert("digest", f64::from(w.digest().folded32()));

    let path = trace_path(spec.name);
    match tracer.write_json(&path, spec.name) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        // The span file is a by-product; the metrics above do not depend
        // on it, so a read-only checkout only loses the file.
        Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
    }

    let all: Vec<Block> = plain.into_iter().chain(traced).collect();
    let t = totals(&all);
    let error_ratio = t.wrong as f64 / t.checked.max(1) as f64;
    notes.push(format!(
        "ops: {} attempted, {} failed; {} + {} blocks of {} (untraced + traced); error ratio {error_ratio:.5}",
        t.ops, t.refused, plan.blocks, plan.blocks, spec.ops_per_block
    ));
    Ok(Outcome {
        correct: t.refused == 0 && (!plan.check_band || in_band(error_ratio)),
        attempted: t.ops,
        failed: t.refused,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                value: layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect(),
        notes,
        counts: repeatable_counts(&t, w.as_ref()),
    })
}

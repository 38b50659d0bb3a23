//! `multiuser` — the PR 4 perf datapoint: N coded streaming uplinks
//! sharded over one PE pool, hard and soft, end to end.
//!
//! Each cell user is an independent 4×4 16-QAM streaming uplink: its own
//! Gauss–Markov truth channels aging per packet, staggered estimate
//! refresh, its own convolutionally-coded payload per stream, its own RNG.
//! Every tick all users' `(subcarrier × symbol)` packet grids are detected
//! in **one** shared pool run (`StreamingCell`), then each user's chain
//! finishes independently: deinterleave → (soft) Viterbi → CRC-32.
//!
//! The sweep runs 1/2/4/8 users at a **matched total PE budget** (one
//! modelled 8-PE pool regardless of user count), hard vs soft and fixed
//! FlexCore-16 vs a-FlexCore(0.95) — the first time the whole stack
//! (channel aging → adaptive detection → soft decoding → goodput) runs in
//! one loop. Before any timing, an identity gate asserts every user's
//! detections bit-identical to a solo single-user run with the same seeds
//! (`assert_grid_identity`), proving the sharding ordering-only.
//!
//! Reported per point: aggregate processed frames/sec (wall clock, full
//! chain), coded goodput in Mbit/s over the offered airtime (CRC-delivered
//! payload bits — the §7 comparison: at high SNR soft ≥ hard at equal PE
//! budget, asserted), per-user fairness (min/max frames-behind, min/max
//! delivered packets), mean detection effort, and the modelled pool
//! packing efficiency. Results land in `BENCH_PR4.json` (path overridable
//! with `BENCH_OUT`); `MULTIUSER_FAST=1` shrinks the sweep for CI smoke.

use flexcore::CellDetector;
use flexcore_bench::{assert_grid_identity, GridView};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, GaussMarkovChannel};
use flexcore_engine::{ChannelStream, RxFrame, StreamingCell};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_parallel::SequentialPool;
use flexcore_phy::link::{cell_packet_tick, LinkConfig};
use flexcore_phy::soft_link::cell_packet_tick_soft;
use flexcore_phy::throughput::GoodputMeter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const NT: usize = 4;
const N_PE: usize = 16;
const STOP: f64 = 0.95;
const SNR_DB: f64 = 30.0;
const PROBE_SNR_DB: f64 = 7.0;
const FD_DT: f64 = 0.01;
const REFRESH_PERIOD: usize = 4;
const PAYLOAD_BYTES: usize = 30;
const TOTAL_PES: usize = 8;
const SEED: u64 = 0x5EED_0004;

fn c16() -> Constellation {
    Constellation::new(Modulation::Qam16)
}

fn template(adaptive: bool) -> CellDetector {
    if adaptive {
        CellDetector::adaptive(c16(), N_PE, STOP)
    } else {
        CellDetector::fixed(c16(), N_PE)
    }
}

/// User `u`'s channel stream — seeded by `u` alone, so the same user is
/// identical inside any cell size (the identity gate depends on this).
fn user_stream(u: usize, snr_db: f64) -> ChannelStream {
    let ens = ChannelEnsemble::iid(NT, NT);
    let rho = GaussMarkovChannel::rho_from_doppler(FD_DT);
    let mut rng = StdRng::seed_from_u64(SEED + 1000 + u as u64);
    ChannelStream::new(
        &ens,
        48,
        rho,
        REFRESH_PERIOD,
        sigma2_from_snr_db(snr_db),
        &mut rng,
    )
}

fn build_cell(n_users: usize, adaptive: bool, snr_db: f64) -> StreamingCell<CellDetector> {
    let mut cell = StreamingCell::new();
    for u in 0..n_users {
        cell.add_user(user_stream(u, snr_db), template(adaptive));
    }
    cell
}

fn user_rngs(n_users: usize) -> Vec<StdRng> {
    (0..n_users)
        .map(|u| StdRng::seed_from_u64(SEED + 2000 + u as u64))
        .collect()
}

/// A random 16-QAM frame through one user's truth channels (gate traffic).
fn gate_frame(stream: &ChannelStream, n_sym: usize, seed: u64) -> RxFrame {
    let c = c16();
    let mut sym_rng = StdRng::seed_from_u64(seed);
    let mut noise_rng = StdRng::seed_from_u64(seed ^ 0x0F0F);
    stream.transmit_frame(
        n_sym,
        |_, _| {
            (0..NT)
                .map(|_| c.point(sym_rng.gen_range(0..c.order())))
                .collect()
        },
        &mut noise_rng,
    )
}

/// Bit-identity gate: inside an `n_users` cell, every user's detected
/// grids over two ticks equal a solo single-user run with the same seeds,
/// for both detector kinds. Panics (with grid coordinates) on any drift.
fn identity_gate(user_counts: &[usize]) {
    let shared = SequentialPool::new(TOTAL_PES);
    let solo_pool = SequentialPool::new(1);
    for &n_users in user_counts {
        for adaptive in [false, true] {
            let mut cell = build_cell(n_users, adaptive, SNR_DB);
            let mut solos: Vec<StreamingCell<CellDetector>> = (0..n_users)
                .map(|u| {
                    let mut solo = StreamingCell::new();
                    solo.add_user(user_stream(u, SNR_DB), template(adaptive));
                    solo
                })
                .collect();
            for tick in 0..2u64 {
                #[allow(clippy::needless_range_loop)]
                for u in 0..n_users {
                    let mut rng = StdRng::seed_from_u64(SEED + 31 * u as u64 + tick);
                    cell.advance_user(u, &mut rng);
                    let mut rng = StdRng::seed_from_u64(SEED + 31 * u as u64 + tick);
                    solos[u].advance_user(0, &mut rng);
                    let frame_seed = SEED + 977 * u as u64 + tick;
                    cell.submit(u, gate_frame(cell.stream(u), 3, frame_seed));
                    let solo_frame = gate_frame(solos[u].stream(0), 3, frame_seed);
                    solos[u].submit(0, solo_frame);
                }
                let multi_out = cell.detect_tick(&shared);
                for (u, frame) in &multi_out {
                    let solo_out = solos[*u].detect_tick(&solo_pool);
                    assert_grid_identity(
                        &format!(
                            "multiuser identity (U={n_users}, {}, user {u}, tick {tick})",
                            if adaptive { "adaptive" } else { "fixed" }
                        ),
                        &GridView::from_detected(frame),
                        &GridView::from_detected(&solo_out[0].1),
                    );
                }
            }
        }
    }
    println!(
        "bit-identity gate: every user's detections == its solo run \
         (U ∈ {user_counts:?}, fixed + adaptive, 2 ticks each)"
    );
}

struct RunResult {
    frames_per_sec: f64,
    goodput_mbps: f64,
    offered_mbps: f64,
    delivered_packets: u64,
    offered_packets: u64,
    delivered_min: u64,
    delivered_max: u64,
    min_frames_behind: u64,
    max_frames_behind: u64,
    mean_effort: f64,
    pool_efficiency: f64,
}

/// One timed serving run: `n_ticks` ticks of one-packet-per-user traffic.
fn run_cell(n_users: usize, adaptive: bool, soft: bool, snr_db: f64, n_ticks: usize) -> RunResult {
    let cfg = LinkConfig::paper_default(c16(), PAYLOAD_BYTES);
    let mut cell = build_cell(n_users, adaptive, snr_db);
    let mut rngs = user_rngs(n_users);
    let mut meter = GoodputMeter::new(n_users, PAYLOAD_BYTES);
    let pool = SequentialPool::new(TOTAL_PES);
    let t0 = Instant::now();
    for _ in 0..n_ticks {
        let outcomes = if soft {
            cell_packet_tick_soft(&cfg, &mut cell, &pool, &mut rngs)
        } else {
            cell_packet_tick(&cfg, &mut cell, &pool, &mut rngs)
        };
        for out in &outcomes {
            meter.record(out);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = cell.stats();
    let airtime = n_ticks as f64 * cfg.packet_airtime_s();
    let mean_effort = (0..n_users)
        .map(|u| cell.engine(u).stats().mean_effort())
        .sum::<f64>()
        / n_users as f64;
    let (delivered_min, delivered_max) = meter.delivered_min_max();
    RunResult {
        frames_per_sec: (n_users * n_ticks) as f64 / elapsed,
        goodput_mbps: meter.goodput_mbps(airtime),
        offered_mbps: meter.offered_mbps(airtime),
        delivered_packets: meter.delivered_bits() / (PAYLOAD_BYTES as u64 * 8),
        offered_packets: meter.offered_bits() / (PAYLOAD_BYTES as u64 * 8),
        delivered_min,
        delivered_max,
        min_frames_behind: stats.min_frames_behind,
        max_frames_behind: stats.max_frames_behind,
        mean_effort,
        pool_efficiency: stats.last_tick_efficiency,
    }
}

fn result_json(r: &RunResult) -> String {
    format!(
        "{{\"frames_per_sec\": {:.2}, \"goodput_mbps\": {:.3}, \"offered_mbps\": {:.3}, \
         \"delivered_packets\": {}, \"offered_packets\": {}, \"delivered_min\": {}, \
         \"delivered_max\": {}, \"min_frames_behind\": {}, \"max_frames_behind\": {}, \
         \"mean_effort\": {:.3}, \"pool_efficiency\": {:.3}}}",
        r.frames_per_sec,
        r.goodput_mbps,
        r.offered_mbps,
        r.delivered_packets,
        r.offered_packets,
        r.delivered_min,
        r.delivered_max,
        r.min_frames_behind,
        r.max_frames_behind,
        r.mean_effort,
        r.pool_efficiency
    )
}

fn main() {
    let fast = std::env::var("MULTIUSER_FAST").is_ok();
    let user_counts: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4, 8] };
    let n_ticks = if fast { 2 } else { 8 };

    identity_gate(user_counts);

    let cfg = LinkConfig::paper_default(c16(), PAYLOAD_BYTES);
    println!(
        "\nmultiuser ({NT}x{NT} 16-QAM, 48 sc, {} sym/packet, payload {PAYLOAD_BYTES} B, \
         {SNR_DB} dB, fd*dt {FD_DT}, pool sequential/{TOTAL_PES}, {n_ticks} ticks)",
        cfg.ofdm_symbols_per_packet()
    );
    println!(
        "{:<6} {:<9} {:<5} {:>12} {:>13} {:>13} {:>8} {:>10}",
        "users",
        "detector",
        "path",
        "frames/sec",
        "goodput Mb/s",
        "offered Mb/s",
        "effort",
        "behind"
    );

    let mut sweep: Vec<(usize, [RunResult; 4])> = Vec::new();
    for &n_users in user_counts {
        let results = [
            run_cell(n_users, false, false, SNR_DB, n_ticks),
            run_cell(n_users, false, true, SNR_DB, n_ticks),
            run_cell(n_users, true, false, SNR_DB, n_ticks),
            run_cell(n_users, true, true, SNR_DB, n_ticks),
        ];
        for (r, (kind, path)) in results.iter().zip([
            ("fixed", "hard"),
            ("fixed", "soft"),
            ("adaptive", "hard"),
            ("adaptive", "soft"),
        ]) {
            println!(
                "{:<6} {:<9} {:<5} {:>12.1} {:>13.3} {:>13.3} {:>8.2} {:>7}/{}",
                n_users,
                kind,
                path,
                r.frames_per_sec,
                r.goodput_mbps,
                r.offered_mbps,
                r.mean_effort,
                r.min_frames_behind,
                r.max_frames_behind
            );
        }
        // The §7 acceptance check: at high SNR and equal PE budget, the
        // soft pipeline's delivered goodput must not fall below the hard
        // one's (same channels, payloads and noise by seeding).
        assert!(
            results[1].goodput_mbps >= results[0].goodput_mbps,
            "U={n_users} fixed: soft goodput {} < hard {}",
            results[1].goodput_mbps,
            results[0].goodput_mbps
        );
        assert!(
            results[3].goodput_mbps >= results[2].goodput_mbps,
            "U={n_users} adaptive: soft goodput {} < hard {}",
            results[3].goodput_mbps,
            results[2].goodput_mbps
        );
        sweep.push((n_users, results));
    }

    // A below-the-waterfall probe where soft's delivery advantage is
    // visible as goodput, not just as a tie at 100%.
    let probe = if fast {
        None
    } else {
        let hard = run_cell(2, false, false, PROBE_SNR_DB, n_ticks);
        let soft = run_cell(2, false, true, PROBE_SNR_DB, n_ticks);
        println!(
            "snr probe {PROBE_SNR_DB} dB, 2 users fixed: hard {:.3} vs soft {:.3} Mb/s goodput",
            hard.goodput_mbps, soft.goodput_mbps
        );
        assert!(
            soft.goodput_mbps >= hard.goodput_mbps,
            "probe: soft goodput {} < hard {}",
            soft.goodput_mbps,
            hard.goodput_mbps
        );
        Some((hard, soft))
    };

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"multiuser\",\n  \"pr\": 4,\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"nt_per_user\": {NT}, \"modulation\": \"16-QAM\", \"subcarriers\": 48, \
         \"ofdm_symbols_per_packet\": {}, \"payload_bytes\": {PAYLOAD_BYTES}, \
         \"fixed_detector\": \"FlexCore-{N_PE}\", \
         \"adaptive_detector\": \"a-FlexCore(N_PE={N_PE}, t={STOP})\", \"snr_db\": {SNR_DB}, \
         \"fd_dt\": {FD_DT}, \"refresh_period\": {REFRESH_PERIOD}, \"ticks\": {n_ticks}, \
         \"pool\": \"sequential/{TOTAL_PES} (matched total PE budget)\", \"fast_mode\": {fast}}},",
        cfg.ofdm_symbols_per_packet()
    );
    let _ = writeln!(
        json,
        "  \"identity_gate\": {{\"user_counts\": {user_counts:?}, \"ticks\": 2, \
         \"detectors\": [\"fixed\", \"adaptive\"], \"status\": \
         \"every user bit-identical to its solo run\"}},"
    );
    json.push_str("  \"user_sweep\": [\n");
    for (i, (n_users, results)) in sweep.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"users\": {n_users},\n     \"fixed\": {{\"hard\": {}, \"soft\": {}}},\n     \
             \"adaptive\": {{\"hard\": {}, \"soft\": {}}}}}{}",
            result_json(&results[0]),
            result_json(&results[1]),
            result_json(&results[2]),
            result_json(&results[3]),
            if i + 1 == sweep.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    if let Some((hard, soft)) = &probe {
        let _ = writeln!(
            json,
            "  \"snr_probe\": {{\"snr_db\": {PROBE_SNR_DB}, \"users\": 2, \"detector\": \
             \"fixed\", \"hard\": {}, \"soft\": {}}},",
            result_json(hard),
            result_json(soft)
        );
    }
    json.push_str(
        "  \"note\": \"Each tick, every user ages its Gauss-Markov truth channels, refreshes \
         1/refresh_period of its estimates, transmits one convolutionally-coded packet per \
         stream through the truth channels, and all users' (subcarrier x symbol) grids are \
         detected against the (stale) estimates in ONE shared PE-pool run, LPT-ordered across \
         users by prepared per-subcarrier extension work; each user's chain then finishes with \
         deinterleave -> (soft) Viterbi -> CRC-32. frames_per_sec is wall-clock over the full \
         chain (transmit + detect + decode) on the single-core host at a matched modelled PE \
         budget, so the aggregate stays roughly flat while per-user rate divides by U. \
         goodput_mbps is CRC-delivered payload bits over the offered airtime: at 30 dB every \
         packet survives for both paths (soft == hard == offered, asserted >=), while the \
         below-waterfall snr_probe shows the soft pipeline's delivery margin. frames-behind \
         min/max are per \
         user (submitted - completed): the barrier tick serves every user each round, so both \
         stay 0 -- the fairness invariant the cell's accounting would expose if scheduling \
         ever starved a user. pool_efficiency is total batch cost over n_pes x LPT makespan \
         of the last tick. Identity gate (assert_grid_identity) runs before any timing.\"\n",
    );
    json.push_str("}\n");

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_PR4.json",
            env!("CARGO_MANIFEST_DIR").trim_end_matches('/')
        )
    });
    std::fs::write(&out, &json).expect("write BENCH_PR4.json");
    println!("wrote {out}");
}

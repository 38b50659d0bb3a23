//! Cross-layer regression tests for the coded **streaming** uplink: the
//! full stack — channel aging → (adaptive) detection → LLRs → soft
//! Viterbi → CRC — in one loop, for one user and for a multi-user
//! cell.
//!
//! Two anchors:
//! 1. the serving ticks, hard and soft, are **bit-identical** per user to
//!    the per-vector references `simulate_packet` / `simulate_packet_soft`
//!    on frozen (zero-Doppler) channels, so the tick the benchmark's
//!    `cell_coded` workload runs cannot drift from the paths the paper's
//!    figures are built on;
//! 2. at high SNR the streaming soft pipeline decodes *every* packet for
//!    *every* user — every CRC checks out — for a mixed
//!    fixed/adaptive user population on a shared pool.

use flexcore::{CellDetector, FlexCoreDetector};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, GaussMarkovChannel, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_engine::{ChannelStream, StreamingCell};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::CMat;
use flexcore_parallel::{CrossbeamPool, PePool, SequentialPool};
use flexcore_phy::link::{cell_packet_tick, simulate_packet};
use flexcore_phy::soft_link::{cell_packet_tick_soft, simulate_packet_soft};
use flexcore_phy::{LinkConfig, LinkOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg16(payload: usize) -> LinkConfig {
    LinkConfig::paper_default(Constellation::new(Modulation::Qam16), payload)
}

#[test]
fn cell_tick_equals_the_per_vector_reference() {
    // A frozen ChannelStream (rho = 1, estimates always exact) is the
    // block-fading model, and ageing it draws no randomness: a user's RNG
    // feeds its transmit chains, then its noise symbol-major, in exactly
    // the per-vector reference's order. So per user and per round the
    // hard and soft ticks must reproduce simulate_packet /
    // simulate_packet_soft bit for bit, on any pool and in any user mix.
    const ROUNDS: usize = 2;
    let cfg = cfg16(40);
    let sigma2 = sigma2_from_snr_db(12.0);
    let ens = ChannelEnsemble::iid(4, 4);
    let mut rng = StdRng::seed_from_u64(41);
    let hs: Vec<CMat> = (0..3).map(|_| ens.draw(&mut rng)).collect();
    let seeds = [61u64, 62, 63];
    let templates = || {
        let c = &cfg.constellation;
        vec![
            CellDetector::fixed(c.clone(), 16),
            CellDetector::adaptive(c.clone(), 16, 0.95),
            CellDetector::adaptive(c.clone(), 8, 0.99),
        ]
    };
    // `reference[soft][user][round]`: each user alone, its rounds drawn
    // from one RNG.
    let reference: Vec<Vec<Vec<LinkOutcome>>> = [false, true]
        .into_iter()
        .map(|soft| {
            let users = templates().into_iter().zip(&hs).zip(seeds);
            users
                .map(|((mut det, h), seed)| {
                    det.prepare(h, sigma2);
                    let ch = MimoChannel {
                        h: h.clone(),
                        sigma2,
                    };
                    let mut rng = StdRng::seed_from_u64(seed);
                    (0..ROUNDS)
                        .map(|_| {
                            if soft {
                                simulate_packet_soft(&cfg, &ch, &det, &mut rng)
                            } else {
                                simulate_packet(&cfg, &ch, &det, &mut rng)
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let raw_errors: usize = reference
        .iter()
        .flatten()
        .flatten()
        .flat_map(|out| &out.raw_bit_errors)
        .sum();
    assert!(raw_errors > 0, "a clean workload compares nothing");

    fn check<P: PePool>(
        pool: &P,
        cfg: &LinkConfig,
        cell: impl Fn() -> StreamingCell<CellDetector>,
        seeds: &[u64],
        reference: &[Vec<Vec<LinkOutcome>>],
    ) {
        for (soft, reference) in reference.iter().enumerate() {
            let mut cell = cell();
            let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            for round in 0..ROUNDS {
                let outs = match soft {
                    0 => cell_packet_tick(cfg, &mut cell, pool, &mut rngs),
                    _ => cell_packet_tick_soft(cfg, &mut cell, pool, &mut rngs),
                };
                assert_eq!(outs.len(), seeds.len());
                for (u, (out, user)) in outs.iter().zip(reference).enumerate() {
                    let want = &user[round];
                    let tag = format!("{} pes, soft {soft}, round {round}, user {u}", pool.n_pes());
                    assert_eq!(out.user, u, "{tag}");
                    assert_eq!(out.link.user_ok, want.user_ok, "{tag}");
                    assert_eq!(out.link.raw_bit_errors, want.raw_bit_errors, "{tag}");
                }
            }
        }
    }
    let cell = || {
        let mut cell = StreamingCell::new();
        for (h, det) in hs.iter().zip(templates()) {
            let stream = ChannelStream::frozen(h.clone(), cfg.ofdm.n_data, sigma2);
            cell.add_user(stream, det);
        }
        cell
    };
    check(&SequentialPool::new(1), &cfg, cell, &seeds, &reference);
    check(
        &CrossbeamPool::work_queue(4),
        &cfg,
        cell,
        &seeds,
        &reference,
    );
}

#[test]
fn streamed_hard_path_is_bit_identical_to_framed_on_frozen_channel() {
    // A frozen ChannelStream (rho = 1, estimates always exact) is the
    // block-fading model: with the same seed — `H` drawn from the user's
    // own RNG first — a one-user tick must consume the RNG in the
    // block-fading reference's exact order and produce the identical
    // outcome, on any pool: hard against simulate_packet, soft against
    // simulate_packet_soft.
    let cfg = cfg16(45);
    let ens = ChannelEnsemble::iid(4, 4);
    let snr = 13.0;
    for soft in [false, true] {
        for seed in [3u64, 4, 5] {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            let mut det = FlexCoreDetector::with_pes(cfg.constellation.clone(), 16);
            det.prepare(&h, ch.sigma2);
            let reference = if soft {
                simulate_packet_soft(&cfg, &ch, &det, &mut rng)
            } else {
                simulate_packet(&cfg, &ch, &det, &mut rng)
            };

            for pe in [1usize, 4] {
                let mut rng = StdRng::seed_from_u64(seed);
                let h = ens.draw(&mut rng);
                let stream = ChannelStream::frozen(h, cfg.ofdm.n_data, sigma2_from_snr_db(snr));
                let mut cell = StreamingCell::new();
                cell.add_user(
                    stream,
                    FlexCoreDetector::with_pes(cfg.constellation.clone(), 16),
                );
                let mut rngs = [rng];
                let out = match (soft, pe) {
                    (false, 1) => {
                        cell_packet_tick(&cfg, &mut cell, &SequentialPool::new(1), &mut rngs)
                    }
                    (false, _) => {
                        let pool = CrossbeamPool::work_queue(4);
                        cell_packet_tick(&cfg, &mut cell, &pool, &mut rngs)
                    }
                    (true, 1) => {
                        cell_packet_tick_soft(&cfg, &mut cell, &SequentialPool::new(1), &mut rngs)
                    }
                    (true, _) => {
                        let pool = CrossbeamPool::work_queue(4);
                        cell_packet_tick_soft(&cfg, &mut cell, &pool, &mut rngs)
                    }
                }
                .remove(0);
                let tag = format!("soft {soft} seed {seed} pe {pe}");
                assert_eq!(out.link.user_ok, reference.user_ok, "{tag}");
                assert_eq!(out.link.raw_bit_errors, reference.raw_bit_errors, "{tag}");
                assert_eq!(out.crc_ok, out.link.user_ok, "CRC must agree at this SNR");
            }
        }
    }
}

#[test]
fn streamed_soft_path_is_rng_lockstepped_with_hard() {
    // Same seeds ⇒ same channels, payloads and noise for both ticks; the
    // soft tick's raw (hard-decision) errors must equal the hard tick's,
    // and its delivered set must dominate at a workable SNR.
    let cfg = cfg16(40);
    let ens = ChannelEnsemble::iid(4, 4);
    let snr = 12.0;
    for seed in [11u64, 12] {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = ens.draw(&mut rng);
        let stream = ChannelStream::frozen(h, cfg.ofdm.n_data, sigma2_from_snr_db(snr));
        let pool = SequentialPool::new(2);
        let cell = || {
            let mut cell = StreamingCell::new();
            let det = FlexCoreDetector::with_pes(cfg.constellation.clone(), 16);
            cell.add_user(stream.clone(), det);
            cell
        };

        let mut rng_hard = [StdRng::seed_from_u64(1000 + seed)];
        let hard = cell_packet_tick(&cfg, &mut cell(), &pool, &mut rng_hard).remove(0);

        let mut rng_soft = [StdRng::seed_from_u64(1000 + seed)];
        let soft = cell_packet_tick_soft(&cfg, &mut cell(), &pool, &mut rng_soft).remove(0);

        assert_eq!(
            soft.link.raw_bit_errors, hard.link.raw_bit_errors,
            "seed {seed}"
        );
        for (u, (&h_ok, &s_ok)) in hard.crc_ok.iter().zip(&soft.crc_ok).enumerate() {
            assert!(
                s_ok || !h_ok,
                "seed {seed} stream {u}: soft lost a packet hard delivered"
            );
        }
    }
}

#[test]
fn high_snr_soft_streaming_decodes_every_packet_for_every_user() {
    // The acceptance anchor: a 3-user cell (fixed, adaptive, mixed-in
    // a-FlexCore with a different budget) under real channel aging at
    // 30 dB, several packets per user through the soft pipeline — goodput
    // must equal offered load, for every user.
    let cfg = cfg16(25);
    let snr = 30.0;
    let ens = ChannelEnsemble::iid(4, 4);
    let rho = GaussMarkovChannel::rho_from_doppler(0.005);
    let mut cell = StreamingCell::new();
    let templates = [
        CellDetector::fixed(cfg.constellation.clone(), 16),
        CellDetector::adaptive(cfg.constellation.clone(), 16, 0.95),
        CellDetector::adaptive(cfg.constellation.clone(), 8, 0.99),
    ];
    for (u, det) in templates.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(400 + u as u64);
        let stream = ChannelStream::new(
            &ens,
            cfg.ofdm.n_data,
            rho,
            4,
            sigma2_from_snr_db(snr),
            &mut rng,
        );
        cell.add_user(stream, det);
    }
    let mut rngs: Vec<StdRng> = (0..3).map(|u| StdRng::seed_from_u64(500 + u)).collect();
    let pool = CrossbeamPool::work_queue(3);
    let n_ticks = 4;
    let mut delivered = 0;
    for _ in 0..n_ticks {
        let outcomes = cell_packet_tick_soft(&cfg, &mut cell, &pool, &mut rngs);
        let served: Vec<usize> = outcomes.iter().map(|out| out.user).collect();
        assert_eq!(served, [0, 1, 2], "every user is served every tick");
        for out in &outcomes {
            assert!(
                out.crc_ok.iter().all(|&ok| ok),
                "user {} dropped a packet at 30 dB: {:?}",
                out.user,
                out.crc_ok
            );
            delivered += out.crc_ok.len();
        }
    }
    // One packet per stream per user per tick, every one delivered.
    assert_eq!(
        delivered,
        3 * 4 * n_ticks,
        "goodput must equal offered load"
    );
    // Everyone was served every tick.
    let stats = cell.stats();
    assert_eq!(stats.max_frames_behind, 0);
    assert_eq!(stats.frames_completed, (3 * n_ticks) as u64);
}

#[test]
fn hard_cell_tick_matches_soft_ticks_raw_observables_under_aging() {
    // Under real aging (not frozen), hard and soft ticks with equal seeds
    // must still agree on the raw detection observables — the lockstep
    // holds through advance() because both consume identical RNG streams.
    let cfg = cfg16(20);
    let snr = 14.0;
    let ens = ChannelEnsemble::iid(4, 4);
    let build = || {
        let mut cell = StreamingCell::new();
        for u in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(600 + u);
            let stream = ChannelStream::new(
                &ens,
                cfg.ofdm.n_data,
                0.95,
                3,
                sigma2_from_snr_db(snr),
                &mut rng,
            );
            cell.add_user(
                stream,
                FlexCoreDetector::adaptive(cfg.constellation.clone(), 16, 0.95),
            );
        }
        cell
    };
    let mk_rngs = || -> Vec<StdRng> { (0..2).map(|u| StdRng::seed_from_u64(700 + u)).collect() };
    let (mut hard_cell, mut soft_cell) = (build(), build());
    let (mut hard_rngs, mut soft_rngs) = (mk_rngs(), mk_rngs());
    let pool = SequentialPool::new(4);
    for round in 0..3 {
        let hard = cell_packet_tick(&cfg, &mut hard_cell, &pool, &mut hard_rngs);
        let soft = cell_packet_tick_soft(&cfg, &mut soft_cell, &pool, &mut soft_rngs);
        for (h, s) in hard.iter().zip(&soft) {
            assert_eq!(h.user, s.user);
            assert_eq!(
                h.link.raw_bit_errors, s.link.raw_bit_errors,
                "round {round} user {}",
                h.user
            );
        }
    }
}

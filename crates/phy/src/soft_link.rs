//! Soft-decision uplink: FlexCore's list LLRs feeding a soft Viterbi.
//!
//! The end-to-end realisation of the paper's §7 extension: instead of
//! hard-slicing each detected symbol, the detector's candidate list
//! produces per-bit LLRs (`flexcore::soft`) which the deinterleaver passes
//! to the soft Viterbi decoder (`ConvCode::decode_soft_into`). At equal SNR and
//! equal PE count the soft pipeline delivers strictly more packets — the
//! gain the paper anticipates from "soft-detectors as in \[7, 43\]".
//!
//! Two entry points: the per-vector reference [`simulate_packet_soft`] and
//! the serving tick [`cell_packet_tick_soft`]. Both share
//! [`crate::link`]'s transmit and receive chains; the tick is its one cell
//! tick, instantiated at `Soft`.

use crate::link::{
    receive_chains, run_cell_tick, transmit_chains, Codec, DecodeInto, Grid, Input, LinkConfig,
    LinkOutcome, LinkOutput, StreamedOutcome,
};
use flexcore::{SoftDecision, SoftDetector};
use flexcore_channel::MimoChannel;
use flexcore_coding::ConvCode;
use flexcore_engine::StreamingCell;
use flexcore_numeric::Cx;
use flexcore_parallel::PePool;
use rand::Rng;
use std::cell::Cell;
use std::thread::LocalKey;

/// Soft decisions, one per grid cell: per-bit LLRs → soft Viterbi.
impl Grid for Vec<SoftDecision> {
    type Metric = f64;
    const DECODE: DecodeInto<f64> = ConvCode::decode_soft_into;
    fn hard(&self, _nt: usize, v: usize, u: usize) -> usize {
        self[v].hard[u]
    }
    fn inputs(&self, v: usize, u: usize, _word: u64) -> [f64; 8] {
        let llrs = &self[v].llrs[u];
        let mut out = [0.0; 8];
        out[..llrs.len()].copy_from_slice(llrs);
        out
    }
}

impl Input for f64 {
    fn slot() -> &'static LocalKey<Cell<Option<Codec<f64>>>> {
        thread_local!(static SLOT: Cell<Option<Codec<f64>>> = const { Cell::new(None) });
        &SLOT
    }
}

/// One batch's soft decisions at noise variance `sigma2`.
fn detect_soft<D: SoftDetector>(det: &D, sigma2: f64, ys: &[&[Cx]]) -> Vec<SoftDecision> {
    ys.iter().map(|y| det.detect_soft(y, sigma2)).collect()
}

/// Soft-decision output: [`SoftDetector::detect_soft`] at the estimate's
/// `σ²`, one [`SoftDecision`] per vector through the cell's owned-output
/// adapter ([`StreamingCell::process_tick`]) → per-bit LLRs → soft Viterbi.
pub(crate) struct Soft;

impl<D: SoftDetector + Clone + Sync> LinkOutput<D> for Soft {
    type Rows = Vec<SoftDecision>;
    fn tick<P: PePool>(
        cell: &mut StreamingCell<D>,
        pool: &P,
        mut each: impl FnMut(usize, &Self::Rows),
    ) {
        let sigma2s: Vec<f64> = (0..cell.n_users())
            .map(|u| cell.stream(u).estimate().sigma2())
            .collect();
        for out in cell.process_tick(pool, |det, u, _sc, ys| detect_soft(det, sigma2s[u], ys)) {
            each(out.user, &out.cells);
        }
    }
}

/// Simulates one packet exchange with soft-output detection (any
/// [`SoftDetector`]: fixed FlexCore, a-FlexCore, or a mixed
/// `flexcore::CellDetector`), one [`SoftDetector::detect_soft`] call per
/// received vector.
///
/// The detector must already be `prepare`d for `channel.h`. Mirrors
/// [`crate::link::simulate_packet`] (same framing, same per-user coding,
/// same RNG order) but carries LLRs end to end.
pub fn simulate_packet_soft<R: Rng + ?Sized, D: SoftDetector>(
    cfg: &LinkConfig,
    channel: &MimoChannel,
    detector: &D,
    rng: &mut R,
) -> LinkOutcome {
    Codec::with(cfg, |codec| {
        let chains = transmit_chains(cfg, codec, channel.nt(), rng);
        let cells: Vec<SoftDecision> = (0..cfg.ofdm_symbols_per_packet() * cfg.ofdm.n_data)
            .map(|v| {
                let tx = chains.tx_vector(&cfg.constellation, v);
                detector.detect_soft(&channel.transmit(&tx, rng), channel.sigma2)
            })
            .collect();
        receive_chains(cfg, codec, 0, &chains, &cells).link
    })
}

/// One multi-user serving tick, soft detection: the soft-path counterpart
/// of [`cell_packet_tick`](crate::link::cell_packet_tick) — the same tick
/// with every user's soft detections in the shared pool run and each
/// user's LLR streams flowing deinterleave → soft Viterbi → CRC-32 check.
///
/// RNG consumption is in lockstep with the hard tick: with equal seeds
/// both ticks see identical channels, payloads and noise, and the soft
/// `raw_bit_errors` equal the hard ones (the `hard` field of every
/// [`SoftDecision`] matches [`flexcore_detect::common::Detector::detect`]).
/// On a frozen [`ChannelStream`](flexcore_engine::ChannelStream) a user's
/// outcome equals [`simulate_packet_soft`] on the same `H` and RNG, bit
/// for bit.
///
/// # Panics
/// Same preconditions as [`cell_packet_tick`](crate::link::cell_packet_tick):
/// one RNG per user, matching stream widths, and every user's queue
/// drained on entry.
pub fn cell_packet_tick_soft<R, D, P>(
    cfg: &LinkConfig,
    cell: &mut StreamingCell<D>,
    pool: &P,
    rngs: &mut [R],
) -> Vec<StreamedOutcome>
where
    R: Rng,
    D: SoftDetector + Clone + Sync,
    P: PePool,
{
    run_cell_tick::<Soft, _, _, _>(cfg, cell, pool, rngs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::simulate_packet;
    use flexcore::FlexCoreDetector;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
    use flexcore_detect::common::Detector;
    use flexcore_modulation::{Constellation, Modulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_channel_soft_delivers() {
        let c = Constellation::new(Modulation::Qam16);
        let cfg = LinkConfig::paper_default(c.clone(), 40);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let snr = 40.0;
        let ch = MimoChannel::new(h.clone(), snr);
        let mut det = FlexCoreDetector::with_pes(c, 16);
        det.prepare(&h, sigma2_from_snr_db(snr));
        let out = simulate_packet_soft(&cfg, &ch, &det, &mut rng);
        assert!(out.user_ok.iter().all(|&k| k));
    }

    #[test]
    fn soft_delivers_at_least_as_many_packets_as_hard() {
        // The §7 expectation: list-LLR decoding beats hard slicing at the
        // same SNR and PE budget (aggregate over several channels).
        let c = Constellation::new(Modulation::Qam16);
        let cfg = LinkConfig::paper_default(c.clone(), 40);
        let ens = ChannelEnsemble::iid(6, 6);
        let snr = 10.0;
        let (mut soft_ok, mut hard_ok) = (0usize, 0usize);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            let mut det = FlexCoreDetector::with_pes(c.clone(), 24);
            det.prepare(&h, sigma2_from_snr_db(snr));
            let mut rng_a = StdRng::seed_from_u64(1000 + seed);
            let mut rng_b = StdRng::seed_from_u64(1000 + seed);
            soft_ok += simulate_packet_soft(&cfg, &ch, &det, &mut rng_a)
                .user_ok
                .iter()
                .filter(|&&k| k)
                .count();
            hard_ok += simulate_packet(&cfg, &ch, &det, &mut rng_b)
                .user_ok
                .iter()
                .filter(|&&k| k)
                .count();
        }
        // Max-log list LLRs dominate in expectation; with 60 packets the
        // Monte-Carlo noise is about ±2 packets, so allow a one-packet
        // deficit while still rejecting any systematic soft-path bug.
        assert!(
            soft_ok + 1 >= hard_ok,
            "soft delivered {soft_ok} vs hard {hard_ok}"
        );
        assert!(
            soft_ok > 30,
            "soft path should deliver most packets: {soft_ok}"
        );
    }

    #[test]
    fn soft_tick_is_rng_lockstepped_with_hard_tick() {
        // With equal seeds the soft tick sees the same channels, payloads
        // and noise as the hard tick, so the raw (hard-decision) bit error
        // counts must agree exactly, and the soft path must deliver at
        // least as many CRC-passing packets.
        use crate::link::cell_packet_tick;
        use flexcore::CellDetector;
        use flexcore_engine::{ChannelStream, StreamingCell};
        use flexcore_parallel::SequentialPool;
        let c = Constellation::new(Modulation::Qam16);
        let cfg = LinkConfig::paper_default(c.clone(), 30);
        let snr = 11.0; // noisy enough for raw errors, coded mostly saves
        let build_cell = || {
            let ens = ChannelEnsemble::iid(4, 4);
            let mut cell = StreamingCell::new();
            for (i, seed) in [301u64, 302].into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let stream = ChannelStream::new(
                    &ens,
                    cfg.ofdm.n_data,
                    0.98,
                    4,
                    sigma2_from_snr_db(snr),
                    &mut rng,
                );
                let det = if i == 0 {
                    CellDetector::fixed(c.clone(), 16)
                } else {
                    CellDetector::adaptive(c.clone(), 16, 0.95)
                };
                cell.add_user(stream, det);
            }
            cell
        };
        let pool = SequentialPool::new(2);
        let mk_rngs =
            || -> Vec<StdRng> { (0..2).map(|u| StdRng::seed_from_u64(900 + u)).collect() };
        let mut hard_cell = build_cell();
        let mut soft_cell = build_cell();
        let (mut hard_rngs, mut soft_rngs) = (mk_rngs(), mk_rngs());
        let mut soft_delivered = 0usize;
        let mut hard_delivered = 0usize;
        for round in 0..3 {
            let hard = cell_packet_tick(&cfg, &mut hard_cell, &pool, &mut hard_rngs);
            let soft = cell_packet_tick_soft(&cfg, &mut soft_cell, &pool, &mut soft_rngs);
            for (h, s) in hard.iter().zip(&soft) {
                assert_eq!(
                    h.link.raw_bit_errors, s.link.raw_bit_errors,
                    "round {round} user {}",
                    h.user
                );
                hard_delivered += h.crc_ok.iter().filter(|&&k| k).count();
                soft_delivered += s.crc_ok.iter().filter(|&&k| k).count();
            }
        }
        assert!(
            soft_delivered >= hard_delivered,
            "soft {soft_delivered} vs hard {hard_delivered}"
        );
        assert!(soft_delivered > 0, "workload too hard to be informative");
    }
}

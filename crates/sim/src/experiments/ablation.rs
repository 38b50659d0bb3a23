//! Ablations of FlexCore's design choices.
//!
//! * **Symbol ordering**: exact sort vs triangle-LUT with skip semantics
//!   vs the paper's strict deactivate-on-outside semantics (§3.2);
//! * **QR ordering**: Wübben SQRD vs Barbero FCSD ordering vs plain QR
//!   (§5.1 evaluates both sorted variants);
//! * **Pre-processing expansion batch**: sequential vs `N_PE/10`-batched
//!   (§3.1.1's parallel pre-processing claim).
//!
//! Each row reports the uncoded vector error rate at a fixed operating
//! point, so the cost of every approximation is visible in isolation.

use crate::calibrate::vector_error_rate;
use crate::table::ResultTable;
use flexcore::{FlexCoreConfig, FlexCoreDetector, PathOrdering, QrOrdering};
use flexcore_channel::ChannelEnsemble;
use flexcore_modulation::{Constellation, Modulation};

/// RNG seed, shared by every variant.
const SEED: u64 = 0xF1EC_00AB;

/// Configuration for the ablation sweep.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// System size.
    pub nt: usize,
    /// Modulation.
    pub modulation: Modulation,
    /// Per-stream SNR (dB).
    pub snr_db: f64,
    /// PE budget.
    pub n_pe: usize,
    /// Channels per estimate.
    pub n_channels: usize,
    /// Vectors per channel.
    pub vectors_per_channel: usize,
}

impl Cfg {
    /// Fast preset (8×8, 16-QAM).
    pub fn quick() -> Self {
        Cfg {
            nt: 8,
            modulation: Modulation::Qam16,
            snr_db: 8.0,
            n_pe: 32,
            n_channels: 120,
            vectors_per_channel: 8,
        }
    }

    /// Deeper averaging on the paper's 12×12 64-QAM system.
    pub fn full() -> Self {
        Cfg {
            nt: 12,
            modulation: Modulation::Qam64,
            snr_db: 15.0,
            n_pe: 64,
            n_channels: 400,
            vectors_per_channel: 12,
        }
    }
}

/// Runs the ablation sweep. One row per variant.
pub fn run(cfg: &Cfg) -> ResultTable {
    let c = Constellation::new(cfg.modulation);
    let ens = ChannelEnsemble::iid(cfg.nt, cfg.nt);
    let mut table = ResultTable::new(
        format!(
            "Ablations: {}x{} {} @ {} dB, N_PE={}",
            cfg.nt,
            cfg.nt,
            cfg.modulation.name(),
            cfg.snr_db,
            cfg.n_pe
        ),
        &["dimension", "variant", "vector_error_rate"],
    );
    let mut measure = |dimension: &str, variant: &str, config: FlexCoreConfig| {
        let mut det = FlexCoreDetector::new(c.clone(), config);
        let ver = vector_error_rate(
            &mut det,
            &ens,
            &c,
            cfg.snr_db,
            cfg.n_channels,
            cfg.vectors_per_channel,
            SEED,
        );
        table.push_row(vec![dimension.into(), variant.into(), format!("{ver:.5}")]);
    };
    // Symbol-ordering ablation.
    for (name, ord) in [
        ("exact", PathOrdering::Exact),
        ("lut_skip (default)", PathOrdering::TriangleLut),
        ("lut_strict (paper FPGA)", PathOrdering::TriangleLutStrict),
    ] {
        let mut config = FlexCoreConfig::new(cfg.n_pe);
        config.path_ordering = ord;
        measure("symbol_ordering", name, config);
    }
    // QR-ordering ablation.
    for (name, ord) in [
        ("sqrd (default)", QrOrdering::Sqrd),
        ("fcsd_l1", QrOrdering::Fcsd(1)),
        ("plain", QrOrdering::Plain),
    ] {
        let mut config = FlexCoreConfig::new(cfg.n_pe);
        config.qr_ordering = ord;
        measure("qr_ordering", name, config);
    }
    // Pre-processing expansion batch ablation.
    for (name, batch) in [
        ("sequential (default)", 1usize),
        ("batched N_PE/10", (cfg.n_pe / 10).max(2)),
        ("batched N_PE/2", (cfg.n_pe / 2).max(2)),
    ] {
        let mut config = FlexCoreConfig::new(cfg.n_pe);
        config.expand_batch = batch;
        measure("preprocess_batch", name, config);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shapes_hold() {
        let mut cfg = Cfg::quick();
        cfg.n_channels = 60;
        cfg.vectors_per_channel = 6;
        let t = run(&cfg);
        assert_eq!(t.len(), 9);
        let ver = |dim: &str, var: &str| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[0] == dim && r[1].starts_with(var))
                .unwrap()[2]
                .parse()
                .unwrap()
        };
        // Skip-LUT ≈ exact; strict LUT pays a visible penalty.
        let exact = ver("symbol_ordering", "exact");
        let skip = ver("symbol_ordering", "lut_skip");
        let strict = ver("symbol_ordering", "lut_strict");
        assert!(skip <= exact * 1.4 + 0.01, "skip {skip} vs exact {exact}");
        assert!(
            strict >= skip,
            "strict {strict} should not beat skip {skip}"
        );
        // Sorted QR beats plain QR.
        let sqrd = ver("qr_ordering", "sqrd");
        let plain = ver("qr_ordering", "plain");
        assert!(sqrd < plain, "SQRD {sqrd} should beat plain {plain}");
        // N_PE/10 batching is near-lossless (§3.1.1).
        let seq = ver("preprocess_batch", "sequential");
        let b10 = ver("preprocess_batch", "batched N_PE/10");
        assert!(b10 <= seq * 1.35 + 0.01, "batch {b10} vs seq {seq}");
    }
}

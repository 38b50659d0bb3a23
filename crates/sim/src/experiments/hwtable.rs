//! `hwtable` — the scheduling stack priced on heterogeneous modelled
//! hardware, reduced to one paper-style throughput-per-fabric table.
//!
//! §5 of the paper reports its hardware story as small tables: for each
//! substrate and antenna configuration, what throughput does a detector
//! reach, and at what efficiency? This driver reproduces that shape for
//! the scheduling stack on three fabrics built from `flexcore-hwmodel`:
//!
//! * **fpga** — 8 pipelined XCVU440 engines (uniform, 1 path/cycle at the
//!   Table 3 fmax);
//! * **gpu**  — the GTX 970's 13 SMs, each a PE of speed 128 over the
//!   one-thread-per-path cost model;
//! * **lte**  — a small-cell baseband SoC: 2 fast DSP cores beside 6 slow
//!   ARM cores (the heterogeneous case the uniform-machines LPT scheduler
//!   exists for).
//!
//! Every row prepares fixed FlexCore-16 or a-FlexCore(0.95) against a
//! seeded frequency-selective 16-QAM channel and plans one frame for the
//! fabric exactly as the frame engine would run it
//! ([`StreamingCell::plan_tick`]: batches priced at
//! `Detector::extension_work() × symbols`, the same hook the city's
//! modelled time reads). The plan's prices, placed by the
//! uniform-machines LPT rule, give the packing efficiency; the fabric's
//! ideal throughput at the prepared mean effort
//! ([`HeterogeneousFabric::ideal_throughput_bps`]), derated by that
//! packing, is the Mb/s column. The a-FlexCore rows' advantage over
//! FlexCore-16 at equal hardware is the §5.1 effort saving surfacing as
//! hardware efficiency on every fabric.
//!
//! **Modelled time only**: the plan is priced and placed, never run, so no
//! column reads a clock and two runs print the same bytes. Whether
//! `extension_work × symbols` tracks what real detection costs is a
//! separate, wall-clock question, audited by the ignored
//! `fabric_makespan_prediction_tracks_real_detection_cost` test in
//! `tests/frame_engine.rs`.

use crate::table::ResultTable;
use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
use flexcore_detect::common::Detector;
use flexcore_engine::{ChannelStream, RxFrame, StreamingCell};
use flexcore_hwmodel::{
    CpuModel, EngineKind, FpgaModel, GpuModel, HeterogeneousFabric, PeCost, WorkUnit,
};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use flexcore_parallel::lpt_makespan_weighted;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_PE: usize = 16;
const STOP: f64 = 0.95;
const SNR_DB: f64 = 20.0;
const SEED: u64 = 0x5EED_0005;
/// Subcarriers per frame: 4 batches per PE even on the widest fabric (13
/// GPU SMs). The price cannot see per-subcarrier cost spread at equal
/// path counts, so each PE must average several subcarriers for the
/// packing figure to mean anything.
const N_SUBCARRIERS: usize = 52;

/// Configuration.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Stream counts (`nt × nt` uplinks; widths past 16 exercise the
    /// spill-capable symbol storage).
    pub sizes: Vec<usize>,
    /// OFDM symbols per frame.
    pub n_symbols: usize,
}

impl Cfg {
    /// The paper's small configurations.
    pub fn quick() -> Self {
        Cfg {
            sizes: vec![4, 8],
            n_symbols: 8,
        }
    }

    /// The whole sweep, through the massive-MIMO widths.
    pub fn full() -> Self {
        Cfg {
            sizes: vec![4, 8, 12, 16, 32, 64],
            n_symbols: 14,
        }
    }
}

/// Modelled detection throughput in Mbit/s: the fabric's ideal throughput
/// at `mean_effort` units/vector, derated by the scheduler's packing
/// efficiency.
fn modelled_mbps(
    cost: &impl PeCost,
    fabric: &HeterogeneousFabric,
    work: &WorkUnit,
    mean_effort: f64,
    packing: f64,
) -> f64 {
    fabric.ideal_throughput_bps(cost, work, mean_effort) * packing / 1e6
}

/// One prepared (width, detector) cell of the sweep, shared by the three
/// fabrics: preparation does not depend on where the frame will run.
struct Prepared {
    nt: usize,
    cell: StreamingCell<FlexCoreDetector>,
}

fn prepare(nt: usize, template: FlexCoreDetector) -> Prepared {
    let mut rng = StdRng::seed_from_u64(SEED + nt as u64);
    let stream = ChannelStream::new(
        &ChannelEnsemble::iid(nt, nt),
        N_SUBCARRIERS,
        1.0,
        1,
        sigma2_from_snr_db(SNR_DB),
        &mut rng,
    );
    let mut cell = StreamingCell::new();
    cell.add_user(stream, template);
    Prepared { nt, cell }
}

/// Appends one fabric's rows: every prepared cell planned for `fabric`
/// and priced under `cost`.
fn push_fabric_rows(
    table: &mut ResultTable,
    cfg: &Cfg,
    prepared: &mut [Prepared],
    fabric: &HeterogeneousFabric,
    cost: &impl PeCost,
) {
    let speeds = fabric.speed_factors();
    for p in prepared {
        // The plan prices the grid's shape; its samples are never read,
        // and the plan itself is dropped unrun.
        let blank = vec![vec![Cx::ZERO; p.nt]; N_SUBCARRIERS * cfg.n_symbols];
        p.cell
            .submit(0, RxFrame::from_vectors(N_SUBCARRIERS, blank));
        let plan = p.cell.plan_tick(fabric.n_pes());
        let total_units: u64 = plan.costs().iter().sum();
        let makespan_units = lpt_makespan_weighted(plan.costs(), &speeds);
        let packing = total_units as f64 / (fabric.total_speed() * makespan_units);

        let engine = p.cell.engine(0);
        let mean_effort = engine.stats().mean_effort();
        let work = WorkUnit::new(p.nt, 16);
        table.push_row(vec![
            fabric.name.to_string(),
            engine.template().name(),
            format!("{0}x{0} 16-QAM", p.nt),
            format!("{mean_effort:.2}"),
            format!("{:.1}", packing * 100.0),
            format!(
                "{:.1}",
                modelled_mbps(cost, fabric, &work, mean_effort, packing)
            ),
        ]);
    }
}

/// Runs the experiment.
pub fn run(cfg: &Cfg) -> ResultTable {
    let mut table = ResultTable::new(
        format!(
            "Hardware efficiency (modelled): {N_SUBCARRIERS} sc x {} sym, {SNR_DB} dB, 16-QAM",
            cfg.n_symbols
        ),
        &[
            "fabric",
            "detector",
            "config",
            "effort/vec",
            "pack%",
            "Mb/s",
        ],
    );
    let c = Constellation::new(Modulation::Qam16);
    let mut prepared: Vec<Prepared> = Vec::new();
    for &nt in &cfg.sizes {
        for template in [
            FlexCoreDetector::with_pes(c.clone(), N_PE),
            FlexCoreDetector::adaptive(c.clone(), N_PE, STOP),
        ] {
            prepared.push(prepare(nt, template));
        }
    }
    let gpu = GpuModel::gtx970();
    push_fabric_rows(
        &mut table,
        cfg,
        &mut prepared,
        &HeterogeneousFabric::fpga_engines(8),
        // Unit price on the FPGA is nt-independent (pipelined), so one
        // engine model covers the whole sweep.
        &FpgaModel::new(EngineKind::FlexCore, 8, 16),
    );
    push_fabric_rows(
        &mut table,
        cfg,
        &mut prepared,
        &HeterogeneousFabric::gpu_sms(&gpu),
        &gpu,
    );
    push_fabric_rows(
        &mut table,
        cfg,
        &mut prepared,
        &HeterogeneousFabric::lte_smallcell(),
        &CpuModel::fx8120(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_throughput_reproduces_the_paper_formula() {
        // §5.3: 72 bits · 312.5 MHz · 32 PEs / 32 paths.
        let fpga = FpgaModel::new(EngineKind::FlexCore, 12, 64);
        let fabric = HeterogeneousFabric::fpga_engines(32);
        let mbps = modelled_mbps(&fpga, &fabric, &WorkUnit::new(12, 64), 32.0, 1.0);
        assert!((mbps - 72.0 * 312.5 * 32.0 / 32.0).abs() < 1e-6, "{mbps}");
        // Poor packing derates it proportionally; halving the effort
        // doubles it (the whole point of a-FlexCore on any fabric).
        let half = modelled_mbps(&fpga, &fabric, &WorkUnit::new(12, 64), 32.0, 0.5);
        assert!((half / mbps - 0.5).abs() < 1e-12);
        let double = modelled_mbps(&fpga, &fabric, &WorkUnit::new(12, 64), 16.0, 1.0);
        assert!((double / mbps - 2.0).abs() < 1e-12);
    }

    #[test]
    fn packing_is_a_fraction_and_adaptive_never_loses_to_fixed() {
        let mut cfg = Cfg::quick();
        cfg.n_symbols = 4;
        let t = run(&cfg);
        assert_eq!(t.len(), 3 * cfg.sizes.len() * 2);
        let num = |row: usize, col: &str| -> f64 {
            t.cell(row, col)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("row {row}: no numeric {col}"))
        };
        for row in 0..t.len() {
            let pack = num(row, "pack%");
            assert!(pack > 0.0 && pack <= 100.0, "row {row}: pack% {pack}");
        }
        // Rows come in (FlexCore-16, a-FlexCore) pairs on the same fabric
        // and width: the effort saving must surface as throughput.
        for fixed in (0..t.len()).step_by(2) {
            let adaptive = fixed + 1;
            for col in ["fabric", "config"] {
                assert_eq!(t.cell(fixed, col), t.cell(adaptive, col));
            }
            assert_eq!(num(fixed, "effort/vec"), N_PE as f64);
            assert!(num(adaptive, "effort/vec") <= N_PE as f64);
            assert!(
                num(adaptive, "Mb/s") >= num(fixed, "Mb/s"),
                "{:?} {:?}: a-FlexCore {} < FlexCore-16 {}",
                t.cell(fixed, "fabric"),
                t.cell(fixed, "config"),
                num(adaptive, "Mb/s"),
                num(fixed, "Mb/s")
            );
        }
    }
}

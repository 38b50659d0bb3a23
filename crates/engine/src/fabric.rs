//! Hardware-aware scheduling: running the engine on a heterogeneous
//! fabric and auditing the cost model that placed the work.
//!
//! Every plan is priced in one currency, the path-extension work unit
//! (`flexcore_hwmodel::WorkUnit` names the config it is priced at): a
//! batch of `n` OFDM symbols on a subcarrier whose prepared detector
//! reports
//! [`Detector::extension_work`](flexcore_detect::common::Detector::extension_work)` = w`
//! costs `w · n` units. `extension_work` is the fine-grained companion of
//! the effort profile — FlexCore overrides it with the per-vector `nt²`
//! rotate front-end plus the prepared trie's static walk cost, because
//! equal path counts can hide severalfold per-subcarrier time
//! differences that a finish-time prediction must see (and, at
//! massive-MIMO widths, the rotate dominates a trimmed trie's walk).
//!
//! Placement is the pool's business. The engine and the cells hand every
//! pool its tasks together with those prices
//! ([`PePool::run_priced`](flexcore_parallel::PePool::run_priced)); a
//! [`WeightedPool`] (typically built from
//! [`HeterogeneousFabric::speed_factors`] via [`pool_for`]) places them
//! onto its non-uniform PEs with the uniform-machines LPT rule, times
//! every batch, and keeps the record of its last run. So running on a
//! fabric is a plain `detect_frame(&frame, &weighted_pool)` or
//! `detect_tick(&weighted_pool)`, bit-identical to any other pool.
//!
//! [`FabricStats`] is the audit of one such run, built from the pool's
//! record and a `PeCost` price per unit: the predicted makespan (in
//! units, in modelled-hardware seconds, and calibrated to the measured
//! unit cost), the measured makespan, their relative error, the packing
//! efficiency, and per-PE utilisation. The workspace's ignored
//! `frame_engine::fabric_makespan_prediction_tracks_real_detection_cost`
//! test gates on the error staying under 25 % — if the cost signal stopped
//! tracking what detection actually costs, the prediction (and the
//! modelled `hwtable` built on the same prices) would silently drift.

use flexcore_hwmodel::HeterogeneousFabric;
use flexcore_parallel::{ScheduledRun, WeightedPool};

/// A [`WeightedPool`] whose workers mirror `fabric`'s PEs — the one-line
/// bridge from a hardware description to an execution substrate.
///
/// ```
/// use flexcore_engine::pool_for;
/// use flexcore_hwmodel::HeterogeneousFabric;
/// use flexcore_parallel::PePool;
/// let pool = pool_for(&HeterogeneousFabric::lte_smallcell());
/// assert_eq!(pool.n_pes(), 8);
/// assert_eq!(pool.speeds()[0], 4.0);
/// ```
pub fn pool_for(fabric: &HeterogeneousFabric) -> WeightedPool {
    WeightedPool::new(fabric.speed_factors())
}

/// Audit record of one priced run on a [`WeightedPool`] (a frame or a
/// multi-user tick): how well the `extension_work × PeCost` prediction matched the
/// measured per-batch work, and how evenly the fabric was used.
///
/// "Measured" times book each batch's wall-clock seconds to its assigned
/// PE divided by that PE's speed factor — the modelled-parallel time of
/// the batch given the work it *actually* turned out to be (see
/// [`ScheduledRun`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricStats {
    /// PEs in the fabric the run was scheduled onto.
    pub n_pes: usize,
    /// Total predicted work, in path-extension units:
    /// `Σ extension_work × symbols` over the batches — **not** the
    /// effort profile (`EngineStats::effort_total` counts paths; this
    /// counts the trie-walk work those paths cost, which can differ
    /// severalfold at equal path counts).
    pub total_units: u64,
    /// Predicted makespan of the weighted-LPT placement, in work units
    /// per unit speed.
    pub predicted_makespan_units: f64,
    /// `total_units / (Σ speeds · predicted_makespan_units)` — 1.0 when
    /// the batches pack the fabric perfectly, less when one expensive
    /// batch strands the rest of the pool.
    pub packing_efficiency: f64,
    /// Predicted makespan in **modelled-hardware seconds**:
    /// `predicted_makespan_units × PeCost::unit_seconds(work)`. This is
    /// the number the paper-style hardware tables are built from.
    pub predicted_model_makespan_s: f64,
    /// Predicted makespan in measured-host seconds: the unit prediction
    /// calibrated by the run's own mean cost per unit
    /// (`predicted_makespan_units × Σ task_seconds / total_units`), i.e.
    /// the prediction with the host's absolute speed divided out. Compare
    /// against [`FabricStats::measured_makespan_s`].
    pub predicted_makespan_s: f64,
    /// Measured makespan: `max_pe Σ (task seconds / speed)` over the
    /// batches each PE was assigned.
    pub measured_makespan_s: f64,
    /// `|predicted − measured| / measured` over the two host-second
    /// makespans — how much the relative cost model (effort proportional
    /// to real work) misplaced the critical path. 0 when nothing ran.
    pub makespan_error: f64,
    /// Per-PE utilisation of the measured run: busy time over makespan,
    /// 1.0 for the critical PE.
    pub per_pe_utilization: Vec<f64>,
}

impl FabricStats {
    /// Builds the audit record from a [`WeightedPool`]'s record of a
    /// priced run (`pool.last_run()` right after a `detect_frame` /
    /// `detect_tick` on that pool) and the pool's `speeds`.
    ///
    /// `unit_seconds` is the [`PeCost`](flexcore_hwmodel::PeCost) price of
    /// one work unit on the modelled substrate
    /// (`cost.unit_seconds(&work)`).
    ///
    /// ```
    /// use flexcore_engine::{pool_for, FabricStats};
    /// use flexcore_hwmodel::{CpuModel, HeterogeneousFabric, PeCost, WorkUnit};
    /// use flexcore_parallel::PePool;
    /// let pool = pool_for(&HeterogeneousFabric::lte_smallcell());
    /// pool.run_priced(vec![|| 1u8, || 2, || 3], &[40, 4, 4]);
    /// let run = pool.last_run().expect("a priced run was recorded");
    /// let unit_s = CpuModel::fx8120().unit_seconds(&WorkUnit::new(4, 16));
    /// let audit = FabricStats::from_run(&run, pool.speeds(), unit_s);
    /// assert_eq!((audit.n_pes, audit.total_units), (8, 48));
    /// assert_eq!(audit.predicted_makespan_units, 10.0); // 40 units on a 4x PE
    /// ```
    pub fn from_run(run: &ScheduledRun, speeds: &[f64], unit_seconds: f64) -> Self {
        let total_units: u64 = run.costs.iter().sum();
        let total_speed: f64 = speeds.iter().sum();
        let makespan_units = run.schedule.makespan_units;
        let packing_efficiency = if makespan_units > 0.0 {
            total_units as f64 / (total_speed * makespan_units)
        } else {
            1.0
        };
        let kappa = if total_units > 0 {
            run.total_task_seconds() / total_units as f64
        } else {
            0.0
        };
        let predicted_makespan_s = makespan_units * kappa;
        let measured_makespan_s = run.measured_makespan_s;
        let makespan_error = if measured_makespan_s > 0.0 {
            (predicted_makespan_s - measured_makespan_s).abs() / measured_makespan_s
        } else {
            0.0
        };
        FabricStats {
            n_pes: speeds.len(),
            total_units,
            predicted_makespan_units: makespan_units,
            packing_efficiency,
            predicted_model_makespan_s: makespan_units * unit_seconds,
            predicted_makespan_s,
            measured_makespan_s,
            makespan_error,
            per_pe_utilization: run.utilization(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_parallel::PePool;

    #[test]
    fn stats_from_a_perfectly_predicted_run() {
        // Tasks whose wall time is (approximately) proportional to their
        // cost: spin loops scaled by the declared units.
        let pool = WeightedPool::new(vec![2.0, 1.0]);
        let costs: Vec<u64> = vec![400, 200, 200, 100, 100];
        let tasks: Vec<_> = costs
            .iter()
            .map(|&c| {
                move || {
                    let mut acc = 0u64;
                    for i in 0..c * 40_000 {
                        acc = acc.wrapping_mul(31).wrapping_add(i);
                    }
                    acc
                }
            })
            .collect();
        pool.run_priced(tasks, &costs);
        let run = pool.last_run().expect("priced run recorded");
        let stats = FabricStats::from_run(&run, pool.speeds(), 1e-9);
        assert_eq!(stats.n_pes, 2);
        assert_eq!(stats.total_units, 1000);
        assert!(stats.predicted_makespan_units > 0.0);
        assert!(stats.packing_efficiency > 0.5 && stats.packing_efficiency <= 1.0);
        assert!(
            stats.makespan_error < 0.25,
            "spin-loop work should be predictable: error {}",
            stats.makespan_error
        );
        assert_eq!(stats.per_pe_utilization.len(), 2);
        assert!(stats
            .per_pe_utilization
            .iter()
            .any(|&u| (u - 1.0).abs() < 1e-9));
        // Model seconds scale with unit price.
        assert!(
            (stats.predicted_model_makespan_s - stats.predicted_makespan_units * 1e-9).abs()
                < 1e-18
        );
    }

    #[test]
    fn empty_run_reports_zeroes() {
        let pool = WeightedPool::new(vec![1.0; 3]);
        let out = pool.run_priced(Vec::<fn() -> u8>::new(), &[]);
        assert!(out.is_empty());
        let run = pool.last_run().expect("priced run recorded");
        let stats = FabricStats::from_run(&run, pool.speeds(), 1e-9);
        assert_eq!(stats.total_units, 0);
        assert_eq!(stats.makespan_error, 0.0);
        assert_eq!(stats.packing_efficiency, 1.0);
        assert_eq!(stats.per_pe_utilization, vec![0.0; 3]);
    }
}

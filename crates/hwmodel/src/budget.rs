//! Per-cell fabric budgets: how much detection work one cell's fabric
//! completes per scheduling interval.
//!
//! The [`fabric`](crate::fabric) module answers "how fast is this pool of
//! PEs"; a serving layer needs the *budgeted* form of that answer: given a
//! real-time interval (an LTE subframe, a slot), how many path-extension
//! work units can one cell's fabric retire before the next interval
//! starts? [`CellBudget`] binds a [`HeterogeneousFabric`] to an interval
//! and prices capacity in the same units the engine's planner prices
//! batches (`Detector::extension_work() × symbols`), so admission control
//! and overload detection in `flexcore-sim`'s city layer compare offered
//! load against capacity without ever leaving the unit system the
//! scheduler plans in.

use crate::fabric::{HeterogeneousFabric, PeCost, WorkUnit};

/// One cell's processing budget: a PE fabric plus the real-time interval
/// it must serve within.
///
/// ```
/// use flexcore_hwmodel::{CellBudget, CpuModel, WorkUnit};
/// let b = CellBudget::lte_subframe();
/// // The LTE small-cell fabric retires tens of thousands of 4×4 16-QAM
/// // path-extension units per 1 ms subframe on the FX-8120 cost model.
/// let cap = b.capacity_units(&CpuModel::fx8120(), &WorkUnit::new(4, 16));
/// assert!(cap > 10_000.0 && cap < 1_000_000.0, "{cap}");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CellBudget {
    /// The cell's PE fabric.
    pub fabric: HeterogeneousFabric,
    /// The scheduling interval in seconds (e.g. `1e-3` for an LTE
    /// subframe): detection queued in one interval should drain within it,
    /// or the cell is falling behind.
    pub subframe_s: f64,
}

impl CellBudget {
    /// A budget from an explicit fabric and interval.
    ///
    /// # Panics
    /// Panics unless `subframe_s` is finite and strictly positive.
    ///
    /// ```
    /// use flexcore_hwmodel::{CellBudget, HeterogeneousFabric};
    /// let b = CellBudget::new(HeterogeneousFabric::uniform("u", 4), 5e-4);
    /// assert_eq!(b.subframe_s, 5e-4);
    /// ```
    pub fn new(fabric: HeterogeneousFabric, subframe_s: f64) -> Self {
        assert!(
            subframe_s.is_finite() && subframe_s > 0.0,
            "CellBudget: bad interval {subframe_s}"
        );
        CellBudget { fabric, subframe_s }
    }

    /// The canonical small-cell budget: the 2-fast-DSP + 6-slow-ARM LTE
    /// fabric ([`HeterogeneousFabric::lte_smallcell`]) serving 1 ms LTE
    /// subframes — the per-cell deployment shape the city simulation
    /// calibrates against.
    ///
    /// ```
    /// use flexcore_hwmodel::CellBudget;
    /// let b = CellBudget::lte_subframe();
    /// assert_eq!((b.fabric.n_pes(), b.subframe_s), (8, 1e-3));
    /// ```
    pub fn lte_subframe() -> Self {
        Self::new(HeterogeneousFabric::lte_smallcell(), 1e-3)
    }

    /// How many path-extension work units the fabric retires per interval
    /// under perfect packing: `total_speed · subframe_s / unit_seconds`.
    /// The realised capacity is this times the scheduler's packing
    /// efficiency (LPT on a handful of unequal batches typically lands
    /// within a few percent of 1).
    ///
    /// ```
    /// use flexcore_hwmodel::{CellBudget, CpuModel, PeCost, WorkUnit};
    /// let b = CellBudget::lte_subframe();
    /// let (cpu, w) = (CpuModel::fx8120(), WorkUnit::new(4, 16));
    /// let want = b.fabric.total_speed() * 1e-3 / cpu.unit_seconds(&w);
    /// assert_eq!(b.capacity_units(&cpu, &w), want);
    /// ```
    pub fn capacity_units(&self, cost: &impl PeCost, work: &WorkUnit) -> f64 {
        self.fabric.total_speed() * self.subframe_s / cost.unit_seconds(work)
    }

    /// Offered load as a fraction of capacity: `units / capacity_units`.
    /// Values above 1.0 mean the interval's offered work cannot drain
    /// within the interval even under perfect packing — the overload
    /// region the shedding policy exists for.
    ///
    /// ```
    /// use flexcore_hwmodel::{CellBudget, CpuModel, WorkUnit};
    /// let b = CellBudget::lte_subframe();
    /// let (cpu, w) = (CpuModel::fx8120(), WorkUnit::new(4, 16));
    /// let cap = b.capacity_units(&cpu, &w);
    /// let u = b.utilization(1.5 * cap, &cpu, &w);
    /// assert!((u - 1.5).abs() < 1e-12);
    /// ```
    pub fn utilization(&self, units: f64, cost: &impl PeCost, work: &WorkUnit) -> f64 {
        units / self.capacity_units(cost, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::CpuModel;

    #[test]
    fn lte_subframe_capacity_matches_hand_calculation() {
        // FX-8120 at nt=4: 48 · 4 · 7 / 2 = 672 cycles/unit at 3.1 GHz;
        // total speed 14, 1 ms subframe.
        let b = CellBudget::lte_subframe();
        let cap = b.capacity_units(&CpuModel::fx8120(), &WorkUnit::new(4, 16));
        let want = 14.0 * 1e-3 / (672.0 / 3.1e9);
        assert!((cap - want).abs() / want < 1e-12, "{cap} vs {want}");
    }

    #[test]
    fn capacity_scales_linearly_with_interval_and_speed() {
        let cpu = CpuModel::fx8120();
        let w = WorkUnit::new(4, 16);
        let one = CellBudget::new(HeterogeneousFabric::uniform("u", 4), 1e-3);
        let twice_time = CellBudget::new(HeterogeneousFabric::uniform("u", 4), 2e-3);
        let twice_pes = CellBudget::new(HeterogeneousFabric::uniform("u", 8), 1e-3);
        let c1 = one.capacity_units(&cpu, &w);
        assert!((twice_time.capacity_units(&cpu, &w) - 2.0 * c1).abs() < 1e-9);
        assert!((twice_pes.capacity_units(&cpu, &w) - 2.0 * c1).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_the_inverse_of_capacity() {
        let b = CellBudget::lte_subframe();
        let cpu = CpuModel::fx8120();
        let w = WorkUnit::new(4, 16);
        let cap = b.capacity_units(&cpu, &w);
        assert!((b.utilization(cap, &cpu, &w) - 1.0).abs() < 1e-12);
        assert!(b.utilization(0.0, &cpu, &w) == 0.0);
    }

    #[test]
    #[should_panic(expected = "bad interval")]
    fn non_positive_interval_is_rejected() {
        let _ = CellBudget::new(HeterogeneousFabric::uniform("u", 1), 0.0);
    }
}

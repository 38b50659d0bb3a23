//! Scheduling onto *non-uniform* processing elements.
//!
//! [`lpt_order`](crate::lpt_order) assumes identical PEs: handing the
//! sorted list to greedy workers is then a 4/3-approximation. Real fabrics
//! are not identical — an FPGA pairs DSP slices with soft logic, a
//! base-station SoC pairs DSP cores with ARM cores — so this module adds
//! the *uniform machines* (`Q||C_max`) variant: every PE carries a **speed
//! factor**, and LPT assigns each task to the PE that would *finish it
//! earliest* given current loads ([`lpt_makespan_weighted`] reads the
//! resulting makespan).
//!
//! [`WeightedPool`] is the execution substrate: a *simulated* heterogeneous
//! pool in the same spirit as
//! [`SequentialPool`](crate::SequentialPool) — tasks run on the calling
//! thread (results therefore bit-identical to any other pool), while
//! placement and per-task wall clocks are recorded in a [`ScheduledRun`],
//! which audits predicted-vs-measured makespan and per-PE utilisation.
//! Speed factors typically come from
//! `flexcore_hwmodel::HeterogeneousFabric::speed_factors()`.

use crate::pool::{PePool, WorkStats};
use parking_lot::Mutex;
use std::time::Instant;

/// Longest-processing-time-first list scheduling for **uniform machines**:
/// tasks are visited most-expensive-first ([`lpt_order`](crate::lpt_order))
/// and each goes to the PE that would finish it earliest —
/// `argmin_pe (load_pe + cost) / speed_pe`, ties to the lowest PE index.
/// Returns `assignment[task] = pe` and each PE's finish time in work
/// units per unit speed (`Σ assigned costs / speed`).
///
/// With all speeds equal this is the identical-machines rule (least-loaded
/// PE first). It is *placement only*: executing tasks in any order with
/// any placement yields bit-identical results, only the modelled latency
/// changes.
///
/// # Panics
/// Panics if `speeds` is empty or contains a non-positive / non-finite
/// factor.
fn lpt_assign_weighted(costs: &[u64], speeds: &[f64]) -> (Vec<usize>, Vec<f64>) {
    assert!(!speeds.is_empty(), "lpt_assign_weighted: zero PEs");
    for &s in speeds {
        assert!(
            s.is_finite() && s > 0.0,
            "lpt_assign_weighted: bad speed {s}"
        );
    }
    let mut loads = vec![0u64; speeds.len()];
    let mut assignment = vec![0usize; costs.len()];
    for task in crate::pool::lpt_order(costs) {
        let cost = costs[task];
        let mut best_pe = 0usize;
        let mut best_finish = f64::INFINITY;
        for (pe, (&load, &speed)) in loads.iter().zip(speeds).enumerate() {
            let finish = (load + cost) as f64 / speed;
            if finish < best_finish {
                best_finish = finish;
                best_pe = pe;
            }
        }
        assignment[task] = best_pe;
        loads[best_pe] += cost;
    }
    let finish_units = loads
        .iter()
        .zip(speeds)
        .map(|(&l, &s)| l as f64 / s)
        .collect();
    (assignment, finish_units)
}

/// The largest entry of `values`, 0 when empty.
fn max_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Modelled makespan of weighted LPT scheduling (each task, most
/// expensive first, goes to the PE that would finish it earliest), in
/// work units per unit speed. With unit speeds it is the classic
/// identical-machines LPT makespan.
///
/// ```
/// use flexcore_parallel::lpt_makespan_weighted;
/// let costs = [7, 6, 5, 4, 3];
/// // Two identical PEs: greedy LPT packs 7+4+3 | 6+5.
/// assert_eq!(lpt_makespan_weighted(&costs, &[1.0, 1.0]), 14.0);
/// // A faster pair of PEs shrinks it.
/// assert!(lpt_makespan_weighted(&costs, &[2.0, 2.0]) < 14.0);
/// // One PE twice as fast as the other: the heavy task goes fast.
/// assert_eq!(lpt_makespan_weighted(&[8, 2], &[1.0, 2.0]), 4.0); // max(2/1, 8/2)
/// ```
///
/// # Panics
/// Panics if `speeds` is empty or contains a non-positive / non-finite
/// factor.
pub fn lpt_makespan_weighted(costs: &[u64], speeds: &[f64]) -> f64 {
    max_of(&lpt_assign_weighted(costs, speeds).1)
}

/// The record of one priced [`WeightedPool`] batch
/// ([`PePool::run_priced`]) and its audit: where every task was placed,
/// how long it actually took, and how well the prices predicted that.
///
/// "Measured" quantities divide each task's wall-clock seconds by its
/// assigned PE's speed factor, i.e. they answer *"how long would this
/// batch have taken on the modelled fabric, given the work each task
/// actually turned out to be?"* — which is exactly what a predicted
/// makespan must be compared against. The prediction's price in
/// modelled-hardware seconds is `makespan_units × PeCost::unit_seconds`,
/// computed by whoever holds the cost model.
///
/// ```
/// use flexcore_parallel::{PePool, WeightedPool};
/// // 2 fast + 6 slow PEs, the LTE small-cell shape.
/// let pool = WeightedPool::new(vec![4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
/// pool.run_priced(vec![|| 1u8, || 2, || 3], &[40, 4, 4]);
/// let run = pool.last_run().expect("a priced run was recorded");
/// assert_eq!((run.speeds.len(), run.total_units()), (8, 48));
/// assert_eq!(run.makespan_units, 10.0); // 40 units on a 4x PE
/// ```
#[derive(Clone, Debug)]
pub struct ScheduledRun {
    /// The per-PE speed factors the batch was placed on.
    pub speeds: Vec<f64>,
    /// The prices the batch was placed by, in task order (the caller's
    /// units).
    pub costs: Vec<u64>,
    /// `assignment[task] = pe` — which PE each task was booked to.
    pub assignment: Vec<usize>,
    /// The predicted makespan of the weighted-LPT placement, in work
    /// units per unit speed.
    pub makespan_units: f64,
    /// Wall-clock seconds each task took on the calling thread, in task
    /// order.
    pub task_seconds: Vec<f64>,
    /// Per-PE busy time: `Σ task_seconds / speed` over assigned tasks.
    pub busy_s: Vec<f64>,
    /// `max(busy_s)` — the measured-work makespan of the batch on the
    /// modelled fabric.
    pub measured_makespan_s: f64,
}

impl ScheduledRun {
    /// Measured per-PE utilisation: busy time over the measured makespan,
    /// 1.0 for the critical PE; all-zero when nothing ran.
    pub fn utilization(&self) -> Vec<f64> {
        if self.measured_makespan_s <= 0.0 {
            return vec![0.0; self.busy_s.len()];
        }
        self.busy_s
            .iter()
            .map(|&b| b / self.measured_makespan_s)
            .collect()
    }

    /// Total measured work in seconds (`Σ task_seconds`, speed-unscaled) —
    /// the calibration denominator for unit-cost models.
    pub fn total_task_seconds(&self) -> f64 {
        self.task_seconds.iter().sum()
    }

    /// Total predicted work, `Σ costs`, in the caller's units.
    pub fn total_units(&self) -> u64 {
        self.costs.iter().sum()
    }

    /// `total_units / (Σ speeds · makespan_units)` — 1.0 when the tasks
    /// pack the fabric perfectly (or nothing ran), less when one
    /// expensive task strands the rest of the pool.
    pub fn packing_efficiency(&self) -> f64 {
        if self.makespan_units <= 0.0 {
            return 1.0;
        }
        self.total_units() as f64 / (self.speeds.iter().sum::<f64>() * self.makespan_units)
    }

    /// The predicted makespan in measured-host seconds: `makespan_units`
    /// calibrated by the run's own mean cost per unit
    /// (`Σ task_seconds / total_units`), i.e. the prediction with the
    /// host's absolute speed divided out. Compare against
    /// [`ScheduledRun::measured_makespan_s`].
    pub fn predicted_makespan_s(&self) -> f64 {
        match self.total_units() {
            0 => 0.0,
            units => self.makespan_units * (self.total_task_seconds() / units as f64),
        }
    }

    /// `|predicted − measured| / measured` over the two host-second
    /// makespans — how much the relative cost model (price proportional
    /// to real work) misplaced the critical path. 0 when nothing ran.
    pub fn makespan_error(&self) -> f64 {
        if self.measured_makespan_s <= 0.0 {
            return 0.0;
        }
        (self.predicted_makespan_s() - self.measured_makespan_s).abs() / self.measured_makespan_s
    }
}

/// A *simulated* pool of non-uniform processing elements.
///
/// Like [`SequentialPool`](crate::SequentialPool), tasks execute in order
/// on the calling thread — results are bit-identical to every other
/// substrate, which is what keeps heterogeneous scheduling auditable — but
/// the pool carries per-PE **speed factors**, and a priced run
/// ([`PePool::run_priced`]) additionally places each task with the
/// uniform-machines LPT rule and times it. The record of the most recent
/// priced run stays readable through [`WeightedPool::last_run`], so callers
/// can compare the predicted makespan against the measured one and report
/// per-PE utilisation.
///
/// ```
/// use flexcore_parallel::{PePool, WeightedPool};
/// let pool = WeightedPool::new(vec![4.0, 1.0, 1.0]);
/// assert_eq!(pool.n_pes(), 3);
/// let out = pool.run_priced((0..5).map(|i| move || i * 2).collect::<Vec<_>>(), &[5, 4, 3, 2, 1]);
/// assert_eq!(out, vec![0, 2, 4, 6, 8]);
/// let run = pool.last_run().expect("a priced run was recorded");
/// assert_eq!(run.assignment[0], 0); // the heaviest task went to the fast PE
/// assert_eq!(run.costs, [5, 4, 3, 2, 1]);
/// ```
#[derive(Debug)]
pub struct WeightedPool {
    speeds: Vec<f64>,
    stats: WorkStats,
    last_run: Mutex<Option<ScheduledRun>>,
}

impl WeightedPool {
    /// A pool with one PE per speed factor.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or contains a non-positive /
    /// non-finite factor.
    ///
    /// ```
    /// use flexcore_parallel::WeightedPool;
    /// let pool = WeightedPool::new(vec![4.0, 4.0, 1.0]);
    /// assert_eq!(pool.speeds(), &[4.0, 4.0, 1.0]);
    /// ```
    pub fn new(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty(), "WeightedPool: zero PEs");
        for &s in &speeds {
            assert!(s.is_finite() && s > 0.0, "WeightedPool: bad speed {s}");
        }
        WeightedPool {
            speeds,
            stats: WorkStats::default(),
            last_run: Mutex::new(None),
        }
    }

    /// The per-PE speed factors.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The record of the most recent [`PePool::run_priced`] batch, `None`
    /// before the first one. Unpriced [`PePool::run`] batches leave it
    /// untouched.
    pub fn last_run(&self) -> Option<ScheduledRun> {
        self.last_run.lock().clone()
    }
}

impl PePool for WeightedPool {
    fn n_pes(&self) -> usize {
        self.speeds.len()
    }

    fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.stats.record(tasks.len());
        tasks.into_iter().map(|t| t()).collect()
    }

    /// Runs every task (in task order, on the calling thread), placing the
    /// batch on the fabric with the uniform-machines LPT rule over `costs`
    /// and timing each task; the [`ScheduledRun`] record replaces
    /// [`WeightedPool::last_run`].
    ///
    /// Placement never touches results — it only decides which modelled PE
    /// each task's measured seconds are booked to.
    ///
    /// # Panics
    /// Panics if `costs.len() != tasks.len()`.
    fn run_priced<T, F>(&self, tasks: Vec<F>, costs: &[u64]) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        assert_eq!(
            tasks.len(),
            costs.len(),
            "run_priced: {} tasks but {} costs",
            tasks.len(),
            costs.len()
        );
        self.stats.record(tasks.len());
        let (assignment, finish_units) = lpt_assign_weighted(costs, &self.speeds);
        let mut results = Vec::with_capacity(tasks.len());
        let mut task_seconds = Vec::with_capacity(tasks.len());
        for task in tasks {
            let t0 = Instant::now();
            results.push(task());
            task_seconds.push(t0.elapsed().as_secs_f64());
        }
        let mut busy_s = vec![0.0f64; self.speeds.len()];
        for (task, &pe) in assignment.iter().enumerate() {
            busy_s[pe] += task_seconds[task] / self.speeds[pe];
        }
        *self.last_run.lock() = Some(ScheduledRun {
            speeds: self.speeds.clone(),
            costs: costs.to_vec(),
            assignment,
            makespan_units: max_of(&finish_units),
            task_seconds,
            measured_makespan_s: max_of(&busy_s),
            busy_s,
        });
        results
    }

    fn stats(&self) -> &WorkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_pe_attracts_the_long_task() {
        // 2 fast + 6 slow (the LTE small-cell shape): the heaviest tasks
        // must land on the fast PEs.
        let speeds = [4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let costs = [40u64, 40, 4, 4, 4, 4, 4, 4];
        let (assignment, finish_units) = lpt_assign_weighted(&costs, &speeds);
        assert_eq!(assignment[0], 0);
        assert_eq!(assignment[1], 1);
        // Finish times stay balanced: makespan 10 (40/4), everyone busy.
        assert_eq!(max_of(&finish_units), 10.0);
        for (pe, &f) in finish_units.iter().enumerate() {
            assert!(f > 0.0, "PE {pe} idle: {finish_units:?}");
        }
    }

    #[test]
    fn identical_machines_would_strand_the_long_task() {
        // Same workload on 8 *equal* PEs of matched total speed (14/8 each)
        // cannot beat the heterogeneous placement: the 40-unit task alone
        // pins the makespan at 40/(14/8) ≈ 22.9 > 10.
        let costs = [40u64, 40, 4, 4, 4, 4, 4, 4];
        let hetero = lpt_makespan_weighted(&costs, &[4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let uniform = lpt_makespan_weighted(&costs, &[14.0 / 8.0; 8]);
        assert!(
            hetero < uniform,
            "heterogeneous {hetero} should beat speed-matched uniform {uniform}"
        );
    }

    #[test]
    fn weighted_schedule_is_a_partition() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let speeds = [2.0, 1.0, 0.5];
        let (assignment, finish_units) = lpt_assign_weighted(&costs, &speeds);
        assert_eq!(assignment.len(), costs.len());
        assert!(assignment.iter().all(|&pe| pe < speeds.len()));
        // Loads reconstruct the finish times exactly.
        let mut loads = vec![0u64; speeds.len()];
        for (task, &pe) in assignment.iter().enumerate() {
            loads[pe] += costs[task];
        }
        for (pe, (&load, &speed)) in loads.iter().zip(&speeds).enumerate() {
            assert_eq!(finish_units[pe], load as f64 / speed);
        }
    }

    #[test]
    fn makespan_lower_bounds_hold() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let speeds = [3.0, 2.0, 1.0, 1.0];
        let span = lpt_makespan_weighted(&costs, &speeds);
        let total: u64 = costs.iter().sum();
        let total_speed: f64 = speeds.iter().sum();
        assert!(span >= total as f64 / total_speed, "area bound");
        // The longest task on the fastest PE bounds from below too.
        assert!(span >= 9.0 / 3.0, "critical-task bound");
    }

    #[test]
    fn empty_batch_and_degenerate_shapes() {
        let (_, finish_units) = lpt_assign_weighted(&[], &[1.0, 2.0]);
        assert_eq!(max_of(&finish_units), 0.0);
        assert_eq!(finish_units, vec![0.0, 0.0]);
        let (_, one) = lpt_assign_weighted(&[5], &[0.5]);
        assert_eq!(max_of(&one), 10.0);
        assert_eq!(one, vec![10.0]);
    }

    #[test]
    #[should_panic(expected = "zero PEs")]
    fn weighted_rejects_zero_pes() {
        let _ = lpt_assign_weighted(&[1], &[]);
    }

    #[test]
    #[should_panic(expected = "bad speed")]
    fn weighted_rejects_bad_speed() {
        let _ = lpt_assign_weighted(&[1], &[1.0, -2.0]);
    }

    fn square_tasks(n: usize) -> Vec<impl FnOnce() -> usize + Send> {
        (0..n).map(|i| move || i * i).collect()
    }

    #[test]
    fn priced_run_returns_results_in_task_order_and_records_the_run() {
        let pool = WeightedPool::new(vec![2.0, 1.0]);
        assert!(pool.last_run().is_none(), "no priced run yet");
        pool.run(square_tasks(3));
        assert!(pool.last_run().is_none(), "an unpriced run records nothing");
        let costs: Vec<u64> = (0..10).map(|i| 10 - i as u64).collect();
        let out = pool.run_priced(square_tasks(10), &costs);
        let run = pool.last_run().expect("priced run recorded");
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(run.costs, costs);
        let (assignment, finish_units) = lpt_assign_weighted(&costs, pool.speeds());
        assert_eq!(run.assignment, assignment);
        assert_eq!(run.makespan_units, max_of(&finish_units));
        assert_eq!(run.speeds, pool.speeds());
        assert_eq!(run.task_seconds.len(), 10);
        assert!(run.task_seconds.iter().all(|&t| t >= 0.0));
        assert_eq!(run.busy_s.len(), 2);
        assert!(run.measured_makespan_s >= *run.busy_s.first().unwrap() - 1e-15);
        assert!(run.total_task_seconds() >= run.task_seconds[0]);
        // Utilisation is bounded and someone hits 1.0.
        let util = run.utilization();
        assert!(util.iter().all(|&u| (0.0..=1.0 + 1e-12).contains(&u)));
        assert!(util.iter().any(|&u| (u - 1.0).abs() < 1e-12));
    }

    #[test]
    fn priced_run_of_an_empty_batch() {
        let pool = WeightedPool::new(vec![1.0; 4]);
        let out = pool.run_priced(Vec::<fn() -> usize>::new(), &[]);
        let run = pool.last_run().expect("priced run recorded");
        assert!(out.is_empty());
        assert_eq!(run.measured_makespan_s, 0.0);
        assert_eq!(run.utilization(), vec![0.0; 4]);
        assert_eq!(run.total_units(), 0);
        assert_eq!(run.makespan_error(), 0.0);
        assert_eq!(run.packing_efficiency(), 1.0);
    }

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
        assert_eq!(run.speeds.len(), 2);
        assert_eq!(run.total_units(), 1000);
        assert!(run.makespan_units > 0.0);
        assert!(run.packing_efficiency() > 0.5 && run.packing_efficiency() <= 1.0);
        assert!(
            run.makespan_error() < 0.25,
            "spin-loop work should be predictable: error {}",
            run.makespan_error()
        );
        let util = run.utilization();
        assert_eq!(util.len(), 2);
        assert!(util.iter().any(|&u| (u - 1.0).abs() < 1e-9));
    }

    #[test]
    #[should_panic(expected = "tasks but")]
    fn priced_run_rejects_cost_mismatch() {
        let pool = WeightedPool::new(vec![1.0; 2]);
        let _ = pool.run_priced(square_tasks(3), &[1, 2]);
    }
}

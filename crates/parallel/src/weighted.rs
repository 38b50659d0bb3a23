//! Scheduling onto *non-uniform* processing elements.
//!
//! [`lpt_order`](crate::lpt_order) assumes identical PEs: handing the
//! sorted list to greedy workers is then a 4/3-approximation. Real fabrics
//! are not identical — an FPGA pairs DSP slices with soft logic, a
//! base-station SoC pairs DSP cores with ARM cores — so this module adds
//! the *uniform machines* (`Q||C_max`) variant: every PE carries a **speed
//! factor**, and LPT assigns each task to the PE that would *finish it
//! earliest* given current loads ([`lpt_assign_weighted`]).
//!
//! [`WeightedPool`] is the execution substrate: a *simulated* heterogeneous
//! pool in the same spirit as
//! [`SequentialPool`](crate::SequentialPool) — tasks run on the calling
//! thread (results therefore bit-identical to any other pool), while
//! placement, per-PE finish times and per-task wall clocks are recorded so
//! the frame engine can report predicted-vs-measured makespan and per-PE
//! utilisation. Speed factors typically come from
//! `flexcore_hwmodel::HeterogeneousFabric::speed_factors()`.

use crate::pool::{PePool, WorkStats};
use parking_lot::Mutex;
use std::time::Instant;

/// Placement of one task batch onto non-uniform PEs, plus the modelled
/// finish times. Produced by [`lpt_assign_weighted`]; consumed by
/// [`WeightedPool`]'s priced runs and the frame engine's fabric stats.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedSchedule {
    /// Task indices in the order the scheduler visited them (LPT:
    /// most expensive first, ties in submission order).
    pub order: Vec<usize>,
    /// `assignment[task] = pe` — which PE each task landed on.
    pub assignment: Vec<usize>,
    /// Per-PE finish time in *work units per unit speed*
    /// (`Σ assigned costs / speed`).
    pub finish_units: Vec<f64>,
    /// `max(finish_units)` — the modelled makespan of the batch.
    pub makespan_units: f64,
}

impl WeightedSchedule {
    /// Modelled per-PE utilisation: each PE's busy time over the makespan
    /// (1.0 for the critical PE; 0.0 for an idle one). Empty batches
    /// report all-zero.
    ///
    /// ```
    /// use flexcore_parallel::lpt_assign_weighted;
    /// let s = lpt_assign_weighted(&[4, 4], &[1.0, 1.0, 1.0]);
    /// let util = s.utilization();
    /// assert_eq!(util, vec![1.0, 1.0, 0.0]); // two tasks, three PEs
    /// ```
    pub fn utilization(&self) -> Vec<f64> {
        if self.makespan_units <= 0.0 {
            return vec![0.0; self.finish_units.len()];
        }
        self.finish_units
            .iter()
            .map(|&f| f / self.makespan_units)
            .collect()
    }
}

/// Longest-processing-time-first list scheduling for **uniform machines**:
/// tasks are visited most-expensive-first ([`lpt_order`](crate::lpt_order))
/// and each goes to the PE that would finish it earliest —
/// `argmin_pe (load_pe + cost) / speed_pe`, ties to the lowest PE index.
///
/// With all speeds equal this is the identical-machines rule (least-loaded
/// PE first) that [`lpt_makespan`](crate::lpt_makespan) reads its makespan
/// from. It is *placement only*: executing tasks in any order with any
/// placement yields bit-identical results, only the modelled latency
/// changes.
///
/// ```
/// use flexcore_parallel::lpt_assign_weighted;
/// // One PE twice as fast as the other: the heavy task goes fast.
/// let s = lpt_assign_weighted(&[8, 2], &[1.0, 2.0]);
/// assert_eq!(s.assignment, vec![1, 0]);
/// assert_eq!(s.makespan_units, 4.0); // max(2/1, 8/2)
/// ```
///
/// # Panics
/// Panics if `speeds` is empty or contains a non-positive / non-finite
/// factor.
pub fn lpt_assign_weighted(costs: &[u64], speeds: &[f64]) -> WeightedSchedule {
    assert!(!speeds.is_empty(), "lpt_assign_weighted: zero PEs");
    for &s in speeds {
        assert!(
            s.is_finite() && s > 0.0,
            "lpt_assign_weighted: bad speed {s}"
        );
    }
    let order = crate::pool::lpt_order(costs);
    let mut loads = vec![0u64; speeds.len()];
    let mut assignment = vec![0usize; costs.len()];
    for &task in &order {
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
    let finish_units: Vec<f64> = loads
        .iter()
        .zip(speeds)
        .map(|(&l, &s)| l as f64 / s)
        .collect();
    let makespan_units = finish_units.iter().copied().fold(0.0, f64::max);
    WeightedSchedule {
        order,
        assignment,
        finish_units,
        makespan_units,
    }
}

/// Modelled makespan of weighted LPT scheduling — the uniform-machines
/// analogue of [`lpt_makespan`](crate::lpt_makespan), in work units per
/// unit speed.
///
/// ```
/// use flexcore_parallel::{lpt_makespan, lpt_makespan_weighted};
/// let costs = [7, 6, 5, 4, 3];
/// // Equal speeds reproduce the identical-machines makespan exactly.
/// assert_eq!(lpt_makespan_weighted(&costs, &[1.0, 1.0]), lpt_makespan(&costs, 2) as f64);
/// // A faster pair of PEs shrinks it.
/// assert!(lpt_makespan_weighted(&costs, &[2.0, 2.0]) < lpt_makespan(&costs, 2) as f64);
/// ```
pub fn lpt_makespan_weighted(costs: &[u64], speeds: &[f64]) -> f64 {
    lpt_assign_weighted(costs, speeds).makespan_units
}

/// The record of one priced [`WeightedPool`] batch
/// ([`PePool::run_priced`]): where every task was placed, how long it
/// actually took, and the resulting modelled-parallel timings.
///
/// "Measured" quantities divide each task's wall-clock seconds by its
/// assigned PE's speed factor, i.e. they answer *"how long would this
/// batch have taken on the modelled fabric, given the work each task
/// actually turned out to be?"* — which is exactly what a predicted
/// makespan must be compared against.
#[derive(Clone, Debug)]
pub struct ScheduledRun {
    /// The placement the batch executed under.
    pub schedule: WeightedSchedule,
    /// The prices the batch was placed by, in task order (the caller's
    /// units).
    pub costs: Vec<u64>,
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
    /// Measured per-PE utilisation: busy time over the measured makespan.
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
}

/// A *simulated* pool of non-uniform processing elements.
///
/// Like [`SequentialPool`](crate::SequentialPool), tasks execute in order
/// on the calling thread — results are bit-identical to every other
/// substrate, which is what keeps heterogeneous scheduling auditable — but
/// the pool carries per-PE **speed factors**, and a priced run
/// ([`PePool::run_priced`]) additionally places each task with
/// [`lpt_assign_weighted`] and times it. The record of the most recent
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
/// assert_eq!(run.schedule.assignment[0], 0); // the heaviest task went to the fast PE
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
    /// batch on the fabric with [`lpt_assign_weighted`] over `costs` and
    /// timing each task; the [`ScheduledRun`] record replaces
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
        let schedule = lpt_assign_weighted(costs, &self.speeds);
        let mut results = Vec::with_capacity(tasks.len());
        let mut task_seconds = Vec::with_capacity(tasks.len());
        for task in tasks {
            let t0 = Instant::now();
            results.push(task());
            task_seconds.push(t0.elapsed().as_secs_f64());
        }
        let mut busy_s = vec![0.0f64; self.speeds.len()];
        for (task, &pe) in schedule.assignment.iter().enumerate() {
            busy_s[pe] += task_seconds[task] / self.speeds[pe];
        }
        let measured_makespan_s = busy_s.iter().copied().fold(0.0, f64::max);
        *self.last_run.lock() = Some(ScheduledRun {
            schedule,
            costs: costs.to_vec(),
            task_seconds,
            busy_s,
            measured_makespan_s,
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
        let s = lpt_assign_weighted(&costs, &speeds);
        assert_eq!(s.assignment[0], 0);
        assert_eq!(s.assignment[1], 1);
        // Finish times stay balanced: makespan 10 (40/4), everyone busy.
        assert_eq!(s.makespan_units, 10.0);
        for (pe, &f) in s.finish_units.iter().enumerate() {
            assert!(f > 0.0, "PE {pe} idle: {:?}", s.finish_units);
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
        let s = lpt_assign_weighted(&costs, &speeds);
        assert_eq!(s.assignment.len(), costs.len());
        assert!(s.assignment.iter().all(|&pe| pe < speeds.len()));
        // Loads reconstruct the finish times exactly.
        let mut loads = vec![0u64; speeds.len()];
        for (task, &pe) in s.assignment.iter().enumerate() {
            loads[pe] += costs[task];
        }
        for (pe, (&load, &speed)) in loads.iter().zip(&speeds).enumerate() {
            assert_eq!(s.finish_units[pe], load as f64 / speed);
        }
        // Order is the LPT permutation.
        let mut sorted = s.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..costs.len()).collect::<Vec<_>>());
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
        let s = lpt_assign_weighted(&[], &[1.0, 2.0]);
        assert_eq!(s.makespan_units, 0.0);
        assert_eq!(s.utilization(), vec![0.0, 0.0]);
        let one = lpt_assign_weighted(&[5], &[0.5]);
        assert_eq!(one.makespan_units, 10.0);
        assert_eq!(one.utilization(), vec![1.0]);
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
        assert_eq!(run.schedule, lpt_assign_weighted(&costs, pool.speeds()));
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
    }

    #[test]
    #[should_panic(expected = "tasks but")]
    fn priced_run_rejects_cost_mismatch() {
        let pool = WeightedPool::new(vec![1.0; 2]);
        let _ = pool.run_priced(square_tasks(3), &[1, 2]);
    }
}

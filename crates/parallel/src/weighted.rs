//! Modelled placement onto *non-uniform* processing elements.
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
//! Placement is a pure function of the prices and the speeds, so no pool
//! carries it: a caller prices a plan, reads its makespan here, and runs
//! the same tasks on any [`PePool`](crate::PePool) — results never depend
//! on where a task would have landed. Speed factors typically come from
//! `flexcore_hwmodel::LTE_SMALLCELL_SPEEDS`.

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
}

//! The pre-processing tree search (§3.1.1).
//!
//! Given the per-level error model, find the `N_PE` position vectors with
//! the highest path likelihood `Pc`. Exhaustive enumeration is intractable
//! (`|Q|^Nt` candidates), so the paper introduces a dedicated best-first
//! search over a *pre-processing tree* (distinct from the sphere-decoder
//! tree, Fig. 5):
//!
//! * the root is the all-ones vector — always the most promising;
//! * the `w`-th child of a node increments the `w`-th entry;
//! * a node generated by incrementing entry `l` only spawns children for
//!   entries `w ≤ l`, which makes every position vector reachable exactly
//!   once (increments form a non-increasing index sequence);
//! * a child's likelihood is the parent's times `Pe(w)` — one real
//!   multiplication (we count these for Table 2);
//! * traversal always expands the candidate-list node with the highest
//!   `Pc`; the list is pruned to `N_PE` entries whenever it grows beyond
//!   (here, to the number of selections still to make, which is tighter
//!   and selects the same set);
//! * an optional stopping criterion ends the search early once the
//!   selected set's cumulative probability passes a threshold — this is
//!   what powers **a-FlexCore**.
//!
//! Because parent `Pc` ≥ child `Pc` (each increment multiplies by
//! `Pe < 1`), best-first extraction yields the global top-`N_PE` set.
//!
//! `expand_batch > 1` models the paper's *parallel* pre-processing: the
//! `B` best candidates are expanded per iteration instead of one. §3.1.1
//! reports negligible loss for `N_PE / B ≥ 10`; the `ablation` driver and
//! the `batched_expansion_close_to_sequential` test quantify it here.

use crate::model::LevelErrorModel;
use crate::position::PositionVector;
use std::cell::RefCell;
use std::cmp::Ordering;

/// Configuration + entry point for the pre-processing search.
#[derive(Clone, Debug)]
pub struct Preprocessor {
    /// Number of position vectors to select (`N_PE`).
    pub(crate) n_pe: usize,
    /// Stop early once the cumulative probability of the selected set
    /// exceeds this (e.g. `Some(0.95)` for a-FlexCore). `None` = select
    /// exactly `n_pe` vectors (when that many exist). In `[0, 1]`:
    /// `FlexCoreDetector::new` checks its configuration's threshold.
    pub(crate) stop_threshold: Option<f64>,
    /// Nodes expanded per iteration (1 = the paper's sequential baseline;
    /// ≥ 1, checked with the threshold).
    pub(crate) expand_batch: usize,
}

impl Preprocessor {
    /// A sequential pre-processor selecting `n_pe` paths.
    pub fn new(n_pe: usize) -> Self {
        assert!(n_pe >= 1, "Preprocessor: n_pe must be >= 1");
        Preprocessor {
            n_pe,
            stop_threshold: None,
            expand_batch: 1,
        }
    }

    /// Runs the search for a constellation of `order` symbols.
    pub fn run(&self, model: &LevelErrorModel, order: usize) -> PreprocessOutput {
        let mut selection = Selection::default();
        self.run_into(model, order, &mut selection);
        let cumulative_prob = match self.stop_threshold {
            Some(_) => selection.cumulative_prob,
            None => prob_sum(&selection.ln_probs),
        };
        PreprocessOutput {
            paths: selection.position_vectors(model.levels()),
            cumulative_prob,
            real_mults: selection.real_mults,
            expanded_nodes: selection.expanded_nodes,
            ln_probs: selection.ln_probs,
        }
    }

    /// [`Preprocessor::run`] over an existing selection: a channel refresh
    /// overwrites the one it replaces, with no heap traffic once `out` has
    /// held a selection of this budget and this thread has searched at
    /// this budget and depth.
    ///
    /// A child is only ever generated from a node that has just been
    /// selected, so a candidate is stored as `(ln Pc, index of its selected
    /// parent, incremented row)`, and the selection as those `(parent,
    /// row)` links (`out.links`). The search reads the selected vectors'
    /// ranks — the constellation bound and the tie order — from a flat
    /// plane in this thread's workspace, next to its candidate list.
    ///
    /// Only a stopping threshold reads the running `Σ Pc`, so only a
    /// thresholded search keeps one: without a threshold,
    /// `out.cumulative_prob` is left `NaN` ([`prob_sum`] over
    /// `out.ln_probs` gives the same bits on demand).
    pub(crate) fn run_into(&self, model: &LevelErrorModel, order: usize, out: &mut Selection) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let levels = model.levels();
        let mut scratch = SEARCH_SCRATCH.take();
        let SearchScratch {
            candidates,
            popped,
            ranks,
        } = &mut scratch;
        let Selection {
            ln_probs, links, ..
        } = out;
        ln_probs.clear();
        ln_probs.reserve(self.n_pe);
        links.clear();
        links.reserve(self.n_pe);
        // The workspace is sized for the budget up front (the list never
        // outgrows it: it is cut back to the selections still to make as
        // soon as an insertion passes that), so a later search of this
        // budget and depth on this thread touches no heap, whatever its
        // channel.
        ranks.clear();
        ranks.reserve(self.n_pe * levels);
        popped.reserve(self.expand_batch.min(self.n_pe));
        // Candidate list L, kept sorted by descending ln-probability.
        candidates.clear();
        candidates.reserve(self.n_pe);
        candidates.push(Candidate {
            ln_pc: model.ln_root_prob(),
            parent: ROOT,
            row: levels as u32 - 1,
        });
        let mut cumulative = 0.0f64;
        let mut real_mults = 0u64;
        let mut expanded = 0u64;
        'outer: while ln_probs.len() < self.n_pe && !candidates.is_empty() {
            let batch = self
                .expand_batch
                .min(self.n_pe - ln_probs.len())
                .min(candidates.len());
            // Pop the `batch` most promising nodes.
            popped.clear();
            popped.extend(candidates.drain(..batch));
            for &Candidate { ln_pc, parent, row } in popped.iter() {
                let n = ln_probs.len();
                let at = n * levels;
                match parent {
                    ROOT => ranks.resize(at + levels, 1),
                    parent => {
                        let from = parent as usize * levels;
                        ranks.extend_from_within(from..from + levels);
                        ranks[at + row as usize] += 1;
                    }
                }
                ln_probs.push(ln_pc);
                links.push((parent, row));
                if let Some(t) = self.stop_threshold {
                    // flexcore-lint: allow(FL002, reason = "Σ Pc is defined in the linear domain; a fresh and an in-place search reach this one call with the same argument, and nothing compares its bits across hosts")
                    cumulative += ln_pc.exp();
                    if cumulative >= t {
                        break 'outer;
                    }
                }
                if ln_probs.len() == self.n_pe {
                    break 'outer;
                }
                // Expand: children for rows 0..=row (duplicate-free rule; the
                // root's `row` is the top one, allowing all). L is pruned as it grows (the paper's bound keeps it from
                // growing past N_PE entries): an entry at or past the
                // number of selections still to make is never popped,
                // since later insertions only push it further back.
                expanded += 1;
                let horizon = self.n_pe - ln_probs.len();
                for child_row in 0..=row {
                    if ranks[at + child_row as usize] as usize >= order {
                        continue; // rank cannot exceed |Q|
                    }
                    // Pc(child) = Pc(parent)·Pe(row): one real multiplication
                    // (an addition in our log domain, but Table 2 counts the
                    // linear-domain multiply).
                    let child = Candidate {
                        ln_pc: ln_pc + model.ln_pe(child_row as usize),
                        parent: n as u32,
                        row: child_row,
                    };
                    real_mults += 1;
                    insert_sorted(candidates, ranks, levels, child, horizon);
                }
            }
        }
        SEARCH_SCRATCH.set(scratch);
        out.cumulative_prob = self.stop_threshold.map_or(f64::NAN, |_| cumulative);
        out.real_mults = real_mults;
        out.expanded_nodes = expanded;
    }
}

/// `parent` of the root candidate, which has none.
pub(crate) const ROOT: u32 = u32::MAX;

/// `Σ exp(ln Pc)` over `ln_probs`, added in order from `0.0`: term for
/// term the running sum a thresholded search keeps, so for any prefix of
/// a selection it has the bits the search had at that point.
pub(crate) fn prob_sum(ln_probs: &[f64]) -> f64 {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    // flexcore-lint: allow(FL002, reason = "replays the search's own Σ exp(ln Pc) term for term; both sides are this host's exp on the same argument")
    ln_probs.iter().fold(0.0, |sum, lp| sum + lp.exp())
}

/// One entry of the candidate list: the vector `selected[parent]` with
/// entry `row` incremented (the all-ones root when `parent == ROOT`).
#[derive(Clone, Copy, Debug)]
struct Candidate {
    ln_pc: f64,
    parent: u32,
    row: u32,
}

/// What the search works in besides its output, sized by the first
/// search of a budget and depth on a thread and reused by every later
/// one.
#[derive(Default)]
struct SearchScratch {
    candidates: Vec<Candidate>,
    popped: Vec<Candidate>,
    /// The selected vectors' ranks, `levels` per vector in selection
    /// order.
    ranks: Vec<u32>,
}

thread_local! {
    /// The search's workspace, one per thread like the SQRD planes and
    /// the batch walk's scratch: only `prepare` uses it, so a band of
    /// prepared detectors shares it instead of keeping a set each. A
    /// search takes it out of the slot and puts it back.
    static SEARCH_SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::default());
}

/// Binary insertion keeping `list` sorted by descending ln-probability
/// (ties broken by the vector itself for determinism) and no longer than
/// `horizon`. The root is popped before anything is inserted, so every
/// candidate compared has a parent.
fn insert_sorted(
    list: &mut Vec<Candidate>,
    ranks: &[u32],
    levels: usize,
    item: Candidate,
    horizon: usize,
) {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let before_item = |e: &Candidate| {
        e.ln_pc > item.ln_pc
            || (e.ln_pc == item.ln_pc && cmp_vectors(ranks, levels, *e, item) != Ordering::Greater)
    };
    if list.len() >= horizon && list.last().is_some_and(before_item) {
        return; // would land past the horizon
    }
    let pos = list.partition_point(before_item);
    list.insert(pos, item);
    list.truncate(horizon);
}

/// Lexicographic order of two candidates' vectors, read off their
/// selected parents' ranks without materialising either.
fn cmp_vectors(ranks: &[u32], levels: usize, a: Candidate, b: Candidate) -> Ordering {
    let entries = |c: Candidate| {
        ranks[c.parent as usize * levels..][..levels]
            .iter()
            .enumerate()
            .map(move |(row, &rank)| rank + u32::from(row as u32 == c.row))
    };
    entries(a).cmp(entries(b))
}

/// Result of a pre-processing run.
#[derive(Clone, Debug, Default)]
pub struct PreprocessOutput {
    /// Selected position vectors in descending probability order. The set
    /// `E` of the paper.
    pub paths: Vec<PositionVector>,
    /// `ln Pc` of each selected vector, parallel to `paths`.
    pub ln_probs: Vec<f64>,
    /// `Σ Pc` over the selected set (linear domain).
    pub cumulative_prob: f64,
    /// Real multiplications performed (Table 2 accounting).
    pub real_mults: u64,
    /// Number of nodes expanded.
    pub expanded_nodes: u64,
}

/// A selection as the detector keeps it: no vectors, only how the search
/// reached each one ([`Preprocessor::run_into`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Selection {
    /// `ln Pc` of each selected vector, most promising first.
    pub(crate) ln_probs: Vec<f64>,
    /// How the search reached each selected vector, parallel to
    /// `ln_probs`: `(index of its selected parent, incremented row)`, with
    /// a [`ROOT`] parent for the all-ones root. The detector builds its
    /// path trie from these.
    pub(crate) links: Vec<(u32, u32)>,
    /// `Σ Pc` of a thresholded search at its cut, `NaN` without a
    /// threshold.
    pub(crate) cumulative_prob: f64,
    /// Real multiplications performed (Table 2 accounting).
    pub(crate) real_mults: u64,
    /// Number of nodes expanded.
    pub(crate) expanded_nodes: u64,
}

impl Selection {
    /// Selected vectors.
    pub(crate) fn len(&self) -> usize {
        self.links.len()
    }

    /// The selected vectors of `levels` levels, rebuilt from the links in
    /// selection order: each is its parent plus one at its row.
    pub(crate) fn position_vectors(&self, levels: usize) -> Vec<PositionVector> {
        let mut paths: Vec<PositionVector> = Vec::with_capacity(self.len());
        for &(parent, row) in &self.links {
            let path = match parent {
                ROOT => PositionVector::ones(levels),
                parent => paths[parent as usize].child(row as usize),
            };
            paths.push(path);
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn model(pe: &[f64]) -> LevelErrorModel {
        LevelErrorModel::from_pe(pe.to_vec())
    }

    #[test]
    fn root_is_always_first() {
        let m = model(&[0.3, 0.1, 0.2]);
        let out = Preprocessor::new(5).run(&m, 16);
        assert_eq!(out.paths[0], PositionVector::ones(3));
    }

    #[test]
    fn selection_is_descending_in_probability() {
        let m = model(&[0.25, 0.05, 0.4, 0.1]);
        let out = Preprocessor::new(32).run(&m, 16);
        assert_eq!(out.ln_probs.len(), out.paths.len());
        for w in out.ln_probs.windows(2) {
            assert!(w[0] >= w[1], "{} before {}", w[0], w[1]);
        }
    }

    #[test]
    fn no_duplicates() {
        let m = model(&[0.3, 0.3, 0.3]);
        let out = Preprocessor::new(64).run(&m, 16);
        let set: HashSet<_> = out.paths.iter().cloned().collect();
        assert_eq!(set.len(), out.paths.len());
    }

    #[test]
    fn matches_exhaustive_top_k() {
        // Brute-force all position vectors of a small system and compare.
        let m = model(&[0.35, 0.15, 0.25]);
        let order = 4usize;
        let mut all: Vec<(f64, Vec<u32>)> = Vec::new();
        for a in 1..=order as u32 {
            for b in 1..=order as u32 {
                for c in 1..=order as u32 {
                    let v = vec![a, b, c];
                    all.push((m.ln_path_prob(&v), v));
                }
            }
        }
        all.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
        let n_pe = 12;
        let out = Preprocessor::new(n_pe).run(&m, order);
        assert_eq!(out.paths.len(), n_pe);
        // The selected *probabilities* must match the exhaustive top-K
        // exactly (vectors may differ only among equal-probability ties).
        for (i, lp) in out.ln_probs.iter().enumerate() {
            assert!(
                (lp - all[i].0).abs() < 1e-9,
                "rank {i}: got {lp}, want {}",
                all[i].0
            );
        }
    }

    #[test]
    fn second_best_deepens_noisiest_level() {
        // §3.1's independent-channel conclusion: with Pe(levelA) > Pe(levelB)
        // the second-most-promising path takes the second closest symbol on
        // the *noisier* level.
        let m = model(&[0.05, 0.3]); // row 1 is noisier
        let out = Preprocessor::new(2).run(&m, 4);
        assert_eq!(out.paths[1].entries(), &[1, 2]);
    }

    #[test]
    fn respects_constellation_order_bound() {
        // With |Q| = 2, ranks must never exceed 2.
        let m = model(&[0.4, 0.4]);
        let out = Preprocessor::new(10).run(&m, 2);
        assert!(
            out.paths.len() <= 4,
            "only 4 vectors exist for 2 levels of BPSK"
        );
        for p in &out.paths {
            assert!(p.within_order(2));
        }
    }

    #[test]
    fn preprocessor_output_is_sorted_unique_and_bounded() {
        // Any level model and budget: at most `n_pe` distinct vectors,
        // the root first, `ln Pc` non-increasing, Σ Pc ≤ 1, every rank
        // within the constellation.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        for _ in 0..256 {
            let levels = rng.gen_range(2..8usize);
            let pes: Vec<f64> = (0..levels).map(|_| rng.gen_range(0.01..0.5)).collect();
            let n_pe = rng.gen_range(1..64usize);
            let out = Preprocessor::new(n_pe).run(&model(&pes), 16);
            assert!(out.paths.len() <= n_pe);
            assert!(!out.paths.is_empty());
            assert_eq!(out.paths[0], PositionVector::ones(levels));
            assert_eq!(out.ln_probs.len(), out.paths.len());
            for w in out.ln_probs.windows(2) {
                assert!(w[0] >= w[1], "not sorted: {pes:?} n_pe {n_pe}");
            }
            let set: HashSet<_> = out.paths.iter().cloned().collect();
            assert_eq!(set.len(), out.paths.len());
            assert!(out.cumulative_prob <= 1.0 + 1e-9);
            for p in &out.paths {
                assert!(p.within_order(16));
            }
        }
    }

    #[test]
    fn stop_threshold_truncates_selection() {
        let m = model(&[0.01, 0.01]); // root alone has Pc ≈ 0.98
        let pre = Preprocessor {
            stop_threshold: Some(0.95),
            ..Preprocessor::new(64)
        };
        let out = pre.run(&m, 16);
        assert_eq!(out.paths.len(), 1, "root alone passes the threshold");
        assert!(out.cumulative_prob >= 0.95);
    }

    #[test]
    fn cumulative_prob_reaches_one_with_enough_pes() {
        // Selecting every vector of a tiny system must account for ~all
        // probability mass.
        let m = model(&[0.2, 0.2]);
        let out = Preprocessor::new(16).run(&m, 4);
        // Not exactly 1.0: geometric tails beyond rank 4 are excluded by
        // the constellation bound.
        assert!(out.cumulative_prob > 0.95, "{}", out.cumulative_prob);
        assert!(out.cumulative_prob <= 1.0 + 1e-9);
    }

    #[test]
    fn mult_count_bounded_by_npe_nt() {
        // §3.1.1: at most Nt real multiplications per expanded node and at
        // most N_PE expansions.
        let m = model(&[0.3; 8]);
        let n_pe = 32;
        let out = Preprocessor::new(n_pe).run(&m, 64);
        assert!(out.expanded_nodes <= n_pe as u64);
        assert!(out.real_mults <= (n_pe * 8) as u64);
        assert!(out.real_mults > 0);
    }

    #[test]
    fn batched_expansion_close_to_sequential() {
        // §3.1.1: parallel expansion with N_PE/B ≥ 10 loses almost nothing.
        let m = model(&[0.35, 0.2, 0.28, 0.15, 0.3, 0.22, 0.18, 0.25]);
        let n_pe = 128;
        let seq = Preprocessor::new(n_pe).run(&m, 64);
        let par = Preprocessor {
            expand_batch: 12,
            ..Preprocessor::new(n_pe)
        }
        .run(&m, 64);
        assert_eq!(par.paths.len(), n_pe);
        // Compare cumulative captured probability.
        let loss = (seq.cumulative_prob - par.cumulative_prob) / seq.cumulative_prob;
        assert!(loss < 0.02, "batched loss {loss}");
        // And overlap of the selected sets.
        let a: HashSet<_> = seq.paths.iter().cloned().collect();
        let overlap = par.paths.iter().filter(|p| a.contains(p)).count();
        assert!(
            overlap as f64 >= 0.9 * n_pe as f64,
            "overlap {overlap}/{n_pe}"
        );
    }

    #[test]
    fn single_pe_selects_only_root() {
        let m = model(&[0.3, 0.3]);
        let out = Preprocessor::new(1).run(&m, 16);
        assert_eq!(out.paths.len(), 1);
        assert_eq!(out.paths[0], PositionVector::ones(2));
        assert_eq!(out.expanded_nodes, 0, "no expansion needed for N_PE=1");
    }

    #[test]
    fn deterministic_across_runs() {
        let m = model(&[0.22, 0.31, 0.17, 0.28]);
        let a = Preprocessor::new(100).run(&m, 64);
        let b = Preprocessor::new(100).run(&m, 64);
        assert_eq!(a.paths, b.paths);
    }

    /// The search as first written — a cloned vector per candidate in a
    /// sorted list of `(ln Pc, vector, generating row)` — kept as the
    /// reference the flat workspace form is pinned against.
    fn run_cloning(
        pre: &Preprocessor,
        model: &LevelErrorModel,
        order: usize,
    ) -> (Vec<PositionVector>, Vec<f64>, f64, u64, u64) {
        let levels = model.levels();
        let mut list = vec![(
            model.ln_root_prob(),
            PositionVector::ones(levels),
            levels - 1,
        )];
        let (mut paths, mut ln_probs) = (Vec::new(), Vec::new());
        let (mut cumulative, mut real_mults, mut expanded) = (0.0f64, 0u64, 0u64);
        'outer: while paths.len() < pre.n_pe && !list.is_empty() {
            let batch = pre.expand_batch.min(pre.n_pe - paths.len()).min(list.len());
            let popped: Vec<_> = list.drain(..batch).collect();
            for (lp, vec, gen_row) in popped {
                cumulative += lp.exp();
                paths.push(vec.clone());
                ln_probs.push(lp);
                if pre.stop_threshold.is_some_and(|t| cumulative >= t) || paths.len() == pre.n_pe {
                    break 'outer;
                }
                expanded += 1;
                for row in 0..=gen_row {
                    if vec.rank(row) as usize >= order {
                        continue;
                    }
                    let item = (lp + model.ln_pe(row), vec.child(row), row);
                    real_mults += 1;
                    let pos =
                        list.partition_point(|e| e.0 > item.0 || (e.0 == item.0 && e.1 <= item.1));
                    list.insert(pos, item);
                }
                list.truncate(pre.n_pe);
            }
        }
        (paths, ln_probs, cumulative, real_mults, expanded)
    }

    #[test]
    fn workspace_search_equals_the_cloning_reference() {
        // One output reused across models of changing depth and budget —
        // distinct levels, exactly tied levels (every order decided by the
        // lazy vector comparison), levels clamped at the ceiling, a width
        // past the inline bound — sequential and batched, with and without
        // a threshold, including one that selects a shorter set than the
        // run before it.
        let mut out = Selection::default();
        let models = [
            model(&[0.22, 0.31, 0.17, 0.28, 0.05, 0.4, 0.11, 0.3]),
            model(&[0.2; 6]),
            model(&[0.9, 0.9, 0.01, 0.9]),
            model(&[0.3, 0.1, 0.2]),
            model(&[0.25; 20]),
            model(&[0.01, 0.02]),
        ];
        for m in &models {
            for n_pe in [1usize, 7, 16, 64] {
                for batch in [1usize, 4] {
                    for threshold in [None, Some(0.95), Some(0.5)] {
                        let pre = Preprocessor {
                            stop_threshold: threshold,
                            expand_batch: batch,
                            ..Preprocessor::new(n_pe)
                        };
                        for order in [2usize, 16] {
                            pre.run_into(m, order, &mut out);
                            let selected = out.position_vectors(m.levels());
                            let (paths, ln_probs, cumulative, mults, expanded) =
                                run_cloning(&pre, m, order);
                            let what = format!("{pre:?} order {order} levels {}", m.levels());
                            assert_eq!(selected, paths, "{what}");
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&out.ln_probs), bits(&ln_probs), "{what}");
                            // The in-place search keeps the running Σ Pc only
                            // for a threshold; summed on demand, and as `run`
                            // reports it, it has the same bits either way.
                            let kept = out.cumulative_prob;
                            if threshold.is_some() {
                                assert_eq!(kept.to_bits(), cumulative.to_bits(), "{what}");
                            } else {
                                assert!(kept.is_nan(), "{what}: a Σ Pc nothing asked for");
                            }
                            let summed = prob_sum(&out.ln_probs);
                            assert_eq!(summed.to_bits(), cumulative.to_bits(), "{what}");
                            let reported = pre.run(m, order).cumulative_prob;
                            assert_eq!(reported.to_bits(), cumulative.to_bits(), "{what}");
                            // Each selected vector is its link's parent, selected
                            // before it, plus one at the link's row.
                            assert_eq!(out.links.len(), paths.len(), "{what}");
                            for (i, &(parent, row)) in out.links.iter().enumerate() {
                                let want = match parent {
                                    ROOT => PositionVector::ones(m.levels()),
                                    p => {
                                        assert!((p as usize) < i, "{what}: link {i}");
                                        paths[p as usize].child(row as usize)
                                    }
                                };
                                assert_eq!(paths[i], want, "{what}: link {i}");
                            }
                            assert_eq!(out.real_mults, mults, "{what}");
                            assert_eq!(out.expanded_nodes, expanded, "{what}");
                        }
                    }
                }
            }
        }
    }
}

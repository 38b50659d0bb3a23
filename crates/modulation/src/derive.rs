//! The Monte-Carlo derivation of the predefined ordering (§3.2): "via
//! computer simulations, compute the most frequent sorted order".
//!
//! This is the paper's offline table step, and it runs offline here too:
//! `build.rs` pulls this file in with `#[path]` and writes its result as
//! the `static` table the library reads. The library compiles it only
//! under `cfg(test)`, where the identity tests pin that table to it, so
//! no product process derives anything.
//!
//! Each triangle's orders rank every candidate lattice offset by its
//! summed distance rank over [`LUT_SAMPLES`] uniform samples of the
//! triangle, which converges to the modal order. Each sample's full
//! ranking is an insertion sort that starts from the previous sample's
//! permutation, with samples visited in a strip-snake order so that
//! neighbours differ by a few swaps (near-linear instead of a comparator
//! sort per sample). No bit of the result can move against the plain
//! sort-per-sample definition: the RNG stream is consumed by the same
//! draws and the same (filter-proven identical) rejection test; the sort
//! key `(dist².to_bits(), index)` orders exactly as the comparator did,
//! because finite non-negative floats order like their bit patterns and the
//! index makes every key distinct, so each sample has one sorted
//! permutation however it is reached; and rank sums are integers far below
//! 2⁵³ (exact in the `f64` the per-sample definition summed them in), so
//! the order the samples are visited in cannot change them. The candidate
//! set is the `(2·radius + 1)²` offsets around the centre, with the radius
//! the grid side for every depth — the per-sample definition's
//! depth-dependent radius reached the side for every `depth ≤ |Q|` — which
//! is why one table serves all depths.

use crate::octant::triangle_index_fast;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples per triangle when deriving the predefined order.
pub(crate) const LUT_SAMPLES: usize = 600;
/// Fixed seed: the LUT is part of the algorithm definition, so it must be
/// identical across runs and machines.
pub(crate) const LUT_SEED: u64 = 0x5EED_F1EC;
/// Strips (in `dx`, across the whole `[−1, 1]` square) of the snake that
/// orders a triangle's samples for the incremental ranking. Any value
/// gives the same orders; this one keeps consecutive samples close.
const SNAKE_STRIPS: f64 = 32.0;

#[cfg(test)]
thread_local! {
    /// Counts this thread's entries into [`derive_orders`], so a test can
    /// show that building lookup tables never derives.
    pub(crate) static ENTERED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The predefined orders of a modulation, given its candidate radius in
/// lattice steps — its grid side — or `None` for BPSK: every candidate
/// lattice offset of every triangle, ranked by its summed distance rank
/// over [`LUT_SAMPLES`] uniform samples of the triangle (ties by candidate
/// index). `orders[t][k-1]` is the lattice offset `(Δcol, Δrow)` of the
/// k-th closest lattice point for effective points inside triangle `t`.
pub(crate) fn derive_orders(radius: Option<i32>) -> [Vec<(i32, i32)>; 8] {
    #[cfg(test)]
    ENTERED.set(ENTERED.get() + 1);
    let Some(radius) = radius else {
        // Degenerate 1-D case: closest, then the other point.
        return std::array::from_fn(|_| vec![(0, 0), (1, 0)]);
    };
    // Candidate lattice offsets: with the radius at the grid side, every
    // constellation symbol is reachable from any in-grid centre (the
    // skip-outside lookup mode needs that), and it is at least the
    // `depth + 8`-point neighbourhood any `depth ≤ |Q|` asks for.
    let candidates: Vec<(i32, i32)> = (-radius..=radius)
        .flat_map(|dj| (-radius..=radius).map(move |di| (di, dj)))
        .collect();
    // Lattice points sit at even grid coordinates (2di, 2dj).
    let coords: Vec<(f64, f64)> = candidates
        .iter()
        .map(|&(di, dj)| (2.0 * di as f64, 2.0 * dj as f64))
        .collect();
    // Draw every triangle's accepted samples first, consuming the RNG
    // exactly as one rejection loop per triangle does.
    let mut rng = StdRng::seed_from_u64(LUT_SEED);
    let samples: [Vec<(f64, f64)>; 8] = std::array::from_fn(|tri| {
        let mut taken = Vec::with_capacity(LUT_SAMPLES);
        while taken.len() < LUT_SAMPLES {
            let dx: f64 = rng.gen_range(-1.0..1.0);
            let dy: f64 = rng.gen_range(-1.0..1.0);
            if triangle_index_fast(dx, dy) == tri {
                taken.push((dx, dy));
            }
        }
        taken
    });
    // `(dist² bits, candidate)` in rank order, carried from sample to
    // sample (and triangle to triangle) so each re-rank starts sorted but
    // for the few pairs the step swapped.
    let mut ranked: Vec<(u64, u32)> = (0..candidates.len() as u32).map(|i| (0, i)).collect();
    samples.map(|pts| {
        let mut snake: Vec<(f64, f64, f64)> = pts
            .into_iter()
            .map(|(dx, dy)| (snake_key(dx, dy), dx, dy))
            .collect();
        snake.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut rank_sum = vec![0u64; candidates.len()];
        for (_, dx, dy) in snake {
            for entry in ranked.iter_mut() {
                let (cx, cy) = coords[entry.1 as usize];
                let (ex, ey) = (dx - cx, dy - cy);
                entry.0 = (ex * ex + ey * ey).to_bits();
            }
            insertion_sort(&mut ranked);
            for (rank, &(_, ci)) in ranked.iter().enumerate() {
                rank_sum[ci as usize] += rank as u64;
            }
        }
        let mut by_rank: Vec<usize> = (0..candidates.len()).collect();
        by_rank.sort_unstable_by_key(|&i| (rank_sum[i], i));
        // The full candidate ordering (not just `depth` entries): the
        // skip-outside lookup mode may need to pass over many
        // out-of-constellation offsets near the grid edge.
        by_rank.iter().map(|&i| candidates[i]).collect()
    })
}

/// A sample's position along the strip snake that orders a triangle's
/// samples for the incremental ranking: strips in `dx`, alternating
/// direction in `dy`. A strip's keys lie within ±1 of `4·strip`, so strips
/// never interleave.
fn snake_key(dx: f64, dy: f64) -> f64 {
    let strip = ((dx + 1.0) * (SNAKE_STRIPS / 2.0)).floor();
    4.0 * strip + if strip % 2.0 == 0.0 { dy } else { -dy }
}

/// Sorts an almost-sorted slice in `O(len + inversions)`.
fn insertion_sort<T: Copy + Ord>(v: &mut [T]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && v[j - 1] > x {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

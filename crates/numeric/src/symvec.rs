//! A spill-capable, small-vector symbol-index store.
//!
//! Tree-search detectors decide one constellation-symbol index per transmit
//! stream. The paper's experiments top out at 12×12, and for that regime
//! [`SymVec`] keeps the PR 2 contract: up to [`INLINE_STREAMS`] indices
//! live in a fixed `[u16; 16]` directly inside the value — fully
//! stack-resident, no heap traffic — the storage behind every `_into`
//! detection kernel, letting a processing element evaluate a
//! (path × symbol-vector) pair without touching the heap.
//!
//! Deployed base stations are 32/64-antenna, so the inline bound is a fast
//! path, not a limit: widths beyond [`INLINE_STREAMS`] *spill* to a heap
//! buffer. The spill is transparent — same API, same `Clone`/`Eq`/`Hash`
//! semantics regardless of representation — and steady-state
//! allocation-free: [`SymVec::reset`] and [`Clone::clone_from`] reuse an
//! existing spill buffer instead of reallocating, so a warmed scratch
//! workspace detects 32- or 64-stream vectors without per-vector heap
//! traffic (`tests/alloc_regression.rs` enforces both regimes).

/// Number of streams held without heap allocation — the inline fast-path
/// capacity (the paper's largest experiment is 12×12; 16 leaves headroom).
///
/// This is **not** an upper bound on a vector's length: larger widths
/// spill to the heap.
pub const INLINE_STREAMS: usize = 16;

/// Storage behind a [`SymVec`]: inline registers for the ≤ 16-stream hot
/// path, a heap buffer beyond. `Spilled` may also hold ≤ 16 entries — a
/// workspace that has once seen a wide channel keeps its buffer (freeing
/// and re-spilling on every width change would put allocator calls in the
/// hot path), so all observable behaviour is representation-independent.
#[derive(Clone, Debug)]
enum Repr {
    Inline { buf: [u16; INLINE_STREAMS], len: u8 },
    Spilled(Vec<u16>),
}

/// A small-vector of per-stream symbol indices.
///
/// Indices are stored as `u16` (constellations up to 256-QAM need 8 bits;
/// 16 bits leaves room for any realistic QAM order). Up to [`INLINE_STREAMS`]
/// entries are stored inline (allocation-free, cheap to clone by memcpy);
/// beyond that the storage spills to the heap.
///
/// Equality and hashing see only the held indices, never the
/// representation: an inline and a spilled `SymVec` holding the same
/// indices are equal and hash identically.
///
/// ```
/// use flexcore_numeric::SymVec;
/// let mut s = SymVec::zeroed(4);
/// s.set(2, 7);
/// assert_eq!(s.as_slice(), &[0, 0, 7, 0]);
/// assert_eq!(s.get(2), 7);
/// // Massive-MIMO widths spill transparently:
/// let wide = SymVec::zeroed(64);
/// assert_eq!(wide.as_slice().len(), 64);
/// ```
pub struct SymVec {
    repr: Repr,
}

impl Clone for SymVec {
    fn clone(&self) -> Self {
        SymVec {
            repr: self.repr.clone(),
        }
    }

    /// Capacity-reusing overwrite (forwards to `SymVec::assign`): a
    /// spilled destination keeps its heap buffer, so `best.clone_from(&cur)`
    /// in a detector's reduction loop is allocation-free once warmed.
    fn clone_from(&mut self, source: &Self) {
        self.assign(source.as_slice());
    }
}

impl SymVec {
    // flexcore-lint: hot-path
    /// An empty vector (length 0, inline).
    pub const fn new() -> Self {
        SymVec {
            repr: Repr::Inline {
                buf: [0; INLINE_STREAMS],
                len: 0,
            },
        }
    }

    /// An all-zero vector of length `len` — inline when
    /// `len <= INLINE_STREAMS`, spilled to the heap otherwise.
    pub fn zeroed(len: usize) -> Self {
        if len <= INLINE_STREAMS {
            SymVec {
                repr: Repr::Inline {
                    buf: [0; INLINE_STREAMS],
                    len: len as u8,
                },
            }
        } else {
            SymVec {
                // flexcore-lint: allow(FL001, reason = "constructor: zeroed() runs at workspace-creation time, before the steady-state loop the scratch rule protects")
                repr: Repr::Spilled(vec![0; len]),
            }
        }
    }

    /// Resets to an all-zero vector of length `len` — the per-evaluation
    /// initialisation of the detection hot path.
    ///
    /// Storage is reused, never discarded: an inline vector stays inline
    /// for `len <= INLINE_STREAMS` (no allocation, ever), and a spilled
    /// vector keeps its heap buffer whatever the new length (no allocation
    /// unless `len` exceeds the buffer's capacity). Only an inline vector
    /// asked for a width beyond [`INLINE_STREAMS`] allocates — the spill
    /// boundary crossing itself.
    #[inline]
    pub fn reset(&mut self, len: usize) {
        match &mut self.repr {
            Repr::Spilled(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Repr::Inline { buf, len: l } if len <= INLINE_STREAMS => {
                *buf = [0; INLINE_STREAMS];
                *l = len as u8;
            }
            // flexcore-lint: allow(FL001, reason = "spill-boundary crossing: allocates only the first time an inline vector is asked for a width beyond INLINE_STREAMS; the warmed buffer is reused thereafter (alloc_regression pins this)")
            repr => *repr = Repr::Spilled(vec![0; len]),
        }
    }

    /// Overwrites `self` with the indices in `syms`, reusing existing
    /// storage exactly like [`SymVec::reset`] (this is what
    /// [`Clone::clone_from`] forwards to, so `best.clone_from(&scratch)`
    /// in a detector's reduction loop stays allocation-free once warmed).
    #[inline]
    pub(crate) fn assign(&mut self, syms: &[u16]) {
        match &mut self.repr {
            Repr::Spilled(v) => {
                v.clear();
                v.extend_from_slice(syms);
            }
            Repr::Inline { buf, len } if syms.len() <= INLINE_STREAMS => {
                buf[..syms.len()].copy_from_slice(syms);
                *len = syms.len() as u8;
            }
            // flexcore-lint: allow(FL001, reason = "spill-boundary crossing: allocates only the first time an inline vector receives a width beyond INLINE_STREAMS; the warmed buffer is reused thereafter (alloc_regression pins this)")
            repr => *repr = Repr::Spilled(syms.to_vec()),
        }
    }

    /// The stored indices as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u16] {
        match &self.repr {
            Repr::Inline { buf, len } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// The index at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u16 {
        self.as_slice()[i]
    }

    /// Overwrites the index at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, sym: u16) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                assert!(i < *len as usize, "SymVec: index {i} out of bounds");
                buf[i] = sym;
            }
            Repr::Spilled(v) => {
                assert!(i < v.len(), "SymVec: index {i} out of bounds");
                v[i] = sym;
            }
        }
    }
}

impl Default for SymVec {
    fn default() -> Self {
        SymVec::new()
    }
}

// Equality/ordering/hashing are over the held indices only — an inline and
// a spilled representation of the same indices are indistinguishable.
impl PartialEq for SymVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SymVec {}

impl std::hash::Hash for SymVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for SymVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// Test-only views and constructors: the product reads a vector through
    /// `as_slice` / `get` and builds it with `zeroed` / `set`.
    impl SymVec {
        /// Builds from a slice of symbol indices.
        ///
        /// # Panics
        /// Panics if any index exceeds `u16`.
        fn from_indices(syms: &[usize]) -> Self {
            let mut v = SymVec::zeroed(syms.len());
            for (i, &s) in syms.iter().enumerate() {
                v.set(
                    i,
                    u16::try_from(s).expect("SymVec: symbol index exceeds u16"),
                );
            }
            v
        }

        fn len(&self) -> usize {
            self.as_slice().len()
        }

        /// True if the indices live in a heap buffer rather than the
        /// inline registers: which representation a scenario exercises.
        fn is_spilled(&self) -> bool {
            matches!(self.repr, Repr::Spilled(_))
        }

        fn to_indices(&self) -> Vec<usize> {
            self.as_slice().iter().map(|&s| s as usize).collect()
        }
    }

    /// A spilled `SymVec` holding the given (short) contents — reached
    /// through the public API: spill past the boundary, then shrink (the
    /// buffer is kept by design).
    fn spilled_from(syms: &[u16]) -> SymVec {
        let mut v = SymVec::zeroed(INLINE_STREAMS + 1);
        v.reset(syms.len());
        for (i, &s) in syms.iter().enumerate() {
            v.set(i, s);
        }
        assert!(v.is_spilled());
        v
    }

    fn hash_of(v: &SymVec) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn symvec_storage_is_representation_independent() {
        // The massive-MIMO storage contract: any length up to 64 round
        // trips, spills exactly past the inline bound, and all observable
        // behaviour (slice, equality, hash, clone, reset) is independent
        // of whether the indices live inline or in a spill buffer.
        let mut rng = StdRng::seed_from_u64(0x5EC7);
        for _ in 0..256 {
            let len = rng.gen_range(0usize..65);
            let syms: Vec<u16> = (0..len).map(|_| rng.gen_range(0u16..1024)).collect();
            let idx: Vec<usize> = syms.iter().map(|&s| s as usize).collect();
            let v = SymVec::from_indices(&idx);
            assert_eq!(v.len(), syms.len());
            assert_eq!(v.as_slice(), &syms[..]);
            assert_eq!(v.is_spilled(), syms.len() > INLINE_STREAMS);
            assert_eq!(v.to_indices(), idx);
            // A spilled twin with the same contents, forced through the
            // boundary: equal and hash-identical whatever `v`'s
            // representation.
            let mut twin = SymVec::zeroed(INLINE_STREAMS + 1);
            twin.assign(&syms);
            assert!(twin.is_spilled());
            assert_eq!(&twin, &v);
            assert_eq!(hash_of(&twin), hash_of(&v));
            // Clone preserves contents; clone_from reuses the destination.
            assert_eq!(&v.clone(), &v);
            let mut dst = SymVec::zeroed(INLINE_STREAMS + 1);
            dst.clone_from(&v);
            assert_eq!(&dst, &v);
            // reset() zeroes at the same length, and crossing the spill
            // boundary in either direction keeps the vector well-formed.
            let mut r = v.clone();
            r.reset(syms.len());
            assert!(r.as_slice().iter().all(|&s| s == 0));
            assert_eq!(r.len(), syms.len());
            r.reset(64);
            assert_eq!(r.len(), 64);
            assert!(r.is_spilled());
            r.reset(1);
            assert_eq!(r.as_slice(), &[0u16][..]);
        }
    }

    #[test]
    fn construction_and_access() {
        let mut v = SymVec::zeroed(5);
        assert_eq!(v.len(), 5);
        v.set(0, 3);
        v.set(4, 9);
        assert_eq!(v.get(0), 3);
        assert_eq!(v.as_slice(), &[3, 0, 0, 0, 9]);
        assert_eq!(v.to_indices(), vec![3usize, 0, 0, 0, 9]);
    }

    #[test]
    fn reset_clears_previous_contents() {
        let mut v = SymVec::from_indices(&[1, 2, 3]);
        v.reset(2);
        assert_eq!(v.as_slice(), &[0, 0]);
        v.reset(4);
        assert_eq!(v.as_slice(), &[0, 0, 0, 0]);
    }

    #[test]
    fn from_indices_round_trips() {
        let idx = vec![0usize, 15, 63, 255];
        assert_eq!(SymVec::from_indices(&idx).to_indices(), idx);
    }

    #[test]
    fn equality_ignores_slack_capacity() {
        let a = SymVec::from_indices(&[1, 2]);
        let mut b = SymVec::zeroed(2);
        b.set(0, 1);
        b.set(1, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn full_inline_capacity_stays_inline() {
        let idx: Vec<usize> = (0..INLINE_STREAMS).collect();
        let v = SymVec::from_indices(&idx);
        assert_eq!(v.len(), INLINE_STREAMS);
        assert!(!v.is_spilled(), "exactly 16 must not spill");
        assert_eq!(v.to_indices(), idx);
    }

    #[test]
    fn first_spill_width_works() {
        // 17 streams: the first width past the inline boundary.
        let idx: Vec<usize> = (0..INLINE_STREAMS + 1).collect();
        let v = SymVec::from_indices(&idx);
        assert_eq!(v.len(), INLINE_STREAMS + 1);
        assert!(v.is_spilled());
        assert_eq!(v.to_indices(), idx);
    }

    #[test]
    fn massive_mimo_width_works() {
        let mut v = SymVec::zeroed(64);
        assert_eq!(v.len(), 64);
        assert!(v.is_spilled());
        v.set(63, 255);
        v.set(0, 7);
        assert_eq!(v.get(63), 255);
        assert_eq!(v.get(0), 7);
        assert_eq!(v.as_slice().iter().filter(|&&s| s != 0).count(), 2);
    }

    #[test]
    fn reset_across_spill_boundary_upward() {
        let mut v = SymVec::zeroed(8);
        assert!(!v.is_spilled());
        v.reset(32);
        assert!(v.is_spilled());
        assert_eq!(v.as_slice(), &[0u16; 32][..]);
    }

    #[test]
    fn reset_across_spill_boundary_downward_keeps_buffer() {
        let mut v = SymVec::zeroed(32);
        v.set(3, 9);
        v.reset(4);
        // Shrinking below the inline bound reuses the spill buffer (no
        // dealloc in the hot path); contents are still fully zeroed.
        assert!(v.is_spilled());
        assert_eq!(v.as_slice(), &[0, 0, 0, 0]);
        // And growing again within the retained capacity stays in place.
        v.reset(20);
        assert!(v.is_spilled());
        assert_eq!(v.len(), 20);
    }

    #[test]
    fn inline_and_spilled_holding_same_indices_are_equal() {
        let inline = SymVec::from_indices(&[5, 0, 63]);
        let spilled = spilled_from(&[5, 0, 63]);
        assert!(!inline.is_spilled());
        assert!(spilled.is_spilled());
        assert_eq!(inline, spilled);
        assert_eq!(spilled, inline);
        assert_eq!(hash_of(&inline), hash_of(&spilled));
        // And a one-index difference breaks equality in either direction.
        let other = SymVec::from_indices(&[5, 1, 63]);
        assert_ne!(other, spilled);
        assert_ne!(spilled, other);
    }

    #[test]
    fn clone_preserves_contents_across_representations() {
        let spilled = spilled_from(&[1, 2, 3]);
        let c = spilled.clone();
        assert_eq!(c, spilled);
        assert_eq!(c.as_slice(), &[1, 2, 3]);
        let inline = SymVec::from_indices(&[4, 5]);
        assert_eq!(inline.clone(), inline);
        // clone_from into a spilled destination reuses its buffer and
        // equality still holds whatever the source representation.
        let mut dst = spilled_from(&[9; 3]);
        dst.clone_from(&inline);
        assert_eq!(dst, inline);
        assert_eq!(hash_of(&dst), hash_of(&inline));
    }

    #[test]
    fn hash_set_parity_between_representations() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SymVec::from_indices(&[3, 1, 4]));
        // The spilled twin must be found via the inline entry's hash.
        assert!(set.contains(&spilled_from(&[3, 1, 4])));
        assert!(!set.contains(&spilled_from(&[3, 1, 5])));
    }

    #[test]
    fn over_inline_capacity_spills_instead_of_panicking() {
        // Past the inline capacity a `SymVec` spills to the heap instead
        // of panicking.
        let v = SymVec::zeroed(INLINE_STREAMS + 1);
        assert_eq!(v.len(), INLINE_STREAMS + 1);
        assert!(v.is_spilled());
    }

    #[test]
    #[should_panic(expected = "exceeds u16")]
    fn u16_overflow_still_rejected() {
        // The spill lifts the *length* bound, not the index-width bound.
        let _ = SymVec::from_indices(&[usize::from(u16::MAX) + 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_rejected() {
        let mut v = SymVec::zeroed(2);
        v.set(2, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_rejected_when_spilled() {
        let mut v = SymVec::zeroed(20);
        v.set(20, 1);
    }
}

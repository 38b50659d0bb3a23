//! Position vectors — FlexCore's channel-relative path labels.
//!
//! A position vector `p` has one 1-based entry per tree level: `p(l) = k`
//! instructs level `l`'s processing element to take the symbol with the
//! k-th smallest Euclidean distance to the level's *effective received
//! point* (§3.1, Fig. 3). Because the entries are ranks **relative to the
//! yet-unknown received signal**, the set of promising position vectors can
//! be computed a priori, before detection — the key trick that makes
//! pre-processing possible.
//!
//! Entry storage convention: `entries[row]` corresponds to row `row` of
//! `R`, i.e. the paper's tree level `row + 1` (index 0 = bottom level,
//! detected last).

use flexcore_numeric::symvec::INLINE_STREAMS;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A 1-based rank per tree level. The all-ones vector is the SIC path.
///
/// Like the symbol store (`SymVec`), up to [`INLINE_STREAMS`] levels live
/// inside the value, so a prepared detector's selection is one contiguous
/// plane that a channel refresh overwrites without touching the heap;
/// wider vectors spill to a heap buffer, which overwrites reuse. Equality,
/// ordering and hashing see only the entries.
#[derive(Clone)]
pub struct PositionVector {
    levels: usize,
    inline: [u32; INLINE_STREAMS],
    /// Holds the entries when `levels > INLINE_STREAMS`; kept (for its
    /// capacity) otherwise.
    spill: Vec<u32>,
}

impl PositionVector {
    /// The root/most-promising vector `[1, 1, …, 1]` (a pure SIC descent).
    pub(crate) fn ones(levels: usize) -> Self {
        let mut p = PositionVector {
            levels: 0,
            inline: [0; INLINE_STREAMS],
            spill: Vec::new(),
        };
        p.set_ones(levels);
        p
    }

    /// Builds from explicit 1-based entries.
    ///
    /// # Panics
    /// Panics if any entry is zero or the vector is empty.
    #[cfg(test)]
    pub(crate) fn from_entries(entries: Vec<u32>) -> Self {
        assert!(!entries.is_empty(), "PositionVector: empty");
        assert!(
            entries.iter().all(|&e| e >= 1),
            "PositionVector entries are 1-based"
        );
        let mut p = PositionVector::ones(entries.len());
        p.entries_mut().copy_from_slice(&entries);
        p
    }

    /// Overwrites with the all-ones vector of `levels` levels, reusing the
    /// storage.
    pub(crate) fn set_ones(&mut self, levels: usize) {
        // flexcore-lint: hot-path
        assert!(levels > 0, "PositionVector: zero levels");
        self.levels = levels;
        if levels > INLINE_STREAMS {
            self.spill.clear();
            self.spill.resize(levels, 1);
        } else {
            self.inline[..levels].fill(1);
        }
    }

    /// Overwrites with `parent`'s entries and `entries[row]` incremented —
    /// the pre-processing tree's child-generation step (§3.1.1, Fig. 5) —
    /// reusing the storage.
    pub(crate) fn set_child(&mut self, parent: &PositionVector, row: usize) {
        // flexcore-lint: hot-path
        self.levels = parent.levels;
        if parent.levels > INLINE_STREAMS {
            self.spill.clear();
            self.spill.extend_from_slice(&parent.spill);
        } else {
            self.inline = parent.inline;
        }
        self.entries_mut()[row] += 1;
    }

    /// Number of levels.
    #[cfg(test)]
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }

    /// The rank at `R` row `row` (0-based row, 1-based rank).
    pub fn rank(&self, row: usize) -> u32 {
        self.entries()[row]
    }

    /// Raw entries, indexed by `R` row.
    pub(crate) fn entries(&self) -> &[u32] {
        if self.levels > INLINE_STREAMS {
            &self.spill
        } else {
            &self.inline[..self.levels]
        }
    }

    fn entries_mut(&mut self) -> &mut [u32] {
        if self.levels > INLINE_STREAMS {
            &mut self.spill
        } else {
            &mut self.inline[..self.levels]
        }
    }

    /// Returns a copy with `entries[row]` incremented.
    #[cfg(test)]
    pub(crate) fn child(&self, row: usize) -> PositionVector {
        let mut c = self.clone();
        c.entries_mut()[row] += 1;
        c
    }

    /// Sum of (rank − 1) over levels: the total "depth" of the vector —
    /// 0 for the SIC path.
    #[cfg(test)]
    pub(crate) fn excess(&self) -> u32 {
        self.entries().iter().map(|&e| e - 1).sum()
    }

    /// True if every entry is within a constellation of `order` symbols.
    #[cfg(test)]
    pub(crate) fn within_order(&self, order: usize) -> bool {
        self.entries().iter().all(|&e| e as usize <= order)
    }
}

impl PartialEq for PositionVector {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for PositionVector {}

impl Hash for PositionVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
    }
}

impl PartialOrd for PositionVector {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PositionVector {
    fn cmp(&self, other: &Self) -> Ordering {
        self.entries().cmp(other.entries())
    }
}

// Debug/Display use the paper's `[3,1,2]` notation, printed
// top-level-first to match Fig. 3.
fn fmt_paper(entries: &[u32], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "[")?;
    for (i, e) in entries.iter().rev().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{e}")?;
    }
    write!(f, "]")
}

impl fmt::Debug for PositionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_paper(self.entries(), f)
    }
}

impl fmt::Display for PositionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_paper(self.entries(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_is_sic_path() {
        let p = PositionVector::ones(4);
        assert_eq!(p.levels(), 4);
        assert_eq!(p.excess(), 0);
        assert!(p.entries().iter().all(|&e| e == 1));
    }

    #[test]
    fn child_increments_one_entry() {
        let p = PositionVector::ones(3);
        let c = p.child(1);
        assert_eq!(c.entries(), &[1, 2, 1]);
        assert_eq!(c.excess(), 1);
        // Parent unchanged.
        assert_eq!(p.entries(), &[1, 1, 1]);
    }

    #[test]
    fn overwrites_cross_the_inline_width_both_ways() {
        // One vector reused as 20 → 3 → 20 levels: entries, equality and
        // order never see which storage holds them (or what it held).
        let wide = PositionVector::ones(INLINE_STREAMS + 4).child(INLINE_STREAMS + 2);
        let narrow = PositionVector::from_entries(vec![2, 1, 3]);
        let mut p = PositionVector::ones(1);
        p.set_child(&wide, 0);
        assert_eq!(p.levels(), INLINE_STREAMS + 4);
        assert_eq!((p.rank(0), p.rank(INLINE_STREAMS + 2)), (2, 2));
        assert_eq!(p.excess(), 2);
        p.set_child(&narrow, 1);
        assert_eq!(p.entries(), &[2, 2, 3]);
        assert_eq!(p, PositionVector::from_entries(vec![2, 2, 3]));
        assert!(narrow < p, "lexicographic from row 0");
        p.set_ones(INLINE_STREAMS + 4);
        assert_eq!(p, PositionVector::ones(INLINE_STREAMS + 4));
        p.set_ones(2);
        assert_eq!(p, PositionVector::ones(2));
    }

    #[test]
    fn within_order_checks_bounds() {
        let p = PositionVector::from_entries(vec![4, 1, 2]);
        assert!(p.within_order(4));
        assert!(!p.within_order(3));
    }

    #[test]
    fn display_matches_paper_notation() {
        // entries[0] is the bottom level; the paper prints top-first.
        let p = PositionVector::from_entries(vec![2, 1, 3]);
        assert_eq!(format!("{p}"), "[3,1,2]");
    }

    #[test]
    fn equality_and_hash() {
        use std::collections::HashSet;
        let a = PositionVector::from_entries(vec![1, 2]);
        let b = PositionVector::ones(2).child(1);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rejects_zero_entries() {
        let _ = PositionVector::from_entries(vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "zero levels")]
    fn rejects_empty() {
        let _ = PositionVector::ones(0);
    }
}

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

use std::fmt;

/// A 1-based rank per tree level. The all-ones vector is the SIC path.
///
/// Equality, ordering and hashing see only the entries (ordering is
/// lexicographic from row 0). The detector keeps its selection as the
/// search's `(parent, row)` links and its path trie, and builds these
/// values only when asked for them
/// (`FlexCoreDetector::position_vectors`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PositionVector {
    entries: Vec<u32>,
}

impl PositionVector {
    /// The root/most-promising vector `[1, 1, …, 1]` (a pure SIC descent).
    ///
    /// # Panics
    /// Panics if `levels` is zero.
    pub(crate) fn ones(levels: usize) -> Self {
        assert!(levels > 0, "PositionVector: zero levels");
        PositionVector {
            entries: vec![1; levels],
        }
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
        PositionVector { entries }
    }

    /// Number of levels.
    #[cfg(test)]
    pub(crate) fn levels(&self) -> usize {
        self.entries.len()
    }

    /// The rank at `R` row `row` (0-based row, 1-based rank).
    pub fn rank(&self, row: usize) -> u32 {
        self.entries[row]
    }

    /// Raw entries, indexed by `R` row.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Returns a copy with `entries[row]` incremented — the
    /// pre-processing tree's child-generation step (§3.1.1, Fig. 5).
    pub(crate) fn child(&self, row: usize) -> PositionVector {
        let mut c = self.clone();
        c.entries[row] += 1;
        c
    }

    /// Sum of (rank − 1) over levels: the total "depth" of the vector —
    /// 0 for the SIC path.
    #[cfg(test)]
    pub(crate) fn excess(&self) -> u32 {
        self.entries.iter().map(|&e| e - 1).sum()
    }

    /// True if every entry is within a constellation of `order` symbols.
    #[cfg(test)]
    pub(crate) fn within_order(&self, order: usize) -> bool {
        self.entries.iter().all(|&e| e as usize <= order)
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
        fmt_paper(&self.entries, f)
    }
}

impl fmt::Display for PositionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_paper(&self.entries, f)
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

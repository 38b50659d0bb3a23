//! Known-good, and the `surface` fixture: 12 code lines and 3 `pub`
//! items outside the test module (`fixtures.rs` pins both numbers).

/// Counts: a `pub` item, two code lines, one of them a `pub` field.
#[derive(Clone, Debug)]
pub struct Grid {
    pub side: usize,
}

impl Grid {
    /// Counts: a `pub` item.
    pub fn cells(&self) -> usize {
        // A comment line never counts.
        square(self.side)
    }
}

/// Restricted visibility is not public surface.
pub(crate) fn square(n: usize) -> usize {
    n * n
}

pub const ORIGIN: usize = 0;

#[cfg(test)]
mod tests {
    pub fn helper() -> usize {
        super::ORIGIN
    }
}

//! Frame-shaped data: the received grid and the detected grid.
//!
//! Both grids are *symbol-major*: entry `(symbol, subcarrier)` lives at
//! index `symbol * n_subcarriers + subcarrier`, matching the order in which
//! an OFDM receiver produces frequency-domain vectors.

use flexcore_numeric::Cx;

/// One OFDM frame's worth of received MIMO vectors.
///
/// `n_symbols × n_subcarriers` vectors, each of length `Nr` (one complex
/// sample per receive antenna), stored in **one flat plane** of `Cx`
/// (symbol-major vectors, `Nr` stride): a PE's symbol batch is handed out
/// as borrowed `&[Cx]` slices into the plane, so scheduling a frame copies
/// nothing.
#[derive(Clone, Debug)]
pub struct RxFrame {
    n_subcarriers: usize,
    /// Samples per received vector (`Nr`); 0 until the first vector lands.
    nr: usize,
    /// The flat plane: vector `v` occupies `data[v*nr .. (v+1)*nr]`.
    data: Vec<Cx>,
}

impl RxFrame {
    /// Builds a frame from symbol-major vectors; `vectors.len()` must be a
    /// multiple of `n_subcarriers` and all vectors equally long.
    pub fn from_vectors(n_subcarriers: usize, vectors: Vec<Vec<Cx>>) -> Self {
        assert!(n_subcarriers > 0, "RxFrame: zero subcarriers");
        assert_eq!(
            vectors.len() % n_subcarriers,
            0,
            "RxFrame: vector count {} not a multiple of {} subcarriers",
            vectors.len(),
            n_subcarriers
        );
        let mut frame = RxFrame {
            n_subcarriers,
            nr: 0,
            data: Vec::new(),
        };
        for v in &vectors {
            frame.push_vector(v);
        }
        frame
    }

    /// An empty frame ready for [`RxFrame::push_symbol`].
    pub fn empty(n_subcarriers: usize) -> Self {
        Self::from_vectors(n_subcarriers, Vec::new())
    }

    /// Reserves room for `n_samples` more samples in the flat plane.
    pub(crate) fn reserve(&mut self, n_samples: usize) {
        self.data.reserve(n_samples);
    }

    /// Appends one received vector to the flat plane (symbol-major: the
    /// caller appends whole symbols, one vector per subcarrier).
    pub(crate) fn push_vector(&mut self, v: &[Cx]) {
        assert!(!v.is_empty(), "RxFrame: empty received vector");
        if self.nr == 0 {
            self.nr = v.len();
        }
        assert_eq!(v.len(), self.nr, "RxFrame: ragged received vector");
        self.data.extend_from_slice(v);
    }

    /// Appends one OFDM symbol (one received vector per subcarrier).
    pub fn push_symbol(&mut self, per_subcarrier: Vec<Vec<Cx>>) {
        assert_eq!(
            per_subcarrier.len(),
            self.n_subcarriers,
            "push_symbol: wrong subcarrier count"
        );
        for v in &per_subcarrier {
            self.push_vector(v);
        }
    }

    /// Number of data subcarriers per OFDM symbol.
    pub fn n_subcarriers(&self) -> usize {
        self.n_subcarriers
    }

    /// Number of OFDM symbols in the frame.
    pub fn n_symbols(&self) -> usize {
        self.n_vectors() / self.n_subcarriers
    }

    /// Total received vectors (`n_symbols × n_subcarriers`).
    pub(crate) fn n_vectors(&self) -> usize {
        self.data.len().checked_div(self.nr).unwrap_or(0)
    }

    /// The received vector at `(symbol, subcarrier)`, borrowed from the
    /// flat plane.
    pub fn get(&self, symbol: usize, subcarrier: usize) -> &[Cx] {
        // flexcore-lint: hot-path
        assert!(subcarrier < self.n_subcarriers, "subcarrier out of range");
        let v = symbol * self.n_subcarriers + subcarrier;
        &self.data[v * self.nr..(v + 1) * self.nr]
    }
}

/// Detected symbol indices for one frame, in **one flat plane**: each
/// `(symbol, subcarrier)` cell holds `nt` indices (one per transmit
/// stream, original stream order), cells symbol-major like [`RxFrame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetectedFrame {
    n_subcarriers: usize,
    /// Streams per cell.
    nt: usize,
    /// Cell `v` occupies `symbols[v*nt .. (v+1)*nt]`.
    symbols: Vec<usize>,
}

impl DetectedFrame {
    pub(crate) fn from_parts(n_subcarriers: usize, nt: usize, symbols: Vec<usize>) -> Self {
        DetectedFrame {
            n_subcarriers,
            nt,
            symbols,
        }
    }

    /// Number of OFDM symbols in the frame.
    #[cfg(test)]
    pub(crate) fn n_symbols(&self) -> usize {
        self.symbols.len() / self.nt.max(1) / self.n_subcarriers
    }

    /// The detected stream-symbol indices at `(symbol, subcarrier)`.
    #[cfg(test)]
    pub(crate) fn get(&self, symbol: usize, subcarrier: usize) -> &[usize] {
        assert!(subcarrier < self.n_subcarriers, "subcarrier out of range");
        let v = symbol * self.n_subcarriers + subcarrier;
        &self.symbols[v * self.nt..(v + 1) * self.nt]
    }

    /// Iterates decisions in symbol-major `(symbol, subcarrier)` order —
    /// the order a receive chain consumes them.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.symbols.chunks_exact(self.nt.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(re: f64) -> Vec<Cx> {
        vec![Cx::new(re, 0.0)]
    }

    #[test]
    fn frame_geometry_and_indexing() {
        let mut f = RxFrame::empty(3);
        assert_eq!(f.n_symbols(), 0);
        f.push_symbol(vec![v(0.0), v(1.0), v(2.0)]);
        f.push_symbol(vec![v(10.0), v(11.0), v(12.0)]);
        assert_eq!(f.n_subcarriers(), 3);
        assert_eq!(f.n_symbols(), 2);
        assert_eq!(f.n_vectors(), 6);
        assert_eq!(f.get(1, 2)[0].re, 12.0);
        assert_eq!(f.get(0, 1)[0].re, 1.0);
        assert_eq!(f.get(1, 1)[0].re, 11.0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_frame_rejected() {
        let _ = RxFrame::from_vectors(3, vec![v(0.0), v(1.0)]);
    }

    #[test]
    fn detected_frame_round_trip() {
        let d = DetectedFrame::from_parts(2, 2, (1..=8).collect());
        assert_eq!(d.n_symbols(), 2);
        assert_eq!(d.get(1, 0), &[5, 6]);
        let all: Vec<_> = d.iter().collect();
        assert_eq!(all, [[1, 2], [3, 4], [5, 6], [7, 8]]);
    }
}

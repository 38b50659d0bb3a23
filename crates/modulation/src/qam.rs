//! Gray-mapped square QAM constellations.
//!
//! Symbols are indexed on an `m × m` grid (`m = √|Q|`): index
//! `i = row·m + col`, where `col` selects the in-phase (real) level and
//! `row` the quadrature (imaginary) level. Levels are the odd integers
//! `{−(m−1), …, −1, +1, …, m−1}` scaled so the *average* symbol energy is 1
//! (`Es = 1`), matching the convention of the paper's Eq. 4.
//!
//! Bits are Gray-coded independently per axis, as in 802.11/LTE, so one
//! nearest-neighbour symbol error flips exactly one bit per axis.

use flexcore_numeric::Cx;
use std::sync::OnceLock;

/// Supported modulation orders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying (1 bit/symbol, real axis only).
    Bpsk,
    /// 4-QAM (QPSK), 2 bits/symbol.
    Qpsk,
    /// 16-QAM, 4 bits/symbol.
    Qam16,
    /// 64-QAM, 6 bits/symbol.
    Qam64,
    /// 256-QAM, 8 bits/symbol.
    Qam256,
}

impl Modulation {
    /// Constellation size `|Q|`.
    pub fn order(self) -> usize {
        match self {
            Modulation::Bpsk => 2,
            Modulation::Qpsk => 4,
            Modulation::Qam16 => 16,
            Modulation::Qam64 => 64,
            Modulation::Qam256 => 256,
        }
    }

    /// Bits carried per symbol, `log2 |Q|`.
    pub fn bits_per_symbol(self) -> usize {
        self.order().trailing_zeros() as usize
    }

    /// Grid side `m = √|Q|` for square constellations; BPSK reports 2
    /// (a 2×1 grid handled specially).
    pub(crate) fn grid_side(self) -> usize {
        match self {
            Modulation::Bpsk => 2,
            m => (m.order() as f64).sqrt() as usize,
        }
    }

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
            Modulation::Qam256 => "256-QAM",
        }
    }
}

/// A concrete constellation: points, bit mapping, scaling and slicing.
///
/// Its tables are built once per modulation and process and shared by
/// every constellation of that modulation, so a clone (one per detector,
/// and per prepared state) copies a reference and allocates nothing.
#[derive(Clone, Debug)]
pub struct Constellation {
    modulation: Modulation,
    tables: &'static Tables,
}

/// What a [`Constellation`] looks up, one set per modulation.
#[derive(Debug)]
struct Tables {
    /// All points, indexed by symbol index.
    points: Vec<Cx>,
    /// `scale` maps integer grid levels to normalised amplitudes.
    scale: f64,
    /// `bit_words[idx]` = the symbol's bits, MSB first, one byte each
    /// (byte `k` of the little-endian word is bit `k`).
    bit_words: Vec<u64>,
    /// `index_of[pattern]` = the symbol whose bits, read MSB first as a
    /// `bits_per_symbol`-bit integer, are `pattern`.
    index_of: Vec<u8>,
}

impl Tables {
    fn new(modulation: Modulation) -> Self {
        let (points, scale) = match modulation {
            // ±1 on the real axis; Es = 1 already.
            Modulation::Bpsk => (vec![Cx::real(-1.0), Cx::real(1.0)], 1.0),
            m => {
                let side = m.grid_side();
                // Average energy of unit-spaced square QAM: 2(M−1)/3.
                let scale = (3.0 / (2.0 * (m.order() as f64 - 1.0))).sqrt();
                let mut points = Vec::with_capacity(m.order());
                for row in 0..side {
                    for col in 0..side {
                        points.push(Cx::new(
                            level_value(col, side) * scale,
                            level_value(row, side) * scale,
                        ));
                    }
                }
                (points, scale)
            }
        };
        let bit_words: Vec<u64> = (0..modulation.order())
            .map(|idx| gray_word(modulation, idx))
            .collect();
        let mut index_of = vec![0u8; modulation.order()];
        for (idx, &word) in bit_words.iter().enumerate() {
            index_of[pattern_of(word, modulation.bits_per_symbol())] = idx as u8;
        }
        Tables {
            points,
            scale,
            bit_words,
            index_of,
        }
    }
}

impl Constellation {
    /// The constellation for a modulation order. The first one of a
    /// modulation in a process builds its tables; every later one shares
    /// them.
    pub fn new(modulation: Modulation) -> Self {
        static TABLES: [OnceLock<Tables>; 5] = [const { OnceLock::new() }; 5];
        let slot = match modulation {
            Modulation::Bpsk => 0,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
            Modulation::Qam256 => 4,
        };
        Constellation {
            modulation,
            tables: TABLES[slot].get_or_init(|| Tables::new(modulation)),
        }
    }

    /// The modulation this constellation implements.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// `|Q|`.
    pub fn order(&self) -> usize {
        self.tables.points.len()
    }

    /// `log2 |Q|`.
    pub fn bits_per_symbol(&self) -> usize {
        self.modulation.bits_per_symbol()
    }

    /// Grid side `m` (√|Q| for square QAM).
    pub(crate) fn grid_side(&self) -> usize {
        self.modulation.grid_side()
    }

    /// Level→amplitude scaling factor (grid levels are odd integers).
    pub(crate) fn scale(&self) -> f64 {
        self.tables.scale
    }

    /// All constellation points, indexed by symbol index.
    pub fn points(&self) -> &[Cx] {
        &self.tables.points
    }

    /// The point for a symbol index.
    ///
    /// # Panics
    /// Panics if `idx >= |Q|`.
    pub fn point(&self, idx: usize) -> Cx {
        self.tables.points[idx]
    }

    /// Converts `(col, row)` grid coordinates to a symbol index.
    ///
    /// BPSK uses `row = 0` and `col ∈ {0, 1}`.
    pub(crate) fn grid_to_index(&self, col: usize, row: usize) -> usize {
        match self.modulation {
            Modulation::Bpsk => {
                debug_assert!(row == 0 && col < 2);
                col
            }
            _ => row * self.grid_side() + col,
        }
    }

    /// Maps `bits_per_symbol` bits (MSB first) to a symbol index.
    ///
    /// The first half of the bits Gray-code the in-phase level, the second
    /// half the quadrature level (BPSK: the single bit picks ±1).
    ///
    /// # Panics
    /// Panics if `bits.len() != bits_per_symbol()`.
    pub fn bits_to_index(&self, bits: &[u8]) -> usize {
        assert_eq!(
            bits.len(),
            self.bits_per_symbol(),
            "bits_to_index: wrong bit count"
        );
        let pattern = bits.iter().fold(0usize, |acc, &b| {
            debug_assert!(b <= 1);
            (acc << 1) | usize::from(b & 1)
        });
        usize::from(self.tables.index_of[pattern])
    }

    /// Maps a symbol index back to its bits (MSB first).
    pub fn index_to_bits(&self, idx: usize) -> Vec<u8> {
        let mut bits = vec![0u8; self.bits_per_symbol()];
        self.index_to_bits_into(idx, &mut bits);
        bits
    }

    /// Writes a symbol index's bits (MSB first) into a caller-owned buffer
    /// of length `bits_per_symbol()` — the allocation-free kernel behind
    /// [`Constellation::index_to_bits`], used by the soft-output hot path.
    ///
    /// # Panics
    /// Panics if `out.len() != bits_per_symbol()`.
    pub fn index_to_bits_into(&self, idx: usize, out: &mut [u8]) {
        assert_eq!(out.len(), self.bits_per_symbol(), "index_to_bits_into");
        out.copy_from_slice(&self.tables.bit_words[idx].to_le_bytes()[..out.len()]);
    }

    /// Hard-slices an arbitrary complex point to the nearest symbol index.
    pub fn slice(&self, y: Cx) -> usize {
        match self.modulation {
            Modulation::Bpsk => usize::from(y.re >= 0.0),
            _ => {
                let side = self.grid_side();
                let col = nearest_level_index(y.re / self.scale(), side);
                let row = nearest_level_index(y.im / self.scale(), side);
                self.grid_to_index(col, row)
            }
        }
    }
}

/// The amplitude (in integer grid units) of level index `i` out of `side`:
/// `−(side−1), −(side−3), …, (side−1)` — consecutive odd integers.
pub(crate) fn level_value(i: usize, side: usize) -> f64 {
    (2.0 * i as f64) - (side as f64 - 1.0)
}

/// Nearest level index to a real coordinate in integer grid units
/// (clamped to the constellation).
pub(crate) fn nearest_level_index(x: f64, side: usize) -> usize {
    // Levels are at 2i − (side−1); invert and round.
    let i = (x + side as f64 - 1.0) / 2.0;
    (i.round().max(0.0) as usize).min(side - 1)
}

/// Symbol `idx`'s bits as a byte-per-bit word (byte `k` = bit `k`, MSB
/// first): each axis's level index Gray-coded, in-phase half first.
fn gray_word(modulation: Modulation, idx: usize) -> u64 {
    let (col, row, half) = match modulation {
        Modulation::Bpsk => return idx as u64,
        m => (
            idx % m.grid_side(),
            idx / m.grid_side(),
            m.bits_per_symbol() / 2,
        ),
    };
    let gray = |level: usize| level ^ (level >> 1);
    let axes = gray(col) << half | gray(row);
    let bit = |k: usize| ((axes >> (2 * half - 1 - k)) & 1) as u64;
    (0..2 * half).fold(0, |word, k| word | bit(k) << (8 * k))
}

/// A byte-per-bit word's `bps` bits read MSB first as an integer.
fn pattern_of(word: u64, bps: usize) -> usize {
    (0..bps).fold(0, |acc, k| acc << 1 | (word >> (8 * k) & 1) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Test-only conversions: the product maps bits and grid cells
    /// through `bits_to_index`, `grid_to_index` and `slice`.
    impl Constellation {
        /// Converts a symbol index to `(col, row)` grid coordinates.
        fn index_to_grid(&self, idx: usize) -> (usize, usize) {
            match self.modulation {
                Modulation::Bpsk => (idx, 0),
                _ => (idx % self.grid_side(), idx / self.grid_side()),
            }
        }

        /// Modulates a bit slice into symbols (length must be a multiple of
        /// `bits_per_symbol`).
        fn modulate(&self, bits: &[u8]) -> Vec<Cx> {
            let bps = self.bits_per_symbol();
            assert_eq!(
                bits.len() % bps,
                0,
                "modulate: bit count not a multiple of bits/symbol"
            );
            bits.chunks(bps)
                .map(|c| self.point(self.bits_to_index(c)))
                .collect()
        }

        /// Demodulates symbol points to bits by hard slicing.
        fn demodulate(&self, symbols: &[Cx]) -> Vec<u8> {
            symbols
                .iter()
                .flat_map(|&y| self.index_to_bits(self.slice(y)))
                .collect()
        }
    }

    const ALL: &[Modulation] = &[
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
    ];

    /// The parent commit's Gray mapping: grid coordinates by `%` and `/`,
    /// a per-axis Gray code and its inverse, a loop per bit.
    fn gray_reference(m: Modulation) -> (Vec<Vec<u8>>, Vec<usize>) {
        let c = Constellation::new(m);
        let (bps, side) = (m.bits_per_symbol(), m.grid_side());
        let gray: Vec<usize> = (0..side).map(|i| i ^ (i >> 1)).collect();
        let mut gray_inv = vec![0usize; side];
        for (i, &g) in gray.iter().enumerate() {
            gray_inv[g] = i;
        }
        let to_bits = |mut v: usize, out: &mut [u8]| {
            for i in (0..out.len()).rev() {
                out[i] = (v & 1) as u8;
                v >>= 1;
            }
        };
        let to_uint = |bits: &[u8]| bits.iter().fold(0, |acc, &b| (acc << 1) | b as usize);
        let bits = (0..c.order())
            .map(|idx| {
                let mut out = vec![0u8; bps];
                if m == Modulation::Bpsk {
                    out[0] = idx as u8;
                } else {
                    let (col, row) = c.index_to_grid(idx);
                    to_bits(gray[col], &mut out[..bps / 2]);
                    to_bits(gray[row], &mut out[bps / 2..]);
                }
                out
            })
            .collect();
        let indices = (0..c.order())
            .map(|pattern| {
                let mut bits = vec![0u8; bps];
                to_bits(pattern, &mut bits);
                if m == Modulation::Bpsk {
                    return usize::from(bits[0]);
                }
                let col = gray_inv[to_uint(&bits[..bps / 2])];
                let row = gray_inv[to_uint(&bits[bps / 2..])];
                c.grid_to_index(col, row)
            })
            .collect();
        (bits, indices)
    }

    #[test]
    fn mapping_tables_equal_the_gray_reference_exhaustively() {
        for &m in ALL {
            let c = Constellation::new(m);
            let (bits, indices) = gray_reference(m);
            let mut out = vec![0u8; c.bits_per_symbol()];
            for (idx, want) in bits.iter().enumerate() {
                c.index_to_bits_into(idx, &mut out);
                assert_eq!(&out, want, "{m:?} index {idx}");
                assert_eq!(&c.index_to_bits(idx), want);
            }
            for (pattern, &idx) in indices.iter().enumerate() {
                let mut pattern_bits = bits[idx].clone();
                pattern_bits
                    .iter_mut()
                    .enumerate()
                    .for_each(|(k, b)| *b = (pattern >> (c.bits_per_symbol() - 1 - k) & 1) as u8);
                assert_eq!(
                    c.bits_to_index(&pattern_bits),
                    idx,
                    "{m:?} pattern {pattern}"
                );
            }
        }
    }

    #[test]
    fn constellations_of_a_modulation_share_one_set_of_tables() {
        // A clone, and a constellation built later, read the tables the
        // first one built: the same points in the same memory.
        for &m in ALL {
            let first = Constellation::new(m);
            for other in [first.clone(), Constellation::new(m)] {
                assert!(std::ptr::eq(first.points(), other.points()), "{m:?}");
                assert!(std::ptr::eq(first.tables, other.tables), "{m:?}");
            }
        }
    }

    #[test]
    fn orders_and_bits() {
        assert_eq!(Modulation::Qam64.order(), 64);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
        assert_eq!(Modulation::Qam16.grid_side(), 4);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
    }

    #[test]
    fn unit_average_energy() {
        for &m in ALL {
            let c = Constellation::new(m);
            let e = (0..c.order()).map(|i| c.point(i).norm_sqr()).sum::<f64>() / c.order() as f64;
            assert!((e - 1.0).abs() < 1e-12, "{:?}: Es = {e}", m);
        }
    }

    #[test]
    fn bits_roundtrip_all_symbols() {
        for &m in ALL {
            let c = Constellation::new(m);
            for idx in 0..c.order() {
                let bits = c.index_to_bits(idx);
                assert_eq!(bits.len(), c.bits_per_symbol());
                assert_eq!(c.bits_to_index(&bits), idx, "{:?} idx {idx}", m);
            }
        }
    }

    #[test]
    fn slicing_is_identity_on_constellation_points() {
        for &m in ALL {
            let c = Constellation::new(m);
            for idx in 0..c.order() {
                assert_eq!(c.slice(c.point(idx)), idx, "{:?} idx {idx}", m);
            }
        }
    }

    #[test]
    fn slicing_clamps_outside_points() {
        let c = Constellation::new(Modulation::Qam16);
        // Far in the upper-right corner → highest I and Q levels.
        let idx = c.slice(Cx::new(100.0, 100.0));
        let p = c.point(idx);
        let maxlvl = 3.0 * c.scale();
        assert!((p.re - maxlvl).abs() < 1e-12 && (p.im - maxlvl).abs() < 1e-12);
    }

    #[test]
    fn gray_mapping_neighbours_differ_by_one_bit() {
        // Horizontally adjacent symbols must differ in exactly one bit.
        for &m in &[Modulation::Qam16, Modulation::Qam64] {
            let c = Constellation::new(m);
            let side = c.grid_side();
            for row in 0..side {
                for col in 0..side - 1 {
                    let a = c.index_to_bits(c.grid_to_index(col, row));
                    let b = c.index_to_bits(c.grid_to_index(col + 1, row));
                    let diff: usize = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                    assert_eq!(diff, 1, "{:?} row {row} col {col}", m);
                }
            }
        }
    }

    #[test]
    fn modulate_demodulate_roundtrip() {
        for &m in ALL {
            let c = Constellation::new(m);
            let bps = c.bits_per_symbol();
            let bits: Vec<u8> = (0..bps * 32).map(|i| ((i * 7 + 3) % 5 % 2) as u8).collect();
            let syms = c.modulate(&bits);
            assert_eq!(syms.len(), 32);
            assert_eq!(c.demodulate(&syms), bits, "{:?}", m);
        }
    }

    #[test]
    fn modulation_roundtrip() {
        // Random bit strings through every modulation up to 64-QAM: 256
        // seeded cases of 120 bits, cut to whole symbols.
        let mut rng = StdRng::seed_from_u64(0xDE4D);
        for _ in 0..256 {
            let bits: Vec<u8> = (0..6 * 20).map(|_| rng.gen_range(0u8..2)).collect();
            for m in [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
            ] {
                let c = Constellation::new(m);
                let n = bits.len() - bits.len() % c.bits_per_symbol();
                let chunk = &bits[..n];
                assert_eq!(c.demodulate(&c.modulate(chunk)), chunk.to_vec());
            }
        }
    }

    #[test]
    fn level_helpers() {
        assert_eq!(level_value(0, 4), -3.0);
        assert_eq!(level_value(3, 4), 3.0);
        assert_eq!(nearest_level_index(-3.2, 4), 0);
        assert_eq!(nearest_level_index(0.9, 4), 2);
        assert_eq!(nearest_level_index(42.0, 4), 3);
    }

    #[test]
    fn bpsk_is_real_axis() {
        let c = Constellation::new(Modulation::Bpsk);
        assert_eq!(c.point(0), Cx::real(-1.0));
        assert_eq!(c.point(1), Cx::real(1.0));
        assert_eq!(c.slice(Cx::new(-0.1, 5.0)), 0);
        assert_eq!(c.slice(Cx::new(0.1, -5.0)), 1);
    }

    #[test]
    fn grid_index_roundtrip() {
        for &m in ALL {
            let c = Constellation::new(m);
            for idx in 0..c.order() {
                let (col, row) = c.index_to_grid(idx);
                assert_eq!(c.grid_to_index(col, row), idx);
            }
        }
    }
}

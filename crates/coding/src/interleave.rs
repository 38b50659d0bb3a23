//! The 802.11a/g two-permutation block interleaver.
//!
//! Coded bits within one OFDM symbol are permuted so that (first
//! permutation) adjacent coded bits map onto non-adjacent subcarriers and
//! (second permutation) they alternate between more- and less-significant
//! constellation bit positions. Operates on blocks of
//! `n_cbps = n_subcarriers · bits_per_symbol` bits.

/// Interleaver for one OFDM symbol's worth of coded bits.
#[derive(Clone, Debug)]
pub struct Interleaver {
    /// `perm[k]` = output position of input bit `k`.
    perm: Vec<u16>,
    /// Inverse permutation.
    inv: Vec<u16>,
}

impl Interleaver {
    /// Builds the interleaver for `n_data_subcarriers` subcarriers carrying
    /// `bits_per_symbol` coded bits each (e.g. 48 × 6 for 64-QAM 802.11).
    ///
    /// # Panics
    /// Panics unless the block size `n_cbps` is a positive multiple of 16
    /// and at most 2¹⁶ (positions are stored as `u16`).
    // The index-form loop mirrors the 802.11 standard's k → i → j notation.
    #[allow(clippy::needless_range_loop)]
    pub fn new(n_data_subcarriers: usize, bits_per_symbol: usize) -> Self {
        assert!(n_data_subcarriers > 0 && bits_per_symbol > 0);
        let n_cbps = n_data_subcarriers * bits_per_symbol;
        assert_eq!(
            n_cbps % 16,
            0,
            "802.11 interleaver needs N_CBPS divisible by 16 (got {n_cbps})"
        );
        assert!(n_cbps <= 1 << 16, "N_CBPS {n_cbps} exceeds 2^16");
        let s = (bits_per_symbol / 2).max(1);
        let mut perm = vec![0u16; n_cbps];
        for k in 0..n_cbps {
            // First permutation.
            let i = (n_cbps / 16) * (k % 16) + k / 16;
            // Second permutation.
            let j = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
            perm[k] = j as u16;
        }
        let mut inv = vec![0u16; n_cbps];
        for (k, &j) in perm.iter().enumerate() {
            inv[usize::from(j)] = k as u16;
        }
        Interleaver { perm, inv }
    }

    /// The air-position → coded-position table of one block:
    /// `coded_positions()[j]` is the position, within its block, of the
    /// coded bit the interleaver sends at position `j`. A transmitter
    /// gathers through it and a receiver scatters through it, each in one
    /// pass with no second buffer.
    pub fn coded_positions(&self) -> &[u16] {
        &self.inv
    }

    /// Interleaves a multi-block stream of any element (length must be a
    /// multiple of the block size).
    ///
    /// # Panics
    /// Panics unless `bits` is block-aligned.
    pub fn interleave_stream<T: Copy + Default>(&self, bits: &[T]) -> Vec<T> {
        scatter_blocks(&self.perm, bits)
    }

    /// Inverts [`Interleaver::interleave_stream`] over a multi-block stream
    /// of any element — bits, or the LLRs of a soft pipeline.
    ///
    /// # Panics
    /// Panics unless `bits` is block-aligned.
    pub fn deinterleave_stream<T: Copy + Default>(&self, bits: &[T]) -> Vec<T> {
        scatter_blocks(&self.inv, bits)
    }
}

/// `out[block][perm[k]] = src[block][k]` over every `perm.len()`-block.
fn scatter_blocks<T: Copy + Default>(perm: &[u16], src: &[T]) -> Vec<T> {
    let n = perm.len();
    assert_eq!(src.len() % n, 0, "stream not block-aligned");
    let mut out = vec![T::default(); src.len()];
    for (dst, src) in out.chunks_exact_mut(n).zip(src.chunks_exact(n)) {
        for (&to, &value) in perm.iter().zip(src) {
            dst[usize::from(to)] = value;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Single-block forms: the product interleaves whole streams.
    impl Interleaver {
        /// Block size in bits.
        fn block_len(&self) -> usize {
            self.perm.len()
        }

        /// Interleaves one block.
        fn interleave(&self, bits: &[u8]) -> Vec<u8> {
            assert_eq!(bits.len(), self.block_len(), "interleave: wrong block size");
            self.interleave_stream(bits)
        }

        /// Inverts `interleave`.
        fn deinterleave(&self, bits: &[u8]) -> Vec<u8> {
            assert_eq!(
                bits.len(),
                self.block_len(),
                "deinterleave: wrong block size"
            );
            self.deinterleave_stream(bits)
        }
    }

    #[test]
    fn interleaver_is_a_bijection() {
        // 256 seeded random blocks of the 48 × 2 (QPSK) numerology.
        let il = Interleaver::new(48, 2);
        let mut rng = StdRng::seed_from_u64(0x1EAF);
        for _ in 0..256 {
            let bits: Vec<u8> = (0..96).map(|_| rng.gen_range(0..2)).collect();
            assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
        }
    }

    #[test]
    fn permutation_is_bijective() {
        for bps in [1usize, 2, 4, 6, 8] {
            let il = Interleaver::new(48, bps);
            let mut seen = vec![false; il.block_len()];
            for &p in &il.perm {
                let p = usize::from(p);
                assert!(!seen[p], "collision at {p}");
                seen[p] = true;
            }
        }
    }

    #[test]
    fn roundtrip() {
        let il = Interleaver::new(48, 6);
        let mut rng = StdRng::seed_from_u64(2);
        let bits: Vec<u8> = (0..il.block_len()).map(|_| rng.gen_range(0..2)).collect();
        assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    fn stream_roundtrip() {
        let il = Interleaver::new(48, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let bits: Vec<u8> = (0..il.block_len() * 5)
            .map(|_| rng.gen_range(0..2))
            .collect();
        assert_eq!(il.deinterleave_stream(&il.interleave_stream(&bits)), bits);
    }

    #[test]
    fn llr_streams_deinterleave_like_bit_streams() {
        let il = Interleaver::new(48, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let bits: Vec<u8> = (0..2 * il.block_len())
            .map(|_| rng.gen_range(0..2))
            .collect();
        let interleaved = il.interleave_stream(&bits);
        // The same inverse permutation on signed LLRs as on bits.
        let llrs: Vec<f64> = interleaved
            .iter()
            .map(|&b| if b == 0 { 5.0 } else { -5.0 })
            .collect();
        let back = il.deinterleave_stream(&llrs);
        let back: Vec<u8> = back.iter().map(|&l| u8::from(l < 0.0)).collect();
        assert_eq!(back, bits);
        assert_eq!(il.deinterleave_stream(&interleaved), bits);
    }

    #[test]
    fn adjacent_bits_separated() {
        // The defining property: adjacent coded bits land on different
        // subcarriers (positions ≥ bits_per_symbol apart in subcarrier
        // index).
        let bps = 6;
        let il = Interleaver::new(48, bps);
        for k in 0..il.block_len() - 1 {
            let sc_a = usize::from(il.perm[k]) / bps;
            let sc_b = usize::from(il.perm[k + 1]) / bps;
            assert_ne!(sc_a, sc_b, "bits {k},{} share subcarrier {sc_a}", k + 1);
        }
    }

    #[test]
    fn burst_error_is_spread() {
        // A 12-bit burst after interleaving must touch ≥ 12 distinct
        // subcarriers when deinterleaved ... i.e. no subcarrier collects
        // more than 2 of the burst bits.
        let bps = 6;
        let il = Interleaver::new(48, bps);
        let burst_start = 100;
        let mut hit = vec![0usize; 48];
        for j in burst_start..burst_start + 12 {
            let k = usize::from(il.inv[j]);
            hit[k / bps] += 1;
        }
        assert!(hit.iter().all(|&h| h <= 2), "burst concentrated: {hit:?}");
    }

    #[test]
    #[should_panic(expected = "divisible by 16")]
    fn rejects_unaligned_block() {
        let _ = Interleaver::new(7, 2);
    }

    #[test]
    #[should_panic(expected = "wrong block size")]
    fn rejects_wrong_length() {
        let il = Interleaver::new(48, 2);
        il.interleave(&[0u8; 10]);
    }
}

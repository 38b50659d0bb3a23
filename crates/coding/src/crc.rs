//! CRC-32 frame check sequence over bit streams.
//!
//! Every 802.11 MPDU ends in the IEEE CRC-32 FCS; the receiver accepts a
//! frame only if the decoded payload's CRC matches. The uplink harness
//! works on *bit arrays* (one `u8` per bit, the shape the coding chain
//! uses throughout), so this module implements the standard reflected
//! CRC-32 (polynomial `0xEDB88320`, init/final-XOR `0xFFFF_FFFF`) directly
//! over a bit stream: feeding a byte string LSB-first per byte reproduces
//! the canonical byte-wise CRC-32 exactly (checked against the
//! `"123456789" → 0xCBF43926` test vector).
//!
//! The streamed packet paths (`flexcore-phy`) use this as the per-user
//! delivery check behind goodput accounting: a packet counts as delivered
//! only when the decoded payload's CRC equals the transmitted payload's —
//! the observable a real MAC layer has, instead of the simulator-only
//! bit-for-bit payload comparison.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLE[b]` = eight bit steps of the register from `b` (the canonical
/// byte-wise CRC-32 table).
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 8 {
            crc = bit_step(crc, 0);
            k += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// One register step on input bit `b`, the polynomial folded in by mask.
const fn bit_step(crc: u32, b: u8) -> u32 {
    let fed = (crc ^ b as u32) & 1;
    (crc >> 1) ^ (POLY & fed.wrapping_neg())
}

/// CRC-32 of a bit stream (`bits[i] ∈ {0, 1}`, transmission order).
///
/// Branch-free: each whole byte of bits is packed LSB-first (the order the
/// byte-wise CRC consumes) by one multiply and takes one table step;
/// the last `len % 8` bits take register steps.
///
/// # Panics
/// Panics if any entry is not 0 or 1.
pub(crate) fn crc32_bits(bits: &[u8]) -> u32 {
    let worst = bits.iter().fold(0, |worst, &b| worst.max(b));
    assert!(worst <= 1, "crc32_bits: non-bit value {worst}");
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut bytes = bits.chunks_exact(8);
    for chunk in &mut bytes {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        // Byte `i` of the word (0 or 1) lands on bit `56 + i`: the eight
        // shifted copies never overlap there and carry nothing into it.
        let byte = (u64::from_le_bytes(word).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32;
        crc = TABLE[((crc ^ byte) & 0xFF) as usize] ^ (crc >> 8);
    }
    for &b in bytes.remainder() {
        crc = bit_step(crc, b);
    }
    !crc
}

/// Whether `decoded` carries the same CRC-32 as `sent` — the receiver-side
/// frame check. Length disagreement is an automatic failure (a real FCS
/// covers the length field too).
pub fn crc_check(sent: &[u8], decoded: &[u8]) -> bool {
    sent.len() == decoded.len() && crc32_bits(sent) == crc32_bits(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unpacks a byte string LSB-first — the bit order in which the
    /// canonical byte-wise CRC-32 consumes its input.
    fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
        bytes
            .iter()
            .flat_map(|&byte| (0..8).map(move |i| (byte >> i) & 1))
            .collect()
    }

    #[test]
    fn matches_the_canonical_check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32_bits(&bytes_to_bits(b"123456789")), 0xCBF4_3926);
    }

    /// The parent commit's register, one branch per bit.
    fn crc32_bitwise(bits: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bits {
            let fed = (crc ^ u32::from(b)) & 1;
            crc >>= 1;
            if fed == 1 {
                crc ^= POLY;
            }
        }
        !crc
    }

    #[test]
    fn byte_steps_equal_the_bitwise_register() {
        // Every length mod 8 (the tail), and every byte value in a chunk.
        let bits: Vec<u8> = (0..256u32 * 8 + 13)
            .map(|i| ((i / 8) >> (i % 8) & 1) as u8)
            .collect();
        for len in (0..64).chain([240, 961, bits.len()]) {
            assert_eq!(
                crc32_bits(&bits[..len]),
                crc32_bitwise(&bits[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn empty_and_trivial_inputs() {
        assert_eq!(crc32_bits(&[]), 0);
        // Single bits give distinct, fixed values.
        assert_ne!(crc32_bits(&[0]), crc32_bits(&[1]));
    }

    #[test]
    fn single_bit_flip_always_changes_the_crc() {
        // CRC-32 detects every single-bit error.
        let bits = bytes_to_bits(b"flexcore streaming uplink");
        let reference = crc32_bits(&bits);
        for i in 0..bits.len() {
            let mut flipped = bits.clone();
            flipped[i] ^= 1;
            assert_ne!(crc32_bits(&flipped), reference, "bit {i} undetected");
        }
    }

    #[test]
    fn check_accepts_equal_and_rejects_corrupt() {
        let sent = bytes_to_bits(b"payload");
        assert!(crc_check(&sent, &sent.clone()));
        let mut corrupt = sent.clone();
        corrupt[13] ^= 1;
        assert!(!crc_check(&sent, &corrupt));
        assert!(
            !crc_check(&sent, &sent[..sent.len() - 8]),
            "length mismatch"
        );
    }

    #[test]
    #[should_panic(expected = "non-bit value")]
    fn rejects_non_bit_input() {
        let _ = crc32_bits(&[0, 1, 2]);
    }
}

//! The host-speed reference: a fixed kernel of the benchmark's own,
//! interleaved with the timed operations, whose speed says how fast the
//! host was *while* they ran.
//!
//! Why: the sizing host (2 vCPUs under KVM) has phases of minutes in which
//! every instruction stream runs 10–60 % slower — a neighbour sharing the
//! core, most likely. No estimator over a 16-second run can reject a
//! slowdown that covers the whole run, so the run measures it instead: a
//! few microseconds of this kernel after every operation see the same
//! host conditions as the operation did, and every end-to-end timing is
//! scaled by `measured speed ÷ nominal speed` of its block. Measured in
//! such phases on `detect_8x8` (487 frames/s when quiet): per-block
//! frames/s 212–448 raw and raw quiet-decile 369–415 per run, while five
//! scaled runs at host speeds 0.59–0.77 spanned 4 %.
//!
//! The kernel is product-shaped — complex multiply-accumulate, a slicing
//! step, reads from a 64 KiB table, and an eighth of its input streamed
//! through the last-level cache — because the host slows compute-bound
//! and cache-bound code by different factors: a variant without the
//! streamed input spanned 8.5 % over the same five runs. It shares no
//! code with the product: a change to the product cannot move it, so a
//! real speed-up or regression passes through the scaling untouched.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Units per second of [`Reference::run`] on the sizing host when it is
/// quiet (2026-10-01). Only sets the scale: scaled timings read as if
/// taken on that host at that speed.
pub const NOMINAL_UNITS_PER_S: f64 = 171_000.0;

const N: usize = 8;
const VECTORS: usize = 64;
const GRID: usize = 64;
/// Vectors per unit read from the streamed buffer instead of the hot one.
const STREAMED: usize = 8;
/// Complex samples in the streamed buffer: 16 MiB, far beyond L2, so an
/// eighth of the kernel's input comes through the shared last-level
/// cache the way the product's frames and prepared state do.
const STREAM_LEN: usize = 1 << 20;

/// The kernel's fixed inputs.
pub struct Reference {
    q: Vec<(f64, f64)>,
    y: Vec<(f64, f64)>,
    stream: Vec<(f64, f64)>,
    /// Next sample of `stream` to read. Relaxed everywhere: it only
    /// spreads reads over the buffer; no data is published through it.
    cursor: AtomicUsize,
    table: Vec<u16>,
}

impl Default for Reference {
    fn default() -> Self {
        // xorshift64: any fixed, well-mixed inputs do.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        Reference {
            q: (0..N * N).map(|_| (next(), next())).collect(),
            y: (0..VECTORS * N)
                .map(|_| (next() * 4.0, next() * 4.0))
                .collect(),
            stream: (0..STREAM_LEN)
                .map(|_| (next() * 4.0, next() * 4.0))
                .collect(),
            cursor: AtomicUsize::new(0),
            table: (0..GRID * GRID * N).map(|i| (i * 7 % 16) as u16).collect(),
        }
    }
}

impl Reference {
    /// One unit of work (≈6 µs): 64 rounds of an 8×8 complex rotate, a
    /// grid slice, a table read and a distance accumulation; 8 of the 64
    /// input vectors are the next 1 KiB of the streamed buffer.
    #[inline(never)]
    fn unit(&self) -> u64 {
        let mut acc = 0u64;
        let mut metric = 0.0f64;
        let start = self.cursor.fetch_add(STREAMED * N, Ordering::Relaxed) % STREAM_LEN;
        let fresh = self.stream[start..start + STREAMED * N].chunks_exact(N);
        for y in fresh.chain(self.y.chunks_exact(N).skip(STREAMED)) {
            for r in 0..N {
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for (c, &(yr, yi)) in y.iter().enumerate() {
                    let (qr, qi) = self.q[c * N + r];
                    re += qr * yr + qi * yi;
                    im += qr * yi - qi * yr;
                }
                let i = ((re * 8.0).floor() as i64 & (GRID as i64 - 1)) as usize;
                let j = ((im * 8.0).floor() as i64 & (GRID as i64 - 1)) as usize;
                let sym = self.table[(j * GRID + i) * N + r];
                acc += u64::from(sym);
                let d = re - f64::from(sym) * 0.1;
                metric += d * d + im * im;
            }
        }
        acc + (metric as u64 & 1)
    }

    /// Runs `units` units and returns the seconds they took.
    pub fn run(&self, units: u64) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0;
        for _ in 0..units {
            acc += self.unit();
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

/// Host speed relative to the quiet sizing host (1.0 = nominal) from
/// `units` reference units that took `seconds`.
pub fn host_speed(units: u64, seconds: f64) -> f64 {
    units as f64 / seconds / NOMINAL_UNITS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed_and_speed_is_relative_to_nominal() {
        let r = Reference::default();
        let first = r.unit();
        r.cursor.store(0, Ordering::Relaxed);
        assert_eq!(first, r.unit(), "same inputs, same result");
        assert!(r.run(10) > 0.0);
        assert_eq!(host_speed(NOMINAL_UNITS_PER_S as u64, 1.0), 1.0);
        assert_eq!(host_speed(NOMINAL_UNITS_PER_S as u64, 2.0), 0.5);
    }
}

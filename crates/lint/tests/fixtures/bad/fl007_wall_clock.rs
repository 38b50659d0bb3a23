//! Known-bad: library code reads the wall clock instead of modelling time.

use std::time::Instant;

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

//! Known-good: refilling a buffer that already has the capacity is not an
//! allocating idiom. FL001 denies constructors and copying methods
//! (`Vec::new`, `vec!`, `.clone()`, `.collect()`), not `clear` followed by
//! `reserve` / `resize` / `extend` / `push`, and not `clone_from` — the
//! shape of every in-place re-prepare kernel.

pub fn refill(levels: &mut Vec<f64>, scratch: &mut Vec<f64>, source: &Vec<f64>, n: usize) {
    // flexcore-lint: hot-path
    levels.clear();
    levels.reserve(n);
    levels.resize(n, 0.0);
    levels.truncate(n / 2);
    levels.extend(source.iter().take(n / 2));
    levels.push(1.0);
    scratch.clone_from(source);
}

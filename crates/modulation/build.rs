//! Derives the predefined ordering of every modulation (`src/derive.rs`)
//! and writes it to `$OUT_DIR/orders.rs`, which `src/ordering.rs` includes
//! as `static` data.

use std::path::Path;

#[path = "src/derive.rs"]
mod derive;
#[path = "src/octant.rs"]
mod octant;

/// Candidate radius of each modulation's derivation — its grid side — in
/// `Modulation` discriminant order; BPSK's order is degenerate.
const RADII: [(&str, Option<i32>); 5] = [
    ("BPSK", None),
    ("QPSK", Some(2)),
    ("16-QAM", Some(4)),
    ("64-QAM", Some(8)),
    ("256-QAM", Some(16)),
];

fn main() {
    println!("cargo::rerun-if-changed=build.rs");
    println!("cargo::rerun-if-changed=src/derive.rs");
    println!("cargo::rerun-if-changed=src/octant.rs");
    let mut src = String::from(
        "/// The predefined orders, derived at build time by `build.rs`:\n\
         /// `ORDERS[modulation as usize][triangle][k - 1]` is the lattice offset\n\
         /// `(Δcol, Δrow)` of the k-th closest lattice point.\n\
         static ORDERS: [[&[(i8, i8)]; 8]; 5] = [\n",
    );
    let narrow = |x: i32| i8::try_from(x).expect("offsets are at most the grid side");
    for (name, radius) in RADII {
        src.push_str(&format!("    // {name}\n    [\n"));
        for order in derive::derive_orders(radius) {
            src.push_str("        &[");
            for (di, dj) in order {
                src.push_str(&format!("({}, {}), ", narrow(di), narrow(dj)));
            }
            src.push_str("],\n");
        }
        src.push_str("    ],\n");
    }
    src.push_str("];\n");
    let out = std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR for build scripts");
    std::fs::write(Path::new(&out).join("orders.rs"), src).expect("OUT_DIR is writable");
}

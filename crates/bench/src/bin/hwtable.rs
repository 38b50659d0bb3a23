//! Prints the modelled hardware-efficiency table: FlexCore-16 and
//! a-FlexCore(0.95) on the fpga / gpu / lte fabrics (see
//! `flexcore_sim::experiments::hwtable`).
//! `--full` switches from the quick preset to the whole width sweep;
//! `--csv` emits machine-readable CSV instead of the aligned table.

use flexcore_sim::experiments::hwtable;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = if args.iter().any(|a| a == "--full") {
        hwtable::Cfg::full()
    } else {
        hwtable::Cfg::quick()
    };
    let table = hwtable::run(&cfg);
    if args.iter().any(|a| a == "--csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_pretty());
    }
}

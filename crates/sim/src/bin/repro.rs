//! Regenerates one of the paper's figures / tables, the modelled hardware
//! table or the ablation table: `repro <name> [--full] [--csv]`, `<name>`
//! being one of `flexcore_sim::experiments::EXPERIMENTS` (run without an
//! argument for the list). `--full` switches from the quick preset to the
//! deep-Monte-Carlo one; `--csv` emits machine-readable CSV instead of the
//! aligned table.

use flexcore_sim::experiments::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    let named = args
        .first()
        .and_then(|name| EXPERIMENTS.iter().find(|(n, _)| n == name));
    let Some((_, run)) = named else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(n, _)| n).collect();
        eprintln!("usage: repro <name> [--full] [--csv]");
        eprintln!("names: {}", names.join(" "));
        std::process::exit(2);
    };
    let table = run(flag("--full"));
    if flag("--csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_pretty());
    }
}

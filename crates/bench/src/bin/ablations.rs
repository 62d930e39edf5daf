//! Design-choice ablations: quantify each mechanism the paper's design
//! relies on by perturbing it in isolation —
//!
//! * the Fig. 3 update hysteresis (δ transmission threshold off / doubled),
//! * the spanning-tree construction (bounded random vs shortest-path BFS),
//! * the synthetic world's spatial structure (clustered vs smooth fields),
//! * predictive sensor sampling (the Section 8 future work),
//! * LMAC's per-slot data capacity (dissemination latency).

use dirq_bench::args::HarnessArgs;
use dirq_bench::experiments::ablations;

fn main() {
    let args = HarnessArgs::from_env();
    eprintln!("ablations: 7 runs, {} epochs each (use --quick for a fast pass)", args.epochs);
    let table = ablations(&args);
    println!("# Ablations — effect of each design choice (40% relevance, fixed delta = 5%)");
    println!("{}", table.to_ascii());
    println!("# CSV");
    print!("{}", table.to_csv());
}

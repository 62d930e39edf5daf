//! Regenerates the paper's **headline result** (§1, §7): with the Adaptive
//! Threshold Control, DirQ's total cost — query dissemination plus range
//! updates plus control traffic — lands between 45 % and 55 % of the cost
//! of flooding, across the 20 %/40 %/60 % relevant-node scenarios, while
//! queries still reach their source nodes.

use dirq_bench::args::HarnessArgs;
use dirq_bench::experiments::cost_ratio;

fn main() {
    let args = HarnessArgs::from_env();
    eprintln!("{}", args.banner("cost_ratio: 6 runs"));
    let table = cost_ratio(&args);
    println!("# Headline — DirQ (ATC) vs flooding cost, per query");
    println!("{}", table.to_ascii());
    println!("# CSV");
    print!("{}", table.to_csv());
}

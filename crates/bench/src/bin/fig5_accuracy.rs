//! Regenerates **Fig. 5** of the DirQ paper: effect of the threshold δ on
//! dissemination accuracy, for the 40 % (Fig. 5a) and 60 % (Fig. 5b)
//! relevant-node scenarios.
//!
//! Series per δ ∈ 1..9 %: nodes that SHOULD receive the query, nodes that
//! RECEIVE it, source nodes, and nodes that should NOT have received it —
//! all as percentages of the 50-node network, averaged over the run's
//! queries.
//!
//! Expected shape (paper): the gap between RECEIVE and SHOULD grows with
//! δ and is most pronounced at lower relevance percentages.

use dirq_bench::args::HarnessArgs;
use dirq_bench::experiments::fig5;

fn main() {
    let args = HarnessArgs::from_env();
    eprintln!("{}", args.banner("fig5: 2 scenarios x 9 thresholds"));
    let table = fig5(&args);
    println!("# Fig. 5 — effect of delta on accuracy (means over measured queries)");
    println!("{}", table.to_ascii());
    println!("# CSV");
    print!("{}", table.to_csv());
}

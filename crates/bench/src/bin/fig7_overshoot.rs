//! Regenerates **Fig. 7** of the DirQ paper: query overshoot over time for
//! fixed δ = 3/5/9 % and the Adaptive Threshold Control, at 20 % relevant
//! nodes.
//!
//! Expected shape (paper): overshoot grows with δ; ATC's overshoot sits
//! between the fixed-δ extremes while its cost stays in the 45–55 % band.
//! The summary reports overshoot under both plausible readings of the
//! paper's axis: relative to the should-receive set, and in percentage
//! points of network size.

use dirq_bench::args::HarnessArgs;
use dirq_bench::experiments::fig7;

fn main() {
    let args = HarnessArgs::from_env();
    eprintln!("{}", args.banner("fig7: 4 policies"));
    let (summary, series) = fig7(&args);
    println!("# Fig. 7 — overshoot (20% relevant nodes)");
    println!("{}", summary.to_ascii());
    println!("# CSV series (mean relative overshoot per 1000-epoch interval)");
    print!("{}", series.to_csv());
}

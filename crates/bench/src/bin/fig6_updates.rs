//! Regenerates **Fig. 6** of the DirQ paper: total Update Messages
//! transmitted per 100 epochs over the run, for fixed δ = 3/5/9 % and the
//! Adaptive Threshold Control, at 40 % relevant nodes — together with the
//! reference lines `Umax/Hr`, `0.55·Umax/Hr` and `0.45·Umax/Hr`.
//!
//! Expected shape (paper): fixed thresholds produce flat series whose level
//! falls as δ grows; ATC steers its series into the 0.45–0.55 band, which
//! keeps total DirQ cost at ~45–55 % of flooding.

use dirq_bench::args::HarnessArgs;
use dirq_bench::experiments::fig6;

fn main() {
    let args = HarnessArgs::from_env();
    eprintln!("{}", args.banner("fig6: 4 policies"));
    let (summary, series) = fig6(&args);
    println!("# Fig. 6 — update messages per 100 epochs (40% relevant nodes)");
    println!("{}", summary.to_ascii());
    println!("# CSV series (one row per 100-epoch bucket)");
    print!("{}", series.to_csv());
}

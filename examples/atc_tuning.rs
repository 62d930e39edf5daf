//! Watch the Adaptive Threshold Control work (paper Section 6 / Fig. 6):
//! nodes adjust their thresholds autonomously from the root's hourly query
//! estimate and their locally observed signal variability, steering total
//! cost towards half of flooding.
//!
//! ```sh
//! cargo run --release --example atc_tuning
//! ```

use dirq::prelude::*;

fn main() {
    let epochs = 8_000;
    let r = run_scenario(ScenarioConfig {
        epochs,
        measure_from_epoch: 800,
        delta_policy: DeltaPolicy::Adaptive,
        target_fraction: 0.4,
        ..ScenarioConfig::paper(21)
    });

    let umax_100 = r.u_max_per_hour * 100.0 / r.hour_epochs as f64;
    println!(
        "Umax/hr = {:.0} updates per 100 epochs; ATC band = [{:.0}, {:.0}]",
        umax_100,
        0.45 * umax_100,
        0.55 * umax_100
    );
    println!();
    println!("{:>7} {:>16} {:>12}", "epoch", "updates/100ep", "mean delta %");
    for window in (0..epochs / 100).step_by(8) {
        let upd = r.metrics.updates_per_bucket.sum(window as usize);
        let delta = r
            .delta_trace
            .iter()
            .find(|(e, _)| *e == window * 100)
            .map(|&(_, d)| d)
            .unwrap_or(f64::NAN);
        let marker =
            if upd >= 0.45 * umax_100 && upd <= 0.55 * umax_100 { "  <- in band" } else { "" };
        println!("{:>7} {:>16.0} {:>12.2}{marker}", window * 100, upd, delta);
    }
    println!();
    println!(
        "final per-node deltas: min {:.1}%, mean {:.1}%, max {:.1}%",
        r.final_delta_pcts[1..].iter().cloned().fold(f64::INFINITY, f64::min),
        r.final_delta_pcts[1..].iter().sum::<f64>() / (r.final_delta_pcts.len() - 1) as f64,
        r.final_delta_pcts[1..].iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    );
    println!(
        "cost ratio vs flooding: {:.3}  (paper target: 0.45-0.55)",
        r.cost_ratio_vs_flooding().unwrap()
    );
    println!("mean overshoot: {:.1}%", r.mean_overshoot_pct());
}

//! The paper's motivating scenario (Section 3): an environmental
//! monitoring network in a forest, queried by many users about different
//! physical parameters. Heterogeneous nodes carry different sensor
//! subsets; one-shot range queries arrive continuously.
//!
//! This example runs the scenario and breaks results down per sensor
//! type, demonstrating the multi-table support of Fig. 4.
//!
//! ```sh
//! cargo run --release --example forest_monitoring
//! ```

use dirq::prelude::*;

fn main() {
    let cfg = ScenarioConfig {
        epochs: 6_000,
        measure_from_epoch: 600,
        sensor_coverage: 0.6, // heterogeneous: ~60% of nodes carry each type
        target_fraction: 0.4,
        delta_policy: DeltaPolicy::Adaptive,
        ..ScenarioConfig::paper(7)
    };
    let catalog = SensorCatalog::environmental();
    let r = run_scenario(cfg);

    println!(
        "Forest monitoring: {} nodes, {} queries over {} epochs",
        r.n_nodes, r.queries_injected, r.epochs
    );
    println!(
        "cost/query {:.1} units = {:.0}% of flooding\n",
        r.cost_per_query().unwrap(),
        r.cost_ratio_vs_flooding().unwrap() * 100.0
    );

    println!("per sensor type (averages over that type's queries):");
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>9}",
        "type", "queries", "should %", "receive %", "recall"
    );
    for t in catalog.types() {
        let outcomes: Vec<_> = r.metrics.outcomes.iter().filter(|o| o.stype == t).collect();
        if outcomes.is_empty() {
            continue;
        }
        let n = outcomes.len() as f64;
        let should: f64 = outcomes.iter().map(|o| o.pct_should()).sum::<f64>() / n;
        let recv: f64 = outcomes.iter().map(|o| o.pct_received()).sum::<f64>() / n;
        let recall: f64 = outcomes.iter().map(|o| o.source_recall()).sum::<f64>() / n;
        println!(
            "{:<14} {:>8} {:>9.1}% {:>9.1}% {:>9.3}",
            catalog.descriptor(t).name,
            outcomes.len(),
            should,
            recv,
            recall
        );
    }

    println!(
        "\nupdate traffic: {} messages total across the run",
        r.metrics.updates_per_bucket.total() as u64
    );
}

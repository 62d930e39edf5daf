//! End-to-end integration tests: full simulations across all crates,
//! asserting the qualitative results of the paper's evaluation at
//! smoke-test scale.

use dirq::prelude::*;

fn base(seed: u64) -> ScenarioConfig {
    ScenarioConfig { epochs: 1_500, measure_from_epoch: 300, ..ScenarioConfig::paper(seed) }
}

#[test]
fn dirq_beats_flooding_at_every_relevance_level() {
    for &target in &[0.2, 0.4, 0.6] {
        let dirq = run_scenario(ScenarioConfig {
            target_fraction: target,
            delta_policy: DeltaPolicy::Fixed(5.0),
            ..base(1)
        });
        let flooding = run_scenario(ScenarioConfig {
            target_fraction: target,
            protocol: Protocol::Flooding,
            ..base(1)
        });
        let dc = dirq.cost_per_query().unwrap();
        let fc = flooding.cost_per_query().unwrap();
        assert!(dc < fc, "target {target}: DirQ {dc:.1} should undercut flooding {fc:.1}");
    }
}

#[test]
fn update_traffic_monotone_in_delta() {
    // Fig. 6's core ordering: larger thresholds, fewer update messages.
    let mut last = u64::MAX;
    for &delta in &[3.0, 5.0, 9.0] {
        let r = run_scenario(ScenarioConfig { delta_policy: DeltaPolicy::Fixed(delta), ..base(2) });
        let tx = r.metrics.update_cost.tx;
        assert!(tx < last, "δ={delta}%: {tx} updates, expected fewer than {last}");
        last = tx;
    }
}

#[test]
fn overshoot_grows_with_delta_and_shrinks_with_relevance() {
    // Fig. 5 / Fig. 7 orderings.
    let overshoot = |delta: f64, target: f64| {
        run_scenario(ScenarioConfig {
            delta_policy: DeltaPolicy::Fixed(delta),
            target_fraction: target,
            ..base(3)
        })
        .mean_overshoot_pct()
    };
    let d3 = overshoot(3.0, 0.4);
    let d9 = overshoot(9.0, 0.4);
    assert!(d9 > d3, "overshoot must grow with δ: δ3={d3:.1}% δ9={d9:.1}%");

    let narrow = overshoot(5.0, 0.2);
    let wide = overshoot(5.0, 0.6);
    assert!(wide < narrow, "overshoot must shrink with relevance: 20%={narrow:.1}% 60%={wide:.1}%");
}

#[test]
fn queries_reach_sources_with_high_recall() {
    let r = run_scenario(ScenarioConfig { delta_policy: DeltaPolicy::Fixed(3.0), ..base(4) });
    let recall = r.metrics.mean_over_queries(|o| o.source_recall()).unwrap();
    assert!(recall > 0.9, "mean source recall {recall:.3} too low");
}

#[test]
fn flooding_reaches_every_alive_node() {
    let r = run_scenario(ScenarioConfig { protocol: Protocol::Flooding, ..base(5) });
    for o in r.metrics.outcomes.iter().filter(|o| o.epoch >= 300) {
        assert_eq!(o.received, r.n_nodes - 1, "flooding must reach all non-root nodes");
    }
}

#[test]
fn runs_are_deterministic_across_thread_counts() {
    // The sweep runner must not affect per-run results.
    let cfgs = vec![base(6), base(7)];
    let seq = dirq::sim::runner::run_sweep(&cfgs, 1, |c| run_scenario(c.clone()));
    let par = dirq::sim::runner::run_sweep(&cfgs, 2, |c| run_scenario(c.clone()));
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.metrics.update_cost.tx, b.metrics.update_cost.tx);
        assert_eq!(a.metrics.query_cost.rx, b.metrics.query_cost.rx);
        assert_eq!(a.queries_injected, b.queries_injected);
    }
}

#[test]
fn atc_lands_near_the_cost_band() {
    // Full convergence needs ~20k epochs; at 4k we assert a loose corridor.
    let r = run_scenario(ScenarioConfig {
        epochs: 4_000,
        measure_from_epoch: 1_000,
        delta_policy: DeltaPolicy::Adaptive,
        ..ScenarioConfig::paper(8)
    });
    let ratio = r.cost_ratio_vs_flooding().unwrap();
    assert!(
        (0.35..=0.70).contains(&ratio),
        "ATC cost ratio {ratio:.3} far outside the expected corridor"
    );
}

#[test]
fn cost_categories_decompose_total() {
    let r = run_scenario(base(9));
    let total = r.metrics.total_cost();
    let sum =
        r.metrics.query_cost.cost() + r.metrics.update_cost.cost() + r.metrics.control_cost.cost();
    assert_eq!(total, sum);
    assert!(r.metrics.query_cost.cost() > 0.0);
    assert!(r.metrics.update_cost.cost() > 0.0);
}

#[test]
fn per_query_outcomes_are_internally_consistent() {
    let r = run_scenario(base(10));
    for o in &r.metrics.outcomes {
        assert_eq!(o.received, o.received_should + o.received_should_not, "{o:?}");
        assert!(o.received_should <= o.should_receive, "{o:?}");
        assert!(o.sources_reached <= o.true_sources, "{o:?}");
        assert!(o.true_sources <= o.should_receive, "{o:?}");
        assert!(o.received < o.n_nodes, "{o:?}");
    }
}

//! Shared experiment runners behind the figure binaries.
//!
//! Each function reproduces one artefact of the paper's evaluation and
//! returns [`Table`]s ready for printing; the binaries add CSV output. All
//! sweeps run parameter points in parallel with deterministic per-point
//! seeds, so results are independent of thread count.

use dirq_core::{run_scenario, AtcConfig, DeltaPolicy, Protocol, RunResult, ScenarioConfig};
use dirq_sim::report::{fnum, Table};
use dirq_sim::runner::run_sweep;

use crate::args::HarnessArgs;

/// Threshold policies plotted in Figs. 6 and 7.
pub fn figure_policies() -> Vec<(&'static str, DeltaPolicy)> {
    vec![
        ("delta=3%", DeltaPolicy::Fixed(3.0)),
        ("delta=5%", DeltaPolicy::Fixed(5.0)),
        ("delta=9%", DeltaPolicy::Fixed(9.0)),
        ("ATC", DeltaPolicy::Adaptive(AtcConfig::default())),
    ]
}

fn base_config(args: &HarnessArgs) -> ScenarioConfig {
    ScenarioConfig {
        epochs: args.epochs,
        measure_from_epoch: args.measure_from(),
        ..ScenarioConfig::paper(args.seed)
    }
}

/// Fig. 5: the four percentage-of-nodes series versus fixed δ = 1..9 %,
/// for the 40 % (Fig. 5a) and 60 % (Fig. 5b) relevant-node scenarios.
pub fn fig5(args: &HarnessArgs) -> Table {
    let deltas: Vec<f64> = (1..=9).map(f64::from).collect();
    let mut points: Vec<(f64, f64)> = Vec::new();
    for &target in &[0.4, 0.6] {
        for &d in &deltas {
            points.push((target, d));
        }
    }
    let base = base_config(args);
    let results = run_sweep(&points, args.threads, |&(target, delta)| {
        run_scenario(ScenarioConfig {
            target_fraction: target,
            delta_policy: DeltaPolicy::Fixed(delta),
            ..base.clone()
        })
    });

    let mut table = Table::new([
        "relevant",
        "delta_pct",
        "should_receive_pct",
        "receive_pct",
        "source_pct",
        "should_not_receive_pct",
        "overshoot_rel_pct",
        "source_recall",
    ]);
    for ((target, delta), r) in points.iter().zip(&results) {
        let m = &r.metrics;
        table.row([
            format!("{:.0}%", target * 100.0),
            fnum(*delta, 0),
            fnum(m.mean_over_queries(|o| o.pct_should()).unwrap_or(0.0), 1),
            fnum(m.mean_over_queries(|o| o.pct_received()).unwrap_or(0.0), 1),
            fnum(m.mean_over_queries(|o| o.pct_sources()).unwrap_or(0.0), 1),
            fnum(m.mean_over_queries(|o| o.pct_should_not()).unwrap_or(0.0), 1),
            fnum(r.mean_overshoot_pct(), 1),
            fnum(m.mean_over_queries(|o| o.source_recall()).unwrap_or(0.0), 3),
        ]);
    }
    table
}

/// Fig. 6: update messages transmitted per 100 epochs over the run, for
/// δ = 3/5/9 % and ATC at 40 % relevance. Returns `(summary, series)`:
/// the summary holds per-policy means and the Umax/hr band, the series is
/// one row per 100-epoch bucket.
pub fn fig6(args: &HarnessArgs) -> (Table, Table) {
    let policies = figure_policies();
    let base = base_config(args);
    let results = run_sweep(&policies, args.threads, |(_, policy)| {
        run_scenario(ScenarioConfig { target_fraction: 0.4, delta_policy: *policy, ..base.clone() })
    });

    let umax_100 = results[0].u_max_per_hour * 100.0 / results[0].hour_epochs as f64;
    let mut summary = Table::new([
        "series",
        "updates_per_100ep_mean",
        "vs_umax",
        "cost_ratio_vs_flooding",
        "final_mean_delta_pct",
    ]);
    for ((name, _), r) in policies.iter().zip(&results) {
        let buckets = (r.epochs / 100).max(1) as f64;
        let mean = r.metrics.updates_per_bucket.total() / buckets;
        summary.row([
            (*name).to_string(),
            fnum(mean, 0),
            fnum(mean / umax_100, 2),
            fnum(r.cost_ratio_vs_flooding().unwrap_or(f64::NAN), 3),
            fnum(r.delta_trace.last().map(|&(_, d)| d).unwrap_or(f64::NAN), 2),
        ]);
    }
    for (name, value) in [
        ("Umax/Hr", umax_100),
        ("0.55*Umax/Hr", 0.55 * umax_100),
        ("0.45*Umax/Hr", 0.45 * umax_100),
    ] {
        summary.row([
            name.to_string(),
            fnum(value, 0),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }

    let mut series = Table::new([
        "epoch",
        "delta3",
        "delta5",
        "delta9",
        "atc",
        "umax",
        "umax_x0.55",
        "umax_x0.45",
    ]);
    let buckets = (args.epochs / 100) as usize;
    for b in 0..buckets {
        series.row([
            (b as u64 * 100).to_string(),
            fnum(results[0].metrics.updates_per_bucket.sum(b), 0),
            fnum(results[1].metrics.updates_per_bucket.sum(b), 0),
            fnum(results[2].metrics.updates_per_bucket.sum(b), 0),
            fnum(results[3].metrics.updates_per_bucket.sum(b), 0),
            fnum(umax_100, 0),
            fnum(0.55 * umax_100, 0),
            fnum(0.45 * umax_100, 0),
        ]);
    }
    (summary, series)
}

/// Fig. 7: overshoot over time for δ = 3/5/9 % and ATC at 20 % relevance.
/// Returns `(summary, series)`; the series has one row per 1 000-epoch
/// interval with the mean *relative* overshoot of the queries finalised in
/// it. The summary also reports the percentage-point definition, since the
/// paper's axis is ambiguous.
pub fn fig7(args: &HarnessArgs) -> (Table, Table) {
    let policies = figure_policies();
    let base = base_config(args);
    let results = run_sweep(&policies, args.threads, |(_, policy)| {
        run_scenario(ScenarioConfig { target_fraction: 0.2, delta_policy: *policy, ..base.clone() })
    });

    let mut summary = Table::new([
        "series",
        "mean_overshoot_rel_pct",
        "mean_overshoot_points",
        "mean_recall",
        "cost_ratio_vs_flooding",
    ]);
    for ((name, _), r) in policies.iter().zip(&results) {
        summary.row([
            (*name).to_string(),
            fnum(r.mean_overshoot_pct(), 1),
            fnum(r.metrics.mean_over_queries(|o| o.overshoot_points()).unwrap_or(f64::NAN), 1),
            fnum(r.metrics.mean_over_queries(|o| o.source_recall()).unwrap_or(f64::NAN), 3),
            fnum(r.cost_ratio_vs_flooding().unwrap_or(f64::NAN), 3),
        ]);
    }

    let interval = 1_000u64;
    let mut series = Table::new(["epoch", "delta3", "delta5", "delta9", "atc"]);
    let intervals = (args.epochs / interval) as usize;
    for i in 0..intervals {
        let lo = i as u64 * interval;
        let hi = lo + interval;
        let mut cells = vec![lo.to_string()];
        for r in &results {
            let vals: Vec<f64> = r
                .metrics
                .outcomes
                .iter()
                .filter(|o| o.epoch >= lo && o.epoch < hi)
                .map(|o| o.overshoot_pct())
                .collect();
            let mean = if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            };
            cells.push(fnum(mean, 1));
        }
        series.row(cells);
    }
    (summary, series)
}

/// Section 5: closed-form costs on complete k-ary trees including the
/// paper's worked example (k = 2, d = 4 ⇒ fMax ≈ 0.76).
pub fn analytic_table() -> Table {
    let mut table = Table::new(["k", "d", "N", "CF", "CQDmax", "CUDmax", "fMax"]);
    for &(k, d) in &[
        (2u32, 2u32),
        (2, 3),
        (2, 4), // the worked example
        (2, 6),
        (3, 3),
        (3, 4),
        (4, 3),
        (8, 2),
        (8, 3),
    ] {
        let c = dirq_analytic::KaryCosts::compute(k, d);
        table.row([
            k.to_string(),
            d.to_string(),
            c.n.to_string(),
            c.flooding.to_string(),
            c.cqd_max.to_string(),
            c.cud_max.to_string(),
            c.f_max().map(|f| fnum(f, 4)).unwrap_or_default(),
        ]);
    }
    table
}

/// Section 5 validation: simulated flooding cost on exact k-ary trees must
/// match Eq. 3/4 to the message.
pub fn analytic_validation(args: &HarnessArgs) -> Table {
    let cases = [(2usize, 4u32), (3, 3), (4, 2)];
    let results = run_sweep(&cases, args.threads, |&(k, d)| {
        run_scenario(ScenarioConfig {
            tree: dirq_core::TreeKind::CompleteKary { k, d },
            protocol: Protocol::Flooding,
            epochs: 2_000,
            measure_from_epoch: 200,
            ..ScenarioConfig::paper(args.seed)
        })
    });
    let mut table = Table::new(["k", "d", "analytic_CF", "simulated_CF_per_query", "rel_error"]);
    for ((k, d), r) in cases.iter().zip(&results) {
        let analytic = r.flooding_cost_per_query();
        let measured = r.cost_per_query().unwrap_or(f64::NAN);
        table.row([
            k.to_string(),
            d.to_string(),
            fnum(analytic, 0),
            fnum(measured, 1),
            fnum((measured - analytic).abs() / analytic, 4),
        ]);
    }
    table
}

/// The §1/§7 headline: DirQ (with ATC) costs 45–55 % of flooding across
/// the three relevance scenarios.
pub fn cost_ratio(args: &HarnessArgs) -> Table {
    #[derive(Clone, Copy)]
    struct Point {
        target: f64,
        policy: DeltaPolicy,
        protocol: Protocol,
        label: &'static str,
    }
    let mut points = Vec::new();
    for &target in &[0.2, 0.4, 0.6] {
        points.push(Point {
            target,
            policy: DeltaPolicy::Adaptive(AtcConfig::default()),
            protocol: Protocol::Dirq,
            label: "DirQ (ATC)",
        });
    }
    for &target in &[0.2, 0.4, 0.6] {
        points.push(Point {
            target,
            policy: DeltaPolicy::Fixed(5.0),
            protocol: Protocol::Flooding,
            label: "Flooding",
        });
    }
    let base = base_config(args);
    let results: Vec<RunResult> = run_sweep(&points, args.threads, |p| {
        run_scenario(ScenarioConfig {
            target_fraction: p.target,
            delta_policy: p.policy,
            protocol: p.protocol,
            ..base.clone()
        })
    });

    let mut table = Table::new([
        "protocol",
        "relevant",
        "cost_per_query",
        "ratio_vs_flooding",
        "mean_overshoot_rel_pct",
        "mean_recall",
    ]);
    for (p, r) in points.iter().zip(&results) {
        table.row([
            p.label.to_string(),
            format!("{:.0}%", p.target * 100.0),
            fnum(r.cost_per_query().unwrap_or(f64::NAN), 1),
            fnum(r.cost_ratio_vs_flooding().unwrap_or(f64::NAN), 3),
            fnum(r.mean_overshoot_pct(), 1),
            fnum(r.metrics.mean_over_queries(|o| o.source_recall()).unwrap_or(f64::NAN), 3),
        ]);
    }
    table
}

/// Design-choice ablations (the `ablations` binary): each row perturbs one
/// mechanism against the paper-faithful default and reports its effect on
/// update traffic, cost, accuracy and (where applicable) sensor-sampling
/// savings.
pub fn ablations(args: &HarnessArgs) -> Table {
    use dirq_core::{PredictiveConfig, SamplingStrategy, TreeKind};
    use dirq_data::world::{FieldStyle, WorldConfig};

    #[derive(Clone)]
    struct Case {
        label: &'static str,
        cfg: ScenarioConfig,
    }
    let base = ScenarioConfig { delta_policy: DeltaPolicy::Fixed(5.0), ..base_config(args) };
    let smooth_world = {
        let mut w = WorldConfig::environmental(base.side);
        for t in &mut w.types {
            t.field_style = FieldStyle::Smooth;
        }
        w
    };
    let cases = vec![
        Case { label: "baseline (paper rules)", cfg: base.clone() },
        Case {
            label: "update rule: no hysteresis",
            cfg: ScenarioConfig { tx_threshold_factor: 0.0, ..base.clone() },
        },
        Case {
            label: "update rule: 2x hysteresis",
            cfg: ScenarioConfig { tx_threshold_factor: 2.0, ..base.clone() },
        },
        Case {
            label: "tree: shortest-path BFS",
            cfg: ScenarioConfig { tree: TreeKind::Bfs, ..base.clone() },
        },
        Case {
            label: "world: smooth fields",
            cfg: ScenarioConfig { world: Some(smooth_world), ..base.clone() },
        },
        Case {
            label: "sampling: predictive",
            cfg: ScenarioConfig {
                sampling: SamplingStrategy::Predictive(PredictiveConfig::default()),
                ..base.clone()
            },
        },
        Case {
            label: "mac: 1 msg/slot",
            cfg: ScenarioConfig {
                lmac: dirq_lmac::LmacConfig { data_messages_per_slot: 1, ..Default::default() },
                ..base.clone()
            },
        },
    ];

    let results = run_sweep(&cases, args.threads, |c| run_scenario(c.cfg.clone()));
    let mut table = Table::new([
        "variant",
        "updates_per_100ep",
        "cost_ratio",
        "overshoot_rel_pct",
        "recall",
        "sampling_skipped_pct",
    ]);
    for (case, r) in cases.iter().zip(&results) {
        let buckets = (r.epochs / 100).max(1) as f64;
        let skipped = if r.samples_taken + r.samples_skipped > 0 {
            fnum(100.0 * r.samples_skipped as f64 / (r.samples_taken + r.samples_skipped) as f64, 1)
        } else {
            "-".to_string()
        };
        table.row([
            case.label.to_string(),
            fnum(r.metrics.updates_per_bucket.total() / buckets, 0),
            fnum(r.cost_ratio_vs_flooding().unwrap_or(f64::NAN), 3),
            fnum(r.mean_overshoot_pct(), 1),
            fnum(r.metrics.mean_over_queries(|o| o.source_recall()).unwrap_or(f64::NAN), 3),
            skipped,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HarnessArgs {
        HarnessArgs { epochs: 600, seed: 7, threads: 0 }
    }

    #[test]
    fn ablations_cover_all_variants() {
        let t = ablations(&quick());
        assert_eq!(t.len(), 7);
        let csv = t.to_csv();
        assert!(csv.contains("baseline"));
        assert!(csv.contains("predictive"));
    }

    #[test]
    fn analytic_table_contains_worked_example() {
        let t = analytic_table();
        let csv = t.to_csv();
        assert!(csv.contains("2,4,31,91,45,60,0.7667"), "worked example row missing:\n{csv}");
    }

    #[test]
    fn fig6_tables_have_expected_shape() {
        let (summary, series) = fig6(&quick());
        assert_eq!(summary.len(), 4 + 3, "4 policies + 3 reference lines");
        assert_eq!(series.len(), 6, "600 epochs → 6 buckets of 100");
    }

    #[test]
    fn fig7_summary_orders_policies() {
        let (summary, _) = fig7(&quick());
        assert_eq!(summary.len(), 4);
    }

    #[test]
    fn validation_matches_analytic() {
        let t = analytic_validation(&HarnessArgs { epochs: 600, seed: 7, threads: 0 });
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let rel: f64 = line.split(',').next_back().unwrap().parse().unwrap();
            assert!(rel < 0.02, "validation row off: {line}");
        }
    }
}

//! Structured sweep output: per-run outcomes, cross-scenario comparisons,
//! a stable fingerprint and JSON rendering.

use dirq_core::RunResult;
use dirq_sim::fingerprint::Fnv;
use dirq_sim::json::Json;
use dirq_sim::report::{fnum, Table};

/// Summary of one simulation run inside a sweep.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario (preset) name.
    pub scenario: String,
    /// Scheme label (see [`crate::Scheme::label`]).
    pub scheme: String,
    /// Seed of this run.
    pub seed: u64,
    /// Deployment size.
    pub n_nodes: usize,
    /// Epochs simulated.
    pub epochs: u64,
    /// Mean fraction of true sources reached per measured query.
    pub delivery_ratio: f64,
    /// Query-category transmissions per source actually reached.
    pub tx_per_delivered: f64,
    /// MAC data-ledger energy (tx + rx of data messages) per node per
    /// epoch. LMAC control overhead is identical across schemes and
    /// excluded, matching the paper's cost comparisons.
    pub energy_per_node_epoch: f64,
    /// Measured cost relative to analytic flooding.
    pub cost_ratio_vs_flooding: f64,
    /// Mean relative overshoot, percent.
    pub mean_overshoot_pct: f64,
    /// Ground-truth probes spent on calibration, per injected query.
    pub calibration_probes_per_query: f64,
    /// The run's [`RunResult::stable_fingerprint`].
    pub fingerprint: u64,
}

impl ScenarioOutcome {
    /// Extract the sweep summary from a finished run.
    pub fn from_run(scenario: &str, scheme: &str, seed: u64, r: &RunResult) -> Self {
        let mut delivered = 0u64;
        for o in r.metrics.outcomes.iter().filter(|o| o.epoch >= r.metrics.measure_from_epoch) {
            delivered += o.sources_reached as u64;
        }
        let delivery_ratio = r.metrics.mean_over_queries(|o| o.source_recall()).unwrap_or(0.0);
        let tx_per_delivered =
            if delivered > 0 { r.metrics.query_cost.tx as f64 / delivered as f64 } else { 0.0 };
        let node_epochs = (r.n_nodes as u64 * r.epochs).max(1) as f64;
        ScenarioOutcome {
            scenario: scenario.to_string(),
            scheme: scheme.to_string(),
            seed,
            n_nodes: r.n_nodes,
            epochs: r.epochs,
            delivery_ratio,
            tx_per_delivered,
            energy_per_node_epoch: r.mac_data_cost / node_epochs,
            cost_ratio_vs_flooding: r.cost_ratio_vs_flooding().unwrap_or(0.0),
            mean_overshoot_pct: r.mean_overshoot_pct(),
            calibration_probes_per_query: r.calibration_probes as f64
                / (r.queries_injected.max(1)) as f64,
            fingerprint: r.stable_fingerprint(),
        }
    }

    fn mix(&self, h: &mut Fnv) {
        h.str(&self.scenario);
        h.str(&self.scheme);
        h.u64(self.seed);
        h.u64(self.n_nodes as u64);
        h.u64(self.epochs);
        h.f64(self.delivery_ratio);
        h.f64(self.tx_per_delivered);
        h.f64(self.energy_per_node_epoch);
        h.f64(self.cost_ratio_vs_flooding);
        h.f64(self.mean_overshoot_pct);
        h.f64(self.calibration_probes_per_query);
        h.u64(self.fingerprint);
    }

    fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("scenario", Json::Str(self.scenario.clone()));
        o.set("scheme", Json::Str(self.scheme.clone()));
        o.set("seed", Json::Num(self.seed as f64));
        o.set("n_nodes", Json::Num(self.n_nodes as f64));
        o.set("epochs", Json::Num(self.epochs as f64));
        o.set("delivery_ratio", Json::Num(round6(self.delivery_ratio)));
        o.set("tx_per_delivered", Json::Num(round6(self.tx_per_delivered)));
        o.set("energy_per_node_epoch", Json::Num(round6(self.energy_per_node_epoch)));
        o.set("cost_ratio_vs_flooding", Json::Num(round6(self.cost_ratio_vs_flooding)));
        o.set("mean_overshoot_pct", Json::Num(round6(self.mean_overshoot_pct)));
        o.set("calibration_probes_per_query", Json::Num(round6(self.calibration_probes_per_query)));
        o.set("fingerprint", Json::Str(format!("{:#018X}", self.fingerprint)));
        o
    }
}

/// A cross-scenario/scheme ratio computed by the report.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Scenario the comparison belongs to.
    pub scenario: String,
    /// Metric being compared.
    pub metric: String,
    /// Scheme in the numerator.
    pub scheme: String,
    /// Scheme in the denominator.
    pub baseline: String,
    /// `scheme / baseline` ratio.
    pub ratio: f64,
}

/// The structured result of a sweep: per-cell outcomes plus derived
/// comparisons. Bit-deterministic for a fixed seed regardless of thread
/// count — [`ScenarioReport::stable_fingerprint`] pins that.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// One outcome per `(scenario, scheme)` in matrix order.
    pub rows: Vec<ScenarioOutcome>,
    /// Derived comparisons (scheme vs in-scenario flooding baseline).
    pub comparisons: Vec<Comparison>,
}

impl ScenarioReport {
    /// Assemble a report and derive its comparisons: inside every scenario
    /// that ran a `flooding` baseline, each other scheme gets
    /// `tx_per_delivered` and `energy_per_node_epoch` ratios against it.
    pub fn new(rows: Vec<ScenarioOutcome>) -> Self {
        let mut comparisons = Vec::new();
        for row in &rows {
            if row.scheme == "flooding" {
                continue;
            }
            let Some(base) =
                rows.iter().find(|b| b.scenario == row.scenario && b.scheme == "flooding")
            else {
                continue;
            };
            type Metric = fn(&ScenarioOutcome) -> f64;
            for (metric, f) in [
                ("tx_per_delivered", (|o: &ScenarioOutcome| o.tx_per_delivered) as Metric),
                ("energy_per_node_epoch", |o: &ScenarioOutcome| o.energy_per_node_epoch),
            ] {
                let denom = f(base);
                if denom > 0.0 {
                    comparisons.push(Comparison {
                        scenario: row.scenario.clone(),
                        metric: metric.to_string(),
                        scheme: row.scheme.clone(),
                        baseline: "flooding".to_string(),
                        ratio: f(row) / denom,
                    });
                }
            }
        }
        ScenarioReport { rows, comparisons }
    }

    /// Order-sensitive fingerprint over every outcome and comparison.
    /// Equal seeds and equal code yield equal fingerprints across runs,
    /// machines and thread counts. Each outcome is mixed after its
    /// scenario, its scheme and a `1`: the report once kept several seed
    /// runs per cell and mixed their count there, and the `1` keeps every
    /// recorded fingerprint.
    pub fn stable_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.rows.len() as u64);
        for o in &self.rows {
            h.str(&o.scenario);
            h.str(&o.scheme);
            h.u64(1);
            o.mix(&mut h);
        }
        for c in &self.comparisons {
            h.str(&c.scenario);
            h.str(&c.metric);
            h.str(&c.scheme);
            h.f64(c.ratio);
        }
        h.finish()
    }

    /// Render the full report as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("schema", Json::Str("dirq-scenario-report-v1".to_string()));
        doc.set("scenarios", Json::Arr(self.rows.iter().map(ScenarioOutcome::to_json).collect()));
        doc.set(
            "comparisons",
            Json::Arr(
                self.comparisons
                    .iter()
                    .map(|c| {
                        let mut o = Json::object();
                        o.set("scenario", Json::Str(c.scenario.clone()));
                        o.set("metric", Json::Str(c.metric.clone()));
                        o.set("scheme", Json::Str(c.scheme.clone()));
                        o.set("baseline", Json::Str(c.baseline.clone()));
                        o.set("ratio", Json::Num(round6(c.ratio)));
                        o
                    })
                    .collect(),
            ),
        );
        doc.set("report_fingerprint", Json::Str(format!("{:#018X}", self.stable_fingerprint())));
        doc
    }

    /// Human-readable summary table, one row per outcome.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new([
            "scenario",
            "scheme",
            "nodes",
            "epochs",
            "delivery",
            "tx/delivered",
            "energy/node/ep",
            "vs_flooding",
            "probes/query",
        ]);
        for o in &self.rows {
            t.row([
                o.scenario.clone(),
                o.scheme.clone(),
                o.n_nodes.to_string(),
                o.epochs.to_string(),
                fnum(o.delivery_ratio, 3),
                fnum(o.tx_per_delivered, 2),
                fnum(o.energy_per_node_epoch, 3),
                fnum(o.cost_ratio_vs_flooding, 3),
                fnum(o.calibration_probes_per_query, 0),
            ]);
        }
        t
    }
}

fn round6(x: f64) -> f64 {
    if x.is_finite() {
        (x * 1e6).round() / 1e6
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(scenario: &str, scheme: &str, tx: f64, energy: f64) -> ScenarioOutcome {
        ScenarioOutcome {
            scenario: scenario.to_string(),
            scheme: scheme.to_string(),
            seed: 1,
            n_nodes: 100,
            epochs: 500,
            delivery_ratio: 0.95,
            tx_per_delivered: tx,
            energy_per_node_epoch: energy,
            cost_ratio_vs_flooding: 0.5,
            mean_overshoot_pct: 4.0,
            calibration_probes_per_query: 35.0,
            fingerprint: 0xABCD,
        }
    }

    fn report() -> ScenarioReport {
        ScenarioReport::new(vec![
            outcome("h2h", "dirq-atc", 2.0, 0.4),
            outcome("h2h", "flooding", 8.0, 1.6),
            outcome("solo", "dirq-atc", 3.0, 0.5),
        ])
    }

    #[test]
    fn comparisons_only_against_in_scenario_flooding() {
        let r = report();
        assert_eq!(r.comparisons.len(), 2, "solo scenario has no baseline");
        assert!(r.comparisons.iter().all(|c| c.scenario == "h2h"));
        let tx = r.comparisons.iter().find(|c| c.metric == "tx_per_delivered").unwrap();
        assert!((tx.ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_sensitive_to_outcomes() {
        let a = report();
        let mut b = report();
        assert_eq!(a.stable_fingerprint(), b.stable_fingerprint());
        b.rows[0].fingerprint ^= 1;
        let b = ScenarioReport::new(b.rows);
        assert_ne!(a.stable_fingerprint(), b.stable_fingerprint());
    }

    #[test]
    fn json_round_trips_and_carries_fingerprint() {
        let r = report();
        let doc = r.to_json();
        let text = doc.render_pretty();
        let parsed = dirq_sim::json::Json::parse(&text).expect("report JSON must parse");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some("dirq-scenario-report-v1"));
        assert_eq!(parsed.get("scenarios").and_then(Json::as_array).unwrap().len(), 3);
        let fp = parsed.get("report_fingerprint").and_then(Json::as_str).unwrap();
        assert_eq!(fp, format!("{:#018X}", r.stable_fingerprint()));
    }

    #[test]
    fn summary_table_has_one_row_per_cell() {
        let t = report().summary_table();
        assert_eq!(t.len(), 3);
        assert!(t.to_csv().contains("h2h,flooding"));
    }
}

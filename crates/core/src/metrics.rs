//! Experiment measurements.
//!
//! Everything the paper's evaluation plots is collected here:
//!
//! * per-query outcomes (Fig. 5's four percentage series, Fig. 7's
//!   overshoot),
//! * the update-message time series in 100-epoch buckets (Fig. 6),
//! * cost tallies per message category (the Section 5 comparison and the
//!   45–55 %-of-flooding headline).

use dirq_data::{QueryId, SensorType};
use dirq_sim::stats::{TimeSeries, Welford};

use crate::messages::MessageCategory;

/// Final accounting for one query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Query id.
    pub id: QueryId,
    /// Epoch at which the query was injected.
    pub epoch: u64,
    /// Sensor type queried.
    pub stype: SensorType,
    /// Ground truth: nodes that should receive the query (sources +
    /// forwarders; root excluded).
    pub should_receive: usize,
    /// Ground truth: true source nodes (reading inside the window).
    pub true_sources: usize,
    /// Nodes that actually received the query.
    pub received: usize,
    /// Received ∧ should-receive.
    pub received_should: usize,
    /// Received ∧ ¬should-receive (wrongly reached).
    pub received_should_not: usize,
    /// True sources actually reached.
    pub sources_reached: usize,
    /// Network size at injection (percentage denominator).
    pub n_nodes: usize,
}

impl QueryOutcome {
    /// The paper's overshoot: how far reception exceeded need, as a
    /// percentage of need. Negative values mean the query missed nodes.
    pub fn overshoot_pct(&self) -> f64 {
        if self.should_receive == 0 {
            return 0.0;
        }
        (self.received as f64 - self.should_receive as f64) / self.should_receive as f64 * 100.0
    }

    /// Overshoot in *percentage points of network size*:
    /// `pct_received − pct_should`. The paper's Fig. 7 y-axis ("Overshoot
    /// (%)") is ambiguous between this and [`QueryOutcome::overshoot_pct`];
    /// the harness reports both.
    pub fn overshoot_points(&self) -> f64 {
        self.pct_received() - self.pct_should()
    }

    /// Fraction of true sources reached (recall).
    pub fn source_recall(&self) -> f64 {
        if self.true_sources == 0 {
            1.0
        } else {
            self.sources_reached as f64 / self.true_sources as f64
        }
    }

    /// Fig. 5 series, as percentages of the network.
    pub fn pct_should(&self) -> f64 {
        100.0 * self.should_receive as f64 / self.n_nodes as f64
    }
    /// Percentage of nodes that received the query.
    pub fn pct_received(&self) -> f64 {
        100.0 * self.received as f64 / self.n_nodes as f64
    }
    /// Percentage of true source nodes.
    pub fn pct_sources(&self) -> f64 {
        100.0 * self.true_sources as f64 / self.n_nodes as f64
    }
    /// Percentage of nodes wrongly reached.
    pub fn pct_should_not(&self) -> f64 {
        100.0 * self.received_should_not as f64 / self.n_nodes as f64
    }
}

/// Per-category transmission/reception tallies (unit cost model).
#[derive(Clone, Copy, Debug, Default)]
pub struct CategoryCost {
    /// Messages transmitted.
    pub tx: u64,
    /// Intended receptions.
    pub rx: u64,
}

impl CategoryCost {
    /// Total cost (1 unit per tx + 1 per rx; the sum saturates).
    pub fn cost(&self) -> f64 {
        self.tx.saturating_add(self.rx) as f64
    }
}

/// Run-wide metrics collector.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Finalised per-query outcomes, in injection order.
    pub outcomes: Vec<QueryOutcome>,
    /// Update/Retract transmissions bucketed per 100 epochs (Fig. 6).
    pub updates_per_bucket: TimeSeries,
    /// Overshoot aggregate across finalised queries.
    pub overshoot: Welford,
    /// Query-category cost.
    pub query_cost: CategoryCost,
    /// Update-category cost.
    pub update_cost: CategoryCost,
    /// Control-category cost (EHr, Attach).
    pub control_cost: CategoryCost,
    /// Epoch from which aggregates (overshoot, costs) are collected;
    /// earlier epochs are warm-up.
    pub measure_from_epoch: u64,
}

/// Fig. 6 bucket width in epochs.
pub const UPDATE_BUCKET_EPOCHS: u64 = 100;

impl Metrics {
    /// Fresh collector.
    pub fn new(measure_from_epoch: u64) -> Self {
        Metrics {
            outcomes: Vec::new(),
            updates_per_bucket: TimeSeries::new(UPDATE_BUCKET_EPOCHS),
            overshoot: Welford::new(),
            query_cost: CategoryCost::default(),
            update_cost: CategoryCost::default(),
            control_cost: CategoryCost::default(),
            measure_from_epoch,
        }
    }

    /// Record one data-message transmission of `category` at `epoch`.
    pub fn on_tx(&mut self, category: MessageCategory, epoch: u64) {
        if category == MessageCategory::Update {
            self.updates_per_bucket.record_event(epoch);
        }
        if epoch < self.measure_from_epoch {
            return;
        }
        self.category_mut(category).tx += 1;
    }

    /// Record one intended reception of `category` at `epoch`.
    pub fn on_rx(&mut self, category: MessageCategory, epoch: u64) {
        if epoch < self.measure_from_epoch {
            return;
        }
        self.category_mut(category).rx += 1;
    }

    /// Record a finalised query outcome.
    pub fn on_query_done(&mut self, outcome: QueryOutcome) {
        if outcome.epoch >= self.measure_from_epoch {
            self.overshoot.observe(outcome.overshoot_pct());
        }
        self.outcomes.push(outcome);
    }

    fn category_mut(&mut self, c: MessageCategory) -> &mut CategoryCost {
        match c {
            MessageCategory::Query => &mut self.query_cost,
            MessageCategory::Update => &mut self.update_cost,
            MessageCategory::Control => &mut self.control_cost,
        }
    }

    /// Total DirQ cost across categories (`CTD = CQD + CUD + control`).
    pub fn total_cost(&self) -> f64 {
        self.query_cost.cost() + self.update_cost.cost() + self.control_cost.cost()
    }

    /// Number of finalised queries inside the measurement window.
    pub fn measured_queries(&self) -> usize {
        self.outcomes.iter().filter(|o| o.epoch >= self.measure_from_epoch).count()
    }

    /// Order-sensitive FNV-1a fingerprint over every deterministic field.
    ///
    /// Two runs with the same seed and code must produce equal
    /// fingerprints; the golden determinism test pins this value across
    /// refactors of the hot path.
    pub fn stable_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.measure_from_epoch);
        for c in [&self.query_cost, &self.update_cost, &self.control_cost] {
            h.u64(c.tx);
            h.u64(c.rx);
        }
        h.u64(self.outcomes.len() as u64);
        for o in &self.outcomes {
            h.u64(o.id.0);
            h.u64(o.epoch);
            h.u64(o.stype.index() as u64);
            h.u64(o.should_receive as u64);
            h.u64(o.true_sources as u64);
            h.u64(o.received as u64);
            h.u64(o.received_should as u64);
            h.u64(o.received_should_not as u64);
            h.u64(o.sources_reached as u64);
            h.u64(o.n_nodes as u64);
        }
        h.finish()
    }

    /// Write every collected measurement to `w`. The measurement window is
    /// config and the series' bucket width a constant, and an outcome's
    /// wrongly-reached count and network size follow from the rest, so the
    /// record leaves them out.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter<impl dirq_sim::SnapSink>) {
        w.tag(b"METR");
        for c in [&self.query_cost, &self.update_cost, &self.control_cost] {
            w.u64(c.tx);
            w.u64(c.rx);
        }
        self.updates_per_bucket.snap(w);
        self.overshoot.snap(w);
        w.len_of(self.outcomes.len());
        for o in &self.outcomes {
            w.u64(o.id.0);
            w.u64(o.epoch);
            w.u8(o.stype.0);
            for v in
                [o.should_receive, o.true_sources, o.received, o.received_should, o.sources_reached]
            {
                w.len_of(v);
            }
        }
    }

    /// Overlay measurements captured by [`Metrics::snap`] onto a collector
    /// built for the same run over `n_nodes` nodes, imaged at `epoch`.
    /// Each outcome's network size is `n_nodes` and its wrongly-reached
    /// count is `received − received_should`; an outcome with a count above
    /// `n_nodes`, with more nodes reached that should be than were reached,
    /// or injected at or after `epoch` (a step finalises only queries
    /// injected by its own epoch, below the image's) is malformed.
    pub fn restore(
        &mut self,
        r: &mut dirq_sim::SnapReader<'_>,
        n_nodes: usize,
        epoch: u64,
    ) -> Result<(), dirq_sim::SnapError> {
        r.tag(b"METR")?;
        for c in [&mut self.query_cost, &mut self.update_cost, &mut self.control_cost] {
            c.tx = r.count()?;
            c.rx = r.count()?;
        }
        self.updates_per_bucket.restore(r)?;
        self.overshoot = Welford::unsnap(r)?;
        let n = r.seq_len(8 + 8 + 1 + 5 * 8)?;
        let mut outcomes = Vec::with_capacity(n);
        for _ in 0..n {
            let id = QueryId(r.u64()?);
            let pos = r.position();
            let injected = r.u64()?;
            if injected >= epoch {
                let what = "query outcome injected at or after the image's epoch";
                return Err(dirq_sim::SnapError::Malformed { pos, what });
            }
            let stype = SensorType(r.u8()?);
            let pos = r.position();
            let mut counts = [0; 5];
            for c in &mut counts {
                *c = r.u64()?;
            }
            let [should_receive, true_sources, received, received_should, sources_reached] =
                counts.map(|c| c as usize);
            if counts.iter().any(|&c| c > n_nodes as u64) {
                return Err(dirq_sim::SnapError::Malformed {
                    pos,
                    what: "query outcome count above the deployment size",
                });
            }
            if received_should > received {
                let what = "query outcome received-should above received";
                return Err(dirq_sim::SnapError::Malformed { pos, what });
            }
            outcomes.push(QueryOutcome {
                id,
                epoch: injected,
                stype,
                should_receive,
                true_sources,
                received,
                received_should,
                received_should_not: received - received_should,
                sources_reached,
                n_nodes,
            });
        }
        self.outcomes = outcomes;
        Ok(())
    }

    /// Mean of a per-outcome statistic over the measurement window.
    pub fn mean_over_queries(&self, f: impl Fn(&QueryOutcome) -> f64) -> Option<f64> {
        let measured: Vec<f64> =
            self.outcomes.iter().filter(|o| o.epoch >= self.measure_from_epoch).map(f).collect();
        if measured.is_empty() {
            None
        } else {
            Some(measured.iter().sum::<f64>() / measured.len() as f64)
        }
    }
}

/// The workspace-wide FNV-1a accumulator (same algorithm as the private
/// hasher this module used to carry, so recorded fingerprints are stable).
pub(crate) use dirq_sim::fingerprint::Fnv;

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(epoch: u64, should: usize, received: usize, wrong: usize) -> QueryOutcome {
        QueryOutcome {
            id: QueryId(epoch),
            epoch,
            stype: SensorType(0),
            should_receive: should,
            true_sources: should / 2,
            received,
            received_should: received - wrong,
            received_should_not: wrong,
            sources_reached: should / 2,
            n_nodes: 50,
        }
    }

    #[test]
    fn overshoot_computation() {
        let o = outcome(100, 20, 22, 2);
        assert!((o.overshoot_pct() - 10.0).abs() < 1e-12);
        assert_eq!(o.source_recall(), 1.0);
        assert!((o.pct_should() - 40.0).abs() < 1e-12);
        assert!((o.pct_received() - 44.0).abs() < 1e-12);
        assert!((o.pct_should_not() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn undershoot_is_negative() {
        let o = outcome(100, 20, 15, 0);
        assert!((o.overshoot_pct() + 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_truth_has_zero_overshoot() {
        let o = outcome(100, 0, 0, 0);
        assert_eq!(o.overshoot_pct(), 0.0);
        assert_eq!(o.source_recall(), 1.0);
    }

    #[test]
    fn update_buckets_fill() {
        let mut m = Metrics::new(0);
        m.on_tx(MessageCategory::Update, 5);
        m.on_tx(MessageCategory::Update, 99);
        m.on_tx(MessageCategory::Update, 100);
        m.on_tx(MessageCategory::Query, 100); // not an update
        assert_eq!(m.updates_per_bucket.sum(0), 2.0);
        assert_eq!(m.updates_per_bucket.sum(1), 1.0);
    }

    #[test]
    fn warmup_excluded_from_costs_but_not_buckets() {
        let mut m = Metrics::new(100);
        m.on_tx(MessageCategory::Update, 50);
        m.on_rx(MessageCategory::Update, 50);
        assert_eq!(m.update_cost.tx, 0);
        assert_eq!(m.update_cost.rx, 0);
        assert_eq!(m.updates_per_bucket.sum(0), 1.0, "Fig. 6 series keeps warm-up");
        m.on_tx(MessageCategory::Update, 150);
        assert_eq!(m.update_cost.tx, 1);
    }

    #[test]
    fn cost_totals() {
        let mut m = Metrics::new(0);
        m.on_tx(MessageCategory::Query, 10);
        m.on_rx(MessageCategory::Query, 10);
        m.on_rx(MessageCategory::Query, 10);
        m.on_tx(MessageCategory::Control, 10);
        assert_eq!(m.query_cost.cost(), 3.0);
        assert_eq!(m.total_cost(), 4.0);
    }

    #[test]
    fn query_aggregation_respects_warmup() {
        let mut m = Metrics::new(100);
        m.on_query_done(outcome(50, 20, 30, 10)); // warm-up: excluded
        m.on_query_done(outcome(150, 20, 22, 2));
        assert_eq!(m.measured_queries(), 1);
        assert!((m.overshoot.mean() - 10.0).abs() < 1e-12);
        let mean_recv = m.mean_over_queries(|o| o.pct_received()).unwrap();
        assert!((mean_recv - 44.0).abs() < 1e-12);
    }
}

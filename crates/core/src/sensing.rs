//! The sensing plane: the per-(node, sensor type) state every sample
//! touches, in one dense node-major array owned by the engine.
//!
//! DirQ nodes sample every epoch, but a node acts on a reading only when
//! it leaves the node's own `[R − δ, R + δ]` tuple (Fig. 1): only then can
//! the Range Table change and an Update follow (Fig. 3). Every other
//! sample just replaces the last reading and feeds the variability
//! estimate ATC reads. So that work lives here, one 32-byte
//! [`SensorCell`] per `(node, type)`, and the protocol node ([`DirqNode`])
//! is entered only when a reading escapes. [`sample`] is the per-reading
//! step every sampling path runs.
//!
//! Each cell keeps a copy of its node's own tuple as the escape window.
//! The own tuple changes only in the escape handler, when a sensor is
//! removed, when a node is born and on restore, and each of those sites
//! refreshes the window.

use dirq_data::SensorType;

use crate::node::{DirqNode, Outgoing};
use crate::range_table::RangeEntry;

/// One carried sensor's sampling state. `NaN` marks each field as absent.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SensorCell {
    /// The last reading acquired.
    pub(crate) last: f64,
    /// EWMA of |Δreading| per epoch, in percent of the reference span —
    /// the signal variability ATC reads.
    pub(crate) variability: f64,
    /// Lower bound of the node's own tuple: the escape window.
    pub(crate) lo: f64,
    /// Upper bound of the node's own tuple.
    pub(crate) hi: f64,
}

impl SensorCell {
    /// A cell that has seen nothing and has no own tuple.
    pub(crate) const EMPTY: SensorCell =
        SensorCell { last: f64::NAN, variability: f64::NAN, lo: f64::NAN, hi: f64::NAN };

    /// Record `reading`: swap in the new last reading and update the
    /// variability with `Ewma::observe`'s expression (the first observation
    /// is taken as is). Returns whether the reading escaped the own tuple;
    /// with no tuple (`NaN` bounds) every reading escapes, as
    /// [`RangeEntry::contains`] decides.
    #[inline]
    pub(crate) fn observe(&mut self, reading: f64, span: f64, alpha: f64) -> bool {
        let prev = std::mem::replace(&mut self.last, reading);
        if !prev.is_nan() {
            let pct = ((reading - prev).abs() / span) * 100.0;
            let v = self.variability;
            self.variability = if v.is_nan() { pct } else { v + alpha * (pct - v) };
        }
        !(self.lo <= reading && reading <= self.hi)
    }

    /// The escape window as `(lo, hi)`, if the node has an own tuple.
    #[inline]
    pub(crate) fn window(&self) -> Option<(f64, f64)> {
        (!self.lo.is_nan()).then_some((self.lo, self.hi))
    }

    /// Copy the node's own tuple into the escape window (`None` clears it).
    #[inline]
    pub(crate) fn set_window(&mut self, own: Option<RangeEntry>) {
        (self.lo, self.hi) = own.map_or((f64::NAN, f64::NAN), |e| (e.min, e.max));
    }
}

/// One [`SensorCell`] per `(node, type)`, node-major: node `i`'s row is
/// `cells[i * width..(i + 1) * width]`, indexed by [`SensorType::index`].
pub(crate) struct SensingPlane {
    width: usize,
    cells: Vec<SensorCell>,
}

impl SensingPlane {
    /// An empty plane for `n` nodes and `width` sensor types.
    pub(crate) fn new(n: usize, width: usize) -> Self {
        SensingPlane { width, cells: vec![SensorCell::EMPTY; n * width] }
    }

    /// Sensor types per row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Node `i`'s row.
    pub(crate) fn row(&self, i: usize) -> &[SensorCell] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Node `i`'s row, mutably.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [SensorCell] {
        &mut self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Every row, node-major, for chunks that each own a disjoint run of
    /// rows.
    pub(crate) fn cells_mut(&mut self) -> &mut [SensorCell] {
        &mut self.cells
    }

    /// Node `i`'s smoothed signal variability for ATC, in percent of span:
    /// the maximum over its present estimates, folded in type order (the
    /// most volatile sensor drives the update rate).
    pub(crate) fn sigma_hat_pct(&self, i: usize) -> Option<f64> {
        self.row(i)
            .iter()
            .map(|c| c.variability)
            .filter(|v| !v.is_nan())
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
    }
}

/// Run one reading of `stype` through `cell`, entering `node` only when
/// the reading escapes its own tuple. The escape handler's messages are
/// appended to `out` and the window is refreshed from the node's new own
/// tuple; a contained reading appends nothing and leaves the node
/// untouched.
#[inline]
pub(crate) fn sample(
    node: &mut DirqNode,
    cell: &mut SensorCell,
    stype: SensorType,
    reading: f64,
    span: f64,
    alpha: f64,
    out: &mut Vec<Outgoing>,
) {
    if !cell.observe(reading, span, alpha) {
        debug_assert_eq!(
            cell.window(),
            node.table(stype).and_then(|t| t.own()).map(|e| (e.min, e.max)),
            "escape window out of step with node {:?}'s own tuple",
            node.id()
        );
        return;
    }
    node.sample(stype, reading, out);
    cell.set_window(node.table(stype).and_then(|t| t.own()));
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dirq_net::NodeId;
    use dirq_sim::stats::Ewma;
    use proptest::prelude::*;

    use super::*;
    use crate::atc::DeltaPolicy;
    use crate::node::NodeConfig;

    const ALPHA: f64 = 0.2;
    const SPANS: [f64; 2] = [20.0, 40.0];

    fn cfg(delta_pct: f64) -> Arc<NodeConfig> {
        Arc::new(NodeConfig {
            delta_policy: DeltaPolicy::Fixed(delta_pct),
            reference_spans: SPANS.to_vec(),
            variability_alpha: ALPHA,
            tx_threshold_factor: 1.0,
        })
    }

    /// A node with a parent, so escapes emit Updates.
    fn attached(cfg: &Arc<NodeConfig>) -> DirqNode {
        let mut n = DirqNode::new(NodeId(1), Arc::clone(cfg));
        n.set_parent(Some(NodeId(0)), &mut Vec::new());
        n
    }

    /// Run one handler on a fresh buffer and return what it appended.
    fn run(handler: impl FnOnce(&mut Vec<Outgoing>)) -> Vec<Outgoing> {
        let mut out = Vec::new();
        handler(&mut out);
        out
    }

    /// The sampling state a node kept before the plane existed: the last
    /// reading and a variability EWMA per type, next to the node itself.
    struct Model {
        node: DirqNode,
        last_reading: Vec<f64>,
        variability: Vec<Option<Ewma>>,
    }

    impl Model {
        fn new(cfg: &Arc<NodeConfig>) -> Self {
            Model {
                node: attached(cfg),
                last_reading: vec![f64::NAN; SPANS.len()],
                variability: vec![None; SPANS.len()],
            }
        }

        /// The pre-plane `DirqNode::sample`: the variability update, then
        /// the own-tuple test and table flush on every reading.
        fn sample(&mut self, stype: SensorType, reading: f64) -> Vec<Outgoing> {
            let idx = stype.index();
            let span = SPANS[idx];
            let prev = std::mem::replace(&mut self.last_reading[idx], reading);
            if !prev.is_nan() {
                let pct = ((reading - prev).abs() / span) * 100.0;
                self.variability[idx].get_or_insert_with(|| Ewma::new(ALPHA)).observe(pct);
            }
            run(|o| self.node.sample(stype, reading, o))
        }

        fn sigma_hat_pct(&self) -> Option<f64> {
            self.variability
                .iter()
                .flatten()
                .filter_map(|e| e.value())
                .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The plane plus the escape handler is bit-equal to the pre-plane
        /// node on every reading: last reading, variability, escape
        /// decision, own tuple and emitted messages.
        #[test]
        fn plane_matches_the_pre_plane_node(
            delta_pct in 0.5f64..12.0,
            steps in proptest::collection::vec((0u8..13, 0.0f64..1.0), 1..120),
        ) {
            let cfg = cfg(delta_pct);
            let mut model = Model::new(&cfg);
            let mut node = attached(&cfg);
            let mut row = [SensorCell::EMPTY; SPANS.len()];
            for (k, &(kind, raw)) in steps.iter().enumerate() {
                let stype = SensorType(kind % 2);
                let idx = stype.index();
                match kind {
                    // Drop the own sensor: the window clears with the tuple.
                    10 => {
                        let want = run(|o| model.node.drop_own_sensor(stype, o));
                        let got = run(|o| node.drop_own_sensor(stype, o));
                        prop_assert_eq!(got, want, "step {}: drop_own_sensor", k);
                        row[idx].set_window(node.table(stype).and_then(|t| t.own()));
                    }
                    // Rebirth: a fresh node and a reset row.
                    11 => {
                        model = Model::new(&cfg);
                        node = attached(&cfg);
                        row = [SensorCell::EMPTY; SPANS.len()];
                    }
                    // A child's Update widens or moves the aggregate; the
                    // own tuple and the window stay.
                    12 => {
                        let (min, max) = (SPANS[idx] * raw, SPANS[idx] * (raw + 0.2));
                        let want = run(|o| model.node.on_update(NodeId(7), stype, min, max, o));
                        let got = run(|o| node.on_update(NodeId(7), stype, min, max, o));
                        prop_assert_eq!(got, want, "step {}: child update", k);
                    }
                    _ => {
                        // Readings drift around 50 % of the span; kinds 6..10
                        // land exactly on a bound of the current window.
                        let reading = match (kind, row[idx].window()) {
                            (6 | 7, Some((lo, _))) => lo,
                            (8 | 9, Some((_, hi))) => hi,
                            _ => SPANS[idx] * (0.3 + 0.4 * raw),
                        };
                        let escapes = !model
                            .node
                            .table(stype)
                            .and_then(|t| t.own())
                            .is_some_and(|e| e.contains(reading));
                        let want = model.sample(stype, reading);
                        // `sample` decides on the cell's own copy of the
                        // same step; probe it on a copy first.
                        let mut probe = row[idx];
                        let escaped = probe.observe(reading, SPANS[idx], ALPHA);
                        let got = run(|o| {
                            sample(&mut node, &mut row[idx], stype, reading, SPANS[idx], ALPHA, o)
                        });
                        prop_assert_eq!(escaped, escapes, "step {}: escape decision", k);
                        prop_assert_eq!(got, want, "step {}: messages", k);
                    }
                }
                for (t, cell) in row.iter().enumerate() {
                    let s = SensorType(t as u8);
                    prop_assert_eq!(
                        cell.last.to_bits(),
                        model.last_reading[t].to_bits(),
                        "step {}: last reading of type {}", k, t
                    );
                    let var = model.variability[t].and_then(|e| e.value());
                    prop_assert_eq!(
                        (!cell.variability.is_nan()).then_some(cell.variability.to_bits()),
                        var.map(f64::to_bits),
                        "step {}: variability of type {}", k, t
                    );
                    let own = node.table(s).and_then(|t| t.own());
                    prop_assert_eq!(own, model.node.table(s).and_then(|t| t.own()));
                    prop_assert_eq!(cell.window(), own.map(|e| (e.min, e.max)));
                }
                let mut plane = SensingPlane::new(1, SPANS.len());
                plane.row_mut(0).copy_from_slice(&row);
                prop_assert_eq!(
                    plane.sigma_hat_pct(0).map(f64::to_bits),
                    model.sigma_hat_pct().map(f64::to_bits)
                );
                prop_assert_eq!(node.updates_sent(), model.node.updates_sent());
            }
        }
    }

    #[test]
    fn variability_estimate_tracks_changes() {
        let mut plane = SensingPlane::new(2, SPANS.len());
        let mut node = attached(&cfg(5.0));
        assert_eq!(plane.sigma_hat_pct(1), None);
        let t0 = SensorType(0);
        sample(&mut node, &mut plane.row_mut(1)[0], t0, 20.0, SPANS[0], ALPHA, &mut Vec::new());
        assert_eq!(plane.sigma_hat_pct(1), None, "one reading has no change yet");
        // |Δ| = 1.0 = 5 % of span 20, inside the ±1.0 tuple: no escape.
        let out =
            run(|o| sample(&mut node, &mut plane.row_mut(1)[0], t0, 21.0, SPANS[0], ALPHA, o));
        assert!(out.is_empty());
        let sigma = plane.sigma_hat_pct(1).unwrap();
        assert!((sigma - 5.0).abs() < 1e-9, "sigma {sigma}");
    }

    #[test]
    fn readings_on_the_window_bounds_stay_inside() {
        let mut cell = SensorCell::EMPTY;
        assert!(cell.observe(20.0, 20.0, ALPHA), "no tuple: the first reading escapes");
        cell.set_window(Some(RangeEntry::around(20.0, 1.0)));
        assert!(!cell.observe(19.0, 20.0, ALPHA));
        assert!(!cell.observe(21.0, 20.0, ALPHA));
        assert!(cell.observe(21.0 + 1e-9, 20.0, ALPHA));
        cell.set_window(None);
        assert!(cell.observe(20.0, 20.0, ALPHA), "a cleared window escapes");
    }
}

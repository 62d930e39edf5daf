//! The per-node DirQ protocol state machine.
//!
//! [`DirqNode`] holds a node's protocol state: its place in the spanning
//! tree (parent + children), one [`RangeTable`] per sensor type with range
//! information anywhere in its subtree, and the threshold controller. All
//! handlers are pure state transitions that append [`Outgoing`] actions to
//! a caller-owned buffer; the scenario engine maps those onto LMAC
//! transmissions and reuses one buffer for every handler call. This keeps
//! the protocol unit-testable without a simulator.
//!
//! Every Update and query reads a cold node, so the node stays within 128
//! bytes: the ATC controller is boxed and allocated only under
//! [`DeltaPolicy::Adaptive`], and the location table is boxed and
//! allocated on its first write (a position, a child's advert or a
//! restored non-empty table). Without one, reads see an empty table.
//!
//! What every sample touches — the last reading, the variability estimate
//! and a copy of the own tuple — lives in the engine's dense sensing plane
//! (the crate-private `sensing` module), and a node is entered only when a
//! reading escapes its own tuple ([`DirqNode::sample`]). The range tables
//! are a dense array indexed by [`SensorType::index`]; iteration over types
//! ascends the index, so message emission order follows the type order.
//! Every node of a deployment shares one [`NodeConfig`].

use std::sync::Arc;

use dirq_data::{QueryId, RangeQuery, SensorType};
use dirq_net::{NodeId, NodeList, Position};
use dirq_sim::stats::Ewma;
use dirq_sim::{SnapError, SnapReader, SnapWriter};

use crate::atc::{restore_delta, AtcController, DeltaPolicy};
use crate::engine::sensing::SensorCell;
use crate::geo::GeoTable;
use crate::messages::{DirqMessage, EhrMessage};
use crate::range_table::{RangeEntry, RangeTable};

/// An action requested by a protocol handler.
#[derive(Clone, Debug, PartialEq)]
pub enum Outgoing {
    /// Unicast to the node's current parent.
    ToParent(DirqMessage),
    /// Multicast to the listed children (inline, allocation-free up to
    /// four receivers — the common fan-out in the paper's trees).
    ToChildren(NodeList, DirqMessage),
    /// The query matched this node's own advertised range: hand the query
    /// to the local application (the node is a *source* in DirQ's eyes).
    DeliverLocal(RangeQuery),
}

/// Static per-node protocol parameters.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Threshold policy (fixed δ or ATC).
    pub delta_policy: DeltaPolicy,
    /// Reference span per sensor type (δ% is relative to this), indexed by
    /// `SensorType`.
    pub reference_spans: Vec<f64>,
    /// EWMA smoothing for the signal-variability estimate.
    pub variability_alpha: f64,
    /// Multiplier on δ for the *transmission* test (Fig. 3). 1.0 = the
    /// paper's rule; 0.0 = transmit on every aggregate change (ablation).
    pub tx_threshold_factor: f64,
}

impl NodeConfig {
    /// Reference span for `stype` (falls back to 1.0 for unknown types so
    /// late-registered sensors still work).
    pub fn reference_span(&self, stype: SensorType) -> f64 {
        self.reference_spans.get(stype.index()).copied().unwrap_or(1.0)
    }
}

/// The DirQ state of one sensor node.
#[derive(Clone, Debug)]
pub struct DirqNode {
    id: NodeId,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// One table slot per sensor type, indexed by `SensorType::index`
    /// (`None`: no table — the type is absent from this node's subtree).
    tables: Vec<Option<RangeTable>>,
    delta_pct: f64,
    /// The threshold controller; only [`DeltaPolicy::Adaptive`] has one.
    atc: Option<Box<AtcController>>,
    /// Query ids already processed (duplicate suppression after repairs).
    seen_queries: Vec<QueryId>,
    /// Location extension: subtree bounding boxes, allocated on the first
    /// write (`None` reads as an empty table — DirQ works without
    /// localisation). Read it through [`DirqNode::geo`].
    geo: Option<Box<GeoTable>>,
    updates_sent: u64,
    cfg: Arc<NodeConfig>,
}

/// Bound on the duplicate-suppression memory.
const SEEN_QUERIES_CAP: usize = 64;

/// What a node without a location table reads.
static NO_GEO: GeoTable = GeoTable::new();

impl DirqNode {
    /// Fresh node with no tree links and empty tables.
    pub fn new(id: NodeId, cfg: Arc<NodeConfig>) -> Self {
        let (delta_pct, atc) = match cfg.delta_policy {
            DeltaPolicy::Fixed(pct) => {
                assert!(pct > 0.0, "fixed δ must be positive");
                (pct, None)
            }
            DeltaPolicy::Adaptive(acfg) => {
                let c = AtcController::new(acfg);
                (c.delta_pct(), Some(Box::new(c)))
            }
        };
        // Pre-size the table array from the configured spans; types
        // registered after deployment grow it on demand.
        let n_types = cfg.reference_spans.len();
        DirqNode {
            id,
            parent: None,
            children: Vec::new(),
            tables: vec![None; n_types],
            delta_pct,
            atc,
            seen_queries: Vec::new(),
            geo: None,
            updates_sent: 0,
            cfg,
        }
    }

    /// Grow the table array so `idx` is addressable (late-registered
    /// sensor types).
    fn ensure_type(&mut self, idx: usize) {
        if self.tables.len() <= idx {
            self.tables.resize(idx + 1, None);
        }
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current parent.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Current children (protocol view).
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Current δ in percent of the reference span.
    pub fn delta_pct(&self) -> f64 {
        self.delta_pct
    }

    /// Absolute δ for a sensor type.
    pub fn delta_abs(&self, stype: SensorType) -> f64 {
        self.delta_pct / 100.0 * self.cfg.reference_span(stype)
    }

    /// Total Update/Retract messages this node has transmitted.
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// Range table for `stype`, if present.
    pub fn table(&self, stype: SensorType) -> Option<&RangeTable> {
        self.tables.get(stype.index()).and_then(|t| t.as_ref())
    }

    /// Sensor types with a table at this node (i.e. present somewhere in
    /// its subtree — the paper's Fig. 4), ascending.
    pub fn table_types(&self) -> impl Iterator<Item = SensorType> + '_ {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some())
            .map(|(i, _)| SensorType(i as u8))
    }

    // --- tree maintenance ---------------------------------------------------

    /// Adopt a new parent (or become an orphan with `None`). Appends the
    /// messages to send to the new parent: an `Attach` followed by a full
    /// re-advertisement of every non-empty table aggregate.
    pub fn set_parent(&mut self, parent: Option<NodeId>, out: &mut Vec<Outgoing>) {
        self.parent = parent;
        if parent.is_some() {
            out.push(Outgoing::ToParent(DirqMessage::Attach));
            let mut sent = 0;
            for (idx, slot) in self.tables.iter_mut().enumerate() {
                let Some(table) = slot else { continue };
                if let Some(agg) = table.aggregate() {
                    table.mark_transmitted(agg);
                    out.push(Outgoing::ToParent(DirqMessage::Update {
                        stype: SensorType(idx as u8),
                        min: agg.min,
                        max: agg.max,
                    }));
                    sent += 1;
                }
            }
            self.updates_sent += sent;
            if let Some(atc) = &mut self.atc {
                for _ in 0..sent {
                    atc.on_update_sent();
                }
            }
            if let Some(geo) = &mut self.geo {
                if let Some(rect) = geo.aggregate() {
                    geo.mark_advertised(rect);
                    out.push(Outgoing::ToParent(DirqMessage::GeoAdvert(rect)));
                }
            }
        }
    }

    /// Location extension: record this node's own (static) position and
    /// advertise the resulting subtree hull.
    pub fn set_position(&mut self, pos: Position, out: &mut Vec<Outgoing>) {
        self.geo.get_or_insert_default().set_own(pos);
        self.flush_geo(out);
    }

    /// This node's position, if localised.
    pub fn position(&self) -> Option<Position> {
        self.geo_table().own()
    }

    /// The location table; an empty one stands in when none was written.
    pub fn geo_table(&self) -> &GeoTable {
        self.geo.as_deref().unwrap_or(&NO_GEO)
    }

    /// A child advertised its subtree bounding box.
    pub fn on_geo_advert(&mut self, from: NodeId, rect: dirq_net::Rect, out: &mut Vec<Outgoing>) {
        self.add_child(from);
        if self.geo.get_or_insert_default().set_child(from, rect) {
            self.flush_geo(out);
        }
    }

    fn flush_geo(&mut self, out: &mut Vec<Outgoing>) {
        let Some(geo) = &mut self.geo else { return };
        let Some(rect) = geo.pending_advert() else { return };
        geo.mark_advertised(rect);
        if !self.id.is_root() && self.parent.is_some() {
            out.push(Outgoing::ToParent(DirqMessage::GeoAdvert(rect)));
        }
    }

    /// Register `child` (idempotent).
    pub fn add_child(&mut self, child: NodeId) {
        if let Err(i) = self.children.binary_search(&child) {
            self.children.insert(i, child);
        }
    }

    /// A child vanished (death or re-parenting): drop it from the child
    /// list and every table, cascading updates/retracts upward.
    pub fn on_child_lost(&mut self, child: NodeId, out: &mut Vec<Outgoing>) {
        if let Ok(i) = self.children.binary_search(&child) {
            self.children.remove(i);
        }
        for idx in 0..self.tables.len() {
            let changed = self.tables[idx].as_mut().map(|t| t.remove_child(child)).unwrap_or(false);
            if changed {
                self.flush_table(SensorType(idx as u8), out);
            }
        }
        if self.geo.as_mut().is_some_and(|g| g.remove_child(child)) {
            self.flush_geo(out);
        }
    }

    // --- sensing ------------------------------------------------------------

    /// A reading of a carried sensor type escaped the node's own tuple
    /// (Fig. 1): replace the tuple and flush the table (Fig. 3). The
    /// engine's sensing plane filters the readings that stay inside and
    /// keeps the last reading and variability; a contained reading is a
    /// no-op here too.
    pub fn sample(&mut self, stype: SensorType, reading: f64, out: &mut Vec<Outgoing>) {
        let idx = stype.index();
        self.ensure_type(idx);
        let delta = self.delta_abs(stype);
        let table = self.tables[idx].get_or_insert_with(RangeTable::new);
        if table.observe_own(reading, delta) {
            self.flush_table(stype, out);
        }
    }

    /// The node's sensor for `stype` was removed.
    pub fn drop_own_sensor(&mut self, stype: SensorType, out: &mut Vec<Outgoing>) {
        let changed = self
            .tables
            .get_mut(stype.index())
            .and_then(|t| t.as_mut())
            .map(|t| t.clear_own())
            .unwrap_or(false);
        if changed {
            self.flush_table(stype, out);
        }
    }

    // --- message handlers ----------------------------------------------------

    /// An Update arrived from a child.
    pub fn on_update(
        &mut self,
        from: NodeId,
        stype: SensorType,
        min: f64,
        max: f64,
        out: &mut Vec<Outgoing>,
    ) {
        self.add_child(from);
        self.ensure_type(stype.index());
        let table = self.tables[stype.index()].get_or_insert_with(RangeTable::new);
        let changed = table.set_child(from, RangeEntry { min, max });
        if changed {
            self.flush_table(stype, out);
        }
    }

    /// A Retract arrived from a child.
    pub fn on_retract(&mut self, from: NodeId, stype: SensorType, out: &mut Vec<Outgoing>) {
        let changed = self
            .tables
            .get_mut(stype.index())
            .and_then(|t| t.as_mut())
            .map(|t| t.remove_child(from))
            .unwrap_or(false);
        if changed {
            self.flush_table(stype, out);
        }
    }

    /// An Attach arrived: adopt the sender as a child (its Updates follow).
    pub fn on_attach(&mut self, from: NodeId) {
        self.add_child(from);
    }

    /// A query arrived (or was injected, at the root). Appends the local
    /// delivery (if the node's own advertised range matches) and the
    /// forwarding multicast to the children whose aggregates overlap.
    ///
    /// Duplicate query ids (possible transiently after tree repairs) are
    /// ignored.
    pub fn on_query(&mut self, query: &RangeQuery, out: &mut Vec<Outgoing>) {
        if self.seen_queries.contains(&query.id) {
            return;
        }
        if self.seen_queries.len() == SEEN_QUERIES_CAP {
            self.seen_queries.remove(0);
        }
        self.seen_queries.push(query.id);

        if let Some(table) = self.table(query.stype) {
            let geo = self.geo_table();
            if let Some(own) = table.own() {
                // Local delivery: value overlap, plus (when both the query
                // and the node are localised) the region must contain us.
                let in_region = match (query.region, geo.own()) {
                    (Some(r), Some(pos)) => r.contains(&pos),
                    _ => true, // no region, or no localisation: cannot prune
                };
                if own.overlaps(query.lo, query.hi) && in_region {
                    out.push(Outgoing::DeliverLocal(*query));
                }
            }
            // Interval-overlap sweep over the table's child tuples;
            // candidates that survive it are filtered by child-list
            // membership (only forward to nodes we still consider children)
            // and spatial pruning (skip children whose advertised subtree
            // box misses the query region; unknown boxes are forwarded
            // conservatively).
            let mut relevant = NodeList::default();
            table.for_overlapping_children(query.lo, query.hi, |c| {
                if self.children.binary_search(&c).is_ok()
                    && match (query.region, geo.child_rect(c)) {
                        (Some(region), Some(rect)) => rect.intersects(&region),
                        _ => true,
                    }
                {
                    relevant.push(c);
                }
            });
            if !relevant.is_empty() {
                out.push(Outgoing::ToChildren(relevant, DirqMessage::Query(*query)));
            }
        }
    }

    /// The hourly EHr/budget message arrived: update ATC and forward the
    /// message to all children.
    pub fn on_ehr(&mut self, msg: EhrMessage, out: &mut Vec<Outgoing>) {
        if let Some(atc) = &mut self.atc {
            atc.on_budget(msg.per_node_budget_per_epoch);
        }
        if !self.children.is_empty() {
            out.push(Outgoing::ToChildren(self.children.as_slice().into(), DirqMessage::Ehr(msg)));
        }
    }

    /// End-of-epoch housekeeping: drive the ATC adjustment from `sigma`,
    /// the node's smoothed signal variability in percent of span (the
    /// sensing plane's maximum over the node's carried types).
    pub fn end_epoch(&mut self, sigma: Option<f64>) {
        if let Some(atc) = &mut self.atc {
            if let Some(new_delta) = atc.on_epoch_end(sigma) {
                self.delta_pct = new_delta;
            }
        }
    }

    // --- read-ahead -------------------------------------------------------------
    //
    // The engine reads ahead of a batch of handler calls in three stages,
    // each over the whole batch, so the loads of different nodes overlap
    // instead of forming one dependent chain per message. Each stage
    // returns a word built from what it loaded, for the caller to fold
    // into `std::hint::black_box`; none changes state.

    /// Stage one: the node itself — the words the later stages follow.
    #[inline]
    pub(crate) fn touch(&self) -> usize {
        self.tables.len() ^ self.children.len() ^ self.seen_queries.len()
    }

    /// Stage two: the table slot for `stype`, the child list and, for a
    /// query, the duplicate-suppression list.
    #[inline]
    pub(crate) fn touch_lists(&self, stype: SensorType, query: bool) -> usize {
        let table = self.tables.get(stype.index()).map_or(0, |t| usize::from(t.is_some()));
        let child = self.children.first().map_or(0, |c| c.index());
        let seen = if query { self.seen_queries.first().map_or(0, |q| q.0 as usize) } else { 0 };
        table ^ child ^ seen
    }

    /// Stage three: the first child tuple of the `stype` table.
    #[inline]
    pub(crate) fn touch_tuples(&self, stype: SensorType) -> usize {
        self.table(stype).and_then(|t| t.child_ids().next()).map_or(0, |c| c.index())
    }

    // --- snapshot -------------------------------------------------------------

    /// Write the node's full dynamic state to `w`, with its sensing-plane
    /// `row` in the variability and last-reading records (each present
    /// variability as an EWMA record at the configured α). Static
    /// configuration (id, spans, threshold policy) is rebuilt by the
    /// engine constructor and not captured.
    pub(crate) fn snap(&self, w: &mut SnapWriter, row: &[SensorCell]) {
        w.tag(b"NODE");
        w.bool(self.parent.is_some());
        if let Some(p) = self.parent {
            w.u32(p.0);
        }
        w.len_of(self.children.len());
        for c in &self.children {
            w.u32(c.0);
        }
        w.len_of(self.tables.len());
        for slot in &self.tables {
            w.bool(slot.is_some());
            if let Some(t) = slot {
                t.snap(w);
            }
        }
        w.f64(self.delta_pct);
        w.bool(self.atc.is_some());
        if let Some(atc) = &self.atc {
            atc.snap(w);
        }
        w.len_of(row.len());
        for cell in row {
            w.bool(!cell.variability.is_nan());
            if !cell.variability.is_nan() {
                w.f64(self.cfg.variability_alpha);
                w.opt_f64(Some(cell.variability));
            }
        }
        w.len_of(row.len());
        for cell in row {
            w.f64(cell.last);
        }
        w.len_of(self.seen_queries.len());
        for q in &self.seen_queries {
            w.u64(q.0);
        }
        self.geo_table().snap(w);
        w.u64(self.updates_sent);
    }

    /// Overlay state captured by [`DirqNode::snap`] onto a node built with
    /// the same id and config, and onto its sensing-plane `row`, whose
    /// escape windows are rebuilt from the restored tables. An image that
    /// names a node id outside the `n_nodes` deployment, carries a δ that
    /// is negative, NaN or infinite, or whose sensing records do not fit
    /// the row and the configured α, is malformed.
    pub(crate) fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        row: &mut [SensorCell],
        n_nodes: usize,
    ) -> Result<(), SnapError> {
        const OUTSIDE: &str = "node id outside the deployment";
        let inside = |id: &NodeId| id.index() < n_nodes;
        r.tag(b"NODE")?;
        let pos = r.position();
        self.parent = if r.bool()? { Some(NodeId(r.u32()?)) } else { None };
        let n = r.seq_len(4)?;
        self.children = (0..n).map(|_| r.u32().map(NodeId)).collect::<Result<_, _>>()?;
        let n = r.seq_len(1)?;
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            tables.push(if r.bool()? { Some(RangeTable::unsnap(r)?) } else { None });
        }
        if !(self.parent.iter().chain(&self.children).all(inside)
            && tables.iter().flatten().all(|t: &RangeTable| t.child_ids().all(|c| inside(&c))))
        {
            return Err(SnapError::Malformed { pos, what: OUTSIDE });
        }
        self.tables = tables;
        self.delta_pct = restore_delta(r)?;
        let pos = r.position();
        if r.bool()? != self.atc.is_some() {
            return Err(SnapError::Malformed {
                pos,
                what: "ATC presence disagrees with the threshold policy",
            });
        }
        if let Some(atc) = &mut self.atc {
            atc.restore(r)?;
        }
        let pos = r.position();
        if r.seq_len(1)? != row.len() {
            return Err(SnapError::Malformed { pos, what: "sensing row length mismatch" });
        }
        for cell in row.iter_mut() {
            cell.variability = f64::NAN;
            if r.bool()? {
                let pos = r.position();
                let e = Ewma::unsnap(r)?;
                match e.value() {
                    Some(v) if !v.is_nan() && e.alpha() == self.cfg.variability_alpha => {
                        cell.variability = v;
                    }
                    _ => {
                        return Err(SnapError::Malformed {
                            pos,
                            what: "variability record disagrees with the node config",
                        })
                    }
                }
            }
        }
        let pos = r.position();
        if r.seq_len(8)? != row.len() {
            return Err(SnapError::Malformed { pos, what: "sensing row length mismatch" });
        }
        for cell in row.iter_mut() {
            cell.last = r.f64()?;
        }
        let n = r.seq_len(8)?;
        self.seen_queries =
            (0..n).map(|_| r.u64().map(dirq_data::QueryId)).collect::<Result<_, _>>()?;
        let pos = r.position();
        let geo = GeoTable::unsnap(r)?;
        if !geo.children().iter().all(|(c, _)| inside(c)) {
            return Err(SnapError::Malformed { pos, what: OUTSIDE });
        }
        self.geo = (!geo.is_empty()).then(|| Box::new(geo));
        self.updates_sent = r.count()?;
        for (idx, cell) in row.iter_mut().enumerate() {
            cell.set_window(
                self.tables.get(idx).and_then(Option::as_ref).and_then(RangeTable::own),
            );
        }
        Ok(())
    }

    // --- internals ------------------------------------------------------------

    /// After a table mutation: emit an Update or Retract to the parent per
    /// the Fig. 3 rule. The root marks aggregates transmitted without
    /// sending (its "parent" is the wired server).
    fn flush_table(&mut self, stype: SensorType, out: &mut Vec<Outgoing>) {
        let delta = self.delta_abs(stype) * self.cfg.tx_threshold_factor;
        let Some(table) = self.tables.get_mut(stype.index()).and_then(|t| t.as_mut()) else {
            return;
        };
        if table.pending_retract() {
            table.mark_retracted();
            self.tables[stype.index()] = None;
            if !self.id.is_root() && self.parent.is_some() {
                self.updates_sent += 1;
                if let Some(atc) = &mut self.atc {
                    atc.on_update_sent();
                }
                out.push(Outgoing::ToParent(DirqMessage::Retract { stype }));
            }
        } else if let Some(agg) = table.pending_update(delta) {
            table.mark_transmitted(agg);
            if !self.id.is_root() && self.parent.is_some() {
                self.updates_sent += 1;
                if let Some(atc) = &mut self.atc {
                    atc.on_update_sent();
                }
                out.push(Outgoing::ToParent(DirqMessage::Update {
                    stype,
                    min: agg.min,
                    max: agg.max,
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_data::QueryId;

    fn cfg() -> Arc<NodeConfig> {
        Arc::new(NodeConfig {
            delta_policy: DeltaPolicy::Fixed(5.0),
            reference_spans: vec![20.0, 40.0],
            variability_alpha: 0.2,
            tx_threshold_factor: 1.0,
        })
    }

    fn t0() -> SensorType {
        SensorType(0)
    }

    fn query(id: u64, lo: f64, hi: f64) -> RangeQuery {
        RangeQuery::value(QueryId(id), t0(), lo, hi)
    }

    fn mk(id: u32) -> DirqNode {
        let mut n = DirqNode::new(NodeId(id), cfg());
        if id != 0 {
            // Give non-root nodes a parent so updates are emitted.
            n.set_parent(Some(NodeId(0)), &mut Vec::new());
        }
        n
    }

    /// Run one handler on a fresh buffer and return what it appended.
    fn run(handler: impl FnOnce(&mut Vec<Outgoing>)) -> Vec<Outgoing> {
        let mut out = Vec::new();
        handler(&mut out);
        out
    }

    /// Every Update and query pulls a node, and a range table, into cache;
    /// a new inline field must not silently undo the budget.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn layout_budget() {
        let node = std::mem::size_of::<DirqNode>();
        let table = std::mem::size_of::<RangeTable>();
        assert!(node <= 128, "DirqNode is {node} bytes, over its 128-byte budget");
        assert!(table <= 72, "RangeTable is {table} bytes, over its 72-byte budget");
    }

    #[test]
    fn handlers_append_to_the_buffer() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new());
        n.on_update(NodeId(8), SensorType(1), 5.0, 6.0, &mut Vec::new());
        let before = n.updates_sent();
        let mut out = vec![Outgoing::DeliverLocal(query(1, 0.0, 1.0))];
        n.set_parent(Some(NodeId(2)), &mut out);
        assert_eq!(out.len(), 4, "the earlier entry stays: {out:?}");
        assert_eq!(out[0], Outgoing::DeliverLocal(query(1, 0.0, 1.0)));
        assert_eq!(out[1], Outgoing::ToParent(DirqMessage::Attach));
        assert_eq!(n.updates_sent(), before + 2, "two tables re-advertised");
    }

    #[test]
    fn geo_table_is_allocated_on_first_write() {
        use dirq_net::{Position, Rect};
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new());
        n.on_update(NodeId(3), t0(), 0.0, 1.0, &mut Vec::new());
        let out = run(|o| n.on_child_lost(NodeId(3), o));
        assert!(!out.iter().any(|o| matches!(o, Outgoing::ToParent(DirqMessage::GeoAdvert(_)))));
        assert!(n.geo.is_none(), "no location write, no table");
        assert!(n.geo_table().is_empty());
        assert_eq!(n.position(), None);

        // An absent table snaps as an empty one and restores as absent.
        let row = [SensorCell::EMPTY; 2];
        let mut w = SnapWriter::new();
        n.snap(&mut w, &row);
        let image = w.finish();
        let mut boxed = n.clone();
        boxed.geo = Some(Box::default());
        let mut w = SnapWriter::new();
        boxed.snap(&mut w, &row);
        assert!(w.finish() == image, "an absent table snaps as an empty one");
        let mut copy = DirqNode::new(NodeId(1), cfg());
        copy.restore(&mut SnapReader::new(&image), &mut row.clone(), 8).expect("own image");
        assert!(copy.geo.is_none());

        let mut other = mk(2);
        other.on_geo_advert(NodeId(4), Rect::point(Position::new(1.0, 2.0)), &mut Vec::new());
        assert!(other.geo.is_some());
        n.set_position(Position::new(3.0, 4.0), &mut Vec::new());
        assert_eq!(n.position(), Some(Position::new(3.0, 4.0)));
        let mut w = SnapWriter::new();
        n.snap(&mut w, &row);
        let image = w.finish();
        let mut copy = DirqNode::new(NodeId(1), cfg());
        copy.restore(&mut SnapReader::new(&image), &mut row.clone(), 8).expect("own image");
        assert_eq!(copy.position(), Some(Position::new(3.0, 4.0)));
    }

    #[test]
    fn delta_abs_scales_with_span() {
        let n = mk(1);
        assert_eq!(n.delta_pct(), 5.0);
        assert_eq!(n.delta_abs(SensorType(0)), 1.0); // 5% of 20
        assert_eq!(n.delta_abs(SensorType(1)), 2.0); // 5% of 40
    }

    #[test]
    fn first_sample_emits_update() {
        let mut n = mk(1);
        let out = run(|o| n.sample(t0(), 20.0, o));
        assert_eq!(
            out,
            vec![Outgoing::ToParent(DirqMessage::Update { stype: t0(), min: 19.0, max: 21.0 })]
        );
        assert_eq!(n.updates_sent(), 1);
    }

    #[test]
    fn small_changes_suppressed() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new());
        // Inside the ±1.0 window: no tuple replacement, no update.
        assert!(run(|o| n.sample(t0(), 20.5, o)).is_empty());
        assert!(run(|o| n.sample(t0(), 19.2, o)).is_empty());
        assert_eq!(n.updates_sent(), 1);
    }

    #[test]
    fn escape_triggers_update_beyond_delta() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new()); // tx [19, 21]

        // Escape to 22.5: own tuple [21.5, 23.5]; aggregate moved by 2.5 > 1.
        let out = run(|o| n.sample(t0(), 22.5, o));
        assert_eq!(
            out,
            vec![Outgoing::ToParent(DirqMessage::Update { stype: t0(), min: 21.5, max: 23.5 })]
        );
    }

    #[test]
    fn escape_within_delta_of_last_tx_is_silent() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new()); // own [19,21], tx [19,21]

        // Escape to 21.8: own tuple becomes [20.8, 22.8]; min moved +1.8 > δ?
        // min 19→20.8 = 1.8 > 1 → fires. Pick an escape that moves both ends
        // by ≤ δ: reading 21.9 → [20.9, 22.9]: max moved 1.9 > 1 — fires too.
        // With this δ the paper's rule can only stay silent when the
        // aggregate is dominated by children; verify via a child update.
        let mut p = mk(2);
        p.on_update(NodeId(5), t0(), 0.0, 100.0, &mut Vec::new());
        // p transmitted [0,100]. A tiny own reading inside: aggregate
        // unchanged → silent.
        let out = run(|o| p.sample(t0(), 50.0, o));
        assert!(out.is_empty(), "aggregate [0,100] swallowed [49,51]: {out:?}");
    }

    #[test]
    fn child_update_cascades_when_significant() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new()); // tx [19, 21]
        let out = run(|o| n.on_update(NodeId(7), t0(), 5.0, 8.0, o));
        assert_eq!(
            out,
            vec![Outgoing::ToParent(DirqMessage::Update { stype: t0(), min: 5.0, max: 21.0 })]
        );
        assert_eq!(n.children(), &[NodeId(7)]);
        // A further child change inside the transmitted aggregate: silent.
        let out = run(|o| n.on_update(NodeId(7), t0(), 5.5, 8.0, o));
        assert!(out.is_empty());
    }

    #[test]
    fn root_absorbs_updates_without_sending() {
        let mut root = DirqNode::new(NodeId::ROOT, cfg());
        let out = run(|o| root.on_update(NodeId(3), t0(), 1.0, 2.0, o));
        assert!(out.is_empty(), "root has no parent to update");
        assert_eq!(root.updates_sent(), 0);
        // But it stores the information for routing.
        assert!(root.table(t0()).is_some());
    }

    #[test]
    fn retract_on_last_entry_removed() {
        let mut n = mk(1);
        n.on_update(NodeId(9), t0(), 1.0, 2.0, &mut Vec::new());
        let out = run(|o| n.on_child_lost(NodeId(9), o));
        assert_eq!(out, vec![Outgoing::ToParent(DirqMessage::Retract { stype: t0() })]);
        assert!(n.table(t0()).is_none(), "empty table dropped");
        assert!(n.children().is_empty());
    }

    #[test]
    fn child_loss_with_remaining_data_updates() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new()); // [19,21]
        n.on_update(NodeId(9), t0(), 0.0, 50.0, &mut Vec::new()); // tx [0,50]
        let out = run(|o| n.on_child_lost(NodeId(9), o));
        // Aggregate shrinks back to [19,21]: both ends moved > δ.
        assert_eq!(
            out,
            vec![Outgoing::ToParent(DirqMessage::Update { stype: t0(), min: 19.0, max: 21.0 })]
        );
    }

    #[test]
    fn query_routing_to_overlapping_children_only() {
        let mut n = mk(1);
        n.on_update(NodeId(3), t0(), 0.0, 10.0, &mut Vec::new());
        n.on_update(NodeId(4), t0(), 20.0, 30.0, &mut Vec::new());
        n.on_update(NodeId(5), t0(), 40.0, 50.0, &mut Vec::new());
        let out = run(|o| n.on_query(&query(1, 25.0, 45.0), o));
        assert_eq!(
            out,
            vec![Outgoing::ToChildren(
                [NodeId(4), NodeId(5)].into(),
                DirqMessage::Query(query(1, 25.0, 45.0))
            )]
        );
    }

    #[test]
    fn query_delivers_locally_on_own_overlap() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new()); // own [19, 21]
        let out = run(|o| n.on_query(&query(2, 20.5, 30.0), o));
        assert_eq!(out, vec![Outgoing::DeliverLocal(query(2, 20.5, 30.0))]);
        // Own range [19,21] vs [30,40]: no delivery, no children: nothing.
        let out = run(|o| n.on_query(&query(3, 30.0, 40.0), o));
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_queries_suppressed() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new());
        assert_eq!(run(|o| n.on_query(&query(7, 0.0, 100.0), o)).len(), 1);
        assert!(run(|o| n.on_query(&query(7, 0.0, 100.0), o)).is_empty());
    }

    #[test]
    fn query_for_unknown_type_goes_nowhere() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new());
        let q = RangeQuery::value(QueryId(9), SensorType(3), 0.0, 1.0);
        assert!(run(|o| n.on_query(&q, o)).is_empty());
    }

    #[test]
    fn ehr_forwarded_to_children() {
        let mut n = mk(1);
        n.add_child(NodeId(2));
        n.add_child(NodeId(3));
        let msg = EhrMessage { queries_per_hour: 20.0, per_node_budget_per_epoch: 0.1 };
        let out = run(|o| n.on_ehr(msg, o));
        assert_eq!(
            out,
            vec![Outgoing::ToChildren([NodeId(2), NodeId(3)].into(), DirqMessage::Ehr(msg))]
        );
        // Leaf: absorbed silently.
        let mut leaf = mk(4);
        assert!(run(|o| leaf.on_ehr(msg, o)).is_empty());
    }

    #[test]
    fn set_parent_readvertises_tables() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new());
        n.on_update(NodeId(8), SensorType(1), 5.0, 6.0, &mut Vec::new());
        let out = run(|o| n.set_parent(Some(NodeId(2)), o));
        assert_eq!(out.len(), 3); // Attach + 2 table advertisements
        assert_eq!(out[0], Outgoing::ToParent(DirqMessage::Attach));
        assert!(matches!(
            out[1],
            Outgoing::ToParent(DirqMessage::Update { stype: SensorType(0), .. })
        ));
        assert!(matches!(
            out[2],
            Outgoing::ToParent(DirqMessage::Update { stype: SensorType(1), .. })
        ));
    }

    #[test]
    fn orphan_emits_nothing_and_buffers_state() {
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new());
        let out = run(|o| n.set_parent(None, o));
        assert!(out.is_empty());
        // Sampling while orphaned mutates the table but sends nothing.
        let out = run(|o| n.sample(t0(), 40.0, o));
        assert!(out.is_empty());
        assert!(n.table(t0()).is_some());
    }

    #[test]
    fn geo_advert_flows_and_prunes_routing() {
        use dirq_net::{Position, Rect};
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new());
        // Two children with identical value ranges but disjoint regions.
        n.on_update(NodeId(3), t0(), 0.0, 100.0, &mut Vec::new());
        n.on_update(NodeId(4), t0(), 0.0, 100.0, &mut Vec::new());
        let west = Rect::new(Position::new(0.0, 0.0), Position::new(10.0, 10.0));
        let east = Rect::new(Position::new(50.0, 0.0), Position::new(60.0, 10.0));
        let out = run(|o| n.on_geo_advert(NodeId(3), west, o));
        assert!(
            matches!(out.as_slice(), [Outgoing::ToParent(DirqMessage::GeoAdvert(_))]),
            "hull change must be advertised: {out:?}"
        );
        n.on_geo_advert(NodeId(4), east, &mut Vec::new());

        // A query scoped to the west region must skip the east child.
        let q = query(11, 0.0, 100.0)
            .with_region(Rect::new(Position::new(0.0, 0.0), Position::new(20.0, 20.0)));
        let out = run(|o| n.on_query(&q, o));
        let forwarded: Vec<NodeId> = out
            .iter()
            .find_map(|o| match o {
                Outgoing::ToChildren(cs, _) => Some(cs.to_vec()),
                _ => None,
            })
            .unwrap_or_default();
        assert_eq!(forwarded, vec![NodeId(3)], "east child must be pruned");
    }

    #[test]
    fn geo_local_delivery_requires_region_membership() {
        use dirq_net::{Position, Rect};
        let mut n = mk(1);
        n.set_position(Position::new(30.0, 30.0), &mut Vec::new());
        n.sample(t0(), 20.0, &mut Vec::new());
        let inside =
            query(21, 0.0, 100.0).with_region(Rect::centered(Position::new(30.0, 30.0), 5.0));
        assert!(run(|o| n.on_query(&inside, o))
            .iter()
            .any(|o| matches!(o, Outgoing::DeliverLocal(_))));
        let outside =
            query(22, 0.0, 100.0).with_region(Rect::centered(Position::new(90.0, 90.0), 5.0));
        assert!(!run(|o| n.on_query(&outside, o))
            .iter()
            .any(|o| matches!(o, Outgoing::DeliverLocal(_))));
    }

    #[test]
    fn unlocalised_node_ignores_region_conservatively() {
        use dirq_net::{Position, Rect};
        let mut n = mk(1);
        n.sample(t0(), 20.0, &mut Vec::new()); // no set_position
        let q = query(31, 0.0, 100.0).with_region(Rect::centered(Position::new(90.0, 90.0), 1.0));
        // Cannot prune without knowing its own position: delivers locally.
        assert!(run(|o| n.on_query(&q, o)).iter().any(|o| matches!(o, Outgoing::DeliverLocal(_))));
    }

    #[test]
    fn multiple_tables_supported() {
        // Paper Fig. 4: a node keeps tables for types it does not carry
        // itself when they exist in its subtree.
        let mut n = mk(1);
        n.on_update(NodeId(2), SensorType(0), 0.0, 1.0, &mut Vec::new());
        n.on_update(NodeId(3), SensorType(1), 5.0, 6.0, &mut Vec::new());
        assert_eq!(n.table_types().count(), 2);
        assert!(n.table(SensorType(0)).unwrap().own().is_none());
    }
}

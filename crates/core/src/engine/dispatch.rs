//! Message dispatch: the MAC frame, the indication handlers, query
//! injection, the hourly `EHr` and query finalisation.

use dirq_analytic::TopologyCosts;
use dirq_data::workload::{CalibratedQuery, GroundTruth};
use dirq_data::QueryId;
use dirq_lmac::{Destination, LmacNetwork, MacIndication, PayloadHandle};
use dirq_net::NodeId;

use crate::atc::DeltaPolicy;
use crate::messages::{DirqMessage, EhrMessage, MessageCategory};
use crate::metrics::{Metrics, QueryOutcome};
use crate::node::{DirqNode, Outgoing};
use crate::pending::{PendingQuery, PendingSet};
use crate::range_table::RowMut;

use super::{CompletedQuery, Engine, Protocol};

/// ATC cost target as a fraction of flooding cost (the paper's band is
/// 45–55 %, centred at 0.5); [`Engine::broadcast_ehr`] budgets for it.
const ATC_BAND_CENTER: f64 = 0.5;

/// The dispatch plane's scratch, reused across epochs.
#[derive(Default)]
pub(super) struct DispatchScratch {
    /// One MAC slot's indications ([`Engine::run_mac_frame`]).
    indications: Vec<MacIndication<DirqMessage>>,
    /// What a protocol handler appends (see [`Engine::handle`]); empty
    /// between handler calls.
    outgoing: Vec<Outgoing>,
    /// Queries due for finalisation this epoch.
    due: Vec<PendingQuery>,
}

impl DispatchScratch {
    /// Empty scratch with room for one slot's usual indications.
    pub(super) fn new() -> Self {
        DispatchScratch { indications: Vec::with_capacity(64), ..DispatchScratch::default() }
    }
}

/// What a MAC enqueue touches: the MAC and, when it takes the message,
/// the transmission tallies. [`Outbox::send`] is the engine's one enqueue
/// of a new message, and [`Outbox::forward`] its one re-enqueue of a
/// stored one.
pub(super) struct Outbox<'a> {
    pub(super) mac: &'a mut LmacNetwork<DirqMessage>,
    pub(super) metrics: &'a mut Metrics,
    pub(super) pending: &'a mut PendingSet,
    pub(super) epoch: u64,
}

impl Outbox<'_> {
    /// Queue `msg` at `from` for `dest` and, if the MAC takes it (`from`
    /// is alive), count the transmission in the metrics and against its
    /// query.
    pub(super) fn send(&mut self, from: NodeId, dest: Destination, msg: DirqMessage) {
        let (category, query) = (msg.category(), query_id_of(&msg));
        if self.mac.enqueue(from, dest, msg) {
            self.count_tx(category, query);
        }
    }

    /// [`Outbox::send`] for a payload the MAC already holds: a rebroadcast
    /// forwards the handle it received, so the message is not stored
    /// again.
    pub(super) fn forward(
        &mut self,
        from: NodeId,
        dest: Destination,
        payload: PayloadHandle<DirqMessage>,
    ) {
        let msg = self.mac.payload(payload);
        let (category, query) = (msg.category(), query_id_of(&msg));
        if self.mac.enqueue_shared(from, dest, payload) {
            self.count_tx(category, query);
        }
    }

    fn count_tx(&mut self, category: MessageCategory, query: Option<QueryId>) {
        self.metrics.on_tx(category, self.epoch);
        if let Some(p) = query.and_then(|id| self.pending.get_mut(id)) {
            p.tx += 1;
        }
    }
}

/// Where one handler output of `node` goes: its parent for
/// [`Outgoing::ToParent`] (nowhere while it is orphaned), the listed
/// children for [`Outgoing::ToChildren`] (nowhere for an empty list), and
/// nowhere for [`Outgoing::DeliverLocal`] — the node believes it is a
/// source, its reception is already recorded, and true-source accounting
/// happens at finalisation against ground truth.
pub(super) fn route(node: &DirqNode, out: Outgoing) -> Option<(Destination, DirqMessage)> {
    match out {
        Outgoing::ToParent(msg) => Some((Destination::unicast(node.parent()?), msg)),
        Outgoing::ToChildren(dests, msg) if !dests.is_empty() => {
            Some((Destination::Multicast(dests), msg))
        }
        Outgoing::ToChildren(..) | Outgoing::DeliverLocal(_) => None,
    }
}

impl Engine {
    /// Inject an externally supplied range query (the daemon's client
    /// path). The id comes from the generator's id space so scheduled and
    /// external queries never collide; ground truth is evaluated against
    /// the current world exactly as for generated queries, and the query
    /// disseminates during the next [`Engine::step_epoch`]. Returns the
    /// assigned id; the outcome surfaces through
    /// [`Engine::drain_completed`] once the completion window elapses.
    ///
    /// # Panics
    /// Panics when `region` is given but the scenario has
    /// `location_enabled = false` (nodes hold no positions to scope by),
    /// and when `stype` is not in the world's sensor catalog (it indexes
    /// the per-type readings).
    pub fn submit_external_query(
        &mut self,
        stype: dirq_data::SensorType,
        lo: f64,
        hi: f64,
        region: Option<dirq_net::Rect>,
    ) -> QueryId {
        assert!(
            region.is_none() || self.cfg.location_enabled,
            "spatial queries require location_enabled"
        );
        let mut query = dirq_data::RangeQuery::value(QueryId(self.qgen.alloc_id()), stype, lo, hi);
        if let Some(r) = region {
            query = query.with_region(r);
        }
        self.query_parents();
        let alive = self.mac.alive();
        let truth = dirq_data::workload::ground_truth(
            self.world.readings(stype),
            self.mac.topology().positions(),
            &self.tree_scratch.parent,
            &query,
            |n: NodeId| alive.contains(n),
        );
        self.disseminate(query, truth);
        query.id
    }

    /// Root-side hourly control: compute the per-node update budget from
    /// the analytic model + measured query cost, and flood it down the
    /// tree (the paper's `EHr` message).
    pub(super) fn broadcast_ehr(&mut self) {
        let tree = self.protocol_tree();
        let costs = TopologyCosts::compute(self.mac.topology(), &tree);
        let n_sensing = costs.n.saturating_sub(1).max(1) as f64;
        let queries_per_hour = self.cfg.hour_epochs as f64 / self.cfg.query_period as f64;
        self.u_max_per_hour =
            costs.f_max().map(|f| f * n_sensing * queries_per_hour).unwrap_or(self.u_max_per_hour);

        // Target: total cost per query = ATC_BAND_CENTER × CF.
        // Prior for CQD before any measurement: half the worst case.
        let cqd = self.cqd_estimate.value_or(costs.cqd_max * 0.5);
        let control_overhead_per_query = 2.0; // EHr amortised: ~2N msgs/hour ÷ (hour/period) queries
        let budget_cost =
            (ATC_BAND_CENTER * costs.flooding - cqd - control_overhead_per_query).max(0.0);
        // Each update message costs 2 (tx + rx).
        let updates_per_query = budget_cost / 2.0;

        // Outer loop: compare the realized update traffic since the last
        // EHr against the desired level and correct the handed-out budget.
        // (The gateway sees the converged update stream; the simulator uses
        // the exact network-wide count.)
        let total_updates = self.metrics.updates_per_bucket.total();
        let realized_last_hour = total_updates - self.updates_at_last_ehr;
        self.updates_at_last_ehr = total_updates;
        if self.epoch > 0 && updates_per_query > 0.0 {
            let realized_per_query = realized_last_hour / queries_per_hour.max(1.0);
            let err = (realized_per_query / updates_per_query).max(0.05);
            self.budget_multiplier = (self.budget_multiplier * err.powf(-0.7)).clamp(0.05, 10.0);
        }
        let per_node_budget_per_epoch =
            self.budget_multiplier * updates_per_query / (self.cfg.query_period as f64 * n_sensing);

        let msg = EhrMessage { queries_per_hour, per_node_budget_per_epoch };
        self.handle(NodeId::ROOT, |n, _, out| n.on_ehr(msg, out));
    }

    pub(super) fn inject_query(&mut self) {
        self.query_parents();
        let alive = self.mac.alive();
        let positions: &[dirq_net::Position] =
            if self.cfg.location_enabled { self.mac.topology().positions() } else { &[] };
        let parents = &self.tree_scratch.parent;
        let generated = self.qgen.generate(&self.world, positions, parents, |n| alive.contains(n));
        if let Some(CalibratedQuery { query, truth }) = generated {
            self.disseminate(query, truth);
        }
    }

    /// Count `query`, track it for scoring against `truth`, and hand it
    /// to the root: DirQ's `on_query`, or a flooding broadcast.
    fn disseminate(&mut self, query: dirq_data::RangeQuery, truth: GroundTruth) {
        self.queries_injected += 1;
        self.pending.insert(PendingQuery {
            query,
            epoch: self.epoch,
            truth,
            received: vec![false; self.mac.topology().len()],
            tx: 0,
            rx: 0,
        });
        match self.cfg.protocol {
            Protocol::Dirq => {
                self.handle(NodeId::ROOT, |n, row, out| n.on_query(row.as_row(), &query, out))
            }
            Protocol::Flooding => {
                self.nodes[0].first_sight(query.id);
                let flood = DirqMessage::FloodQuery(query);
                self.outbox().send(NodeId::ROOT, Destination::Broadcast, flood);
            }
        }
    }

    pub(super) fn run_mac_frame(&mut self) {
        let slots = self.cfg.lmac.slots_per_frame;
        // The buffer is moved out for the frame so dispatching (which may
        // re-enter the MAC, e.g. flooding rebroadcasts) can borrow `self`.
        let mut buf = std::mem::take(&mut self.dispatch_scratch.indications);
        for _ in 0..slots {
            buf.clear();
            self.timed(|t| &mut t.mac, |e| e.mac.advance_slot_into(&mut e.mac_rng, &mut buf));
            self.timed(
                |t| &mut t.dispatch,
                |e| {
                    for ind in buf.drain(..) {
                        e.dispatch_indication(ind);
                    }
                },
            );
        }
        self.dispatch_scratch.indications = buf;
    }

    pub(super) fn end_epoch_housekeeping(&mut self) {
        // Only ATC has per-node epoch-end work; under fixed δ the node
        // pass would compute σ̂ and discard it.
        if self.cfg.protocol == Protocol::Dirq && self.cfg.delta_policy == DeltaPolicy::Adaptive {
            for v in self.mac.alive().iter().filter(|v| !v.is_root()) {
                self.nodes[v.index()].end_epoch(self.plane.sigma_hat_pct(v.index()));
            }
        }
        // Finalise queries whose completion window elapsed (one sweep of
        // the short in-flight vec per epoch; see `crate::pending`).
        let mut due = std::mem::take(&mut self.dispatch_scratch.due);
        due.clear();
        self.pending.expire_due(self.epoch, &mut due);
        for p in due.drain(..) {
            self.finalize_query(p);
        }
        self.dispatch_scratch.due = due;
        // δ trace every 100 epochs.
        if self.epoch.is_multiple_of(100) {
            let (sum, count) = self
                .mac
                .alive()
                .iter()
                .filter(|v| !v.is_root())
                .fold((0.0, 0u32), |(s, c), v| (s + self.nodes[v.index()].delta_pct(), c + 1));
            if count > 0 {
                self.delta_trace.push((self.epoch, sum / f64::from(count)));
            }
        }
    }

    /// The engine's [`Outbox`].
    pub(super) fn outbox(&mut self) -> Outbox<'_> {
        Outbox {
            mac: &mut self.mac,
            metrics: &mut self.metrics,
            pending: &mut self.pending,
            epoch: self.epoch,
        }
    }

    /// Run one protocol handler on node `at` and its row of the sensing
    /// plane over the engine's reused outgoing buffer, then route what it
    /// appended into the MAC.
    pub(super) fn handle(
        &mut self,
        at: NodeId,
        handler: impl FnOnce(&mut DirqNode, RowMut<'_>, &mut Vec<Outgoing>),
    ) {
        let mut outs = std::mem::take(&mut self.dispatch_scratch.outgoing);
        handler(&mut self.nodes[at.index()], self.plane.row_mut(at.index()), &mut outs);
        for out in outs.drain(..) {
            if let Some((dest, msg)) = route(&self.nodes[at.index()], out) {
                self.outbox().send(at, dest, msg);
            }
        }
        self.dispatch_scratch.outgoing = outs;
    }

    pub(super) fn dispatch_indication(&mut self, ind: MacIndication<DirqMessage>) {
        match ind {
            MacIndication::Delivered { to, from, payload } => {
                let msg = self.mac.payload(payload);
                self.metrics.on_rx(msg.category(), self.epoch);
                if let Some(p) = query_id_of(&msg).and_then(|id| self.pending.get_mut(id)) {
                    p.rx += 1;
                    // The root hears flooding's rebroadcasts too (that
                    // reception is part of flooding's 2·links cost) but
                    // does not count as a *reached* node — it injected the
                    // query.
                    if !to.is_root() {
                        p.received[to.index()] = true;
                    }
                }
                match msg {
                    DirqMessage::Update { stype, min, max } => {
                        let children = self.nodes[to.index()].children().len();
                        self.handle(to, |n, row, out| n.on_update(row, from, stype, min, max, out));
                        if self.nodes[to.index()].children().len() != children {
                            self.tree_version += 1;
                        }
                    }
                    DirqMessage::Retract { stype } => {
                        self.handle(to, |n, row, out| n.on_retract(row, from, stype, out));
                    }
                    DirqMessage::Attach => {
                        self.tree_version += 1;
                        if self.nodes[to.index()].parent() != Some(from) {
                            self.nodes[to.index()].on_attach(from);
                        }
                    }
                    DirqMessage::Detach => {
                        self.tree_version += 1;
                        self.handle(to, |n, row, out| n.on_child_lost(row, from, out));
                    }
                    DirqMessage::GeoAdvert(rect) => {
                        self.tree_version += 1;
                        self.handle(to, |n, _, out| n.on_geo_advert(from, rect, out));
                    }
                    DirqMessage::Ehr(msg) => {
                        self.handle(to, |n, _, out| n.on_ehr(msg, out));
                    }
                    DirqMessage::Query(q) => {
                        self.handle(to, |n, row, out| n.on_query(row.as_row(), &q, out));
                    }
                    DirqMessage::FloodQuery(q) => {
                        // Zero-copy rebroadcast: forward the stored
                        // payload's handle instead of storing it again.
                        if self.nodes[to.index()].first_sight(q.id) {
                            self.outbox().forward(to, Destination::Broadcast, payload);
                        }
                    }
                }
            }
            MacIndication::NeighborDied { observer, dead } => {
                if self.cfg.protocol != Protocol::Dirq {
                    return;
                }
                self.tree_version += 1;
                if self.nodes[observer.index()].parent() == Some(dead) {
                    self.handle(observer, |n, row, out| n.set_parent(row, None, out));
                } else if self.nodes[observer.index()].children().contains(&dead) {
                    self.handle(observer, |n, row, out| n.on_child_lost(row, dead, out));
                }
            }
            // Attachment is initiated by the joining node via the repair
            // loop, and lost messages heal through the liveness upcalls and
            // the re-advertisement on re-attachment.
            MacIndication::NeighborNew { .. } | MacIndication::Undeliverable { .. } => {}
        }
    }

    pub(super) fn finalize_query(&mut self, p: PendingQuery) {
        let received = p.received.iter().filter(|&&r| r).count();
        let received_should =
            p.received.iter().zip(&p.truth.involved).filter(|&(&r, &inv)| r && inv).count();
        // Sources are distinct (strictly ascending), so each counts once.
        let sources_reached = p.truth.sources.iter().filter(|s| p.received[s.index()]).count();
        self.cqd_estimate.observe(p.tx.saturating_add(p.rx) as f64);
        let outcome = QueryOutcome {
            id: p.query.id,
            epoch: p.epoch,
            stype: p.query.stype,
            should_receive: p.truth.involved_count(),
            true_sources: p.truth.sources.len(),
            received,
            received_should,
            received_should_not: received - received_should,
            sources_reached,
            n_nodes: self.mac.topology().len(),
        };
        if let Some(log) = &mut self.completed {
            log.push(CompletedQuery {
                outcome: outcome.clone(),
                answered_epoch: self.epoch,
                tx: p.tx,
                rx: p.rx,
            });
        }
        self.metrics.on_query_done(outcome);
    }
}

fn query_id_of(msg: &DirqMessage) -> Option<QueryId> {
    match msg {
        DirqMessage::Query(q) | DirqMessage::FloodQuery(q) => Some(q.id),
        _ => None,
    }
}

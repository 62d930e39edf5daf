//! Differential property tests for the SoA / occupancy-index hot-path
//! refactor.
//!
//! Two independently implemented reference models pin the refactored
//! structures:
//!
//! * [`RefTable`] — a naive `BTreeMap`-backed Range Table with the paper's
//!   Fig. 1–3 semantics written the obvious way, one per type of a
//!   [`RefNode`]. A `DirqNode`'s range tables — its row's own and sent
//!   tuples and one child-tuple list for every type — must agree with it on every
//!   observable (messages sent, table presence, aggregate, pending
//!   update/retract, overlap sweep hits *and their order*, snapshot
//!   record) after any handler sequence.
//! * `advance_slot_full_scan_into` — the pre-index MAC slot loop (process
//!   every slot, probe `has_link` per listener × transmitter), kept in
//!   `dirq_lmac` as the reference. A network driven by the indexed fast
//!   path must produce the identical indication stream, statistics and
//!   energy ledgers on arbitrary topologies, traffic and churn.
//!
//! The same full-scan reference also pins the **fixed-point control
//! plane** (`arena_parallel_frames_match_reference`): once a frame changes
//! nothing, the fast path skips the per-edge control pass and serves only
//! owners with queued data, while the reference never does. Cases leave
//! and re-enter the fixed point through cold starts, scarce slots, births
//! and mid-frame deaths, enqueue traffic in the middle of frames, and
//! every frame boundary compares statistics, ledgers, neighbour entries
//! and snapshot bytes.

use std::collections::BTreeMap;
use std::sync::Arc;

use dirq::core::{DirqMessage, NodeConfig, Outgoing, RangeEntry, RowBuf};
use dirq::prelude::*;
use dirq::sim::SnapWriter;
use proptest::prelude::*;

// --- Range Tables vs naive BTreeMap model -------------------------------

/// The obvious implementation of Section 4.1: one `BTreeMap` of child
/// tuples, aggregates folded in id order.
#[derive(Default)]
struct RefTable {
    own: Option<RangeEntry>,
    children: BTreeMap<NodeId, RangeEntry>,
    last_tx: Option<RangeEntry>,
}

impl RefTable {
    fn observe_own(&mut self, reading: f64, delta: f64) -> bool {
        match &self.own {
            Some(e) if e.contains(reading) => false,
            _ => {
                self.own = Some(RangeEntry::around(reading, delta));
                true
            }
        }
    }

    fn set_child(&mut self, child: NodeId, entry: RangeEntry) -> bool {
        self.children.insert(child, entry) != Some(entry)
    }

    fn remove_child(&mut self, child: NodeId) -> bool {
        self.children.remove(&child).is_some()
    }

    fn aggregate(&self) -> Option<RangeEntry> {
        let mut agg = self.own;
        for e in self.children.values() {
            agg = Some(match agg {
                Some(a) => a.hull(e),
                None => *e,
            });
        }
        agg
    }

    fn pending_update(&self, delta: f64) -> Option<RangeEntry> {
        let agg = self.aggregate()?;
        match &self.last_tx {
            None => Some(agg),
            Some(prev) if agg.differs_significantly(prev, delta) => Some(agg),
            Some(_) => None,
        }
    }

    fn pending_retract(&self) -> bool {
        self.aggregate().is_none() && self.last_tx.is_some()
    }

    fn overlapping(&self, lo: f64, hi: f64) -> Vec<NodeId> {
        self.children.iter().filter(|(_, e)| e.overlaps(lo, hi)).map(|(&c, _)| c).collect()
    }

    /// The table's snapshot record: own tuple, child ids, mins, maxes, then
    /// the last transmission.
    fn snap(&self, w: &mut SnapWriter) {
        let entry = |w: &mut SnapWriter, e: Option<RangeEntry>| {
            w.bool(e.is_some());
            if let Some(e) = e {
                w.f64(e.min);
                w.f64(e.max);
            }
        };
        entry(w, self.own);
        w.len_of(self.children.len());
        for id in self.children.keys() {
            w.u32(id.0);
        }
        w.len_of(self.children.len());
        for e in self.children.values() {
            w.f64(e.min);
        }
        w.len_of(self.children.len());
        for e in self.children.values() {
            w.f64(e.max);
        }
        entry(w, self.last_tx);
    }
}

/// Reference spans of the four catalog types.
const SPANS: [f64; 4] = [20.0, 40.0, 100.0, 10.0];

/// A non-root node's handlers over one [`RefTable`] per type (`None`: no
/// table), written the obvious way: every change is flushed under Fig. 3,
/// an Update when the aggregate moved and, once a table empties, a Retract
/// and the table dropped. Messages go out only while attached.
struct RefNode {
    tables: Vec<Option<RefTable>>,
    attached: bool,
    updates_sent: u64,
}

impl RefNode {
    fn new() -> Self {
        RefNode {
            tables: (0..SPANS.len()).map(|_| None).collect(),
            attached: false,
            updates_sent: 0,
        }
    }

    fn flush(&mut self, t: usize, delta: f64, out: &mut Vec<Outgoing>) {
        let stype = SensorType(t as u8);
        let Some(table) = self.tables[t].as_mut() else { return };
        let msg = if table.pending_retract() {
            self.tables[t] = None;
            DirqMessage::Retract { stype }
        } else if let Some(agg) = table.pending_update(delta) {
            table.last_tx = Some(agg);
            DirqMessage::Update { stype, min: agg.min, max: agg.max }
        } else {
            return;
        };
        if self.attached {
            self.updates_sent += 1;
            out.push(Outgoing::ToParent(msg));
        }
    }

    /// `f` changed table `t` (creating it first when `create`): flush it.
    fn change(
        &mut self,
        t: usize,
        delta: f64,
        create: bool,
        out: &mut Vec<Outgoing>,
        f: impl FnOnce(&mut RefTable) -> bool,
    ) {
        if create {
            self.tables[t].get_or_insert_with(RefTable::default);
        }
        if self.tables[t].as_mut().is_some_and(f) {
            self.flush(t, delta, out);
        }
    }

    /// Attach to a parent: an Attach, then every non-empty aggregate
    /// re-advertised and marked transmitted.
    fn attach(&mut self, out: &mut Vec<Outgoing>) {
        self.attached = true;
        out.push(Outgoing::ToParent(DirqMessage::Attach));
        for (t, table) in self.tables.iter_mut().enumerate() {
            let Some(agg) = table.as_ref().and_then(RefTable::aggregate) else { continue };
            table.as_mut().unwrap().last_tx = Some(agg);
            self.updates_sent += 1;
            let stype = SensorType(t as u8);
            out.push(Outgoing::ToParent(DirqMessage::Update { stype, min: agg.min, max: agg.max }));
        }
    }
}

fn fresh_node(cfg: &Arc<NodeConfig>) -> DirqNode {
    DirqNode::new(NodeId(1), Arc::clone(cfg))
}

/// One sampled handler call on the node over its `row` and on the model;
/// both must send the same messages.
fn apply_op(
    node: &mut DirqNode,
    row: &mut RowBuf,
    model: &mut RefNode,
    cfg: &Arc<NodeConfig>,
    op: (u8, u8, u32, f64, f64),
) -> Result<(), TestCaseError> {
    let (kind, t, id, a, w) = op;
    let (stype, idx, child) = (SensorType(t), usize::from(t), NodeId(id));
    let delta = node.delta_abs(stype);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    match kind % 9 {
        // Own readings, scaled to the type's span.
        0 | 1 => {
            let reading = a / 100.0 * SPANS[idx];
            node.sample(row.row_mut(), stype, reading, &mut got);
            model.change(idx, delta, true, &mut want, |t| t.observe_own(reading, delta));
        }
        // A child's Update: insert or replace.
        2 | 3 => {
            let entry = RangeEntry { min: a, max: a + w };
            node.on_update(row.row_mut(), child, stype, entry.min, entry.max, &mut got);
            model.change(idx, delta, true, &mut want, |t| t.set_child(child, entry));
        }
        4 => {
            node.on_retract(row.row_mut(), child, stype, &mut got);
            model.change(idx, delta, false, &mut want, |t| t.remove_child(child));
        }
        5 => {
            node.drop_own_sensor(row.row_mut(), stype, &mut got);
            model.change(idx, delta, false, &mut want, |t| t.own.take().is_some());
        }
        // A child lost: its tuple leaves every type, flushed in type order.
        6 => {
            node.on_child_lost(row.row_mut(), child, &mut got);
            for k in 0..SPANS.len() {
                let delta = node.delta_abs(SensorType(k as u8));
                model.change(k, delta, false, &mut want, |t| t.remove_child(child));
            }
        }
        // Orphaned, or attached again with a full re-advertisement.
        7 => {
            if model.attached {
                node.set_parent(row.row_mut(), None, &mut got);
                model.attached = false;
            } else {
                node.set_parent(row.row_mut(), Some(NodeId::ROOT), &mut got);
                model.attach(&mut want);
            }
        }
        // Rebirth: fresh state on both sides, attached again.
        _ => {
            *node = fresh_node(cfg);
            *row = RowBuf::new(SPANS.len());
            *model = RefNode::new();
            node.set_parent(row.row_mut(), Some(NodeId::ROOT), &mut got);
            model.attach(&mut want);
        }
    }
    prop_assert_eq!(got, want, "op {:?}: messages", op);
    prop_assert_eq!(node.updates_sent(), model.updates_sent);
    Ok(())
}

/// Every observable of every type's table over the node's `row` agrees
/// with the model.
fn check_tables(
    node: &DirqNode,
    row: &RowBuf,
    model: &RefNode,
    queries: &[(f64, f64)],
    delta: f64,
) -> Result<(), TestCaseError> {
    let present: Vec<SensorType> = (0..SPANS.len())
        .filter(|&t| model.tables[t].is_some())
        .map(|t| SensorType(t as u8))
        .collect();
    prop_assert_eq!(row.row().table_types().collect::<Vec<_>>(), present);
    for (t, reference) in model.tables.iter().enumerate() {
        let stype = SensorType(t as u8);
        let (table, reference) = match (node.table(row.row(), stype), reference) {
            (Some(table), Some(reference)) => (table, reference),
            (None, None) => continue,
            (table, _) => return Err(TestCaseError::fail(format!("type {t}: presence {table:?}"))),
        };
        prop_assert_eq!(table.own(), reference.own);
        prop_assert_eq!(table.last_transmitted(), reference.last_tx);
        prop_assert_eq!(table.aggregate(), reference.aggregate());
        prop_assert_eq!(table.pending_update(delta), reference.pending_update(delta));
        prop_assert_eq!(table.pending_retract(), reference.pending_retract());
        prop_assert_eq!(
            table.len(),
            usize::from(reference.own.is_some()) + reference.children.len()
        );
        prop_assert_eq!(table.is_empty(), reference.own.is_none() && reference.children.is_empty());
        for &(lo, w) in queries {
            let hi = lo + w;
            let mut hits = Vec::new();
            table.for_overlapping_children(lo, hi, |c| hits.push(c));
            prop_assert_eq!(
                hits,
                reference.overlapping(lo, hi),
                "type {}: overlap sweep diverged for [{}, {}]",
                t,
                lo,
                hi
            );
        }
        for id in 0..24 {
            let id = NodeId(id);
            prop_assert_eq!(table.child_entry(id), reference.children.get(&id).copied());
        }
        let (mut got, mut want) = (SnapWriter::new(), SnapWriter::new());
        table.snap(&mut got);
        reference.snap(&mut want);
        prop_assert!(got.finish() == want.finish(), "type {}: snapshot records differ", t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// After any handler sequence on a node carrying four types — own
    /// readings, child inserts, replacements, retracts and losses, sensor
    /// removal, re-parenting and rebirth — the node's range tables and the
    /// BTreeMap model agree on the messages sent, which tables exist,
    /// aggregates, update/retract pendings, own and transmitted tuples,
    /// per-child lookups, the overlapping children of arbitrary query
    /// windows *and their visit order*, and each table's snapshot record.
    #[test]
    fn range_table_matches_btreemap_model(
        ops in proptest::collection::vec(
            (0u8..18, 0u8..4, 0u32..24, -100.0f64..100.0, 0.0f64..10.0), 1..60),
        queries in proptest::collection::vec((-120.0f64..120.0, 0.0f64..60.0), 1..8),
        delta in 0.01f64..5.0,
    ) {
        let cfg = Arc::new(NodeConfig {
            delta_policy: DeltaPolicy::Fixed(5.0),
            reference_spans: SPANS.to_vec(),
            tx_threshold_factor: 1.0,
        });
        let mut node = fresh_node(&cfg);
        let mut row = RowBuf::new(SPANS.len());
        let mut model = RefNode::new();
        node.set_parent(row.row_mut(), Some(NodeId::ROOT), &mut Vec::new());
        model.attach(&mut Vec::new());
        for op in ops {
            apply_op(&mut node, &mut row, &mut model, &cfg, op)?;
            check_tables(&node, &row, &model, &queries, delta)?;
        }
    }
}

// --- MAC occupancy index vs full-scan slot loop --------------------------

/// Build the sampled topology: raw endpoint pairs folded into `n` nodes,
/// self-loops and duplicates dropped.
fn sampled_topology(n: usize, raw_edges: &[(u32, u32)]) -> Topology {
    let mut edges: Vec<(NodeId, NodeId)> = raw_edges
        .iter()
        .map(|&(a, b)| (a as usize % n, b as usize % n))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
        .map(|(a, b)| (NodeId(a as u32), NodeId(b as u32)))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    Topology::from_edges(n, &edges)
}

type Net = LmacNetwork<u32>;

/// A slot's indications with each payload read through `net`, so two
/// networks compare by what they delivered, not where they store it.
fn read_payloads(net: &Net, out: &[MacIndication<u32>]) -> Vec<(u8, NodeId, NodeId, u32)> {
    out.iter()
        .map(|ind| match *ind {
            MacIndication::Delivered { to, from, payload } => (0, to, from, net.payload(payload)),
            MacIndication::Undeliverable { from, to, payload } => {
                (1, to, from, net.payload(payload))
            }
            MacIndication::NeighborDied { observer, dead } => (2, observer, dead, 0),
            MacIndication::NeighborNew { observer, new } => (3, observer, new, 0),
        })
        .collect()
}

fn build_net(topo: &Topology) -> Net {
    // 48 slots always exceed the densest possible 2-hop neighbourhood of a
    // ≤24-node graph, so greedy assignment cannot fail.
    let cfg = LmacConfig { slots_per_frame: 48, ..LmacConfig::default() };
    let mut net = Net::new(cfg, topo.clone());
    net.assign_slots_greedy();
    net
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The occupancy-index fast path and the full-scan reference loop
    /// produce identical indication streams (same nodes, same order),
    /// statistics, ledgers and schedules on arbitrary topologies with
    /// arbitrary unicast/multicast/broadcast traffic and mid-run churn.
    #[test]
    fn occupancy_index_matches_full_scan(
        n in 4usize..24,
        raw_edges in proptest::collection::vec((0u32..64, 0u32..64), 4..60),
        messages in proptest::collection::vec((0u32..64, 0u32..64, 0u8..3), 0..20),
        deaths in proptest::collection::vec(0u32..64, 0..4),
        seed in 0u64..1_000_000,
    ) {
        let topo = sampled_topology(n, &raw_edges);
        let mut fast = build_net(&topo);
        let mut full = build_net(&topo);
        let mut rng_fast = RngFactory::new(seed).stream("mac-differential");
        let mut rng_full = RngFactory::new(seed).stream("mac-differential");

        // Same traffic on both networks.
        for &(from, to, kind) in &messages {
            let from = NodeId((from as usize % n) as u32);
            let to = NodeId((to as usize % n) as u32);
            let dest = match kind {
                0 => Destination::Broadcast,
                1 => Destination::unicast(to),
                _ => Destination::multicast([to, NodeId((to.index() + 1) as u32 % n as u32)]),
            };
            let payload = from.index() as u32 * 1000 + to.index() as u32;
            prop_assert_eq!(
                fast.enqueue(from, dest.clone(), payload),
                full.enqueue(from, dest, payload)
            );
        }

        let slots_per_frame = fast.config().slots_per_frame;
        let mut out_fast: Vec<MacIndication<u32>> = Vec::new();
        let mut out_full: Vec<MacIndication<u32>> = Vec::new();
        for frame in 0..6u32 {
            // Kill (frame 1) and revive (frame 4) the sampled victims so
            // the differential covers deaths, stale detection and re-joins.
            if frame == 1 || frame == 4 {
                let alive = frame == 4;
                for &d in &deaths {
                    let v = NodeId((d as usize % n) as u32);
                    if !v.is_root() {
                        fast.set_alive(v, alive);
                        full.set_alive(v, alive);
                    }
                }
            }
            for _ in 0..slots_per_frame {
                out_fast.clear();
                out_full.clear();
                fast.advance_slot_into(&mut rng_fast, &mut out_fast);
                full.advance_slot_full_scan_into(&mut rng_full, &mut out_full);
                prop_assert_eq!(
                    read_payloads(&fast, &out_fast),
                    read_payloads(&full, &out_full),
                    "indication streams diverged"
                );
            }
        }

        prop_assert_eq!(format!("{:?}", fast.stats()), format!("{:?}", full.stats()));
        prop_assert_eq!(
            format!("{:?}", fast.data_ledger()),
            format!("{:?}", full.data_ledger())
        );
        prop_assert_eq!(
            format!("{:?}", fast.control_ledger()),
            format!("{:?}", full.control_ledger())
        );
        for i in 0..n {
            let node = NodeId(i as u32);
            prop_assert_eq!(fast.slot_of(node), full.slot_of(node));
            prop_assert_eq!(fast.is_alive(node), full.is_alive(node));
        }
    }
}

// --- Fixed-point fast path vs full-scan reference ------------------------

/// Every node's neighbour knowledge as the MAC reports it: each present
/// entry's `NeighborInfo` (with `last_heard_frame`) and the row
/// aggregates, including the neighbours stale at `frame`.
fn neighbor_knowledge(net: &Net, n: usize, frame: u64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let v = net.neighbor_table(NodeId(i as u32));
            let entries: Vec<String> =
                v.nodes().map(|nb| format!("{nb}: {:?}", v.get(nb).expect("listed"))).collect();
            format!(
                "{entries:?}|{}|{}|{:?}|{:?}|{:?}",
                v.len(),
                v.min_gateway_dist(),
                v.one_hop_occupancy(),
                v.two_hop_occupancy(),
                v.stale(frame, 1),
            )
        })
        .collect()
}

/// The network's snapshot bytes.
fn image(net: &Net) -> Vec<u8> {
    let mut w = SnapWriter::new();
    net.snap(&mut w, |w, p| w.u32(*p));
    w.finish()
}

/// Enqueue one message on both networks. Their images must agree first,
/// so every enqueue point, mid-frame ones included, is an image check.
fn enqueue_both(
    fast: &mut Net,
    reference: &mut Net,
    from: NodeId,
    dest: Destination,
    payload: u32,
) -> Result<(), TestCaseError> {
    prop_assert!(image(fast) == image(reference), "images diverged before an enqueue");
    prop_assert_eq!(
        fast.enqueue(from, dest.clone(), payload),
        reference.enqueue(from, dest, payload)
    );
    Ok(())
}

/// Frames each differential case runs: enough for the gate to open,
/// close on churn and reopen once deaths are detected.
const FRAMES: u32 = 14;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A network driven by `advance_slot_into`, which skips the per-edge
    /// control pass once the control plane reaches its fixed point, is
    /// bit-equal to the full-scan reference, which never does: the same
    /// indications in every slot and, at every frame boundary, the same
    /// statistics, both energy ledgers, neighbour entries (including
    /// `last_heard_frame`), schedules and snapshot bytes. Cases start from
    /// the greedy schedule or cold through the join protocol (collisions,
    /// surrenders, picks), with scarce slots, nodes born after the start,
    /// `set_alive` in the middle of a frame and traffic enqueued before any
    /// slot of any frame, so before or after its sender's slot. One sender
    /// gets more messages than a slot carries, half just before its slot
    /// and half just after, so its backlog spans frames.
    #[test]
    fn arena_parallel_frames_match_reference(
        n in 4usize..24,
        raw_edges in proptest::collection::vec((0u32..64, 0u32..64), 4..60),
        messages in proptest::collection::vec(
            (0u32..64, 0u32..64, 0u8..4, 0u32..FRAMES, 0u16..48), 0..30),
        burst in (0u32..64, 0u32..FRAMES, 1usize..8),
        start in 0u8..3,
        unborn in proptest::collection::vec((0u32..64, 1u32..FRAMES), 0..3),
        churn in proptest::collection::vec((0u32..64, 0u32..FRAMES, 0u16..48, 0u8..2), 0..5),
        seed in 0u64..1_000_000,
    ) {
        let topo = sampled_topology(n, &raw_edges);
        // 0: greedy schedule; 1: cold start; 2: cold start, scarce slots.
        let slots_per_frame = if start == 2 { 8 } else { 48 };
        let cfg = LmacConfig { slots_per_frame, ..LmacConfig::default() };
        let mut fast = Net::new(cfg, topo.clone());
        let mut reference = Net::new(cfg, topo.clone());
        let node = |raw: u32| NodeId((raw as usize % n) as u32);
        for &(v, _) in &unborn {
            fast.set_alive(node(v), false);
            reference.set_alive(node(v), false);
        }
        if start == 0 {
            fast.assign_slots_greedy();
            reference.assign_slots_greedy();
        }
        let mut rng_fast = RngFactory::new(seed).stream("mac-differential");
        let mut rng_ref = RngFactory::new(seed).stream("mac-differential");

        // The burst: sender, frame and how far it overfills one slot.
        let (sender, burst_frame) = (node(burst.0), burst.1);
        let burst_len = cfg.data_messages_per_slot + burst.2;
        let burst_dest = |i: usize| {
            if i.is_multiple_of(2) {
                Destination::Broadcast
            } else {
                Destination::unicast(node(sender.0 + 1 + i as u32))
            }
        };

        let mut out_fast: Vec<MacIndication<u32>> = Vec::new();
        let mut out_ref: Vec<MacIndication<u32>> = Vec::new();
        for frame in 0..FRAMES {
            for &(v, born) in &unborn {
                if born == frame {
                    fast.set_alive(node(v), true);
                    reference.set_alive(node(v), true);
                }
            }
            // The sender's slot this frame (slot 0 while it has none).
            let burst_slot = fast.slot_of(sender).unwrap_or(0);
            for s in 0..slots_per_frame {
                for &(v, at, slot, alive) in &churn {
                    if at == frame && slot % slots_per_frame == s {
                        // Mid-frame images agree too, also at the fixed point.
                        prop_assert!(image(&fast) == image(&reference), "images diverged mid-frame");
                        fast.set_alive(node(v), alive == 1);
                        reference.set_alive(node(v), alive == 1);
                    }
                }
                for &(from, to, kind, at, slot) in &messages {
                    if at != frame || slot % slots_per_frame != s {
                        continue;
                    }
                    let (from, to) = (node(from), node(to));
                    let dest = match kind {
                        0 => Destination::Broadcast,
                        1 => Destination::unicast(to),
                        2 => Destination::multicast([to, node(to.0 + 1)]),
                        // A destination listed twice hears the message once.
                        _ => Destination::multicast([to, to]),
                    };
                    let payload = frame * 1_000_000 + from.0 * 1000 + to.0;
                    enqueue_both(&mut fast, &mut reference, from, dest, payload)?;
                }
                let burst_now = frame == burst_frame && s == burst_slot;
                if burst_now {
                    for i in 0..burst_len / 2 {
                        let payload = 900_000_000 + i as u32;
                        enqueue_both(&mut fast, &mut reference, sender, burst_dest(i), payload)?;
                    }
                }
                out_fast.clear();
                out_ref.clear();
                fast.advance_slot_into(&mut rng_fast, &mut out_fast);
                reference.advance_slot_full_scan_into(&mut rng_ref, &mut out_ref);
                prop_assert_eq!(
                    read_payloads(&fast, &out_fast),
                    read_payloads(&reference, &out_ref),
                    "indications diverged in frame {} slot {}",
                    frame,
                    s
                );
                if burst_now {
                    for i in burst_len / 2..burst_len {
                        let payload = 900_000_000 + i as u32;
                        enqueue_both(&mut fast, &mut reference, sender, burst_dest(i), payload)?;
                    }
                }
            }

            let at = u64::from(frame) + 1;
            prop_assert_eq!(
                format!("{:?}", fast.stats()),
                format!("{:?}", reference.stats()),
                "stats diverged after frame {}", frame
            );
            prop_assert_eq!(
                format!("{:?}", fast.data_ledger()),
                format!("{:?}", reference.data_ledger())
            );
            prop_assert_eq!(
                format!("{:?}", fast.control_ledger()),
                format!("{:?}", reference.control_ledger()),
                "control ledgers diverged after frame {}", frame
            );
            prop_assert_eq!(
                neighbor_knowledge(&fast, n, at),
                neighbor_knowledge(&reference, n, at),
                "neighbour knowledge diverged after frame {}", frame
            );
            for i in 0..n {
                let v = NodeId(i as u32);
                prop_assert_eq!(fast.slot_of(v), reference.slot_of(v));
                prop_assert_eq!(fast.is_alive(v), reference.is_alive(v));
            }
            prop_assert!(image(&fast) == image(&reference), "images diverged after frame {}", frame);
        }
    }
}

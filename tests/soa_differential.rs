//! Differential property tests for the SoA / occupancy-index hot-path
//! refactor.
//!
//! Two independently implemented reference models pin the refactored
//! structures:
//!
//! * [`RefTable`] — a naive `BTreeMap`-backed Range Table with the paper's
//!   Fig. 1–3 semantics written the obvious way. The SoA
//!   `RangeTable` must agree on every observable (aggregate, pending
//!   update/retract, overlap sweep hits *and their order*) after any
//!   operation sequence.
//! * `advance_slot_full_scan_into` — the pre-index MAC slot loop (process
//!   every slot, probe `has_link` per listener × transmitter), kept in
//!   `dirq_lmac` as the reference. A network driven by the indexed fast
//!   path must produce the identical indication stream, statistics and
//!   energy ledgers on arbitrary topologies, traffic and churn.
//!
//! The same full-scan reference also pins the **fixed-point control
//! plane** (`arena_parallel_frames_match_reference`): once a frame changes
//! nothing, the fast path skips the per-edge control pass, while the
//! reference never does. Cases leave and re-enter the fixed point through
//! cold starts, scarce slots, births and mid-frame deaths, and every frame
//! boundary compares statistics, ledgers, neighbour entries and snapshot
//! bytes.

use std::collections::BTreeMap;

use dirq::core::{RangeEntry, RangeTable};
use dirq::prelude::*;
use dirq::sim::SnapWriter;
use proptest::prelude::*;

// --- Range Table vs naive BTreeMap model --------------------------------

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
}

/// One sampled table operation.
fn apply_op(soa: &mut RangeTable, reference: &mut RefTable, op: (u8, u32, f64, f64)) {
    let (kind, id, a, w) = op;
    let child = NodeId(id);
    match kind % 5 {
        0 => {
            let got = soa.observe_own(a, w);
            let want = reference.observe_own(a, w);
            assert_eq!(got, want, "observe_own({a}, {w}) change flag diverged");
        }
        1 => {
            let entry = RangeEntry { min: a, max: a + w };
            let got = soa.set_child(child, entry);
            let want = reference.set_child(child, entry);
            assert_eq!(got, want, "set_child({child}) change flag diverged");
        }
        2 => {
            let got = soa.remove_child(child);
            let want = reference.remove_child(child);
            assert_eq!(got, want, "remove_child({child}) diverged");
        }
        3 => {
            assert_eq!(soa.clear_own(), reference.own.take().is_some(), "clear_own diverged");
        }
        _ => {
            // Transmit whatever is pending, as the protocol would.
            match (soa.pending_update(w), reference.pending_update(w)) {
                (Some(x), Some(y)) => {
                    assert_eq!(x, y, "pending aggregates diverged");
                    soa.mark_transmitted(x);
                    reference.last_tx = Some(y);
                }
                (None, None) => {
                    if soa.pending_retract() {
                        soa.mark_retracted();
                        reference.last_tx = None;
                    }
                }
                (x, y) => panic!("pending_update diverged: soa {x:?} vs reference {y:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// After any operation sequence, the SoA table and the BTreeMap model
    /// agree on aggregate, update/retract pendings and — for arbitrary
    /// query windows — on the overlapping children and their visit order.
    #[test]
    fn range_table_matches_btreemap_model(
        ops in proptest::collection::vec(
            (0u8..8, 0u32..24, -100.0f64..100.0, 0.0f64..10.0), 1..40),
        queries in proptest::collection::vec((-120.0f64..120.0, 0.0f64..60.0), 1..8),
        delta in 0.01f64..5.0,
    ) {
        let mut soa = RangeTable::new();
        let mut reference = RefTable::default();
        for op in ops {
            apply_op(&mut soa, &mut reference, op);

            prop_assert_eq!(soa.aggregate(), reference.aggregate());
            prop_assert_eq!(soa.pending_update(delta), reference.pending_update(delta));
            prop_assert_eq!(soa.pending_retract(), reference.pending_retract());
            prop_assert_eq!(soa.len(), usize::from(reference.own.is_some()) + reference.children.len());
            prop_assert_eq!(soa.is_empty(), reference.own.is_none() && reference.children.is_empty());

            for &(lo, w) in &queries {
                let hi = lo + w;
                let mut hits = Vec::new();
                soa.for_overlapping_children(lo, hi, |c| hits.push(c));
                prop_assert_eq!(
                    hits,
                    reference.overlapping(lo, hi),
                    "overlap sweep diverged for [{}, {}]", lo, hi
                );
            }
        }
        // Per-child lookups agree too.
        for id in 0..24 {
            prop_assert_eq!(
                soa.child_entry(NodeId(id)),
                reference.children.get(&NodeId(id)).copied()
            );
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
                prop_assert_eq!(&out_fast, &out_full, "indication streams diverged");
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
    /// `set_alive` in the middle of a frame and traffic in any frame.
    #[test]
    fn arena_parallel_frames_match_reference(
        n in 4usize..24,
        raw_edges in proptest::collection::vec((0u32..64, 0u32..64), 4..60),
        messages in proptest::collection::vec((0u32..64, 0u32..64, 0u8..4, 0u32..FRAMES), 0..30),
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

        let mut out_fast: Vec<MacIndication<u32>> = Vec::new();
        let mut out_ref: Vec<MacIndication<u32>> = Vec::new();
        for frame in 0..FRAMES {
            for &(from, to, kind, at) in &messages {
                if at != frame {
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
                prop_assert_eq!(
                    fast.enqueue(from, dest.clone(), payload),
                    reference.enqueue(from, dest, payload)
                );
            }
            for &(v, born) in &unborn {
                if born == frame {
                    fast.set_alive(node(v), true);
                    reference.set_alive(node(v), true);
                }
            }
            for s in 0..slots_per_frame {
                for &(v, at, slot, alive) in &churn {
                    if at == frame && slot % slots_per_frame == s {
                        // Mid-frame images agree too, also at the fixed point.
                        prop_assert!(image(&fast) == image(&reference), "images diverged mid-frame");
                        fast.set_alive(node(v), alive == 1);
                        reference.set_alive(node(v), alive == 1);
                    }
                }
                out_fast.clear();
                out_ref.clear();
                fast.advance_slot_into(&mut rng_fast, &mut out_fast);
                reference.advance_slot_full_scan_into(&mut rng_ref, &mut out_ref);
                prop_assert_eq!(
                    &out_fast, &out_ref, "indications diverged in frame {} slot {}", frame, s
                );
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

//! The network-owned, edge-aligned neighbour arena.
//!
//! Earlier revisions gave every MAC instance its own `NeighborTable` vec;
//! per-listener reception then hopped through one heap allocation per node
//! (~35 % of the remaining 5 000-node epoch cost was this control plane).
//! The arena flattens all of those rows into **one network-owned array
//! aligned to the topology's CSR edge slots**: the entry describing
//! neighbour `neighbors(l)[p]` as seen by listener `l` lives at
//! `Topology::row_start(l) + p`. Listener-loop stores therefore walk one
//! contiguous array in listener order, and the per-transmission position is
//! resolved once from the MAC's edge-mirror index — a direct indexed store,
//! no per-event search ([`NeighborArena::heard_at`]).
//!
//! The arena keeps no copy of the CSR: row bounds and neighbour ids come
//! from the [`Topology`] the MAC owns, which every method that walks a
//! row takes, and each entry holds one neighbour's state in 32 bytes.
//!
//! ## Views and cursors
//!
//! Readers (the engine's cross-layer tree repair, the MAC's slot selection)
//! go through [`NeighborView`], a typed cursor over one node's row. The
//! aggregate views the MAC reads every slot — 1-hop slot occupancy and the
//! minimum advertised gateway distance — are cached per node and recomputed
//! lazily only when an update could have changed them; in steady state the
//! caches never invalidate.
//!
//! ## Implicit liveness
//!
//! While the MAC's control plane sits at its fixed point, no frame writes
//! the arena: every alive listener hears each present neighbour exactly
//! once per frame, in the neighbour's slot. A present entry's
//! `last_heard_frame` is then implied by its stored slot and the MAC's
//! position in the frame (`SteadyClock`). Views and snapshots taken
//! through the MAC report that value; when the MAC leaves the fixed point
//! it writes the value back into every present entry
//! (`NeighborArena::settle`).

use std::cell::Cell;
use std::ops::Range;

use dirq_net::{EnergyLedger, NodeId, Topology};
use dirq_sim::snap::{SnapError, SnapReader, SnapWriter};

use crate::slots::SlotSet;

/// What a node knows about one neighbour.
#[derive(Clone, Copy, Debug)]
pub struct NeighborInfo {
    /// Slot the neighbour transmits in (`None` while it is still joining).
    pub slot: Option<u16>,
    /// The neighbour's advertised 1-hop occupied-slot bitmap.
    pub occupied: SlotSet,
    /// The neighbour's advertised hop distance to the gateway
    /// (`u16::MAX` = unknown).
    pub gateway_dist: u16,
    /// Frame number in which the neighbour was last heard.
    pub last_heard_frame: u64,
}

/// What one reception did to the listener's entry for the transmitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heard {
    /// The neighbour was not in the row (LMAC's new-neighbour upcall).
    New,
    /// The entry's slot or gateway distance changed.
    Changed,
    /// Neither changed. The advertised occupancy may have: no
    /// advertisement is computed from it, so it cannot propagate.
    Refreshed,
}

/// The MAC's position in a frame at the control plane's fixed point,
/// from which every present entry's `last_heard_frame` follows.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SteadyClock {
    /// The current frame; at least 1, because the fixed point is only
    /// entered at a frame boundary.
    pub(crate) frame: u64,
    /// The next slot to run: neighbours owning a lower slot have already
    /// been heard in `frame`.
    pub(crate) slot: u16,
}

impl SteadyClock {
    /// When a neighbour that transmits in `slot` was last heard.
    #[inline]
    fn last_heard(self, slot: Option<u16>) -> u64 {
        match slot {
            Some(s) if s < self.slot => self.frame,
            _ => self.frame - 1,
        }
    }
}

/// One edge-aligned arena slot: listener `l`'s knowledge of
/// `neighbors(l)[p]`. The [`NeighborInfo`] fields and the presence flag
/// side by side, 31 bytes in 32 (`layout_budget`): nesting the info would
/// pad the entry to 40.
#[derive(Clone, Copy, Debug)]
struct EdgeEntry {
    occupied: SlotSet,
    last_heard_frame: u64,
    slot: Option<u16>,
    gateway_dist: u16,
    present: bool,
}

impl EdgeEntry {
    /// The entry of a neighbour never heard, or forgotten by `reset_row`.
    const VACANT: EdgeEntry = EdgeEntry {
        occupied: SlotSet::EMPTY,
        last_heard_frame: 0,
        slot: None,
        gateway_dist: u16::MAX,
        present: false,
    };

    /// The entry's knowledge, with `last_heard_frame` taken from `clock`
    /// when the MAC is at its fixed point.
    #[inline]
    fn info_at(&self, clock: Option<SteadyClock>) -> NeighborInfo {
        NeighborInfo {
            slot: self.slot,
            occupied: self.occupied,
            gateway_dist: self.gateway_dist,
            last_heard_frame: match clock {
                Some(c) => c.last_heard(self.slot),
                None => self.last_heard_frame,
            },
        }
    }
}

/// The global neighbour store: one entry per directed CSR edge of the
/// topology it was built over, aligned so listener `l`'s row occupies
/// `row_start(l)..row_start(l) + degree(l)`. Every method that walks a row
/// takes that topology.
#[derive(Clone, Debug)]
pub struct NeighborArena {
    /// Per-edge neighbour knowledge.
    entries: Vec<EdgeEntry>,
    /// Per-node count of present entries.
    present: Vec<u32>,
    /// Per-node cached 1-hop occupancy (`None` = dirty).
    occ_cache: Vec<Cell<Option<SlotSet>>>,
    /// Per-node cached minimum advertised gateway distance (`None` =
    /// dirty).
    gw_cache: Vec<Cell<Option<u16>>>,
}

impl NeighborArena {
    /// Empty arena (every row vacant) over `topo`'s edge set.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.len();
        NeighborArena {
            entries: vec![EdgeEntry::VACANT; 2 * topo.link_count()],
            present: vec![0; n],
            occ_cache: (0..n).map(|_| Cell::new(None)).collect(),
            gw_cache: (0..n).map(|_| Cell::new(None)).collect(),
        }
    }

    /// Number of node rows.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Whether the arena has no rows.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// `node`'s row in the entry array: its CSR row in `topo`, which must
    /// be the topology the arena was built over.
    #[inline]
    fn row(&self, topo: &Topology, node: NodeId) -> Range<usize> {
        debug_assert_eq!(self.entries.len(), 2 * topo.link_count(), "arena of another topology");
        let lo = topo.row_start(node);
        lo..lo + topo.degree(node)
    }

    /// Typed read view over `node`'s row, reporting the stored
    /// `last_heard_frame`.
    #[inline]
    pub fn view<'a>(&'a self, topo: &'a Topology, node: NodeId) -> NeighborView<'a> {
        self.view_at(topo, node, None)
    }

    /// [`NeighborArena::view`] reporting `last_heard_frame` from `clock`
    /// when the MAC is at its fixed point.
    #[inline]
    pub(crate) fn view_at<'a>(
        &'a self,
        topo: &'a Topology,
        node: NodeId,
        clock: Option<SteadyClock>,
    ) -> NeighborView<'a> {
        NeighborView { arena: self, topo, node, clock }
    }

    /// Present entries across every row.
    pub(crate) fn present_total(&self) -> u64 {
        self.present.iter().map(|&c| u64::from(c)).sum()
    }

    /// Forget everything `node`'s row knows (death/rebirth reset).
    pub fn reset_row(&mut self, topo: &Topology, node: NodeId) {
        let row = self.row(topo, node);
        self.entries[row].fill(EdgeEntry::VACANT);
        self.present[node.index()] = 0;
        self.occ_cache[node.index()].set(None);
        self.gw_cache[node.index()].set(None);
    }

    /// Record `listener` hearing `node` in `frame` and report what that
    /// changed ([`Heard::New`] triggers LMAC's new-neighbour upcall).
    /// Resolves the row position by binary search — the cold path; the
    /// reception hot loop uses [`NeighborArena::heard_at`].
    #[allow(clippy::too_many_arguments)]
    pub fn heard(
        &mut self,
        topo: &Topology,
        listener: NodeId,
        node: NodeId,
        slot: Option<u16>,
        occupied: SlotSet,
        gateway_dist: u16,
        frame: u64,
    ) -> Heard {
        let pos = topo
            .neighbors(listener)
            .binary_search(&node)
            .unwrap_or_else(|_| panic!("{node} is not in {listener}'s topology row"));
        self.heard_at(topo, listener, pos, node, slot, occupied, gateway_dist, frame)
    }

    /// [`NeighborArena::heard`] with the entry position already known (the
    /// transmitter's position in `listener`'s topology row, from the MAC's
    /// edge-mirror index) — the reception hot path. `pos` must address
    /// `node`'s entry.
    ///
    /// # Panics
    /// Panics when `pos` lies outside `listener`'s row.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn heard_at(
        &mut self,
        topo: &Topology,
        listener: NodeId,
        pos: usize,
        node: NodeId,
        slot: Option<u16>,
        occupied: SlotSet,
        gateway_dist: u16,
        frame: u64,
    ) -> Heard {
        let li = listener.index();
        let row = self.row(topo, listener);
        assert!(pos < row.len(), "heard_at position {pos} outside {listener}'s row");
        debug_assert_eq!(
            topo.neighbors(listener)[pos],
            node,
            "heard_at position does not address {node}"
        );
        let e = &mut self.entries[row.start + pos];
        let heard = if !e.present {
            self.present[li] += 1;
            self.occ_cache[li].set(None);
            self.gw_cache[li].set(None);
            Heard::New
        } else {
            let mut heard = Heard::Refreshed;
            if e.slot != slot {
                self.occ_cache[li].set(None);
                heard = Heard::Changed;
            }
            if e.gateway_dist != gateway_dist {
                self.gw_cache[li].set(None);
                heard = Heard::Changed;
            }
            heard
        };
        *e = EdgeEntry { occupied, last_heard_frame: frame, slot, gateway_dist, present: true };
        heard
    }

    /// Remove `node` from `listener`'s row; returns whether it was present.
    pub fn remove(&mut self, topo: &Topology, listener: NodeId, node: NodeId) -> bool {
        let Ok(pos) = topo.neighbors(listener).binary_search(&node) else {
            return false;
        };
        let at = self.row(topo, listener).start + pos;
        let e = &mut self.entries[at];
        if !e.present {
            return false;
        }
        e.present = false;
        self.present[listener.index()] -= 1;
        self.occ_cache[listener.index()].set(None);
        self.gw_cache[listener.index()].set(None);
        true
    }

    /// Append `listener`'s neighbours unheard since `frame - max_missed`
    /// (exclusive) — candidates for a dead-neighbour upcall — to a
    /// caller-owned buffer, ascending. `clock` supplies `last_heard_frame`
    /// at the MAC's fixed point.
    pub(crate) fn collect_stale(
        &self,
        topo: &Topology,
        listener: NodeId,
        frame: u64,
        max_missed: u32,
        clock: Option<SteadyClock>,
        out: &mut Vec<NodeId>,
    ) {
        if self.present[listener.index()] == 0 {
            return;
        }
        let entries = &self.entries[self.row(topo, listener)];
        for (e, &id) in entries.iter().zip(topo.neighbors(listener)) {
            if e.present
                && frame.saturating_sub(e.info_at(clock).last_heard_frame) > u64::from(max_missed)
            {
                out.push(id);
            }
        }
    }

    /// Credit `ledger` with one reception per present entry whose
    /// neighbour transmits below slot `before`, or per present entry when
    /// `before` is `None`: what the listeners of a frame at the fixed
    /// point have heard by then.
    pub(crate) fn credit_receptions(
        &self,
        topo: &Topology,
        ledger: &mut EnergyLedger,
        before: Option<u16>,
    ) {
        for (i, &count) in self.present.iter().enumerate() {
            let node = NodeId::from_index(i);
            let heard = match before {
                None => u64::from(count),
                Some(s) => self.entries[self.row(topo, node)]
                    .iter()
                    .filter(|e| e.present && e.slot.is_some_and(|t| t < s))
                    .count() as u64,
            };
            ledger.record_rx_many(node, heard);
        }
    }

    /// Store `clock`'s implied `last_heard_frame` in every present entry:
    /// the MAC is leaving its fixed point and will write entries again.
    pub(crate) fn settle(&mut self, clock: SteadyClock) {
        for e in self.entries.iter_mut().filter(|e| e.present) {
            e.last_heard_frame = clock.last_heard(e.slot);
        }
    }

    /// Write every edge entry to `w`, with `last_heard_frame` from `clock`
    /// at the MAC's fixed point. Row structure is topology-derived and not
    /// serialized; only the dynamic knowledge is.
    pub(crate) fn snap(&self, w: &mut SnapWriter, clock: Option<SteadyClock>) {
        w.tag(b"ARNA");
        w.len_of(self.entries.len());
        for e in &self.entries {
            w.bool(e.present);
            if e.present {
                let info = e.info_at(clock);
                w.opt_u16(info.slot);
                w.u128(info.occupied.bits());
                w.u16(info.gateway_dist);
                w.u64(info.last_heard_frame);
            }
        }
    }

    /// Overlay entries captured by [`NeighborArena::snap`] onto this
    /// arena (which must be built over `topo`, the same topology). A
    /// present entry's slot must lie below `slots_per_frame`, and it must
    /// have been heard no later than `frame`, the image's MAC frame.
    /// Per-row presence counts are recomputed and all caches marked dirty.
    pub(crate) fn restore(
        &mut self,
        topo: &Topology,
        r: &mut SnapReader<'_>,
        slots_per_frame: u16,
        frame: u64,
    ) -> Result<(), SnapError> {
        r.tag(b"ARNA")?;
        let pos = r.position();
        let n = r.seq_len(1)?;
        if n != self.entries.len() {
            return Err(SnapError::Malformed { pos, what: "arena edge count mismatch" });
        }
        for e in &mut self.entries {
            *e = if r.bool()? {
                let pos = r.position();
                let slot = r.opt_u16()?;
                if slot.is_some_and(|s| s >= slots_per_frame) {
                    return Err(SnapError::Malformed { pos, what: "neighbour slot out of range" });
                }
                let occupied = SlotSet::from_bits(r.u128()?);
                let gateway_dist = r.u16()?;
                let pos = r.position();
                let last_heard_frame = r.u64()?;
                if last_heard_frame > frame {
                    return Err(SnapError::Malformed {
                        pos,
                        what: "neighbour heard after the image's frame",
                    });
                }
                EdgeEntry { occupied, last_heard_frame, slot, gateway_dist, present: true }
            } else {
                EdgeEntry::VACANT
            };
        }
        for i in 0..self.present.len() {
            let row = self.row(topo, NodeId::from_index(i));
            self.present[i] = self.entries[row].iter().filter(|e| e.present).count() as u32;
            self.occ_cache[i].set(None);
            self.gw_cache[i].set(None);
        }
        Ok(())
    }
}

/// Read-only cursor over one node's arena row — the cross-layer view DirQ
/// uses to repair its tree, and the MAC's own slot-selection input.
#[derive(Clone, Copy)]
pub struct NeighborView<'a> {
    arena: &'a NeighborArena,
    /// The topology the arena was built over: the row's bounds and ids.
    topo: &'a Topology,
    node: NodeId,
    /// The MAC's position at its fixed point, which `last_heard_frame`
    /// follows from; `None` reports the stored value.
    clock: Option<SteadyClock>,
}

impl<'a> NeighborView<'a> {
    fn row(&self) -> (&'a [EdgeEntry], &'a [NodeId]) {
        let entries = &self.arena.entries[self.arena.row(self.topo, self.node)];
        (entries, self.topo.neighbors(self.node))
    }

    fn present(&self) -> impl Iterator<Item = (&'a EdgeEntry, NodeId)> {
        let (entries, ids) = self.row();
        entries.iter().zip(ids.iter().copied()).filter(|(e, _)| e.present)
    }

    /// Look up a neighbour.
    pub fn get(&self, node: NodeId) -> Option<NeighborInfo> {
        let (entries, ids) = self.row();
        let e = ids.binary_search(&node).ok().map(|p| &entries[p]).filter(|e| e.present)?;
        Some(e.info_at(self.clock))
    }

    /// All known neighbour ids, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.present().map(|(_, id)| id)
    }

    /// Number of known neighbours.
    pub fn len(&self) -> usize {
        self.arena.present[self.node.index()] as usize
    }

    /// Whether the row is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbours unheard since `frame - max_missed` (exclusive), i.e.
    /// candidates for a dead-neighbour upcall at `frame`.
    pub fn stale(&self, frame: u64, max_missed: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.arena.collect_stale(self.topo, self.node, frame, max_missed, self.clock, &mut out);
        out
    }

    /// Union of all neighbours' slots and advertised occupancies — the
    /// 2-hop occupancy picture used for slot selection.
    pub fn two_hop_occupancy(&self) -> SlotSet {
        let mut s = SlotSet::EMPTY;
        for (e, _) in self.present() {
            if let Some(slot) = e.slot {
                s.insert(slot);
            }
            s.union_with(e.occupied);
        }
        s
    }

    /// Slots owned by direct neighbours only (1-hop occupancy) — what a
    /// node advertises in its own control section. Cached; O(1) in steady
    /// state.
    pub fn one_hop_occupancy(&self) -> SlotSet {
        let cache = &self.arena.occ_cache[self.node.index()];
        if let Some(cached) = cache.get() {
            return cached;
        }
        let mut s = SlotSet::EMPTY;
        for (e, _) in self.present() {
            if let Some(slot) = e.slot {
                s.insert(slot);
            }
        }
        cache.set(Some(s));
        s
    }

    /// Smallest advertised gateway distance among neighbours
    /// (`u16::MAX` when none known). Cached; O(1) in steady state.
    pub fn min_gateway_dist(&self) -> u16 {
        let cache = &self.arena.gw_cache[self.node.index()];
        if let Some(cached) = cache.get() {
            return cached;
        }
        let min = self.present().map(|(e, _)| e.gateway_dist).min().unwrap_or(u16::MAX);
        cache.set(Some(min));
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star topology: node 0 adjacent to 1..n.
    fn star(n: usize) -> Topology {
        let edges: Vec<(NodeId, NodeId)> =
            (1..n).map(|i| (NodeId(0), NodeId::from_index(i))).collect();
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn heard_marks_presence_then_updates() {
        let topo = star(5);
        let mut a = NeighborArena::new(&topo);
        assert!(a.view(&topo, NodeId(0)).is_empty());
        assert!(a.view(&topo, NodeId(0)).get(NodeId(3)).is_none(), "vacant entries are invisible");
        assert_eq!(
            a.heard(&topo, NodeId(0), NodeId(3), Some(5), SlotSet::EMPTY, 2, 10),
            Heard::New
        );
        assert_eq!(
            a.heard(&topo, NodeId(0), NodeId(3), Some(6), SlotSet::EMPTY, 1, 11),
            Heard::Changed
        );
        let info = a.view(&topo, NodeId(0)).get(NodeId(3)).unwrap();
        assert_eq!(info.slot, Some(6));
        assert_eq!(info.gateway_dist, 1);
        assert_eq!(info.last_heard_frame, 11);
        assert_eq!(a.view(&topo, NodeId(0)).len(), 1);
        // The leaf's row is untouched.
        assert!(a.view(&topo, NodeId(3)).is_empty());
    }

    #[test]
    fn heard_at_is_a_direct_indexed_store() {
        let topo = star(5);
        let mut a = NeighborArena::new(&topo);
        // Node 0's row is [1, 2, 3, 4]; position 2 addresses NodeId(3).
        assert_eq!(
            a.heard_at(&topo, NodeId(0), 2, NodeId(3), Some(4), SlotSet::EMPTY, 2, 0),
            Heard::New
        );
        let occupied = [1u16].into_iter().collect();
        assert_eq!(
            a.heard_at(&topo, NodeId(0), 2, NodeId(3), Some(4), occupied, 2, 1),
            Heard::Refreshed
        );
        assert_eq!(a.view(&topo, NodeId(0)).get(NodeId(3)).unwrap().last_heard_frame, 1);
        assert_eq!(a.view(&topo, NodeId(0)).nodes().collect::<Vec<_>>(), vec![NodeId(3)]);
    }

    #[test]
    fn rows_are_edge_aligned_with_the_topology() {
        // Chain 0-1-2-3 plus chord 0-2: rows have distinct shapes.
        let topo = Topology::from_edges(
            4,
            &[
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(0), NodeId(2)),
            ],
        );
        let mut a = NeighborArena::new(&topo);
        for l in topo.nodes() {
            for (p, &nb) in topo.neighbors(l).iter().enumerate() {
                assert_eq!(
                    a.heard_at(&topo, l, p, nb, Some(p as u16), SlotSet::EMPTY, 7, 1),
                    Heard::New
                );
            }
        }
        for l in topo.nodes() {
            let v = a.view(&topo, l);
            assert_eq!(v.len(), topo.degree(l));
            assert_eq!(v.nodes().collect::<Vec<_>>(), topo.neighbors(l));
        }
    }

    #[test]
    fn remove_and_reset_row() {
        let topo = star(4);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), Some(0), SlotSet::EMPTY, 4, 0);
        a.heard(&topo, NodeId(0), NodeId(2), Some(1), SlotSet::EMPTY, 2, 0);
        assert_eq!(a.view(&topo, NodeId(0)).min_gateway_dist(), 2);
        assert!(a.remove(&topo, NodeId(0), NodeId(2)));
        assert!(!a.remove(&topo, NodeId(0), NodeId(2)), "vacated entries are not present");
        assert_eq!(a.view(&topo, NodeId(0)).min_gateway_dist(), 4);
        a.reset_row(&topo, NodeId(0));
        assert!(a.view(&topo, NodeId(0)).is_empty());
        assert_eq!(a.view(&topo, NodeId(0)).min_gateway_dist(), u16::MAX);
    }

    #[test]
    fn staleness_detection() {
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), Some(0), SlotSet::EMPTY, 1, 10);
        a.heard(&topo, NodeId(0), NodeId(2), Some(1), SlotSet::EMPTY, 1, 14);
        // max_missed = 3: stale iff frame - last_heard > 3.
        assert_eq!(a.view(&topo, NodeId(0)).stale(14, 3), vec![NodeId(1)]);
        assert!(a.view(&topo, NodeId(0)).stale(13, 3).is_empty());
        assert_eq!(a.view(&topo, NodeId(0)).stale(100, 3), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn occupancy_union_and_caches() {
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), Some(2), [4u16].into_iter().collect(), 1, 0);
        a.heard(&topo, NodeId(0), NodeId(2), Some(3), [5u16].into_iter().collect(), 1, 0);
        let v = a.view(&topo, NodeId(0));
        assert_eq!(v.one_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(v.two_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        // A same-slot re-advertisement keeps the cache; a slot change
        // invalidates it.
        a.heard(&topo, NodeId(0), NodeId(1), Some(2), SlotSet::EMPTY, 1, 1);
        assert_eq!(
            a.view(&topo, NodeId(0)).one_hop_occupancy().iter().collect::<Vec<_>>(),
            vec![2, 3]
        );
        a.heard(&topo, NodeId(0), NodeId(1), Some(7), SlotSet::EMPTY, 1, 2);
        assert_eq!(
            a.view(&topo, NodeId(0)).one_hop_occupancy().iter().collect::<Vec<_>>(),
            vec![3, 7]
        );
    }

    #[test]
    fn joining_neighbour_without_slot() {
        let topo = star(2);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), None, SlotSet::EMPTY, u16::MAX, 0);
        assert!(a.view(&topo, NodeId(0)).one_hop_occupancy().is_empty());
        assert_eq!(a.view(&topo, NodeId(0)).min_gateway_dist(), u16::MAX);
        assert_eq!(a.view(&topo, NodeId(0)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "topology row")]
    fn off_row_neighbour_rejected() {
        // 1 and 2 are not adjacent in a star: hearing across a non-edge is
        // a bug in the caller.
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(1), NodeId(2), None, SlotSet::EMPTY, 0, 0);
    }

    /// The arena's per-edge state is one entry, and the per-node
    /// occupancy cache holds a two-word set: an extra field, or a return
    /// to 16-byte alignment, fails here.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn layout_budget() {
        let entry = std::mem::size_of::<EdgeEntry>();
        let cache = std::mem::size_of::<Cell<Option<SlotSet>>>();
        assert!(entry <= 32, "EdgeEntry is {entry} bytes, over its 32-byte budget");
        assert!(cache <= 24, "the occupancy cache is {cache} bytes a node, over its 24");
    }

    /// Field extremes survive `heard_at`, the views, `snap` and `restore`:
    /// slot `None`, 0 and 127 of a 128-slot frame, occupancy bits 0, 63,
    /// 64 and 127 (both words' edges), gateway distance 0 and `u16::MAX`,
    /// and `last_heard_frame` 0 and the current frame.
    #[test]
    fn extreme_fields_round_trip_through_views_and_snapshots() {
        const FRAME: u64 = 40;
        let topo = star(5);
        let bits = |slots: &[u16]| slots.iter().map(|&s| 1u128 << s).sum::<u128>();
        // (listener, neighbour, slot, occupancy, gateway distance, frame)
        let cases = [
            (0, 1, None, bits(&[0]), 0, 0),
            (0, 2, Some(0), bits(&[63]), u16::MAX, FRAME),
            (0, 3, Some(127), bits(&[64]), 0, FRAME),
            (0, 4, Some(127), bits(&[0, 63, 64, 127]), u16::MAX, 0),
            (4, 0, Some(0), bits(&[127]), 0, FRAME),
        ];
        let mut a = NeighborArena::new(&topo);
        for &(l, nb, slot, occ, gw, frame) in &cases {
            let (l, nb) = (NodeId(l), NodeId(nb));
            let pos = topo.neighbors(l).binary_search(&nb).unwrap();
            let heard = a.heard_at(&topo, l, pos, nb, slot, SlotSet::from_bits(occ), gw, frame);
            assert_eq!(heard, Heard::New);
        }
        let check = |a: &NeighborArena| {
            for &(l, nb, slot, occ, gw, frame) in &cases {
                let info = a.view(&topo, NodeId(l)).get(NodeId(nb)).expect("a present entry");
                let got =
                    (info.slot, info.occupied.bits(), info.gateway_dist, info.last_heard_frame);
                assert_eq!(got, (slot, occ, gw, frame), "{l}'s entry for {nb}");
            }
            let hub = a.view(&topo, NodeId(0));
            assert_eq!(hub.nodes().collect::<Vec<_>>(), topo.neighbors(NodeId(0)));
            assert_eq!(hub.one_hop_occupancy().bits(), bits(&[0, 127]));
            assert_eq!(hub.two_hop_occupancy().bits(), bits(&[0, 63, 64, 127]));
            assert_eq!(hub.min_gateway_dist(), 0);
            assert_eq!(hub.stale(FRAME, 39), vec![NodeId(1), NodeId(4)]);
            for leaf in 1..4 {
                assert!(a.view(&topo, NodeId(leaf)).is_empty(), "leaf {leaf} heard nothing");
            }
            assert_eq!(a.view(&topo, NodeId(4)).min_gateway_dist(), 0);
        };
        check(&a);

        let mut w = SnapWriter::new();
        a.snap(&mut w, None);
        let image = w.finish();
        let mut restored = NeighborArena::new(&topo);
        restored.restore(&topo, &mut SnapReader::new(&image), 128, FRAME).expect("own image");
        check(&restored);
        let mut again = SnapWriter::new();
        restored.snap(&mut again, None);
        assert_eq!(again.finish(), image, "a second snapshot is byte-identical");

        // One frame earlier, the entries heard at FRAME lie in the future.
        let early =
            NeighborArena::new(&topo).restore(&topo, &mut SnapReader::new(&image), 128, FRAME - 1);
        assert!(
            matches!(
                early,
                Err(SnapError::Malformed { what: "neighbour heard after the image's frame", .. })
            ),
            "{early:?}"
        );
    }
}

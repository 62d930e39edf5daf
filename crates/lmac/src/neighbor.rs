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
/// `neighbors(l)[p]`.
#[derive(Clone, Debug)]
struct EdgeEntry {
    present: bool,
    info: NeighborInfo,
}

impl EdgeEntry {
    fn vacant() -> Self {
        EdgeEntry {
            present: false,
            info: NeighborInfo {
                slot: None,
                occupied: SlotSet::EMPTY,
                gateway_dist: u16::MAX,
                last_heard_frame: 0,
            },
        }
    }

    /// The entry's knowledge, with `last_heard_frame` taken from `clock`
    /// when the MAC is at its fixed point.
    #[inline]
    fn info_at(&self, clock: Option<SteadyClock>) -> NeighborInfo {
        let mut info = self.info;
        if let Some(c) = clock {
            info.last_heard_frame = c.last_heard(info.slot);
        }
        info
    }
}

/// The global neighbour store: one entry per directed CSR edge of the
/// topology, aligned so listener `l`'s row occupies
/// `row_start(l)..row_start(l) + degree(l)`.
#[derive(Clone, Debug)]
pub struct NeighborArena {
    /// CSR row starts (`row_offsets[l]..row_offsets[l + 1]` indexes the
    /// edge arrays), mirroring the topology's offsets.
    row_offsets: Vec<u32>,
    /// Edge targets (a copy of the CSR target array): `ids[row_start(l) +
    /// p] == neighbors(l)[p]`. Kept inline so views resolve ids without
    /// holding the topology.
    ids: Vec<NodeId>,
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
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut ids = Vec::new();
        row_offsets.push(0u32);
        for i in 0..n {
            let row = topo.neighbors(NodeId::from_index(i));
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "CSR row must be ascending");
            ids.extend_from_slice(row);
            row_offsets.push(ids.len() as u32);
        }
        NeighborArena {
            row_offsets,
            entries: vec![EdgeEntry::vacant(); ids.len()],
            ids,
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

    #[inline]
    fn row_bounds(&self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        (self.row_offsets[i] as usize, self.row_offsets[i + 1] as usize)
    }

    /// Typed read view over `node`'s row, reporting the stored
    /// `last_heard_frame`.
    #[inline]
    pub fn view(&self, node: NodeId) -> NeighborView<'_> {
        self.view_at(node, None)
    }

    /// [`NeighborArena::view`] reporting `last_heard_frame` from `clock`
    /// when the MAC is at its fixed point.
    #[inline]
    pub(crate) fn view_at(&self, node: NodeId, clock: Option<SteadyClock>) -> NeighborView<'_> {
        NeighborView { arena: self, node, clock }
    }

    /// Present entries across every row.
    pub(crate) fn present_total(&self) -> u64 {
        self.present.iter().map(|&c| u64::from(c)).sum()
    }

    /// Forget everything `node`'s row knows (death/rebirth reset).
    pub fn reset_row(&mut self, node: NodeId) {
        let (lo, hi) = self.row_bounds(node);
        for e in &mut self.entries[lo..hi] {
            *e = EdgeEntry::vacant();
        }
        self.present[node.index()] = 0;
        self.occ_cache[node.index()].set(None);
        self.gw_cache[node.index()].set(None);
    }

    /// Record `listener` hearing `node` in `frame` and report what that
    /// changed ([`Heard::New`] triggers LMAC's new-neighbour upcall).
    /// Resolves the row position by binary search — the cold path; the
    /// reception hot loop uses [`NeighborArena::heard_at`].
    pub fn heard(
        &mut self,
        listener: NodeId,
        node: NodeId,
        slot: Option<u16>,
        occupied: SlotSet,
        gateway_dist: u16,
        frame: u64,
    ) -> Heard {
        let (lo, hi) = self.row_bounds(listener);
        let pos = self.ids[lo..hi]
            .binary_search(&node)
            .unwrap_or_else(|_| panic!("{node} is not in {listener}'s topology row"));
        self.heard_at(listener, pos, node, slot, occupied, gateway_dist, frame)
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
        listener: NodeId,
        pos: usize,
        node: NodeId,
        slot: Option<u16>,
        occupied: SlotSet,
        gateway_dist: u16,
        frame: u64,
    ) -> Heard {
        let li = listener.index();
        let (lo, hi) = self.row_bounds(listener);
        assert!(pos < hi - lo, "heard_at position {pos} outside {listener}'s row");
        debug_assert_eq!(self.ids[lo + pos], node, "heard_at position does not address {node}");
        let e = &mut self.entries[lo + pos];
        let heard = if !e.present {
            e.present = true;
            self.present[li] += 1;
            self.occ_cache[li].set(None);
            self.gw_cache[li].set(None);
            Heard::New
        } else {
            let mut heard = Heard::Refreshed;
            if e.info.slot != slot {
                self.occ_cache[li].set(None);
                heard = Heard::Changed;
            }
            if e.info.gateway_dist != gateway_dist {
                self.gw_cache[li].set(None);
                heard = Heard::Changed;
            }
            heard
        };
        e.info = NeighborInfo { slot, occupied, gateway_dist, last_heard_frame: frame };
        heard
    }

    /// Remove `node` from `listener`'s row; returns whether it was present.
    pub fn remove(&mut self, listener: NodeId, node: NodeId) -> bool {
        let (lo, hi) = self.row_bounds(listener);
        let Ok(pos) = self.ids[lo..hi].binary_search(&node) else {
            return false;
        };
        let e = &mut self.entries[lo + pos];
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
        listener: NodeId,
        frame: u64,
        max_missed: u32,
        clock: Option<SteadyClock>,
        out: &mut Vec<NodeId>,
    ) {
        if self.present[listener.index()] == 0 {
            return;
        }
        let (lo, hi) = self.row_bounds(listener);
        for (e, &id) in self.entries[lo..hi].iter().zip(&self.ids[lo..hi]) {
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
    pub(crate) fn credit_receptions(&self, ledger: &mut EnergyLedger, before: Option<u16>) {
        for (i, &count) in self.present.iter().enumerate() {
            let heard = match before {
                None => u64::from(count),
                Some(s) => {
                    let (lo, hi) = (self.row_offsets[i] as usize, self.row_offsets[i + 1] as usize);
                    self.entries[lo..hi]
                        .iter()
                        .filter(|e| e.present && e.info.slot.is_some_and(|t| t < s))
                        .count() as u64
                }
            };
            ledger.record_rx_many(NodeId::from_index(i), heard);
        }
    }

    /// Store `clock`'s implied `last_heard_frame` in every present entry:
    /// the MAC is leaving its fixed point and will write entries again.
    pub(crate) fn settle(&mut self, clock: SteadyClock) {
        for e in self.entries.iter_mut().filter(|e| e.present) {
            e.info.last_heard_frame = clock.last_heard(e.info.slot);
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
    /// arena (which must be built over the same topology). A present
    /// entry's slot must lie below `slots_per_frame`. Per-row presence
    /// counts are recomputed and all caches marked dirty.
    pub(crate) fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        slots_per_frame: u16,
    ) -> Result<(), SnapError> {
        r.tag(b"ARNA")?;
        let pos = r.position();
        let n = r.seq_len(1)?;
        if n != self.entries.len() {
            return Err(SnapError::Malformed { pos, what: "arena edge count mismatch" });
        }
        for e in &mut self.entries {
            e.present = r.bool()?;
            e.info = if e.present {
                let pos = r.position();
                let slot = r.opt_u16()?;
                if slot.is_some_and(|s| s >= slots_per_frame) {
                    return Err(SnapError::Malformed { pos, what: "neighbour slot out of range" });
                }
                NeighborInfo {
                    slot,
                    occupied: SlotSet::from_bits(r.u128()?),
                    gateway_dist: r.u16()?,
                    last_heard_frame: r.u64()?,
                }
            } else {
                EdgeEntry::vacant().info
            };
        }
        for i in 0..self.present.len() {
            let (lo, hi) = (self.row_offsets[i] as usize, self.row_offsets[i + 1] as usize);
            self.present[i] = self.entries[lo..hi].iter().filter(|e| e.present).count() as u32;
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
    node: NodeId,
    /// The MAC's position at its fixed point, which `last_heard_frame`
    /// follows from; `None` reports the stored value.
    clock: Option<SteadyClock>,
}

impl NeighborView<'_> {
    fn row(&self) -> (&[EdgeEntry], &[NodeId]) {
        let (lo, hi) = self.arena.row_bounds(self.node);
        (&self.arena.entries[lo..hi], &self.arena.ids[lo..hi])
    }

    fn present(&self) -> impl Iterator<Item = (&EdgeEntry, NodeId)> {
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
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
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
        self.arena.collect_stale(self.node, frame, max_missed, self.clock, &mut out);
        out
    }

    /// Union of all neighbours' slots and advertised occupancies — the
    /// 2-hop occupancy picture used for slot selection.
    pub fn two_hop_occupancy(&self) -> SlotSet {
        let mut s = SlotSet::EMPTY;
        for (e, _) in self.present() {
            if let Some(slot) = e.info.slot {
                s.insert(slot);
            }
            s.union_with(e.info.occupied);
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
            if let Some(slot) = e.info.slot {
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
        let min = self.present().map(|(e, _)| e.info.gateway_dist).min().unwrap_or(u16::MAX);
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
        assert!(a.view(NodeId(0)).is_empty());
        assert!(a.view(NodeId(0)).get(NodeId(3)).is_none(), "vacant entries are invisible");
        assert_eq!(a.heard(NodeId(0), NodeId(3), Some(5), SlotSet::EMPTY, 2, 10), Heard::New);
        assert_eq!(a.heard(NodeId(0), NodeId(3), Some(6), SlotSet::EMPTY, 1, 11), Heard::Changed);
        let info = a.view(NodeId(0)).get(NodeId(3)).unwrap();
        assert_eq!(info.slot, Some(6));
        assert_eq!(info.gateway_dist, 1);
        assert_eq!(info.last_heard_frame, 11);
        assert_eq!(a.view(NodeId(0)).len(), 1);
        // The leaf's row is untouched.
        assert!(a.view(NodeId(3)).is_empty());
    }

    #[test]
    fn heard_at_is_a_direct_indexed_store() {
        let topo = star(5);
        let mut a = NeighborArena::new(&topo);
        // Node 0's row is [1, 2, 3, 4]; position 2 addresses NodeId(3).
        assert_eq!(a.heard_at(NodeId(0), 2, NodeId(3), Some(4), SlotSet::EMPTY, 2, 0), Heard::New);
        let occupied = [1u16].into_iter().collect();
        assert_eq!(a.heard_at(NodeId(0), 2, NodeId(3), Some(4), occupied, 2, 1), Heard::Refreshed);
        assert_eq!(a.view(NodeId(0)).get(NodeId(3)).unwrap().last_heard_frame, 1);
        assert_eq!(a.view(NodeId(0)).nodes().collect::<Vec<_>>(), vec![NodeId(3)]);
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
                assert_eq!(a.heard_at(l, p, nb, Some(p as u16), SlotSet::EMPTY, 7, 1), Heard::New);
            }
        }
        for l in topo.nodes() {
            let v = a.view(l);
            assert_eq!(v.len(), topo.degree(l));
            assert_eq!(v.nodes().collect::<Vec<_>>(), topo.neighbors(l));
        }
    }

    #[test]
    fn remove_and_reset_row() {
        let topo = star(4);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(0), NodeId(1), Some(0), SlotSet::EMPTY, 4, 0);
        a.heard(NodeId(0), NodeId(2), Some(1), SlotSet::EMPTY, 2, 0);
        assert_eq!(a.view(NodeId(0)).min_gateway_dist(), 2);
        assert!(a.remove(NodeId(0), NodeId(2)));
        assert!(!a.remove(NodeId(0), NodeId(2)), "vacated entries are not present");
        assert_eq!(a.view(NodeId(0)).min_gateway_dist(), 4);
        a.reset_row(NodeId(0));
        assert!(a.view(NodeId(0)).is_empty());
        assert_eq!(a.view(NodeId(0)).min_gateway_dist(), u16::MAX);
    }

    #[test]
    fn staleness_detection() {
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(0), NodeId(1), Some(0), SlotSet::EMPTY, 1, 10);
        a.heard(NodeId(0), NodeId(2), Some(1), SlotSet::EMPTY, 1, 14);
        // max_missed = 3: stale iff frame - last_heard > 3.
        assert_eq!(a.view(NodeId(0)).stale(14, 3), vec![NodeId(1)]);
        assert!(a.view(NodeId(0)).stale(13, 3).is_empty());
        assert_eq!(a.view(NodeId(0)).stale(100, 3), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn occupancy_union_and_caches() {
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(0), NodeId(1), Some(2), [4u16].into_iter().collect(), 1, 0);
        a.heard(NodeId(0), NodeId(2), Some(3), [5u16].into_iter().collect(), 1, 0);
        let v = a.view(NodeId(0));
        assert_eq!(v.one_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(v.two_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        // A same-slot re-advertisement keeps the cache; a slot change
        // invalidates it.
        a.heard(NodeId(0), NodeId(1), Some(2), SlotSet::EMPTY, 1, 1);
        assert_eq!(a.view(NodeId(0)).one_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3]);
        a.heard(NodeId(0), NodeId(1), Some(7), SlotSet::EMPTY, 1, 2);
        assert_eq!(a.view(NodeId(0)).one_hop_occupancy().iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn joining_neighbour_without_slot() {
        let topo = star(2);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(0), NodeId(1), None, SlotSet::EMPTY, u16::MAX, 0);
        assert!(a.view(NodeId(0)).one_hop_occupancy().is_empty());
        assert_eq!(a.view(NodeId(0)).min_gateway_dist(), u16::MAX);
        assert_eq!(a.view(NodeId(0)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "topology row")]
    fn off_row_neighbour_rejected() {
        // 1 and 2 are not adjacent in a star: hearing across a non-edge is
        // a bug in the caller.
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(NodeId(1), NodeId(2), None, SlotSet::EMPTY, 0, 0);
    }
}

//! The network-owned, edge-aligned neighbour arena.
//!
//! Earlier revisions gave every MAC instance its own `NeighborTable` vec;
//! per-listener reception then hopped through one heap allocation per node
//! (~35 % of the remaining 5 000-node epoch cost was this control plane).
//! The arena flattens all of those rows into **one network-owned array
//! aligned to the topology's CSR edge slots**: the entry describing
//! neighbour `neighbors(l)[p]` as seen by listener `l` lives at
//! `Topology::row_start(l) + p`. Listener-loop stores therefore walk one
//! contiguous array in listener order; a reception finds the transmitter's
//! position in the listener's sorted row by binary search
//! ([`NeighborArena::heard`]), about four probes into a row of a dozen.
//!
//! The arena keeps no copy of the CSR: row bounds and neighbour ids come
//! from the [`Topology`] the MAC owns, which every method that walks a
//! row takes, and each entry holds one neighbour's state in 24 bytes: the
//! slot in one byte and `last_heard_frame` in 32 bits, widened back to 64
//! against the MAC's current frame (`Clock`).
//!
//! ## Views and cursors
//!
//! Readers (the engine's cross-layer tree repair, the MAC's slot selection
//! and advertisements) go through [`NeighborView`], a typed cursor over
//! one node's row. The aggregate views — 1-hop and 2-hop slot occupancy
//! and the minimum advertised gateway distance — fold the row when called.
//! The MAC calls them only off its fixed point (a slot's advertisements, a
//! joining node's slot pick), and a row holds about a dozen entries, so the
//! arena caches no aggregate.
//!
//! ## Implicit liveness
//!
//! While the MAC's control plane sits at its fixed point, no frame writes
//! the arena: every alive listener hears each present neighbour exactly
//! once per frame, in the neighbour's slot. A present entry's
//! `last_heard_frame` is then implied by its stored slot and the MAC's
//! position in the frame (`Clock::steady_slot`). Views and snapshots
//! taken through the MAC report that value; when the MAC leaves the fixed
//! point it writes the value back into every present entry
//! (`NeighborArena::settle`).

use std::ops::Range;

use dirq_net::{EnergyLedger, NodeId, Topology};
use dirq_sim::snap::{SnapError, SnapReader, SnapSink, SnapWriter};

use crate::slots::{SlotSet, MAX_SLOTS};

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

/// The MAC's clock, as the arena reads `last_heard_frame` from it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Clock {
    /// The current frame. An entry keeps the low 32 bits of the frame it
    /// was heard in, and reads back as the latest frame at or before this
    /// one with those bits: exact for an entry less than 2^32 frames old.
    pub(crate) frame: u64,
    /// At the control plane's fixed point, the next slot to run: a present
    /// entry was last heard in `frame` if its neighbour's slot lies below
    /// it, else in `frame - 1` (the fixed point is only entered at a frame
    /// boundary, so `frame` is at least 1). `None` off the fixed point,
    /// where the stored frame is read.
    pub(crate) steady_slot: Option<u16>,
}

impl Clock {
    /// Off the fixed point at `frame`.
    pub(crate) fn at(frame: u64) -> Self {
        Clock { frame, steady_slot: None }
    }

    /// When `e`'s neighbour was last heard.
    #[inline]
    fn last_heard(self, e: &EdgeEntry) -> u64 {
        match self.steady_slot {
            Some(next) if e.slot().is_some_and(|s| s < next) => self.frame,
            Some(_) => self.frame - 1,
            None => self.frame - u64::from((self.frame as u32).wrapping_sub(e.last_heard)),
        }
    }
}

/// `EdgeEntry::slot` of a neighbour without a slot; every slot lies below
/// [`MAX_SLOTS`].
const NO_SLOT: u8 = u8::MAX;

/// One edge-aligned arena slot: listener `l`'s knowledge of
/// `neighbors(l)[p]`. The [`NeighborInfo`] fields, narrowed, and the
/// presence flag side by side in 24 bytes (`layout_budget`).
#[derive(Clone, Copy, Debug)]
struct EdgeEntry {
    occupied: SlotSet,
    /// The low 32 bits of the frame the neighbour was last heard in
    /// ([`Clock`] widens them back).
    last_heard: u32,
    gateway_dist: u16,
    /// The neighbour's slot, or `NO_SLOT`.
    slot: u8,
    present: bool,
}

impl EdgeEntry {
    /// The entry of a neighbour never heard, or forgotten by `reset_row`.
    const VACANT: EdgeEntry = EdgeEntry {
        occupied: SlotSet::EMPTY,
        last_heard: 0,
        gateway_dist: u16::MAX,
        slot: NO_SLOT,
        present: false,
    };

    /// The present entry of a neighbour heard in `frame`.
    ///
    /// # Panics
    /// Panics on a slot at or above [`MAX_SLOTS`].
    #[inline]
    fn heard(slot: Option<u16>, occupied: SlotSet, gateway_dist: u16, frame: u64) -> Self {
        let slot = slot.map_or(NO_SLOT, |s| {
            assert!(s < MAX_SLOTS, "slot {s} out of range");
            s as u8
        });
        EdgeEntry { occupied, last_heard: frame as u32, gateway_dist, slot, present: true }
    }

    /// The neighbour's slot.
    #[inline]
    fn slot(&self) -> Option<u16> {
        (self.slot != NO_SLOT).then_some(u16::from(self.slot))
    }

    /// The entry's knowledge, with `last_heard_frame` read from `clock`.
    #[inline]
    fn info_at(&self, clock: Clock) -> NeighborInfo {
        NeighborInfo {
            slot: self.slot(),
            occupied: self.occupied,
            gateway_dist: self.gateway_dist,
            last_heard_frame: clock.last_heard(self),
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
}

impl NeighborArena {
    /// Empty arena (every row vacant) over `topo`'s edge set.
    pub fn new(topo: &Topology) -> Self {
        NeighborArena {
            entries: vec![EdgeEntry::VACANT; 2 * topo.link_count()],
            present: vec![0; topo.len()],
        }
    }

    /// Heap bytes held: the entries and the per-node present counts.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<EdgeEntry>()
            + self.present.capacity() * std::mem::size_of::<u32>()
    }

    /// `node`'s row in the entry array: its CSR row in `topo`, which must
    /// be the topology the arena was built over.
    #[inline]
    fn row(&self, topo: &Topology, node: NodeId) -> Range<usize> {
        debug_assert_eq!(self.entries.len(), 2 * topo.link_count(), "arena of another topology");
        let lo = topo.row_start(node);
        lo..lo + topo.degree(node)
    }

    /// Typed read view over `node`'s row, reading `last_heard_frame` from
    /// the MAC's `clock`.
    #[inline]
    pub(crate) fn view<'a>(
        &'a self,
        topo: &'a Topology,
        node: NodeId,
        clock: Clock,
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
    }

    /// Record `listener` hearing `node` in `frame` and report what that
    /// changed ([`Heard::New`] triggers LMAC's new-neighbour upcall). The
    /// entry's position is `node`'s in `listener`'s sorted topology row,
    /// found by binary search.
    ///
    /// # Panics
    /// Panics if `node` is not in `listener`'s topology row, or on a slot
    /// at or above [`MAX_SLOTS`].
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
        let (li, at) = (listener.index(), self.row(topo, listener).start + pos);
        let new = EdgeEntry::heard(slot, occupied, gateway_dist, frame);
        let e = &mut self.entries[at];
        let heard = if !e.present {
            self.present[li] += 1;
            Heard::New
        } else if e.slot != new.slot || e.gateway_dist != new.gateway_dist {
            Heard::Changed
        } else {
            Heard::Refreshed
        };
        *e = new;
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
        true
    }

    /// Append `listener`'s neighbours unheard since `frame - max_missed`
    /// (exclusive) — candidates for a dead-neighbour upcall — to a
    /// caller-owned buffer, ascending. `clock` supplies `last_heard_frame`.
    pub(crate) fn collect_stale(
        &self,
        topo: &Topology,
        listener: NodeId,
        frame: u64,
        max_missed: u32,
        clock: Clock,
        out: &mut Vec<NodeId>,
    ) {
        if self.present[listener.index()] == 0 {
            return;
        }
        let entries = &self.entries[self.row(topo, listener)];
        for (e, &id) in entries.iter().zip(topo.neighbors(listener)) {
            if e.present && frame.saturating_sub(clock.last_heard(e)) > u64::from(max_missed) {
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
                    .filter(|e| e.present && e.slot().is_some_and(|t| t < s))
                    .count() as u64,
            };
            ledger.record_rx_many(node, heard);
        }
    }

    /// Store `clock`'s implied `last_heard_frame` in every present entry:
    /// the MAC is leaving its fixed point and will write entries again.
    pub(crate) fn settle(&mut self, clock: Clock) {
        for e in self.entries.iter_mut().filter(|e| e.present) {
            e.last_heard = clock.last_heard(e) as u32;
        }
    }

    /// Write every edge entry to `w`, with `last_heard_frame` read from
    /// `clock`. Row structure is topology-derived and not serialized; only
    /// the dynamic knowledge is.
    pub(crate) fn snap(&self, w: &mut SnapWriter<impl SnapSink>, clock: Clock) {
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
    /// have been heard no later than `frame`, the image's MAC frame, and
    /// less than 2^32 frames before it (what an entry's 32 bits carry).
    /// Per-row presence counts are recomputed.
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
                if frame - last_heard_frame > u64::from(u32::MAX) {
                    return Err(SnapError::Malformed {
                        pos,
                        what: "neighbour heard 2^32 or more frames before the image's frame",
                    });
                }
                EdgeEntry::heard(slot, occupied, gateway_dist, last_heard_frame)
            } else {
                EdgeEntry::VACANT
            };
        }
        for i in 0..self.present.len() {
            let row = self.row(topo, NodeId::from_index(i));
            self.present[i] = self.entries[row].iter().filter(|e| e.present).count() as u32;
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
    /// The MAC's clock, which `last_heard_frame` is read from.
    clock: Clock,
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
            if let Some(slot) = e.slot() {
                s.insert(slot);
            }
            s.union_with(e.occupied);
        }
        s
    }

    /// Slots owned by direct neighbours only (1-hop occupancy) — what a
    /// node advertises in its own control section. A fold of the row.
    pub fn one_hop_occupancy(&self) -> SlotSet {
        let mut s = SlotSet::EMPTY;
        for slot in self.present().filter_map(|(e, _)| e.slot()) {
            s.insert(slot);
        }
        s
    }

    /// Smallest advertised gateway distance among neighbours
    /// (`u16::MAX` when none known). A fold of the row.
    pub fn min_gateway_dist(&self) -> u16 {
        self.present().map(|(e, _)| e.gateway_dist).min().unwrap_or(u16::MAX)
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
        assert!(a.view(&topo, NodeId(0), Clock::at(0)).is_empty());
        assert!(
            a.view(&topo, NodeId(0), Clock::at(0)).get(NodeId(3)).is_none(),
            "vacant entries are invisible"
        );
        assert_eq!(
            a.heard(&topo, NodeId(0), NodeId(3), Some(5), SlotSet::EMPTY, 2, 10),
            Heard::New
        );
        assert_eq!(
            a.heard(&topo, NodeId(0), NodeId(3), Some(6), SlotSet::EMPTY, 1, 11),
            Heard::Changed
        );
        let info = a.view(&topo, NodeId(0), Clock::at(11)).get(NodeId(3)).unwrap();
        assert_eq!(info.slot, Some(6));
        assert_eq!(info.gateway_dist, 1);
        assert_eq!(info.last_heard_frame, 11);
        assert_eq!(a.view(&topo, NodeId(0), Clock::at(11)).len(), 1);
        // The leaf's row is untouched.
        assert!(a.view(&topo, NodeId(3), Clock::at(11)).is_empty());
    }

    #[test]
    fn a_new_occupancy_alone_refreshes() {
        let topo = star(5);
        let mut a = NeighborArena::new(&topo);
        assert_eq!(a.heard(&topo, NodeId(0), NodeId(3), Some(4), SlotSet::EMPTY, 2, 0), Heard::New);
        let occupied = [1u16].into_iter().collect();
        assert_eq!(a.heard(&topo, NodeId(0), NodeId(3), Some(4), occupied, 2, 1), Heard::Refreshed);
        let view = a.view(&topo, NodeId(0), Clock::at(1));
        assert_eq!(view.get(NodeId(3)).unwrap().last_heard_frame, 1);
        assert_eq!(view.get(NodeId(3)).unwrap().occupied, occupied);
        assert_eq!(view.nodes().collect::<Vec<_>>(), vec![NodeId(3)]);
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
                assert_eq!(a.heard(&topo, l, nb, Some(p as u16), SlotSet::EMPTY, 7, 1), Heard::New);
            }
        }
        for l in topo.nodes() {
            let v = a.view(&topo, l, Clock::at(1));
            assert_eq!(v.len(), topo.degree(l));
            assert_eq!(v.nodes().collect::<Vec<_>>(), topo.neighbors(l));
            for (p, &nb) in topo.neighbors(l).iter().enumerate() {
                assert_eq!(v.get(nb).unwrap().slot, Some(p as u16), "{l}'s entry for {nb}");
            }
        }
    }

    #[test]
    fn remove_and_reset_row() {
        let topo = star(4);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), Some(0), SlotSet::EMPTY, 4, 0);
        a.heard(&topo, NodeId(0), NodeId(2), Some(1), SlotSet::EMPTY, 2, 0);
        assert_eq!(a.view(&topo, NodeId(0), Clock::at(0)).min_gateway_dist(), 2);
        assert!(a.remove(&topo, NodeId(0), NodeId(2)));
        assert!(!a.remove(&topo, NodeId(0), NodeId(2)), "vacated entries are not present");
        assert_eq!(a.view(&topo, NodeId(0), Clock::at(0)).min_gateway_dist(), 4);
        a.reset_row(&topo, NodeId(0));
        assert!(a.view(&topo, NodeId(0), Clock::at(0)).is_empty());
        assert_eq!(a.view(&topo, NodeId(0), Clock::at(0)).min_gateway_dist(), u16::MAX);
    }

    #[test]
    fn staleness_detection() {
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), Some(0), SlotSet::EMPTY, 1, 10);
        a.heard(&topo, NodeId(0), NodeId(2), Some(1), SlotSet::EMPTY, 1, 14);
        // max_missed = 3: stale iff frame - last_heard > 3.
        let view = a.view(&topo, NodeId(0), Clock::at(14));
        assert_eq!(view.stale(14, 3), vec![NodeId(1)]);
        assert!(view.stale(13, 3).is_empty());
        assert_eq!(view.stale(100, 3), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn occupancy_unions_follow_slot_changes() {
        let topo = star(3);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), Some(2), [4u16].into_iter().collect(), 1, 0);
        a.heard(&topo, NodeId(0), NodeId(2), Some(3), [5u16].into_iter().collect(), 1, 0);
        let v = a.view(&topo, NodeId(0), Clock::at(0));
        assert_eq!(v.one_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(v.two_hop_occupancy().iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        // A same-slot re-advertisement keeps the 1-hop set; a slot change
        // moves it.
        a.heard(&topo, NodeId(0), NodeId(1), Some(2), SlotSet::EMPTY, 1, 1);
        let one_hop = |a: &NeighborArena| {
            a.view(&topo, NodeId(0), Clock::at(2)).one_hop_occupancy().iter().collect::<Vec<_>>()
        };
        assert_eq!(one_hop(&a), vec![2, 3]);
        a.heard(&topo, NodeId(0), NodeId(1), Some(7), SlotSet::EMPTY, 1, 2);
        assert_eq!(one_hop(&a), vec![3, 7]);
    }

    #[test]
    fn joining_neighbour_without_slot() {
        let topo = star(2);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), None, SlotSet::EMPTY, u16::MAX, 0);
        let view = a.view(&topo, NodeId(0), Clock::at(0));
        assert!(view.one_hop_occupancy().is_empty());
        assert_eq!(view.min_gateway_dist(), u16::MAX);
        assert_eq!(view.len(), 1);
        assert_eq!(view.get(NodeId(1)).unwrap().slot, None);
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

    #[test]
    #[should_panic(expected = "slot 128 out of range")]
    fn a_slot_past_the_largest_frame_is_rejected() {
        let topo = star(2);
        let mut a = NeighborArena::new(&topo);
        a.heard(&topo, NodeId(0), NodeId(1), Some(MAX_SLOTS), SlotSet::EMPTY, 0, 0);
    }

    /// The arena's per-edge state is one 24-byte entry: an extra field, a
    /// wider slot or a 64-bit frame fails here.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn layout_budget() {
        let entry = std::mem::size_of::<EdgeEntry>();
        assert!(entry <= 24, "EdgeEntry is {entry} bytes, over its 24-byte budget");
    }

    /// The image bytes of `entries` (`None`: vacant) as
    /// [`NeighborArena::snap`] writes them, from the 64-bit
    /// `last_heard_frame` of [`NeighborInfo`].
    fn image_of(entries: &[Option<NeighborInfo>]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.tag(b"ARNA");
        w.len_of(entries.len());
        for e in entries {
            w.bool(e.is_some());
            if let Some(info) = e {
                w.opt_u16(info.slot);
                w.u128(info.occupied.bits());
                w.u16(info.gateway_dist);
                w.u64(info.last_heard_frame);
            }
        }
        w.finish()
    }

    /// Field extremes survive `heard`, the views, `snap` and `restore`:
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
            let heard =
                a.heard(&topo, NodeId(l), NodeId(nb), slot, SlotSet::from_bits(occ), gw, frame);
            assert_eq!(heard, Heard::New);
        }
        let check = |a: &NeighborArena| {
            for &(l, nb, slot, occ, gw, frame) in &cases {
                let info = a
                    .view(&topo, NodeId(l), Clock::at(FRAME))
                    .get(NodeId(nb))
                    .expect("a present entry");
                let got =
                    (info.slot, info.occupied.bits(), info.gateway_dist, info.last_heard_frame);
                assert_eq!(got, (slot, occ, gw, frame), "{l}'s entry for {nb}");
            }
            let hub = a.view(&topo, NodeId(0), Clock::at(FRAME));
            assert_eq!(hub.nodes().collect::<Vec<_>>(), topo.neighbors(NodeId(0)));
            assert_eq!(hub.one_hop_occupancy().bits(), bits(&[0, 127]));
            assert_eq!(hub.two_hop_occupancy().bits(), bits(&[0, 63, 64, 127]));
            assert_eq!(hub.min_gateway_dist(), 0);
            assert_eq!(hub.stale(FRAME, 39), vec![NodeId(1), NodeId(4)]);
            for leaf in 1..4 {
                assert!(
                    a.view(&topo, NodeId(leaf), Clock::at(FRAME)).is_empty(),
                    "leaf {leaf} heard nothing"
                );
            }
            assert_eq!(a.view(&topo, NodeId(4), Clock::at(FRAME)).min_gateway_dist(), 0);
        };
        check(&a);

        let mut w = SnapWriter::new();
        a.snap(&mut w, Clock::at(FRAME));
        let image = w.finish();
        let mut restored = NeighborArena::new(&topo);
        restored.restore(&topo, &mut SnapReader::new(&image), 128, FRAME).expect("own image");
        check(&restored);
        let mut again = SnapWriter::new();
        restored.snap(&mut again, Clock::at(FRAME));
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

    /// An entry keeps 32 bits of its frame, and reads back exactly what a
    /// 64-bit field holds across 2^32: entries heard at 2^32 − 1, 2^32 and
    /// 2^32 + 1 and read at 2^32 + 2 give the same views, `stale` sets and
    /// snapshot bytes. An image may hold an entry up to 2^32 − 1 frames
    /// older than its frame, and not one 2^32 frames older.
    #[test]
    fn the_32_bit_frame_is_exact_across_2_pow_32() {
        const WRAP: u64 = 1 << 32;
        const NOW: u64 = WRAP + 2;
        let topo = star(5);
        // Neighbour 4 stays vacant.
        let heard = [(1, Some(3), WRAP - 1), (2, None, WRAP), (3, Some(127), WRAP + 1)];
        let mut a = NeighborArena::new(&topo);
        for &(nb, slot, frame) in &heard {
            let occupied = SlotSet::single(nb);
            a.heard(&topo, NodeId(0), NodeId(nb as u32), slot, occupied, nb, frame);
        }
        let view = a.view(&topo, NodeId(0), Clock::at(NOW));
        for &(nb, slot, frame) in &heard {
            let info = view.get(NodeId(nb as u32)).expect("a present entry");
            assert_eq!((info.slot, info.gateway_dist, info.last_heard_frame), (slot, nb, frame));
        }
        // Ages 3, 2 and 1 at NOW.
        assert_eq!(view.stale(NOW, 2), vec![NodeId(1)]);
        assert_eq!(view.stale(NOW, 1), vec![NodeId(1), NodeId(2)]);
        assert_eq!(view.stale(NOW, 0), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(view.stale(WRAP - 1, 0), Vec::<NodeId>::new());

        // The hub's row, then the four leaves' single entries.
        let mut expected = vec![None; 8];
        for &(nb, slot, frame) in &heard {
            let occupied = SlotSet::single(nb);
            expected[usize::from(nb) - 1] =
                Some(NeighborInfo { slot, occupied, gateway_dist: nb, last_heard_frame: frame });
        }
        let mut w = SnapWriter::new();
        a.snap(&mut w, Clock::at(NOW));
        let image = w.finish();
        assert_eq!(image, image_of(&expected), "the bytes a 64-bit field writes");

        // The oldest entry, at 2^32 − 1, is 2^32 frames old at 2^33 − 1.
        let restore_at = |frame: u64| {
            let mut b = NeighborArena::new(&topo);
            b.restore(&topo, &mut SnapReader::new(&image), 128, frame).map(|()| b)
        };
        let oldest = WRAP - 1;
        let b = restore_at(oldest + WRAP - 1).expect("2^32 - 1 frames old restores");
        let view = b.view(&topo, NodeId(0), Clock::at(oldest + WRAP - 1));
        for &(nb, _, frame) in &heard {
            assert_eq!(view.get(NodeId(nb as u32)).unwrap().last_heard_frame, frame);
        }
        let mut w = SnapWriter::new();
        b.snap(&mut w, Clock::at(oldest + WRAP - 1));
        assert_eq!(w.finish(), image, "a restored arena writes its image again");
        let old = restore_at(oldest + WRAP).map(|_| ());
        assert!(
            matches!(
                old,
                Err(SnapError::Malformed {
                    what: "neighbour heard 2^32 or more frames before the image's frame",
                    ..
                })
            ),
            "{old:?}"
        );
    }
}

//! Range Tables — Section 4.1 of the paper.
//!
//! Per sensor type, every node stores one `[THmin, THmax]` tuple for itself
//! and one for each one-hop child:
//!
//! * **Own tuple** (Fig. 1): on acquiring reading `R`, set
//!   `THmin = R − δ`, `THmax = R + δ`; replace the tuple only when a new
//!   reading falls *outside* the current interval.
//! * **Aggregation** (Fig. 2): whenever the table changes, recompute
//!   `min(THmin)` and `max(THmax)` over all tuples.
//! * **Update rule** (Fig. 3): transmit an Update Message iff the new
//!   aggregate differs from the *previously transmitted* aggregate by more
//!   than `δ` at either end.
//!
//! ## Layout
//!
//! Child tuples are one `Vec` of `{ id, min, max }` records kept sorted by
//! child id: one allocation per table, and a child's id and bounds share a
//! cache line. A table has about one child in the paper's trees, so the
//! parallel arrays the routing sweeps once ran over bought no
//! vectorisation, only two more allocations and cold lines per message.
//! The aggregate recomputation and the per-query child-overlap test both
//! visit children in ascending id order, so merge order and emitted child
//! lists are bit-identical to any earlier layout.

use dirq_net::NodeId;

/// A `[THmin, THmax]` tuple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeEntry {
    /// Lower threshold `THmin`.
    pub min: f64,
    /// Upper threshold `THmax`.
    pub max: f64,
}

impl RangeEntry {
    /// The paper's Eq. 1/2: `[R − δ, R + δ]` around a reading.
    pub fn around(reading: f64, delta: f64) -> Self {
        debug_assert!(delta >= 0.0, "threshold must be non-negative");
        RangeEntry { min: reading - delta, max: reading + delta }
    }

    /// Whether `value` lies inside the interval (inclusive).
    #[inline]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.min && value <= self.max
    }

    /// Whether the interval overlaps `[lo, hi]` — DirQ's routing test.
    #[inline]
    pub fn overlaps(&self, lo: f64, hi: f64) -> bool {
        self.min <= hi && self.max >= lo
    }

    /// Smallest interval containing both.
    pub fn hull(&self, other: &RangeEntry) -> RangeEntry {
        RangeEntry { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// Whether either end moved by more than `delta` relative to `prev` —
    /// the Fig. 3 transmission test.
    pub fn differs_significantly(&self, prev: &RangeEntry, delta: f64) -> bool {
        (self.min - prev.min).abs() > delta || (self.max - prev.max).abs() > delta
    }
}

/// One child's advertised aggregate tuple.
#[derive(Clone, Copy, Debug)]
struct ChildEntry {
    id: NodeId,
    min: f64,
    max: f64,
}

/// The per-sensor-type Range Table of one node.
#[derive(Clone, Debug, Default)]
pub struct RangeTable {
    /// This node's own tuple (`None`: the node does not carry the sensor).
    own: Option<RangeEntry>,
    /// The aggregate tuple advertised by each child, ascending by child id.
    children: Vec<ChildEntry>,
    /// The aggregate most recently transmitted up the tree
    /// (`prev_min(THmin)`, `prev_max(THmax)` in the paper).
    last_tx: Option<RangeEntry>,
}

impl RangeTable {
    /// An empty table.
    pub fn new() -> Self {
        RangeTable::default()
    }

    /// Apply a new own reading under threshold `delta` (Fig. 1). Returns
    /// `true` when the own tuple was (re)placed — i.e. the reading escaped
    /// the previous interval or there was none.
    pub fn observe_own(&mut self, reading: f64, delta: f64) -> bool {
        match &self.own {
            Some(entry) if entry.contains(reading) => false,
            _ => {
                self.own = Some(RangeEntry::around(reading, delta));
                true
            }
        }
    }

    /// Drop the own tuple (sensor removed).
    pub fn clear_own(&mut self) -> bool {
        self.own.take().is_some()
    }

    /// This node's own tuple.
    pub fn own(&self) -> Option<RangeEntry> {
        self.own
    }

    fn find(&self, child: NodeId) -> Result<usize, usize> {
        self.children.binary_search_by_key(&child, |c| c.id)
    }

    /// Insert or replace a child's aggregate tuple. Returns `true` if the
    /// stored value changed.
    pub fn set_child(&mut self, child: NodeId, entry: RangeEntry) -> bool {
        match self.find(child) {
            Ok(i) => {
                let c = &mut self.children[i];
                if c.min == entry.min && c.max == entry.max {
                    false
                } else {
                    (c.min, c.max) = (entry.min, entry.max);
                    true
                }
            }
            Err(i) => {
                self.children.insert(i, ChildEntry { id: child, min: entry.min, max: entry.max });
                true
            }
        }
    }

    /// Remove a child's tuple; returns whether it was present.
    pub fn remove_child(&mut self, child: NodeId) -> bool {
        match self.find(child) {
            Ok(i) => {
                self.children.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// A child's stored tuple.
    pub fn child_entry(&self, child: NodeId) -> Option<RangeEntry> {
        self.find(child).ok().map(|i| {
            let c = &self.children[i];
            RangeEntry { min: c.min, max: c.max }
        })
    }

    /// Child ids with a stored tuple, ascending.
    pub fn child_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().map(|c| c.id)
    }

    /// All child tuples in ascending id order.
    pub fn child_entries(&self) -> impl Iterator<Item = (NodeId, RangeEntry)> + '_ {
        self.children.iter().map(|c| (c.id, RangeEntry { min: c.min, max: c.max }))
    }

    /// Visit every child whose tuple overlaps `[lo, hi]` — DirQ's per-query
    /// routing test — in ascending id order.
    #[inline]
    pub fn for_overlapping_children(&self, lo: f64, hi: f64, mut visit: impl FnMut(NodeId)) {
        for c in &self.children {
            if c.min <= hi && c.max >= lo {
                visit(c.id);
            }
        }
    }

    /// Fig. 2: `min(THmin)` / `max(THmax)` over the own tuple and all
    /// child tuples. `None` when the table holds nothing.
    pub fn aggregate(&self) -> Option<RangeEntry> {
        if self.children.is_empty() {
            return self.own;
        }
        let mut min = f64::INFINITY;
        for c in &self.children {
            min = min.min(c.min);
        }
        let mut max = f64::NEG_INFINITY;
        for c in &self.children {
            max = max.max(c.max);
        }
        let children = RangeEntry { min, max };
        Some(match self.own {
            Some(own) => own.hull(&children),
            None => children,
        })
    }

    /// Fig. 3: the Update Message to transmit now, if the aggregate moved
    /// more than `delta` from the previously transmitted aggregate (or was
    /// never transmitted). Does **not** mark it transmitted.
    pub fn pending_update(&self, delta: f64) -> Option<RangeEntry> {
        let agg = self.aggregate()?;
        match &self.last_tx {
            None => Some(agg),
            Some(prev) if agg.differs_significantly(prev, delta) => Some(agg),
            Some(_) => None,
        }
    }

    /// Whether a Retract should be transmitted: the table is empty but an
    /// aggregate was previously advertised.
    pub fn pending_retract(&self) -> bool {
        self.aggregate().is_none() && self.last_tx.is_some()
    }

    /// Record that `entry` was transmitted up the tree.
    pub fn mark_transmitted(&mut self, entry: RangeEntry) {
        self.last_tx = Some(entry);
    }

    /// Record that a Retract was transmitted.
    pub fn mark_retracted(&mut self) {
        self.last_tx = None;
    }

    /// The previously transmitted aggregate.
    pub fn last_transmitted(&self) -> Option<RangeEntry> {
        self.last_tx
    }

    /// Whether the table holds neither an own tuple nor child tuples.
    pub fn is_empty(&self) -> bool {
        self.own.is_none() && self.children.is_empty()
    }

    /// Number of tuples stored (own + children) — the paper's `n + 1`.
    pub fn len(&self) -> usize {
        usize::from(self.own.is_some()) + self.children.len()
    }

    /// Write the full table state to `w`: the own tuple, then the child
    /// ids, mins and maxes as three sequences, then the last transmission.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter) {
        snap_entry(w, self.own);
        w.len_of(self.children.len());
        for c in &self.children {
            w.u32(c.id.0);
        }
        w.len_of(self.children.len());
        for c in &self.children {
            w.f64(c.min);
        }
        w.len_of(self.children.len());
        for c in &self.children {
            w.f64(c.max);
        }
        snap_entry(w, self.last_tx);
    }

    /// Rebuild a table captured by [`RangeTable::snap`].
    pub fn unsnap(r: &mut dirq_sim::SnapReader<'_>) -> Result<Self, dirq_sim::SnapError> {
        let own = unsnap_entry(r)?;
        let pos = r.position();
        let n = r.seq_len(4)?;
        let child_ids: Vec<NodeId> =
            (0..n).map(|_| r.u32().map(NodeId)).collect::<Result<_, _>>()?;
        let child_min = r.f64s()?;
        let child_max = r.f64s()?;
        if child_min.len() != n || child_max.len() != n {
            return Err(dirq_sim::SnapError::Malformed {
                pos,
                what: "range table child arrays disagree in length",
            });
        }
        if !child_ids.windows(2).all(|p| p[0] < p[1]) {
            return Err(dirq_sim::SnapError::Malformed {
                pos,
                what: "range table child ids not strictly ascending",
            });
        }
        let children = child_ids
            .into_iter()
            .zip(child_min.into_iter().zip(child_max))
            .map(|(id, (min, max))| ChildEntry { id, min, max })
            .collect();
        let last_tx = unsnap_entry(r)?;
        Ok(RangeTable { own, children, last_tx })
    }
}

fn snap_entry(w: &mut dirq_sim::SnapWriter, e: Option<RangeEntry>) {
    w.bool(e.is_some());
    if let Some(e) = e {
        w.f64(e.min);
        w.f64(e.max);
    }
}

fn unsnap_entry(
    r: &mut dirq_sim::SnapReader<'_>,
) -> Result<Option<RangeEntry>, dirq_sim::SnapError> {
    Ok(if r.bool()? { Some(RangeEntry { min: r.f64()?, max: r.f64()? }) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn entry_around_reading() {
        let e = RangeEntry::around(20.0, 0.5);
        assert_eq!(e, RangeEntry { min: 19.5, max: 20.5 });
        assert!(e.contains(20.0) && e.contains(19.5) && e.contains(20.5));
        assert!(!e.contains(19.49) && !e.contains(20.51));
    }

    #[test]
    fn overlap_tests() {
        let e = RangeEntry { min: 10.0, max: 20.0 };
        assert!(e.overlaps(5.0, 10.0));
        assert!(e.overlaps(20.0, 25.0));
        assert!(e.overlaps(12.0, 13.0));
        assert!(e.overlaps(0.0, 100.0));
        assert!(!e.overlaps(20.1, 30.0));
        assert!(!e.overlaps(0.0, 9.9));
    }

    #[test]
    fn own_tuple_replaced_only_on_escape() {
        let mut t = RangeTable::new();
        assert!(t.observe_own(20.0, 1.0)); // first reading always sets
        assert_eq!(t.own(), Some(RangeEntry { min: 19.0, max: 21.0 }));
        // Readings inside [19, 21] leave the tuple unchanged (paper: only
        // major changes are reflected).
        assert!(!t.observe_own(20.9, 1.0));
        assert!(!t.observe_own(19.1, 1.0));
        assert_eq!(t.own(), Some(RangeEntry { min: 19.0, max: 21.0 }));
        // Escape re-centres the tuple.
        assert!(t.observe_own(22.0, 1.0));
        assert_eq!(t.own(), Some(RangeEntry { min: 21.0, max: 23.0 }));
    }

    #[test]
    fn aggregate_spans_own_and_children() {
        let mut t = RangeTable::new();
        t.observe_own(20.0, 1.0); // [19, 21]
        t.set_child(NodeId(2), RangeEntry { min: 15.0, max: 18.0 });
        t.set_child(NodeId(3), RangeEntry { min: 22.0, max: 30.0 });
        assert_eq!(t.aggregate(), Some(RangeEntry { min: 15.0, max: 30.0 }));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn first_aggregate_is_always_pending() {
        let mut t = RangeTable::new();
        assert_eq!(t.pending_update(1.0), None, "empty table has nothing to send");
        t.observe_own(20.0, 1.0);
        assert_eq!(t.pending_update(1.0), Some(RangeEntry { min: 19.0, max: 21.0 }));
    }

    #[test]
    fn update_fires_only_beyond_delta() {
        let mut t = RangeTable::new();
        t.observe_own(20.0, 1.0);
        let agg = t.pending_update(1.0).unwrap();
        t.mark_transmitted(agg);
        assert_eq!(t.pending_update(1.0), None);
        // Move min/max by exactly delta: NOT significant (strict >).
        t.set_child(NodeId(1), RangeEntry { min: 18.0, max: 21.0 }); // min 19→18 (Δ=1)
        assert_eq!(t.pending_update(1.0), None);
        // Move beyond delta.
        t.set_child(NodeId(1), RangeEntry { min: 17.9, max: 21.0 });
        assert_eq!(t.pending_update(1.0), Some(RangeEntry { min: 17.9, max: 21.0 }));
    }

    #[test]
    fn shrinking_aggregate_also_triggers() {
        let mut t = RangeTable::new();
        t.set_child(NodeId(1), RangeEntry { min: 0.0, max: 50.0 });
        t.mark_transmitted(t.aggregate().unwrap());
        // Child range collapses: min rises by 30 > delta.
        t.set_child(NodeId(1), RangeEntry { min: 30.0, max: 50.0 });
        assert!(t.pending_update(2.0).is_some());
    }

    #[test]
    fn retract_lifecycle() {
        let mut t = RangeTable::new();
        t.set_child(NodeId(4), RangeEntry { min: 1.0, max: 2.0 });
        t.mark_transmitted(t.aggregate().unwrap());
        assert!(!t.pending_retract());
        t.remove_child(NodeId(4));
        assert!(t.is_empty());
        assert!(t.pending_retract());
        t.mark_retracted();
        assert!(!t.pending_retract());
        assert_eq!(t.pending_update(1.0), None);
    }

    #[test]
    fn child_crud() {
        let mut t = RangeTable::new();
        assert!(t.set_child(NodeId(5), RangeEntry { min: 1.0, max: 2.0 }));
        assert!(!t.set_child(NodeId(5), RangeEntry { min: 1.0, max: 2.0 }), "no-op set");
        assert!(t.set_child(NodeId(5), RangeEntry { min: 1.0, max: 3.0 }));
        assert!(t.child_entry(NodeId(5)).unwrap().max == 3.0);
        assert!(t.remove_child(NodeId(5)));
        assert!(!t.remove_child(NodeId(5)));
        assert_eq!(t.child_entry(NodeId(5)), None);
    }

    #[test]
    fn clear_own_leaves_children() {
        let mut t = RangeTable::new();
        t.observe_own(10.0, 1.0);
        t.set_child(NodeId(1), RangeEntry { min: 0.0, max: 1.0 });
        assert!(t.clear_own());
        assert!(!t.clear_own());
        assert_eq!(t.aggregate(), Some(RangeEntry { min: 0.0, max: 1.0 }));
    }

    #[test]
    fn overlap_sweep_visits_ascending() {
        let mut t = RangeTable::new();
        t.set_child(NodeId(9), RangeEntry { min: 0.0, max: 10.0 });
        t.set_child(NodeId(2), RangeEntry { min: 5.0, max: 15.0 });
        t.set_child(NodeId(5), RangeEntry { min: 50.0, max: 60.0 });
        let mut hit = Vec::new();
        t.for_overlapping_children(8.0, 20.0, |c| hit.push(c));
        assert_eq!(hit, vec![NodeId(2), NodeId(9)]);
    }

    proptest! {
        /// The aggregate always contains every stored tuple.
        #[test]
        fn prop_aggregate_is_hull(
            own in proptest::option::of((-100.0f64..100.0, 0.0f64..5.0)),
            children in proptest::collection::vec((0u32..20, -100.0f64..100.0, 0.0f64..10.0), 0..10),
        ) {
            let mut t = RangeTable::new();
            if let Some((r, d)) = own {
                t.observe_own(r, d);
            }
            for (id, lo, w) in &children {
                t.set_child(NodeId(*id), RangeEntry { min: *lo, max: lo + w });
            }
            if let Some(agg) = t.aggregate() {
                if let Some(o) = t.own() {
                    prop_assert!(agg.min <= o.min && agg.max >= o.max);
                }
                for (_, e) in t.child_entries() {
                    prop_assert!(agg.min <= e.min && agg.max >= e.max);
                }
            } else {
                prop_assert!(t.is_empty());
            }
        }

        /// After mark_transmitted, pending_update fires iff the aggregate
        /// moved by more than delta at either end.
        #[test]
        fn prop_update_rule_exact(
            base in -50.0f64..50.0,
            shift in -20.0f64..20.0,
            delta in 0.01f64..5.0,
        ) {
            let mut t = RangeTable::new();
            t.set_child(NodeId(1), RangeEntry { min: base, max: base + 10.0 });
            t.mark_transmitted(t.aggregate().unwrap());
            t.set_child(NodeId(1), RangeEntry { min: base + shift, max: base + 10.0 + shift });
            let expect_fire = shift.abs() > delta;
            prop_assert_eq!(t.pending_update(delta).is_some(), expect_fire);
        }

        /// Own-tuple escape semantics: after observing r, observing any r'
        /// within ±delta never replaces the tuple.
        #[test]
        fn prop_no_replacement_within_delta(
            r in -100.0f64..100.0,
            offset in -1.0f64..1.0,
            delta in 0.5f64..5.0,
        ) {
            let mut t = RangeTable::new();
            t.observe_own(r, delta);
            let inside = r + offset * delta; // |offset| <= 1 ⇒ inside window
            prop_assert!(!t.observe_own(inside, delta));
        }
    }
}

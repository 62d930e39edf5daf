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
//! A node keeps every table in one `RangeTables` store of at most two
//! allocations. The own and last-transmitted tuples of each catalog type
//! share one 32-byte `Slot`, all slots in one boxed array indexed by
//! [`SensorType::index`], with `NaN` marking a tuple absent. The child
//! tuples of every type sit in one `Vec` ordered by (type, child id), so a
//! type's children are one contiguous run and a leaf owns no list at all.
//! A table is present exactly while its last-transmitted tuple is: the
//! node flushes every change it makes, which marks a non-empty aggregate
//! transmitted, and drops a table only by marking its Retract.
//! [`RangeTable`] is the read view of one type's slot and run.
//!
//! The aggregate recomputation and the per-query child-overlap test both
//! visit a run in ascending id order, so merge order and emitted child
//! lists are bit-identical to any earlier layout.

use std::ops::Range;

use dirq_data::SensorType;
use dirq_net::NodeId;
use dirq_sim::{SnapError, SnapReader, SnapWriter};

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

/// The absent tuple in a [`Slot`].
const ABSENT: RangeEntry = RangeEntry { min: f64::NAN, max: f64::NAN };

/// `entry`, unless it is [`ABSENT`].
#[inline]
fn present(entry: RangeEntry) -> Option<RangeEntry> {
    (!entry.min.is_nan()).then_some(entry)
}

/// One type's own tuple and last-transmitted aggregate (`NaN` = absent).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    own: RangeEntry,
    last_tx: RangeEntry,
}

impl Slot {
    const ABSENT: Slot = Slot { own: ABSENT, last_tx: ABSENT };
}

/// One child's advertised aggregate tuple for one type, keyed by the type
/// and then the child id in one word, so the list sorts and searches on
/// one comparison.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChildTuple {
    /// `stype << 32 | child id` ([`ChildTuple::key`]).
    key: u64,
    min: f64,
    max: f64,
}

impl ChildTuple {
    fn key(stype: SensorType, child: NodeId) -> u64 {
        u64::from(stype.0) << 32 | u64::from(child.0)
    }

    fn id(&self) -> NodeId {
        NodeId(self.key as u32)
    }
}

/// A node's Range Tables, one per catalog sensor type: the slots and the
/// one child-tuple list of the module's layout. The node's handlers mutate
/// it and flush every change; everything else reads [`RangeTable`] views.
#[derive(Clone, Debug)]
pub(crate) struct RangeTables {
    /// One slot per catalog type, indexed by [`SensorType::index`].
    slots: Box<[Slot]>,
    /// Every child tuple, ascending by (type, child id).
    children: Vec<ChildTuple>,
}

impl RangeTables {
    /// No table, for a catalog of `width` types.
    pub(crate) fn new(width: usize) -> Self {
        RangeTables { slots: vec![Slot::ABSENT; width].into_boxed_slice(), children: Vec::new() }
    }

    /// Catalog types (present or not).
    pub(crate) fn width(&self) -> usize {
        self.slots.len()
    }

    /// The table for `stype`, if present (never for a type outside the
    /// catalog).
    #[inline]
    pub(crate) fn table(&self, stype: SensorType) -> Option<RangeTable<'_>> {
        let slot = self.slots.get(stype.index())?;
        present(slot.last_tx)?;
        Some(RangeTable { slot, children: &self.children[self.run(stype)] })
    }

    /// `stype`'s slot and run whether or not the table is present yet: the
    /// flush after a table's first tuple reads it before marking it
    /// transmitted.
    #[inline]
    pub(crate) fn view(&self, stype: SensorType) -> RangeTable<'_> {
        RangeTable { slot: &self.slots[stype.index()], children: &self.children[self.run(stype)] }
    }

    /// Types with a present table, ascending.
    pub(crate) fn types(&self) -> impl Iterator<Item = SensorType> + '_ {
        (0..self.width()).map(|i| SensorType(i as u8)).filter(|&t| self.table(t).is_some())
    }

    /// Every child id with a tuple, ascending by (type, id).
    pub(crate) fn child_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().map(ChildTuple::id)
    }

    /// The positions of `stype`'s child tuples. A linear scan: a list holds
    /// a few tuples per child, where two binary searches cost more in
    /// mispredicted branches than the scan in compares.
    #[inline]
    fn run(&self, stype: SensorType) -> Range<usize> {
        let (t, len) = (u64::from(stype.0), self.children.len());
        let start = self.children.iter().position(|c| c.key >> 32 >= t).unwrap_or(len);
        let end = self.children[start..].iter().position(|c| c.key >> 32 != t);
        start..end.map_or(len, |k| start + k)
    }

    fn find(&self, stype: SensorType, child: NodeId) -> Result<usize, usize> {
        self.children.binary_search_by_key(&ChildTuple::key(stype, child), |c| c.key)
    }

    /// Apply a new own reading of `stype` under threshold `delta` (Fig. 1).
    /// Returns `true` when the own tuple was (re)placed — i.e. the reading
    /// escaped the previous interval or there was none (an absent tuple
    /// contains nothing). The reading is never `NaN`: that tuple would read
    /// as absent.
    pub(crate) fn observe_own(&mut self, stype: SensorType, reading: f64, delta: f64) -> bool {
        debug_assert!(!reading.is_nan(), "a NaN reading has no tuple");
        let own = &mut self.slots[stype.index()].own;
        if own.contains(reading) {
            return false;
        }
        *own = RangeEntry::around(reading, delta);
        true
    }

    /// Drop `stype`'s own tuple (sensor removed); returns whether there was
    /// one.
    pub(crate) fn clear_own(&mut self, stype: SensorType) -> bool {
        let own = std::mem::replace(&mut self.slots[stype.index()].own, ABSENT);
        present(own).is_some()
    }

    /// Insert or replace a child's aggregate tuple for `stype`. Returns
    /// `true` if the stored value changed.
    pub(crate) fn set_child(
        &mut self,
        stype: SensorType,
        child: NodeId,
        entry: RangeEntry,
    ) -> bool {
        match self.find(stype, child) {
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
                let key = ChildTuple::key(stype, child);
                self.children.insert(i, ChildTuple { key, min: entry.min, max: entry.max });
                true
            }
        }
    }

    /// Make room for one tuple of every type from each of `children`
    /// children, the list's full size, so a parent's list is allocated
    /// once instead of regrown tuple by tuple (regrowing it left
    /// `run_20k`'s peak RSS about 0.7 MiB higher on a 2-vCPU host).
    pub(crate) fn reserve_children(&mut self, children: usize) {
        let room = children * self.width();
        if self.children.capacity() < room {
            self.children.reserve_exact(room - self.children.len());
        }
    }

    /// Remove a child's tuple for `stype`; returns whether it was present.
    pub(crate) fn remove_child(&mut self, stype: SensorType, child: NodeId) -> bool {
        self.find(stype, child).map(|i| self.children.remove(i)).is_ok()
    }

    /// Record that `entry` was transmitted up the tree for `stype`.
    pub(crate) fn mark_transmitted(&mut self, stype: SensorType, entry: RangeEntry) {
        self.slots[stype.index()].last_tx = entry;
    }

    /// Record that a Retract was transmitted for `stype`: its table is gone
    /// (a Retract is due only once it holds no tuple).
    pub(crate) fn mark_retracted(&mut self, stype: SensorType) {
        self.slots[stype.index()].last_tx = ABSENT;
    }

    /// The slot array's bytes and the child list's capacity in tuples.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize) {
        (std::mem::size_of_val(&*self.slots), self.children.capacity())
    }

    /// Write the table array: its width, then per type a presence flag and
    /// a present table's record ([`RangeTable::snap`]).
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.len_of(self.width());
        for i in 0..self.width() {
            let table = self.table(SensorType(i as u8));
            w.bool(table.is_some());
            if let Some(table) = table {
                table.snap(w);
            }
        }
    }

    /// Rebuild a table array captured by [`RangeTables::snap`] for a catalog
    /// of `width` types. No run writes another width, a tuple that is not a
    /// finite interval (a `NaN` or infinite bound, or `min > max`) or a
    /// present table without a transmitted aggregate, so each is malformed.
    pub(crate) fn restore(r: &mut SnapReader<'_>, width: usize) -> Result<Self, SnapError> {
        let pos = r.position();
        if r.seq_len(1)? != width {
            return Err(SnapError::Malformed { pos, what: "table count off the catalog" });
        }
        let mut tables = RangeTables::new(width);
        for i in 0..width {
            if r.bool()? {
                tables.unsnap_table(r, SensorType(i as u8))?;
            }
        }
        Ok(tables)
    }

    /// Read one table record of [`RangeTable::snap`] into `stype`'s slot
    /// and run; types arrive ascending, so the run is appended.
    fn unsnap_table(&mut self, r: &mut SnapReader<'_>, stype: SensorType) -> Result<(), SnapError> {
        let own = unsnap_entry(r)?;
        let pos = r.position();
        let n = r.seq_len(4)?;
        let ids: Vec<NodeId> = (0..n).map(|_| r.u32().map(NodeId)).collect::<Result<_, _>>()?;
        let mins = r.f64s()?;
        let maxs = r.f64s()?;
        let malformed = |what| Err(SnapError::Malformed { pos, what });
        if mins.len() != n || maxs.len() != n {
            return malformed("range table child arrays disagree in length");
        }
        if !ids.windows(2).all(|p| p[0] < p[1]) {
            return malformed("range table child ids not strictly ascending");
        }
        if !mins.iter().zip(&maxs).all(|(&min, &max)| is_interval(min, max)) {
            return malformed(NOT_AN_INTERVAL);
        }
        let pos = r.position();
        let Some(last_tx) = unsnap_entry(r)? else {
            return Err(SnapError::Malformed {
                pos,
                what: "range table without a transmitted tuple",
            });
        };
        self.slots[stype.index()] = Slot { own: own.unwrap_or(ABSENT), last_tx };
        let tuples = ids.into_iter().zip(mins.into_iter().zip(maxs));
        let tuple = |(id, (min, max))| ChildTuple { key: ChildTuple::key(stype, id), min, max };
        self.children.extend(tuples.map(tuple));
        Ok(())
    }
}

/// The Range Table of one sensor type at one node: a read view of the
/// type's slot and child-tuple run in its node's `RangeTables` store.
#[derive(Clone, Copy, Debug)]
pub struct RangeTable<'a> {
    slot: &'a Slot,
    /// The type's child tuples, ascending by child id.
    children: &'a [ChildTuple],
}

impl<'a> RangeTable<'a> {
    /// This node's own tuple (`None`: the node does not carry the sensor).
    pub fn own(&self) -> Option<RangeEntry> {
        present(self.slot.own)
    }

    /// The aggregate most recently transmitted up the tree
    /// (`prev_min(THmin)`, `prev_max(THmax)` in the paper).
    pub fn last_transmitted(&self) -> Option<RangeEntry> {
        present(self.slot.last_tx)
    }

    /// A child's stored tuple.
    pub fn child_entry(&self, child: NodeId) -> Option<RangeEntry> {
        let i = self.children.binary_search_by_key(&child, ChildTuple::id).ok()?;
        let c = &self.children[i];
        Some(RangeEntry { min: c.min, max: c.max })
    }

    /// Child ids with a stored tuple, ascending.
    pub fn child_ids(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.children.iter().map(ChildTuple::id)
    }

    /// All child tuples in ascending id order.
    pub fn child_entries(&self) -> impl Iterator<Item = (NodeId, RangeEntry)> + 'a {
        self.children.iter().map(|c| (c.id(), RangeEntry { min: c.min, max: c.max }))
    }

    /// Visit every child whose tuple overlaps `[lo, hi]` — DirQ's per-query
    /// routing test — in ascending id order.
    #[inline]
    pub fn for_overlapping_children(&self, lo: f64, hi: f64, mut visit: impl FnMut(NodeId)) {
        for c in self.children {
            if c.min <= hi && c.max >= lo {
                visit(c.id());
            }
        }
    }

    /// Fig. 2: `min(THmin)` / `max(THmax)` over the own tuple and all
    /// child tuples. `None` when the table holds nothing.
    pub fn aggregate(&self) -> Option<RangeEntry> {
        let own = self.own();
        if self.children.is_empty() {
            return own;
        }
        let mut min = f64::INFINITY;
        for c in self.children {
            min = min.min(c.min);
        }
        let mut max = f64::NEG_INFINITY;
        for c in self.children {
            max = max.max(c.max);
        }
        let children = RangeEntry { min, max };
        Some(match own {
            Some(own) => own.hull(&children),
            None => children,
        })
    }

    /// Fig. 3: the Update Message to transmit now, if the aggregate moved
    /// more than `delta` from the previously transmitted aggregate (or was
    /// never transmitted). Does **not** mark it transmitted.
    pub fn pending_update(&self, delta: f64) -> Option<RangeEntry> {
        let agg = self.aggregate()?;
        match self.last_transmitted() {
            None => Some(agg),
            Some(prev) if agg.differs_significantly(&prev, delta) => Some(agg),
            Some(_) => None,
        }
    }

    /// Whether a Retract should be transmitted: the table is empty but an
    /// aggregate was previously advertised.
    pub fn pending_retract(&self) -> bool {
        self.is_empty() && self.last_transmitted().is_some()
    }

    /// Whether the table holds neither an own tuple nor child tuples.
    pub fn is_empty(&self) -> bool {
        self.own().is_none() && self.children.is_empty()
    }

    /// Number of tuples stored (own + children) — the paper's `n + 1`.
    pub fn len(&self) -> usize {
        usize::from(self.own().is_some()) + self.children.len()
    }

    /// Write the table's record to `w`: the own tuple, then the child ids,
    /// mins and maxes as three sequences, then the last transmission.
    pub fn snap(&self, w: &mut SnapWriter) {
        snap_entry(w, self.own());
        w.len_of(self.children.len());
        for c in self.children {
            w.u32(c.id().0);
        }
        w.len_of(self.children.len());
        for c in self.children {
            w.f64(c.min);
        }
        w.len_of(self.children.len());
        for c in self.children {
            w.f64(c.max);
        }
        snap_entry(w, self.last_transmitted());
    }
}

/// What restore reports for a tuple no run holds.
const NOT_AN_INTERVAL: &str = "range tuple not a finite interval";

/// Whether `[min, max]` is a tuple a run can hold: finite bounds in order.
fn is_interval(min: f64, max: f64) -> bool {
    min.is_finite() && max.is_finite() && min <= max
}

fn snap_entry(w: &mut SnapWriter, e: Option<RangeEntry>) {
    w.bool(e.is_some());
    if let Some(e) = e {
        w.f64(e.min);
        w.f64(e.max);
    }
}

/// One tuple of [`snap_entry`]; a present one must be a finite interval.
fn unsnap_entry(r: &mut SnapReader<'_>) -> Result<Option<RangeEntry>, SnapError> {
    if !r.bool()? {
        return Ok(None);
    }
    let pos = r.position();
    let (min, max) = (r.f64()?, r.f64()?);
    if !is_interval(min, max) {
        return Err(SnapError::Malformed { pos, what: NOT_AN_INTERVAL });
    }
    Ok(Some(RangeEntry { min, max }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const T: SensorType = SensorType(0);

    /// A store of two types; the tests drive type 0.
    fn tables() -> RangeTables {
        RangeTables::new(2)
    }

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
        let mut t = tables();
        assert!(t.observe_own(T, 20.0, 1.0)); // first reading always sets
        assert_eq!(t.view(T).own(), Some(RangeEntry { min: 19.0, max: 21.0 }));
        // Readings inside [19, 21] leave the tuple unchanged (paper: only
        // major changes are reflected).
        assert!(!t.observe_own(T, 20.9, 1.0));
        assert!(!t.observe_own(T, 19.1, 1.0));
        assert_eq!(t.view(T).own(), Some(RangeEntry { min: 19.0, max: 21.0 }));
        // Escape re-centres the tuple.
        assert!(t.observe_own(T, 22.0, 1.0));
        assert_eq!(t.view(T).own(), Some(RangeEntry { min: 21.0, max: 23.0 }));
    }

    #[test]
    fn aggregate_spans_own_and_children() {
        let mut t = tables();
        t.observe_own(T, 20.0, 1.0); // [19, 21]
        t.set_child(T, NodeId(2), RangeEntry { min: 15.0, max: 18.0 });
        t.set_child(T, NodeId(3), RangeEntry { min: 22.0, max: 30.0 });
        assert_eq!(t.view(T).aggregate(), Some(RangeEntry { min: 15.0, max: 30.0 }));
        assert_eq!(t.view(T).len(), 3);
    }

    #[test]
    fn first_aggregate_is_always_pending() {
        let mut t = tables();
        assert_eq!(t.view(T).pending_update(1.0), None, "empty table has nothing to send");
        t.observe_own(T, 20.0, 1.0);
        assert_eq!(t.view(T).pending_update(1.0), Some(RangeEntry { min: 19.0, max: 21.0 }));
    }

    #[test]
    fn update_fires_only_beyond_delta() {
        let mut t = tables();
        t.observe_own(T, 20.0, 1.0);
        let agg = t.view(T).pending_update(1.0).unwrap();
        t.mark_transmitted(T, agg);
        assert_eq!(t.view(T).pending_update(1.0), None);
        // Move min/max by exactly delta: NOT significant (strict >).
        t.set_child(T, NodeId(1), RangeEntry { min: 18.0, max: 21.0 }); // min 19→18 (Δ=1)
        assert_eq!(t.view(T).pending_update(1.0), None);
        // Move beyond delta.
        t.set_child(T, NodeId(1), RangeEntry { min: 17.9, max: 21.0 });
        assert_eq!(t.view(T).pending_update(1.0), Some(RangeEntry { min: 17.9, max: 21.0 }));
    }

    #[test]
    fn shrinking_aggregate_also_triggers() {
        let mut t = tables();
        t.set_child(T, NodeId(1), RangeEntry { min: 0.0, max: 50.0 });
        t.mark_transmitted(T, t.view(T).aggregate().unwrap());
        // Child range collapses: min rises by 30 > delta.
        t.set_child(T, NodeId(1), RangeEntry { min: 30.0, max: 50.0 });
        assert!(t.view(T).pending_update(2.0).is_some());
    }

    /// A table is present from its first transmitted aggregate until its
    /// Retract is marked, and the slot reads absent again afterwards.
    #[test]
    fn retract_lifecycle() {
        let mut t = tables();
        t.set_child(T, NodeId(4), RangeEntry { min: 1.0, max: 2.0 });
        assert!(t.table(T).is_none(), "nothing transmitted yet");
        t.mark_transmitted(T, t.view(T).aggregate().unwrap());
        assert!(t.table(T).is_some());
        assert_eq!(t.types().collect::<Vec<_>>(), vec![T]);
        assert!(!t.view(T).pending_retract());
        t.remove_child(T, NodeId(4));
        assert!(t.view(T).is_empty());
        assert!(t.view(T).pending_retract());
        t.mark_retracted(T);
        assert!(!t.view(T).pending_retract());
        assert_eq!(t.view(T).pending_update(1.0), None);
        assert!(t.table(T).is_none());
        assert_eq!(t.types().count(), 0);
    }

    #[test]
    fn child_crud() {
        let mut t = tables();
        assert!(t.set_child(T, NodeId(5), RangeEntry { min: 1.0, max: 2.0 }));
        assert!(!t.set_child(T, NodeId(5), RangeEntry { min: 1.0, max: 2.0 }), "no-op set");
        assert!(t.set_child(T, NodeId(5), RangeEntry { min: 1.0, max: 3.0 }));
        assert!(t.view(T).child_entry(NodeId(5)).unwrap().max == 3.0);
        assert!(t.remove_child(T, NodeId(5)));
        assert!(!t.remove_child(T, NodeId(5)));
        assert_eq!(t.view(T).child_entry(NodeId(5)), None);
    }

    #[test]
    fn clear_own_leaves_children() {
        let mut t = tables();
        t.observe_own(T, 10.0, 1.0);
        t.set_child(T, NodeId(1), RangeEntry { min: 0.0, max: 1.0 });
        assert!(t.clear_own(T));
        assert!(!t.clear_own(T));
        assert_eq!(t.view(T).aggregate(), Some(RangeEntry { min: 0.0, max: 1.0 }));
    }

    #[test]
    fn overlap_sweep_visits_ascending() {
        let mut t = tables();
        t.set_child(T, NodeId(9), RangeEntry { min: 0.0, max: 10.0 });
        t.set_child(T, NodeId(2), RangeEntry { min: 5.0, max: 15.0 });
        t.set_child(T, NodeId(5), RangeEntry { min: 50.0, max: 60.0 });
        let mut hit = Vec::new();
        t.view(T).for_overlapping_children(8.0, 20.0, |c| hit.push(c));
        assert_eq!(hit, vec![NodeId(2), NodeId(9)]);
    }

    /// The types' child tuples share one list but never each other's
    /// aggregates, lookups or sweeps.
    #[test]
    fn types_keep_separate_runs() {
        let mut t = RangeTables::new(3);
        let (a, b, c) = (SensorType(0), SensorType(1), SensorType(2));
        t.set_child(c, NodeId(1), RangeEntry { min: 100.0, max: 101.0 });
        t.set_child(a, NodeId(7), RangeEntry { min: 0.0, max: 1.0 });
        t.set_child(c, NodeId(9), RangeEntry { min: 90.0, max: 95.0 });
        t.set_child(a, NodeId(3), RangeEntry { min: 2.0, max: 3.0 });
        assert_eq!(t.view(a).child_ids().collect::<Vec<_>>(), vec![NodeId(3), NodeId(7)]);
        assert!(t.view(b).is_empty());
        assert_eq!(t.view(c).aggregate(), Some(RangeEntry { min: 90.0, max: 101.0 }));
        assert_eq!(t.view(a).child_entry(NodeId(9)), None);
        let mut hit = Vec::new();
        t.view(c).for_overlapping_children(0.0, 100.0, |id| hit.push(id));
        assert_eq!(hit, vec![NodeId(1), NodeId(9)]);
        assert!(t.remove_child(a, NodeId(3)) && !t.remove_child(b, NodeId(7)));
        let all: Vec<NodeId> = t.child_ids().collect();
        assert_eq!(all, vec![NodeId(7), NodeId(1), NodeId(9)], "(type, id) order");
    }

    proptest! {
        /// The aggregate always contains every stored tuple.
        #[test]
        fn prop_aggregate_is_hull(
            own in proptest::option::of((-100.0f64..100.0, 0.0f64..5.0)),
            children in proptest::collection::vec((0u32..20, -100.0f64..100.0, 0.0f64..10.0), 0..10),
        ) {
            let mut t = tables();
            if let Some((r, d)) = own {
                t.observe_own(T, r, d);
            }
            for (id, lo, w) in &children {
                t.set_child(T, NodeId(*id), RangeEntry { min: *lo, max: lo + w });
            }
            let view = t.view(T);
            if let Some(agg) = view.aggregate() {
                if let Some(o) = view.own() {
                    prop_assert!(agg.min <= o.min && agg.max >= o.max);
                }
                for (_, e) in view.child_entries() {
                    prop_assert!(agg.min <= e.min && agg.max >= e.max);
                }
            } else {
                prop_assert!(view.is_empty());
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
            let mut t = tables();
            t.set_child(T, NodeId(1), RangeEntry { min: base, max: base + 10.0 });
            t.mark_transmitted(T, t.view(T).aggregate().unwrap());
            t.set_child(T, NodeId(1), RangeEntry { min: base + shift, max: base + 10.0 + shift });
            let expect_fire = shift.abs() > delta;
            prop_assert_eq!(t.view(T).pending_update(delta).is_some(), expect_fire);
        }

        /// Own-tuple escape semantics: after observing r, observing any r'
        /// within ±delta never replaces the tuple.
        #[test]
        fn prop_no_replacement_within_delta(
            r in -100.0f64..100.0,
            offset in -1.0f64..1.0,
            delta in 0.5f64..5.0,
        ) {
            let mut t = tables();
            t.observe_own(T, r, delta);
            let inside = r + offset * delta; // |offset| <= 1 ⇒ inside window
            prop_assert!(!t.observe_own(T, inside, delta));
        }
    }
}

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
//! A node's tables live in two places. Its own tuple and its
//! last-transmitted aggregate of each catalog type are its row of the
//! engine's sensing plane ([`Row`], [`RowMut`]): the own tuple is the
//! bounds of the type's sensor cell, which the sampling pass tests every
//! reading against, and the transmitted aggregate sits in a parallel
//! array the pass never reads; `NaN` marks either absent. The child tuples
//! of every type sit in the node's one `RangeTables` list ordered by
//! (type, child id), so a type's children are one contiguous run and a
//! leaf owns no list at all. A table is present exactly while its
//! last-transmitted tuple is: the node flushes every change it makes,
//! which marks a non-empty aggregate transmitted, and drops a table only
//! by marking its Retract. [`RangeTable`] is the read view of one type's
//! two tuples and run. A node driven outside an engine keeps its row in a
//! [`RowBuf`].
//!
//! The aggregate recomputation and the per-query child-overlap test both
//! visit a run in ascending id order, so merge order and emitted child
//! lists are bit-identical to any earlier layout.

use std::ops::Range;

use dirq_data::SensorType;
use dirq_net::NodeId;
use dirq_sim::{SnapError, SnapReader, SnapSink, SnapWriter};

use crate::engine::sensing::SensorCell;

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

/// The absent tuple.
pub(crate) const ABSENT: RangeEntry = RangeEntry { min: f64::NAN, max: f64::NAN };

/// `entry`, unless it is [`ABSENT`].
#[inline]
fn present(entry: RangeEntry) -> Option<RangeEntry> {
    (!entry.min.is_nan()).then_some(entry)
}

/// A node's row of the sensing plane, read-only: per catalog type, indexed
/// by [`SensorType::index`], its own tuple (the bounds of the type's
/// sensor cell) and the aggregate it last transmitted.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    pub(crate) cells: &'a [SensorCell],
    sent: &'a [RangeEntry],
}

impl<'a> Row<'a> {
    /// The row of `cells` and `sent`, one of each per catalog type.
    #[inline]
    pub(crate) fn new(cells: &'a [SensorCell], sent: &'a [RangeEntry]) -> Self {
        debug_assert_eq!(cells.len(), sent.len(), "one sent tuple per cell");
        Row { cells, sent }
    }

    /// Catalog types.
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    /// Types with a present table, ascending.
    pub fn table_types(self) -> impl Iterator<Item = SensorType> + 'a {
        let sent = self.sent;
        (0..sent.len()).filter(move |&i| present(sent[i]).is_some()).map(|i| SensorType(i as u8))
    }

    /// `stype`'s own tuple ([`ABSENT`] while the node has none).
    #[inline]
    fn own(&self, stype: SensorType) -> RangeEntry {
        let cell = &self.cells[stype.index()];
        RangeEntry { min: cell.lo, max: cell.hi }
    }
}

/// A node's row of the sensing plane ([`Row`]), mutable: what each
/// protocol handler that writes a tuple takes.
#[derive(Debug)]
pub struct RowMut<'a> {
    pub(crate) cells: &'a mut [SensorCell],
    sent: &'a mut [RangeEntry],
}

impl<'a> RowMut<'a> {
    /// The row of `cells` and `sent`, one of each per catalog type.
    #[inline]
    pub(crate) fn new(cells: &'a mut [SensorCell], sent: &'a mut [RangeEntry]) -> Self {
        debug_assert_eq!(cells.len(), sent.len(), "one sent tuple per cell");
        RowMut { cells, sent }
    }

    /// Catalog types.
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    /// The read-only view.
    #[inline]
    pub fn as_row(&self) -> Row<'_> {
        Row { cells: self.cells, sent: self.sent }
    }

    /// Apply a new own reading of `stype` under threshold `delta` (Fig. 1).
    /// Returns `true` when the own tuple was (re)placed — i.e. the reading
    /// escaped the previous interval or there was none (an absent tuple
    /// contains nothing). The reading is never `NaN`: that tuple would read
    /// as absent.
    pub(crate) fn observe_own(&mut self, stype: SensorType, reading: f64, delta: f64) -> bool {
        debug_assert!(!reading.is_nan(), "a NaN reading has no tuple");
        if self.as_row().own(stype).contains(reading) {
            return false;
        }
        self.set_own(stype, RangeEntry::around(reading, delta));
        true
    }

    /// Drop `stype`'s own tuple (sensor removed); returns whether there was
    /// one.
    pub(crate) fn clear_own(&mut self, stype: SensorType) -> bool {
        let had = present(self.as_row().own(stype)).is_some();
        self.set_own(stype, ABSENT);
        had
    }

    /// Record that `entry` was transmitted up the tree for `stype`.
    pub(crate) fn mark_transmitted(&mut self, stype: SensorType, entry: RangeEntry) {
        self.sent[stype.index()] = entry;
    }

    /// Record that a Retract was transmitted for `stype`: its table is gone
    /// (a Retract is due only once it holds no tuple).
    pub(crate) fn mark_retracted(&mut self, stype: SensorType) {
        self.sent[stype.index()] = ABSENT;
    }

    fn set_own(&mut self, stype: SensorType, own: RangeEntry) {
        let cell = &mut self.cells[stype.index()];
        (cell.lo, cell.hi) = (own.min, own.max);
    }
}

/// A row of its own, for a node driven outside an engine (tests and
/// reference models): no tuple, until its node's handlers write one.
#[derive(Clone, Debug)]
pub struct RowBuf {
    cells: Box<[SensorCell]>,
    sent: Box<[RangeEntry]>,
}

impl RowBuf {
    /// An empty row for a catalog of `width` types.
    pub fn new(width: usize) -> Self {
        RowBuf { cells: vec![SensorCell::EMPTY; width].into(), sent: vec![ABSENT; width].into() }
    }

    /// The read-only view.
    pub fn row(&self) -> Row<'_> {
        Row::new(&self.cells, &self.sent)
    }

    /// The mutable view.
    pub fn row_mut(&mut self) -> RowMut<'_> {
        RowMut::new(&mut self.cells, &mut self.sent)
    }
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

/// A node's child tuples, the one list of the module's layout; with the
/// node's row they are its Range Tables. The node's handlers mutate both
/// and flush every change; everything else reads [`RangeTable`] views.
#[derive(Clone, Debug, Default)]
pub(crate) struct RangeTables {
    /// Every child tuple, ascending by (type, child id).
    children: Vec<ChildTuple>,
}

impl RangeTables {
    /// The table for `stype` over `row`, if present (never for a type
    /// outside the catalog).
    #[inline]
    pub(crate) fn table(&self, row: Row<'_>, stype: SensorType) -> Option<RangeTable<'_>> {
        let sent = *row.sent.get(stype.index())?;
        present(sent)?;
        Some(RangeTable { own: row.own(stype), sent, children: &self.children[self.run(stype)] })
    }

    /// `stype`'s tuples and run whether or not the table is present yet:
    /// the flush after a table's first tuple reads it before marking it
    /// transmitted.
    #[inline]
    pub(crate) fn view(&self, row: Row<'_>, stype: SensorType) -> RangeTable<'_> {
        let children = &self.children[self.run(stype)];
        RangeTable { own: row.own(stype), sent: row.sent[stype.index()], children }
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

    /// Make room for one tuple of each of `width` types from each of
    /// `children` children, the list's full size, so a parent's list is
    /// allocated once instead of regrown tuple by tuple (regrowing it left
    /// `run_20k`'s peak RSS about 0.7 MiB higher on a 2-vCPU host).
    pub(crate) fn reserve_children(&mut self, children: usize, width: usize) {
        let room = children * width;
        if self.children.capacity() < room {
            self.children.reserve_exact(room - self.children.len());
        }
    }

    /// Remove a child's tuple for `stype`; returns whether it was present.
    pub(crate) fn remove_child(&mut self, stype: SensorType, child: NodeId) -> bool {
        self.find(stype, child).map(|i| self.children.remove(i)).is_ok()
    }

    /// The child list's heap bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.children.capacity() * std::mem::size_of::<ChildTuple>()
    }

    /// Write the table array over `row`: per catalog type a presence flag
    /// and a present table's record ([`RangeTable::snap`]).
    pub(crate) fn snap(&self, w: &mut SnapWriter<impl SnapSink>, row: Row<'_>) {
        for i in 0..row.width() {
            let table = self.table(row, SensorType(i as u8));
            w.bool(table.is_some());
            if let Some(table) = table {
                table.snap(w);
            }
        }
    }

    /// Rebuild a table array captured by [`RangeTables::snap`], writing its
    /// tuples straight into `row` and returning the child list. No run
    /// writes a tuple that is not a finite interval (a `NaN` or infinite
    /// bound, or `min > max`), a present table without a transmitted
    /// aggregate or an own tuple of a type outside `carried` (the node's
    /// carried-type mask: removing a sensor drops its tuple), so each is
    /// malformed.
    pub(crate) fn restore(
        r: &mut SnapReader<'_>,
        row: &mut RowMut<'_>,
        carried: u64,
    ) -> Result<Self, SnapError> {
        let mut tables = RangeTables::default();
        for i in 0..row.width() {
            let stype = SensorType(i as u8);
            row.set_own(stype, ABSENT);
            row.mark_retracted(stype);
            if r.bool()? {
                let carries = carried >> i & 1 == 1;
                tables.unsnap_table(r, row, stype, carries)?;
            }
        }
        Ok(tables)
    }

    /// Read one table record of [`RangeTable::snap`] into `stype`'s tuples
    /// in `row` and its run; types arrive ascending, so the run is
    /// appended.
    fn unsnap_table(
        &mut self,
        r: &mut SnapReader<'_>,
        row: &mut RowMut<'_>,
        stype: SensorType,
        carries: bool,
    ) -> Result<(), SnapError> {
        let pos = r.position();
        let own = unsnap_entry(r)?;
        if own.is_some() && !carries {
            return Err(SnapError::Malformed {
                pos,
                what: "own tuple of a type the node does not carry",
            });
        }
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
        let Some(sent) = unsnap_entry(r)? else {
            return Err(SnapError::Malformed {
                pos,
                what: "range table without a transmitted tuple",
            });
        };
        row.set_own(stype, own.unwrap_or(ABSENT));
        row.mark_transmitted(stype, sent);
        let tuples = ids.into_iter().zip(mins.into_iter().zip(maxs));
        let tuple = |(id, (min, max))| ChildTuple { key: ChildTuple::key(stype, id), min, max };
        self.children.extend(tuples.map(tuple));
        Ok(())
    }
}

/// The Range Table of one sensor type at one node: a read view of the
/// type's two tuples in the node's row and its child-tuple run.
#[derive(Clone, Copy, Debug)]
pub struct RangeTable<'a> {
    /// The own tuple ([`ABSENT`] without one).
    own: RangeEntry,
    /// The last-transmitted aggregate ([`ABSENT`] before the first).
    sent: RangeEntry,
    /// The type's child tuples, ascending by child id.
    children: &'a [ChildTuple],
}

impl<'a> RangeTable<'a> {
    /// This node's own tuple (`None`: the node does not carry the sensor).
    pub fn own(&self) -> Option<RangeEntry> {
        present(self.own)
    }

    /// The aggregate most recently transmitted up the tree
    /// (`prev_min(THmin)`, `prev_max(THmax)` in the paper).
    pub fn last_transmitted(&self) -> Option<RangeEntry> {
        present(self.sent)
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
    pub fn snap(&self, w: &mut SnapWriter<impl SnapSink>) {
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

fn snap_entry(w: &mut SnapWriter<impl SnapSink>, e: Option<RangeEntry>) {
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

    /// A node's tables over a row of its own: the child list and the
    /// row's tuples, driven through the calls its handlers make.
    struct Tables {
        list: RangeTables,
        row: RowBuf,
    }

    impl Tables {
        fn new(width: usize) -> Self {
            Tables { list: RangeTables::default(), row: RowBuf::new(width) }
        }

        fn observe_own(&mut self, stype: SensorType, reading: f64, delta: f64) -> bool {
            self.row.row_mut().observe_own(stype, reading, delta)
        }

        fn clear_own(&mut self, stype: SensorType) -> bool {
            self.row.row_mut().clear_own(stype)
        }

        fn mark_transmitted(&mut self, stype: SensorType, entry: RangeEntry) {
            self.row.row_mut().mark_transmitted(stype, entry);
        }

        fn mark_retracted(&mut self, stype: SensorType) {
            self.row.row_mut().mark_retracted(stype);
        }

        fn set_child(&mut self, stype: SensorType, child: NodeId, entry: RangeEntry) -> bool {
            self.list.set_child(stype, child, entry)
        }

        fn remove_child(&mut self, stype: SensorType, child: NodeId) -> bool {
            self.list.remove_child(stype, child)
        }

        fn child_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.list.child_ids()
        }

        fn table(&self, stype: SensorType) -> Option<RangeTable<'_>> {
            self.list.table(self.row.row(), stype)
        }

        fn view(&self, stype: SensorType) -> RangeTable<'_> {
            self.list.view(self.row.row(), stype)
        }

        fn types(&self) -> impl Iterator<Item = SensorType> + '_ {
            self.row.row().table_types()
        }
    }

    /// A store of two types; the tests drive type 0.
    fn tables() -> Tables {
        Tables::new(2)
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
        let mut t = Tables::new(3);
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

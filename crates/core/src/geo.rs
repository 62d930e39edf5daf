//! The location extension — the paper's *static attribute* routing.
//!
//! Section 2: "queries can be directed based on a combination of static
//! and dynamic attributes, e.g. sensor values (dynamic), sensor types
//! (static) and even location (static) if it is available … location
//! information is not essential for the operation of DirQ. Having location
//! information would of course extend the capabilities of DirQ."
//!
//! When nodes know their own positions, each advertises the **bounding
//! box** of its subtree's positions up the tree, exactly like the value
//! Range Tables — except that positions are static, so there is no
//! threshold machinery: the box changes only on topology changes (attach /
//! child loss) and the new hull is advertised immediately. Spatially
//! scoped queries are then pruned per-child by rectangle intersection, on
//! top of the usual value-range overlap test.

use dirq_net::{NodeId, Position, Rect};

/// Per-node spatial aggregation state (the location analogue of a
/// [`crate::range_table::RangeTable`]).
#[derive(Clone, Debug, Default)]
pub struct GeoTable {
    /// This node's own position, if localisation is available.
    own: Option<Position>,
    /// Advertised subtree bounding boxes of the one-hop children.
    children: Vec<(NodeId, Rect)>,
    /// The hull most recently advertised to the parent.
    last_tx: Option<Rect>,
}

impl GeoTable {
    /// Empty table (no localisation).
    pub const fn new() -> Self {
        GeoTable { own: None, children: Vec::new(), last_tx: None }
    }

    /// Whether the table holds no position, no child box and no advert.
    pub fn is_empty(&self) -> bool {
        self.own.is_none() && self.children.is_empty() && self.last_tx.is_none()
    }

    /// Set this node's own (static) position.
    pub fn set_own(&mut self, pos: Position) {
        self.own = Some(pos);
    }

    /// This node's position.
    pub fn own(&self) -> Option<Position> {
        self.own
    }

    /// Store a child's advertised bounding box; returns whether the stored
    /// value changed.
    pub fn set_child(&mut self, child: NodeId, rect: Rect) -> bool {
        match self.children.binary_search_by_key(&child, |e| e.0) {
            Ok(i) => {
                if self.children[i].1 == rect {
                    false
                } else {
                    self.children[i].1 = rect;
                    true
                }
            }
            Err(i) => {
                self.children.insert(i, (child, rect));
                true
            }
        }
    }

    /// Remove a child's box; returns whether it was present.
    pub fn remove_child(&mut self, child: NodeId) -> bool {
        match self.children.binary_search_by_key(&child, |e| e.0) {
            Ok(i) => {
                self.children.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// A child's advertised box.
    pub fn child_rect(&self, child: NodeId) -> Option<&Rect> {
        self.children.binary_search_by_key(&child, |e| e.0).ok().map(|i| &self.children[i].1)
    }

    /// All child boxes, sorted by child id.
    pub fn children(&self) -> &[(NodeId, Rect)] {
        &self.children
    }

    /// The child list's heap bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.children.capacity() * std::mem::size_of::<(NodeId, Rect)>()
    }

    /// Hull of the own position and every child box — the subtree's
    /// bounding box.
    pub fn aggregate(&self) -> Option<Rect> {
        let mut agg: Option<Rect> = self.own.map(Rect::point);
        for (_, r) in &self.children {
            agg = Some(match agg {
                Some(a) => a.hull(r),
                None => *r,
            });
        }
        agg
    }

    /// The hull to advertise now, if it differs from the last advertised
    /// one (positions are static ⇒ exact comparison, no threshold).
    pub fn pending_advert(&self) -> Option<Rect> {
        let agg = self.aggregate()?;
        match &self.last_tx {
            Some(prev) if *prev == agg => None,
            _ => Some(agg),
        }
    }

    /// Record that `rect` was advertised to the parent.
    pub fn mark_advertised(&mut self, rect: Rect) {
        self.last_tx = Some(rect);
    }

    /// Write the full table state to `w`.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter<impl dirq_sim::SnapSink>) {
        w.bool(self.own.is_some());
        if let Some(p) = self.own {
            p.snap(w);
        }
        w.len_of(self.children.len());
        for (id, rect) in &self.children {
            w.u32(id.0);
            rect.snap(w);
        }
        w.bool(self.last_tx.is_some());
        if let Some(rect) = &self.last_tx {
            rect.snap(w);
        }
    }

    /// Rebuild a table captured by [`GeoTable::snap`].
    pub fn unsnap(r: &mut dirq_sim::SnapReader<'_>) -> Result<Self, dirq_sim::SnapError> {
        let own = if r.bool()? { Some(Position::unsnap(r)?) } else { None };
        let pos = r.position();
        let n = r.seq_len(4 + 32)?;
        let mut children = Vec::with_capacity(n);
        for _ in 0..n {
            children.push((NodeId(r.u32()?), Rect::unsnap(r)?));
        }
        if !children.windows(2).all(|p| p[0].0 < p[1].0) {
            return Err(dirq_sim::SnapError::Malformed {
                pos,
                what: "geo table child ids not strictly ascending",
            });
        }
        let last_tx = if r.bool()? { Some(Rect::unsnap(r)?) } else { None };
        Ok(GeoTable { own, children, last_tx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Position {
        Position::new(x, y)
    }

    #[test]
    fn aggregate_is_hull_of_own_and_children() {
        let mut t = GeoTable::new();
        t.set_own(p(10.0, 10.0));
        t.set_child(NodeId(1), Rect::new(p(0.0, 0.0), p(5.0, 5.0)));
        t.set_child(NodeId(2), Rect::point(p(20.0, 3.0)));
        let agg = t.aggregate().unwrap();
        assert_eq!(agg, Rect { x_min: 0.0, y_min: 0.0, x_max: 20.0, y_max: 10.0 });
    }

    #[test]
    fn advert_fires_only_on_change() {
        let mut t = GeoTable::new();
        t.set_own(p(1.0, 1.0));
        let a = t.pending_advert().unwrap();
        t.mark_advertised(a);
        assert_eq!(t.pending_advert(), None);
        // Same child box twice: only the first is a change.
        assert!(t.set_child(NodeId(3), Rect::point(p(2.0, 2.0))));
        assert!(!t.set_child(NodeId(3), Rect::point(p(2.0, 2.0))));
        let b = t.pending_advert().unwrap();
        assert!(b.contains(&p(2.0, 2.0)));
        t.mark_advertised(b);
        assert_eq!(t.pending_advert(), None);
    }

    #[test]
    fn child_removal_shrinks_hull() {
        let mut t = GeoTable::new();
        t.set_own(p(1.0, 1.0));
        t.set_child(NodeId(5), Rect::point(p(100.0, 100.0)));
        t.mark_advertised(t.aggregate().unwrap());
        assert!(t.remove_child(NodeId(5)));
        let shrunk = t.pending_advert().unwrap();
        assert_eq!(shrunk, Rect::point(p(1.0, 1.0)));
        assert!(!t.remove_child(NodeId(5)));
    }

    #[test]
    fn empty_table_has_nothing_to_advertise() {
        let t = GeoTable::new();
        assert_eq!(t.aggregate(), None);
        assert_eq!(t.pending_advert(), None);
    }

    #[test]
    fn forwarder_without_own_position_still_aggregates() {
        // A node may relay location info even if it is not localised
        // itself.
        let mut t = GeoTable::new();
        t.set_child(NodeId(1), Rect::point(p(3.0, 4.0)));
        assert_eq!(t.aggregate(), Some(Rect::point(p(3.0, 4.0))));
    }
}

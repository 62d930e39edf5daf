//! 2-D geometry for node deployment.

/// A point in the deployment plane, in metres.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Position {
    /// Easting, metres.
    pub x: f64,
    /// Northing, metres.
    pub y: f64,
}

impl Position {
    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Position) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the sqrt for threshold tests).
    #[inline]
    pub fn distance_sq(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise midpoint.
    pub fn midpoint(&self, other: &Position) -> Position {
        Position::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Write both coordinates to `w` by bit pattern.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter<impl dirq_sim::SnapSink>) {
        w.f64(self.x);
        w.f64(self.y);
    }

    /// Rebuild a position captured by [`Position::snap`].
    pub fn unsnap(r: &mut dirq_sim::SnapReader<'_>) -> Result<Self, dirq_sim::SnapError> {
        Ok(Position { x: r.f64()?, y: r.f64()? })
    }
}

/// An axis-aligned rectangle (bounding box) in the deployment plane.
///
/// Used by the location extension: nodes advertise the bounding box of
/// their subtree's positions so spatially scoped queries can be pruned the
/// same way value ranges prune value queries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Smallest x.
    pub x_min: f64,
    /// Smallest y.
    pub y_min: f64,
    /// Largest x.
    pub x_max: f64,
    /// Largest y.
    pub y_max: f64,
}

impl Rect {
    /// Rectangle from two corners (any orientation).
    pub fn new(a: Position, b: Position) -> Self {
        Rect { x_min: a.x.min(b.x), y_min: a.y.min(b.y), x_max: a.x.max(b.x), y_max: a.y.max(b.y) }
    }

    /// Degenerate rectangle containing exactly one point.
    pub fn point(p: Position) -> Self {
        Rect { x_min: p.x, y_min: p.y, x_max: p.x, y_max: p.y }
    }

    /// Square of side `2·half` centred on `c`.
    pub fn centered(c: Position, half: f64) -> Self {
        debug_assert!(half >= 0.0, "half-extent must be non-negative");
        Rect { x_min: c.x - half, y_min: c.y - half, x_max: c.x + half, y_max: c.y + half }
    }

    /// Whether `p` lies inside (inclusive).
    #[inline]
    pub fn contains(&self, p: &Position) -> bool {
        p.x >= self.x_min && p.x <= self.x_max && p.y >= self.y_min && p.y <= self.y_max
    }

    /// Whether the two rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x_min <= other.x_max
            && self.x_max >= other.x_min
            && self.y_min <= other.y_max
            && self.y_max >= other.y_min
    }

    /// Smallest rectangle containing both.
    pub fn hull(&self, other: &Rect) -> Rect {
        Rect {
            x_min: self.x_min.min(other.x_min),
            y_min: self.y_min.min(other.y_min),
            x_max: self.x_max.max(other.x_max),
            y_max: self.y_max.max(other.y_max),
        }
    }

    /// Width × height.
    pub fn area(&self) -> f64 {
        (self.x_max - self.x_min).max(0.0) * (self.y_max - self.y_min).max(0.0)
    }

    /// Write the four bounds to `w` by bit pattern.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter<impl dirq_sim::SnapSink>) {
        w.f64(self.x_min);
        w.f64(self.y_min);
        w.f64(self.x_max);
        w.f64(self.y_max);
    }

    /// Rebuild a rectangle captured by [`Rect::snap`].
    pub fn unsnap(r: &mut dirq_sim::SnapReader<'_>) -> Result<Self, dirq_sim::SnapError> {
        Ok(Rect { x_min: r.f64()?, y_min: r.f64()?, x_max: r.f64()?, y_max: r.f64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pythagorean_distance() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Position::new(2.0, 2.0);
        let b = Position::new(4.0, 6.0);
        assert_eq!(a.midpoint(&b), Position::new(3.0, 4.0));
    }

    #[test]
    fn rect_normalises_corners() {
        let r = Rect::new(Position::new(5.0, 1.0), Position::new(2.0, 4.0));
        assert_eq!(r, Rect { x_min: 2.0, y_min: 1.0, x_max: 5.0, y_max: 4.0 });
        assert_eq!(r.area(), 9.0);
    }

    #[test]
    fn rect_contains_boundary_inclusive() {
        let r = Rect::centered(Position::new(0.0, 0.0), 1.0);
        assert!(r.contains(&Position::new(1.0, 1.0)));
        assert!(r.contains(&Position::new(0.0, 0.0)));
        assert!(!r.contains(&Position::new(1.0001, 0.0)));
    }

    #[test]
    fn rect_intersections() {
        let a = Rect::new(Position::new(0.0, 0.0), Position::new(2.0, 2.0));
        let b = Rect::new(Position::new(2.0, 2.0), Position::new(3.0, 3.0)); // corner touch
        let c = Rect::new(Position::new(2.1, 2.1), Position::new(3.0, 3.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn rect_hull_and_point() {
        let a = Rect::point(Position::new(1.0, 1.0));
        assert_eq!(a.area(), 0.0);
        let h = a.hull(&Rect::point(Position::new(4.0, -1.0)));
        assert_eq!(h, Rect { x_min: 1.0, y_min: -1.0, x_max: 4.0, y_max: 1.0 });
        assert!(h.contains(&Position::new(2.0, 0.0)));
    }

    proptest! {
        /// Hull contains both inputs; intersection is symmetric.
        #[test]
        fn prop_rect_hull_contains(
            ax in -100.0f64..100.0, ay in -100.0f64..100.0,
            bx in -100.0f64..100.0, by in -100.0f64..100.0,
            cx in -100.0f64..100.0, cy in -100.0f64..100.0,
        ) {
            let a = Rect::new(Position::new(ax, ay), Position::new(bx, by));
            let b = Rect::point(Position::new(cx, cy));
            let h = a.hull(&b);
            prop_assert!(h.contains(&Position::new(cx, cy)));
            prop_assert!(h.contains(&Position::new(ax, ay)));
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
            prop_assert!(h.area() >= a.area());
        }

        /// Distance is symmetric, non-negative, zero iff identical points.
        #[test]
        fn prop_metric_axioms(
            ax in -1e4f64..1e4, ay in -1e4f64..1e4,
            bx in -1e4f64..1e4, by in -1e4f64..1e4,
        ) {
            let a = Position::new(ax, ay);
            let b = Position::new(bx, by);
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
            prop_assert!(a.distance(&b) >= 0.0);
            prop_assert!((a.distance(&a)).abs() < 1e-12);
        }

        /// Triangle inequality.
        #[test]
        fn prop_triangle_inequality(
            ax in -1e3f64..1e3, ay in -1e3f64..1e3,
            bx in -1e3f64..1e3, by in -1e3f64..1e3,
            cx in -1e3f64..1e3, cy in -1e3f64..1e3,
        ) {
            let a = Position::new(ax, ay);
            let b = Position::new(bx, by);
            let c = Position::new(cx, cy);
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
        }
    }
}

//! Node deployment strategies.
//!
//! The paper's environmental-monitoring scenario deploys nodes over a
//! forest. We support the three standard WSN layouts; experiments default
//! to uniform random placement with the sink pinned to a corner, which
//! yields the deep, irregular trees the paper's tree bounds (k ≤ 8,
//! d ≤ 10) suggest.

use dirq_sim::SimRng;
use rand::Rng;

use crate::geometry::Position;

/// How the sink (node 0) is positioned relative to the field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkPlacement {
    /// Sink at the field's corner (origin) — deep trees, the default.
    Corner,
    /// Sink at the centre — shallow trees.
    Center,
}

/// Deterministic positions for `count` secondary sinks spread over a
/// `bounds` rectangle: the far corner first, then the remaining corners,
/// the centre and the edge midpoints. With the primary sink at the origin
/// corner this maximises pairwise sink spacing for small counts.
///
/// Consumes no randomness, so repositioning nodes onto these sites never
/// perturbs the deployment's RNG stream.
///
/// # Panics
/// Panics when more than eight sites are requested.
pub fn extra_sink_sites(bounds: (f64, f64), count: usize) -> Vec<Position> {
    let (bx, by) = bounds;
    let sites = [
        (bx, by),
        (bx, 0.0),
        (0.0, by),
        (bx / 2.0, by / 2.0),
        (bx / 2.0, by),
        (bx / 2.0, 0.0),
        (0.0, by / 2.0),
        (bx, by / 2.0),
    ];
    assert!(count <= sites.len(), "at most {} extra sinks supported", sites.len());
    sites[..count].iter().map(|&(x, y)| Position::new(x, y)).collect()
}

/// A deployment strategy.
#[derive(Clone, Debug)]
pub enum Placement {
    /// Independently uniform positions in a `side × side` square.
    UniformRandom {
        /// Side length of the deployment square, metres.
        side: f64,
    },
    /// A √n × √n grid filling a `side × side` square, each point jittered
    /// uniformly by ±`jitter` in both axes.
    JitteredGrid {
        /// Side length of the deployment square, metres.
        side: f64,
        /// Maximum absolute jitter per axis, metres.
        jitter: f64,
    },
    /// `clusters` Gaussian blobs with standard deviation `spread`, centred
    /// uniformly at random in the square.
    Clustered {
        /// Side length of the deployment square, metres.
        side: f64,
        /// Number of cluster centres.
        clusters: usize,
        /// Standard deviation of each blob, metres.
        spread: f64,
    },
    /// Independently uniform positions in a `length × width` strip
    /// (length ≫ width) — the pipeline/road-monitoring layout. With
    /// [`SinkPlacement::Corner`] the sink sits at the `x = 0` end, giving
    /// the deepest trees of any family.
    Corridor {
        /// Strip length along x, metres.
        length: f64,
        /// Strip width along y, metres.
        width: f64,
    },
}

impl Placement {
    /// Deployment square side length. For the (non-square) corridor this
    /// is the dominant dimension — the extent a world generator should
    /// cover.
    pub fn side(&self) -> f64 {
        match *self {
            Placement::UniformRandom { side }
            | Placement::JitteredGrid { side, .. }
            | Placement::Clustered { side, .. } => side,
            Placement::Corridor { length, .. } => length,
        }
    }

    /// Bounding rectangle `(x extent, y extent)` of the deployment area.
    pub fn bounds(&self) -> (f64, f64) {
        match *self {
            Placement::Corridor { length, width } => (length, width),
            _ => (self.side(), self.side()),
        }
    }

    /// Generate positions for `n` nodes. Index 0 is the sink, placed
    /// according to `sink`.
    pub fn generate(&self, n: usize, sink: SinkPlacement, rng: &mut SimRng) -> Vec<Position> {
        assert!(n > 0, "a network needs at least the sink node");
        let (bx, by) = self.bounds();
        assert!(bx > 0.0 && by > 0.0, "deployment area must have positive extent");
        let mut positions = Vec::with_capacity(n);

        // The sink draws nothing, so the other draws are the same in both sink modes.
        positions.push(match sink {
            SinkPlacement::Corner => Position::new(0.0, 0.0),
            SinkPlacement::Center => Position::new(bx / 2.0, by / 2.0),
        });

        match *self {
            Placement::UniformRandom { side } => {
                for _ in 1..n {
                    positions
                        .push(Position::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)));
                }
            }
            Placement::Corridor { length, width } => {
                for _ in 1..n {
                    positions
                        .push(Position::new(rng.gen_range(0.0..length), rng.gen_range(0.0..width)));
                }
            }
            Placement::JitteredGrid { side, jitter } => {
                let cols = (n as f64).sqrt().ceil() as usize;
                let step = side / cols as f64;
                let mut placed = 1;
                'outer: for r in 0..cols {
                    for c in 0..cols {
                        if placed >= n {
                            break 'outer;
                        }
                        // Skip the cell the sink occupies conceptually
                        // (cell 0,0) only when the sink is at the corner.
                        if sink == SinkPlacement::Corner && r == 0 && c == 0 {
                            continue;
                        }
                        let jx = if jitter > 0.0 { rng.gen_range(-jitter..jitter) } else { 0.0 };
                        let jy = if jitter > 0.0 { rng.gen_range(-jitter..jitter) } else { 0.0 };
                        let x = ((c as f64 + 0.5) * step + jx).clamp(0.0, side);
                        let y = ((r as f64 + 0.5) * step + jy).clamp(0.0, side);
                        positions.push(Position::new(x, y));
                        placed += 1;
                    }
                }
                // If skipping the corner cell left us short, fill randomly.
                while positions.len() < n {
                    positions
                        .push(Position::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)));
                }
            }
            Placement::Clustered { side, clusters, spread } => {
                assert!(clusters > 0, "need at least one cluster");
                let centres: Vec<Position> = (0..clusters)
                    .map(|_| Position::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                    .collect();
                for i in 1..n {
                    let c = &centres[i % clusters];
                    let x = (c.x + dirq_sim::rng::sample_normal(rng, 0.0, spread)).clamp(0.0, side);
                    let y = (c.y + dirq_sim::rng::sample_normal(rng, 0.0, spread)).clamp(0.0, side);
                    positions.push(Position::new(x, y));
                }
            }
        }
        debug_assert_eq!(positions.len(), n);
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_sim::RngFactory;

    fn rng() -> SimRng {
        RngFactory::new(7).stream("placement-test")
    }

    #[test]
    fn uniform_positions_inside_square() {
        let p = Placement::UniformRandom { side: 100.0 };
        let pos = p.generate(200, SinkPlacement::Corner, &mut rng());
        assert_eq!(pos.len(), 200);
        for q in &pos {
            assert!((0.0..=100.0).contains(&q.x) && (0.0..=100.0).contains(&q.y));
        }
    }

    #[test]
    fn sink_pinning() {
        let p = Placement::UniformRandom { side: 50.0 };
        let corner = p.generate(10, SinkPlacement::Corner, &mut rng());
        assert_eq!(corner[0], Position::new(0.0, 0.0));
        let center = p.generate(10, SinkPlacement::Center, &mut rng());
        assert_eq!(center[0], Position::new(25.0, 25.0));
    }

    #[test]
    fn grid_is_roughly_regular_without_jitter() {
        let p = Placement::JitteredGrid { side: 100.0, jitter: 0.0 };
        let pos = p.generate(16, SinkPlacement::Center, &mut rng());
        assert_eq!(pos.len(), 16);
        // Without jitter all non-sink points sit at half-step offsets.
        let step = 100.0 / 4.0;
        for q in &pos[1..] {
            let fx = (q.x / step) - (q.x / step).floor();
            assert!((fx - 0.5).abs() < 1e-9, "x={} not on grid", q.x);
        }
    }

    #[test]
    fn grid_fills_exact_count_with_corner_sink() {
        let p = Placement::JitteredGrid { side: 100.0, jitter: 1.0 };
        let pos = p.generate(50, SinkPlacement::Corner, &mut rng());
        assert_eq!(pos.len(), 50);
    }

    #[test]
    fn clustered_positions_clamped() {
        let p = Placement::Clustered { side: 10.0, clusters: 3, spread: 30.0 };
        let pos = p.generate(100, SinkPlacement::Corner, &mut rng());
        for q in &pos {
            assert!((0.0..=10.0).contains(&q.x) && (0.0..=10.0).contains(&q.y));
        }
    }

    #[test]
    fn corridor_positions_inside_strip() {
        let p = Placement::Corridor { length: 2000.0, width: 60.0 };
        assert_eq!(p.bounds(), (2000.0, 60.0));
        assert_eq!(p.side(), 2000.0, "dominant dimension drives world extent");
        let pos = p.generate(300, SinkPlacement::Corner, &mut rng());
        assert_eq!(pos[0], Position::new(0.0, 0.0), "sink at the origin end");
        for q in &pos[1..] {
            assert!((0.0..=2000.0).contains(&q.x) && (0.0..=60.0).contains(&q.y));
        }
        // The strip is actually used end to end.
        let max_x = pos.iter().map(|q| q.x).fold(0.0, f64::max);
        assert!(max_x > 1500.0, "corridor should span its length, got {max_x:.0}");
    }

    #[test]
    fn corridor_center_sink_respects_rectangle() {
        let p = Placement::Corridor { length: 100.0, width: 10.0 };
        let pos = p.generate(5, SinkPlacement::Center, &mut rng());
        assert_eq!(pos[0], Position::new(50.0, 5.0));
    }

    #[test]
    fn deterministic_for_same_rng_seed() {
        let p = Placement::UniformRandom { side: 100.0 };
        let a = p.generate(30, SinkPlacement::Corner, &mut rng());
        let b = p.generate(30, SinkPlacement::Corner, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least the sink")]
    fn zero_nodes_rejected() {
        let p = Placement::UniformRandom { side: 1.0 };
        let _ = p.generate(0, SinkPlacement::Corner, &mut rng());
    }

    #[test]
    fn extra_sink_sites_are_spread_and_deterministic() {
        let sites = extra_sink_sites((100.0, 60.0), 4);
        assert_eq!(sites[0], Position::new(100.0, 60.0), "far corner first");
        assert_eq!(sites[3], Position::new(50.0, 30.0), "then the centre");
        assert_eq!(sites, extra_sink_sites((100.0, 60.0), 4));
        // All sites distinct and inside the rectangle.
        for (i, a) in sites.iter().enumerate() {
            assert!((0.0..=100.0).contains(&a.x) && (0.0..=60.0).contains(&a.y));
            for b in &sites[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_extra_sinks_rejected() {
        let _ = extra_sink_sites((10.0, 10.0), 9);
    }
}

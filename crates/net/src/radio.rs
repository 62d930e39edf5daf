//! Radio connectivity models.
//!
//! Whether two nodes share a link is decided once at deployment time (the
//! paper's network is fixed apart from births/deaths, and LMAC's TDMA
//! schedule removes collisions, so per-packet fading is out of scope).
//!
//! Two models are provided:
//!
//! * [`UnitDisk`] — the classic binary-range model.
//! * [`LogDistance`] — log-distance path loss with deterministic per-link
//!   log-normal shadowing, giving the irregular neighbourhoods real
//!   deployments show.

use crate::geometry::Position;

/// A connectivity decision procedure over node pairs.
pub trait RadioModel {
    /// Whether nodes at `a` and `b` (deployment indices `ia`, `ib`) can
    /// communicate. Must be symmetric in its arguments.
    fn connected(&self, ia: usize, a: &Position, ib: usize, b: &Position) -> bool;

    /// Nominal communication range in metres (used by deployment helpers to
    /// pick sensible densities).
    fn nominal_range(&self) -> f64;

    /// An upper bound on link length, in metres: `connected(ia, a, ib, b)`
    /// must imply `a.distance(b) <= max_range()`.
    ///
    /// [`Topology::from_positions`](crate::Topology::from_positions)
    /// buckets nodes into grid cells no narrower than this bound and tests
    /// only pairs in the same or adjacent cells, so an understated bound
    /// silently drops links. The default, `f64::INFINITY`, claims no bound:
    /// the grid collapses to one cell and every pair is tested.
    fn max_range(&self) -> f64 {
        f64::INFINITY
    }
}

/// Binary unit-disk model: connected iff within `range` metres.
#[derive(Clone, Copy, Debug)]
pub struct UnitDisk {
    /// Communication radius, metres.
    pub range: f64,
}

impl UnitDisk {
    /// Construct with the given radius.
    pub fn new(range: f64) -> Self {
        assert!(range > 0.0, "radio range must be positive");
        UnitDisk { range }
    }
}

impl RadioModel for UnitDisk {
    #[inline]
    fn connected(&self, _ia: usize, a: &Position, _ib: usize, b: &Position) -> bool {
        a.distance_sq(b) <= self.range * self.range
    }

    fn nominal_range(&self) -> f64 {
        self.range
    }

    fn max_range(&self) -> f64 {
        self.range
    }
}

/// Log-distance path loss with deterministic per-link shadowing.
///
/// Received power: `P_rx = P_tx − PL(d0) − 10·γ·log10(d/d0) − X_σ`, where
/// `X_σ` is a zero-mean Gaussian drawn deterministically per unordered node
/// pair from `shadow_seed`, making the same pair symmetric and the whole
/// topology reproducible.
#[derive(Clone, Copy, Debug)]
pub struct LogDistance {
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance, dB.
    pub ref_loss_db: f64,
    /// Reference distance d0, metres.
    pub ref_distance: f64,
    /// Path-loss exponent γ (2 = free space, 3–4 = forest/urban).
    pub exponent: f64,
    /// Receiver sensitivity, dBm.
    pub sensitivity_dbm: f64,
    /// Shadowing standard deviation σ, dB (0 disables shadowing).
    pub shadowing_sigma_db: f64,
    /// Seed for the per-link shadowing draws.
    pub shadow_seed: u64,
}

impl LogDistance {
    /// A forest-like default: γ = 3.0, σ = 4 dB, ~30 m nominal range.
    pub fn forest(shadow_seed: u64) -> Self {
        LogDistance {
            tx_power_dbm: 0.0,
            ref_loss_db: 40.0,
            ref_distance: 1.0,
            exponent: 3.0,
            sensitivity_dbm: -85.0,
            shadowing_sigma_db: 4.0,
            shadow_seed,
        }
    }

    /// Deterministic standard-normal draw for an unordered node pair.
    fn pair_normal(&self, ia: usize, ib: usize) -> f64 {
        let (lo, hi) = if ia <= ib { (ia as u64, ib as u64) } else { (ib as u64, ia as u64) };
        let mut s =
            self.shadow_seed ^ (lo.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ hi.rotate_left(32);
        let u1 = (dirq_sim::rng::splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (dirq_sim::rng::splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        let u1 = u1.max(f64::MIN_POSITIVE);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Received power for a pair, dBm.
    pub fn received_power_dbm(&self, ia: usize, a: &Position, ib: usize, b: &Position) -> f64 {
        let d = a.distance(b).max(self.ref_distance);
        let pl = self.ref_loss_db + 10.0 * self.exponent * (d / self.ref_distance).log10();
        let shadow = if self.shadowing_sigma_db > 0.0 {
            self.shadowing_sigma_db * self.pair_normal(ia, ib)
        } else {
            0.0
        };
        self.tx_power_dbm - pl - shadow
    }

    /// Distance at which the *mean* received power equals sensitivity.
    pub fn mean_range(&self) -> f64 {
        let budget = self.tx_power_dbm - self.ref_loss_db - self.sensitivity_dbm;
        self.ref_distance * 10f64.powf(budget / (10.0 * self.exponent))
    }
}

impl RadioModel for LogDistance {
    fn connected(&self, ia: usize, a: &Position, ib: usize, b: &Position) -> bool {
        self.received_power_dbm(ia, a, ib, b) >= self.sensitivity_dbm
    }

    fn nominal_range(&self) -> f64 {
        self.mean_range()
    }

    // `max_range` keeps the unbounded default: shadowing lets a pair well
    // beyond the mean range still close its link budget.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_disk_threshold() {
        let r = UnitDisk::new(10.0);
        let o = Position::new(0.0, 0.0);
        assert!(r.connected(0, &o, 1, &Position::new(10.0, 0.0)));
        assert!(!r.connected(0, &o, 1, &Position::new(10.0001, 0.0)));
        assert_eq!(r.nominal_range(), 10.0);
        assert_eq!(r.max_range(), 10.0);
        assert_eq!(LogDistance::forest(1).max_range(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "radio range must be positive")]
    fn unit_disk_rejects_zero_range() {
        let _ = UnitDisk::new(0.0);
    }

    #[test]
    fn log_distance_monotone_without_shadowing() {
        let mut m = LogDistance::forest(1);
        m.shadowing_sigma_db = 0.0;
        let o = Position::new(0.0, 0.0);
        let p_near = m.received_power_dbm(0, &o, 1, &Position::new(5.0, 0.0));
        let p_far = m.received_power_dbm(0, &o, 1, &Position::new(50.0, 0.0));
        assert!(p_near > p_far);
    }

    #[test]
    fn log_distance_mean_range_is_connectivity_boundary() {
        let mut m = LogDistance::forest(1);
        m.shadowing_sigma_db = 0.0;
        let r = m.mean_range();
        let o = Position::new(0.0, 0.0);
        assert!(m.connected(0, &o, 1, &Position::new(r * 0.99, 0.0)));
        assert!(!m.connected(0, &o, 1, &Position::new(r * 1.01, 0.0)));
    }

    #[test]
    fn shadowing_is_symmetric_and_deterministic() {
        let m = LogDistance::forest(99);
        let a = Position::new(0.0, 0.0);
        let b = Position::new(20.0, 5.0);
        let ab = m.received_power_dbm(3, &a, 8, &b);
        let ba = m.received_power_dbm(8, &b, 3, &a);
        assert_eq!(ab, ba, "link budget must be symmetric");
        let again = m.received_power_dbm(3, &a, 8, &b);
        assert_eq!(ab, again);
    }

    #[test]
    fn shadowing_varies_across_pairs() {
        let m = LogDistance::forest(99);
        let a = Position::new(0.0, 0.0);
        let b = Position::new(20.0, 0.0);
        // Same geometry, different pair ids → different shadowing.
        let p1 = m.received_power_dbm(0, &a, 1, &b);
        let p2 = m.received_power_dbm(2, &a, 3, &b);
        assert_ne!(p1, p2);
    }

    #[test]
    fn shadowing_roughly_zero_mean() {
        let m = LogDistance::forest(7);
        let a = Position::new(0.0, 0.0);
        let b = Position::new(10.0, 0.0);
        let mut base = m;
        base.shadowing_sigma_db = 0.0;
        let unshadowed = base.received_power_dbm(0, &a, 1, &b);
        let n = 2000;
        let mean_shadow: f64 =
            (0..n).map(|i| m.received_power_dbm(i, &a, i + 10_000, &b) - unshadowed).sum::<f64>()
                / n as f64;
        assert!(mean_shadow.abs() < 0.5, "shadowing mean {mean_shadow} not ~0");
    }
}

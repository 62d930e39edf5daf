//! Numerically stable running mean and variance (Welford's algorithm).

/// Streaming mean/variance/min/max accumulator.
///
/// Used to summarise per-query overshoot (the paper's headline "average
/// overshoot of 3.6 %") without storing every sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Write the full accumulator state to `w`.
    pub fn snap(&self, w: &mut crate::snap::SnapWriter) {
        w.u64(self.n);
        w.f64(self.mean);
        w.f64(self.m2);
        w.f64(self.min);
        w.f64(self.max);
    }

    /// Rebuild from a [`Welford::snap`] record.
    pub fn unsnap(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        Ok(Welford { n: r.count()?, mean: r.f64()?, m2: r.f64()?, min: r.f64()?, max: r.f64()? })
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_is_neutral() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.observe(x);
        }
        let (mean, var) = naive(&xs);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn single_observation() {
        let mut w = Welford::new();
        w.observe(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
    }

    proptest! {
        /// Merging two accumulators equals accumulating the concatenation.
        #[test]
        fn prop_merge_equals_concat(
            a in proptest::collection::vec(-1e3f64..1e3, 1..50),
            b in proptest::collection::vec(-1e3f64..1e3, 1..50),
        ) {
            let mut wa = Welford::new();
            for &x in &a { wa.observe(x); }
            let mut wb = Welford::new();
            for &x in &b { wb.observe(x); }
            wa.merge(&wb);

            let mut wc = Welford::new();
            for &x in a.iter().chain(&b) { wc.observe(x); }

            prop_assert!((wa.mean() - wc.mean()).abs() < 1e-9);
            prop_assert!((wa.variance() - wc.variance()).abs() < 1e-6);
            prop_assert_eq!(wa.count(), wc.count());
        }

        /// Variance is never negative and mean stays within [min, max].
        #[test]
        fn prop_basic_invariants(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let mut w = Welford::new();
            for &x in &xs { w.observe(x); }
            prop_assert!(w.variance() >= 0.0);
            prop_assert!(w.mean() >= w.min().unwrap() - 1e-9);
            prop_assert!(w.mean() <= w.max().unwrap() + 1e-9);
        }
    }
}

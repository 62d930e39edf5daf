//! Exponentially weighted moving average.

use crate::snap::{SnapError, SnapReader, SnapSink, SnapWriter};

/// EWMA with smoothing factor `alpha` ∈ (0, 1].
///
/// The ATC controller uses EWMAs for two locally observable signals the
/// paper names as its inputs: the node's recent update-transmission rate and
/// the rate of change of the measured physical parameter.
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create an EWMA with smoothing factor `alpha`.
    ///
    /// # Panics
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1], got {alpha}");
        Ewma { alpha, value: None }
    }

    /// Feed one observation; the first observation initialises the average.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current estimate, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current estimate, or `default` before any observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// Write the estimate to `w`. The smoothing factor is its owner's
    /// constant, so the record leaves it out.
    pub fn snap(&self, w: &mut SnapWriter<impl SnapSink>) {
        w.opt_f64(self.value);
    }

    /// Overlay a [`Ewma::snap`] record onto this EWMA, built with its
    /// owner's smoothing factor; an estimate that is not finite is
    /// malformed. Finite observations keep the estimate finite, and a
    /// non-finite one never leaves it: every later estimate would read NaN
    /// or infinite.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let pos = r.position();
        self.value = r.opt_f64()?;
        if self.value.is_some_and(|v| !v.is_finite()) {
            return Err(SnapError::Malformed { pos, what: "EWMA estimate not finite" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_initialises() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), None);
        e.observe(5.0);
        assert_eq!(e.value(), Some(5.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        e.observe(0.0);
        for _ in 0..200 {
            e.observe(10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tracks_step_change_geometrically() {
        let mut e = Ewma::new(0.5);
        e.observe(0.0);
        e.observe(8.0); // 0 + 0.5*8 = 4
        assert_eq!(e.value(), Some(4.0));
        e.observe(8.0); // 4 + 0.5*4 = 6
        assert_eq!(e.value(), Some(6.0));
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn zero_alpha_rejected() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn restore_overlays_the_estimate() {
        let mut e = Ewma::new(0.25);
        e.observe(3.0);
        let mut w = SnapWriter::new();
        e.snap(&mut w);
        let image = w.finish();
        let mut same = Ewma::new(0.25);
        same.restore(&mut SnapReader::new(&image)).expect("own image");
        assert_eq!(same.value(), Some(3.0));
    }

    #[test]
    fn restore_rejects_an_estimate_that_is_not_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut w = SnapWriter::new();
            w.opt_f64(Some(bad));
            let image = w.finish();
            assert!(matches!(
                Ewma::new(0.25).restore(&mut SnapReader::new(&image)),
                Err(SnapError::Malformed { pos: 0, what: "EWMA estimate not finite" })
            ));
        }
    }

    #[test]
    fn reset_forgets() {
        let mut e = Ewma::new(0.3);
        e.observe(2.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(9.0), 9.0);
    }
}

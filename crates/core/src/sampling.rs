//! Predictive sensor sampling — the paper's Section 8 future work.
//!
//! "A drawback of DirQ is that we assume that nodes are able to sample
//! sensors continuously to check if the thresholds have been exceeded.
//! This consumes a lot of energy. We are currently developing a
//! statistical prediction technique that can be used by DirQ to ensure
//! that sensor sampling costs are minimized."
//!
//! This module implements that technique: after each acquisition the node
//! updates two local estimators — the signed per-epoch **drift** and the
//! unsigned **volatility** of the signal, EWMAs at [`DRIFT_ALPHA`] — and
//! then *skips* sampling for as many epochs as the model predicts the
//! reading will stay inside the current `[THmin, THmax]` tuple (shrunk by
//! a safety margin), up to [`MAX_SKIP`] epochs. The paper fixes none of
//! this tuning; every run uses the constants below. The trade-off is
//! classic: more skipping saves sensor energy but delays the detection of
//! threshold escapes, adding staleness to the advertised ranges. The
//! `ablations` binary quantifies the trade-off.

use dirq_sim::stats::Ewma;
use dirq_sim::{SnapError, SnapReader, SnapSink, SnapWriter};

/// When nodes acquire sensor readings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SamplingStrategy {
    /// Sample every sensor every epoch (the paper's stated assumption).
    EveryEpoch,
    /// Model-driven skipping (the paper's future-work proposal).
    Predictive,
}

/// Fraction of the distance to the nearer window edge treated as unusable
/// margin (0.25 = predict an escape within 75 % of the distance).
const SAFETY_MARGIN: f64 = 0.25;
/// Hard cap on consecutive skipped epochs (bounds staleness even when the
/// model believes the signal is static).
pub const MAX_SKIP: u64 = 8;
/// EWMA smoothing factor of the drift and volatility estimators.
pub const DRIFT_ALPHA: f64 = 0.25;
/// Multiplier on the volatility term when projecting movement (higher =
/// more conservative).
const VOLATILITY_FACTOR: f64 = 2.0;

/// Per-(node, sensor-type) prediction state.
#[derive(Clone, Debug)]
pub struct Sampler {
    last_value: Option<f64>,
    drift: Ewma,
    volatility: Ewma,
    skip_remaining: u64,
    samples_taken: u64,
    samples_skipped: u64,
}

impl Default for Sampler {
    /// Fresh sampler.
    fn default() -> Self {
        Sampler {
            drift: Ewma::new(DRIFT_ALPHA),
            volatility: Ewma::new(DRIFT_ALPHA),
            last_value: None,
            skip_remaining: 0,
            samples_taken: 0,
            samples_skipped: 0,
        }
    }
}

impl Sampler {
    /// Whether the sensor should be read this epoch. When `false`, the
    /// skip budget is consumed.
    pub fn should_sample(&mut self) -> bool {
        if self.skip_remaining > 0 {
            self.skip_remaining -= 1;
            self.samples_skipped += 1;
            false
        } else {
            true
        }
    }

    /// Record an acquired reading together with the tuple bounds currently
    /// advertised (`None` when the node has no tuple yet — e.g. first
    /// sample). Decides how many future epochs may be skipped.
    pub fn on_sampled(&mut self, value: f64, window: Option<(f64, f64)>) {
        self.samples_taken += 1;
        if let Some(prev) = self.last_value {
            let delta = value - prev;
            self.drift.observe(delta);
            self.volatility.observe(delta.abs());
        }
        self.last_value = Some(value);

        let Some((lo, hi)) = window else {
            self.skip_remaining = 0;
            return;
        };
        let (Some(drift), Some(vol)) = (self.drift.value(), self.volatility.value()) else {
            self.skip_remaining = 0;
            return;
        };
        // Usable distance to the nearer window edge after the margin.
        let usable = (1.0 - SAFETY_MARGIN) * (value - lo).min(hi - value);
        if usable <= 0.0 {
            self.skip_remaining = 0;
            return;
        }
        // Projected movement per epoch: |drift| plus a volatility cushion.
        let per_epoch = drift.abs() + VOLATILITY_FACTOR * vol;
        let skips = if per_epoch <= f64::EPSILON {
            MAX_SKIP
        } else {
            ((usable / per_epoch).floor() as u64).saturating_sub(1).min(MAX_SKIP)
        };
        self.skip_remaining = skips;
    }

    /// Forget the prediction — last value, drift, volatility and pending
    /// skips — back to what [`Sampler::default`] gives, keeping the
    /// tallies: a node born again predicts nothing across its death.
    pub(crate) fn reset(&mut self) {
        let (samples_taken, samples_skipped) = (self.samples_taken, self.samples_skipped);
        *self = Sampler { samples_taken, samples_skipped, ..Sampler::default() };
    }

    /// Sensor acquisitions performed.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Acquisitions avoided by prediction.
    pub fn samples_skipped(&self) -> u64 {
        self.samples_skipped
    }

    /// Write the prediction state to `w`.
    pub fn snap(&self, w: &mut SnapWriter<impl SnapSink>) {
        w.opt_f64(self.last_value);
        self.drift.snap(w);
        self.volatility.snap(w);
        w.u64(self.skip_remaining);
        w.u64(self.samples_taken);
        w.u64(self.samples_skipped);
    }

    /// Overlay state captured by [`Sampler::snap`] onto a sampler; a last
    /// value that is not finite (the sampling pass feeds only readings it
    /// took, and from such a value the drift and volatility would read NaN
    /// for good), an estimator [`Ewma::restore`] rejects and a skip count
    /// above [`MAX_SKIP`] are malformed.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let pos = r.position();
        self.last_value = r.opt_f64()?;
        if self.last_value.is_some_and(|v| !v.is_finite()) {
            return Err(SnapError::Malformed { pos, what: "sampler last value not finite" });
        }
        self.drift.restore(r)?;
        self.volatility.restore(r)?;
        let pos = r.position();
        self.skip_remaining = r.u64()?;
        if self.skip_remaining > MAX_SKIP {
            return Err(SnapError::Malformed { pos, what: "sampler skip above max_skip" });
        }
        self.samples_taken = r.count()?;
        self.samples_skipped = r.count()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_samples_never_skip() {
        let mut s = Sampler::default();
        assert!(s.should_sample());
        s.on_sampled(20.0, Some((19.0, 21.0)));
        // Only one observation: no drift estimate yet → no skipping.
        assert!(s.should_sample());
    }

    #[test]
    fn static_signal_earns_max_skip() {
        let mut s = Sampler::default();
        for _ in 0..10 {
            let _ = s.should_sample();
            s.on_sampled(20.0, Some((19.0, 21.0)));
        }
        // Zero drift and volatility: next decision skips the cap.
        let mut skipped = 0;
        while !s.should_sample() {
            skipped += 1;
        }
        assert_eq!(skipped, MAX_SKIP);
    }

    #[test]
    fn fast_drift_prevents_skipping() {
        let mut s = Sampler::default();
        let mut v = 20.0;
        for _ in 0..10 {
            s.on_sampled(v, Some((v - 0.5, v + 0.5)));
            v += 0.4; // moves ~80% of the window per epoch
        }
        assert!(s.should_sample(), "near-edge fast drift must sample immediately");
    }

    #[test]
    fn near_edge_readings_sample_immediately() {
        let mut s = Sampler::default();
        s.on_sampled(20.0, Some((19.0, 21.0)));
        s.on_sampled(20.001, Some((19.0, 21.0)));
        // Reading essentially on the boundary of the usable zone.
        s.on_sampled(20.95, Some((19.0, 21.0)));
        assert!(s.should_sample());
    }

    #[test]
    fn missing_window_disables_skipping() {
        let mut s = Sampler::default();
        s.on_sampled(20.0, None);
        s.on_sampled(20.0, None);
        assert!(s.should_sample());
    }

    #[test]
    fn counters_track_activity() {
        let mut s = Sampler::default();
        for _ in 0..5 {
            s.on_sampled(10.0, Some((0.0, 20.0)));
        }
        let mut sampled = 0;
        let mut skipped = 0;
        for _ in 0..20 {
            if s.should_sample() {
                sampled += 1;
                s.on_sampled(10.0, Some((0.0, 20.0)));
            } else {
                skipped += 1;
            }
        }
        assert_eq!(s.samples_taken(), 5 + sampled);
        assert_eq!(s.samples_skipped(), skipped);
        assert!(skipped > 0, "a static wide window must earn skips");
    }
}

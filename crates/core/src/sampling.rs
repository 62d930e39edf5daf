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
//! unsigned **volatility** of the signal — and then *skips* sampling for as
//! many epochs as the model predicts the reading will stay inside the
//! current `[THmin, THmax]` tuple (shrunk by a safety margin). The
//! trade-off is classic: more skipping saves sensor energy but delays the
//! detection of threshold escapes, adding staleness to the advertised
//! ranges. The `ablations` binary quantifies the trade-off.

use dirq_sim::stats::Ewma;

/// When nodes acquire sensor readings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SamplingStrategy {
    /// Sample every sensor every epoch (the paper's stated assumption).
    EveryEpoch,
    /// Model-driven skipping (the paper's future-work proposal).
    Predictive(PredictiveConfig),
}

/// Tuning of the predictive sampler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictiveConfig {
    /// Fraction of the distance-to-threshold treated as unusable margin
    /// (0.25 = predict escape when within 75 % of the window edge).
    pub safety_margin: f64,
    /// Hard cap on consecutive skipped epochs (bounds staleness even when
    /// the model believes the signal is static).
    pub max_skip: u64,
    /// EWMA smoothing for the drift/volatility estimators.
    pub alpha: f64,
    /// Multiplier on the volatility term when projecting movement
    /// (higher = more conservative).
    pub volatility_factor: f64,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig { safety_margin: 0.25, max_skip: 8, alpha: 0.25, volatility_factor: 2.0 }
    }
}

/// Per-(node, sensor-type) prediction state.
#[derive(Clone, Debug)]
pub struct Sampler {
    cfg: PredictiveConfig,
    last_value: Option<f64>,
    drift: Ewma,
    volatility: Ewma,
    skip_remaining: u64,
    samples_taken: u64,
    samples_skipped: u64,
}

impl Sampler {
    /// Fresh sampler.
    pub fn new(cfg: PredictiveConfig) -> Self {
        assert!((0.0..1.0).contains(&cfg.safety_margin), "safety margin must be in [0, 1)");
        assert!(cfg.volatility_factor >= 0.0, "volatility factor must be non-negative");
        Sampler {
            drift: Ewma::new(cfg.alpha),
            volatility: Ewma::new(cfg.alpha),
            last_value: None,
            skip_remaining: 0,
            samples_taken: 0,
            samples_skipped: 0,
            cfg,
        }
    }

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
        let usable = (1.0 - self.cfg.safety_margin) * (value - lo).min(hi - value);
        if usable <= 0.0 {
            self.skip_remaining = 0;
            return;
        }
        // Projected movement per epoch: |drift| plus a volatility cushion.
        let per_epoch = drift.abs() + self.cfg.volatility_factor * vol;
        let skips = if per_epoch <= f64::EPSILON {
            self.cfg.max_skip
        } else {
            ((usable / per_epoch).floor() as u64).saturating_sub(1).min(self.cfg.max_skip)
        };
        self.skip_remaining = skips;
    }

    /// Sensor acquisitions performed.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Acquisitions avoided by prediction.
    pub fn samples_skipped(&self) -> u64 {
        self.samples_skipped
    }

    /// Fraction of epochs in which sampling was skipped.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.samples_taken + self.samples_skipped;
        if total == 0 {
            0.0
        } else {
            self.samples_skipped as f64 / total as f64
        }
    }

    /// Write the prediction state to `w` (the tuning config is
    /// construction-time and not captured).
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter) {
        w.opt_f64(self.last_value);
        self.drift.snap(w);
        self.volatility.snap(w);
        w.u64(self.skip_remaining);
        w.u64(self.samples_taken);
        w.u64(self.samples_skipped);
    }

    /// Overlay state captured by [`Sampler::snap`] onto a sampler built
    /// with the same config.
    pub fn restore(&mut self, r: &mut dirq_sim::SnapReader<'_>) -> Result<(), dirq_sim::SnapError> {
        self.last_value = r.opt_f64()?;
        self.drift = Ewma::unsnap(r)?;
        self.volatility = Ewma::unsnap(r)?;
        self.skip_remaining = r.u64()?;
        self.samples_taken = r.count()?;
        self.samples_skipped = r.count()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PredictiveConfig {
        PredictiveConfig::default()
    }

    #[test]
    fn first_samples_never_skip() {
        let mut s = Sampler::new(cfg());
        assert!(s.should_sample());
        s.on_sampled(20.0, Some((19.0, 21.0)));
        // Only one observation: no drift estimate yet → no skipping.
        assert!(s.should_sample());
    }

    #[test]
    fn static_signal_earns_max_skip() {
        let mut s = Sampler::new(cfg());
        for _ in 0..10 {
            let _ = s.should_sample();
            s.on_sampled(20.0, Some((19.0, 21.0)));
        }
        // Zero drift and volatility: next decision skips the cap.
        let mut skipped = 0;
        while !s.should_sample() {
            skipped += 1;
        }
        assert_eq!(skipped, cfg().max_skip);
    }

    #[test]
    fn fast_drift_prevents_skipping() {
        let mut s = Sampler::new(cfg());
        let mut v = 20.0;
        for _ in 0..10 {
            s.on_sampled(v, Some((v - 0.5, v + 0.5)));
            v += 0.4; // moves ~80% of the window per epoch
        }
        assert!(s.should_sample(), "near-edge fast drift must sample immediately");
    }

    #[test]
    fn near_edge_readings_sample_immediately() {
        let mut s = Sampler::new(cfg());
        s.on_sampled(20.0, Some((19.0, 21.0)));
        s.on_sampled(20.001, Some((19.0, 21.0)));
        // Reading essentially on the boundary of the usable zone.
        s.on_sampled(20.95, Some((19.0, 21.0)));
        assert!(s.should_sample());
    }

    #[test]
    fn missing_window_disables_skipping() {
        let mut s = Sampler::new(cfg());
        s.on_sampled(20.0, None);
        s.on_sampled(20.0, None);
        assert!(s.should_sample());
    }

    #[test]
    fn counters_track_activity() {
        let mut s = Sampler::new(cfg());
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
        assert!(s.skip_ratio() > 0.0);
    }

    #[test]
    #[should_panic(expected = "safety margin")]
    fn invalid_margin_rejected() {
        let _ = Sampler::new(PredictiveConfig { safety_margin: 1.0, ..cfg() });
    }
}

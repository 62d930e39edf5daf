//! Temporal dynamics of the measured signals.
//!
//! The generated data must be "related in the temporal dimension": each
//! sensor type combines
//!
//! * a **diurnal cycle** (deterministic sinusoid — temperature and light
//!   swing with the day),
//! * a **regional AR(1) process** shared by all nodes of the type (weather
//!   fronts move the whole field together, preserving spatial correlation
//!   over time), and
//! * a **node-local AR(1) process** (micro-climate),
//!
//! plus white measurement noise applied by the world when a reading is
//! acquired.

use dirq_sim::rng::sample_normal;
use rand::Rng;

/// First-order autoregressive process `x ← φ·x + ε`, `ε ~ N(0, σ²)`.
#[derive(Clone, Copy, Debug)]
pub struct Ar1 {
    phi: f64,
    sigma: f64,
    value: f64,
}

impl Ar1 {
    /// Create with persistence `phi` ∈ [0, 1) and innovation σ `sigma`.
    pub fn new(phi: f64, sigma: f64) -> Self {
        assert!((0.0..1.0).contains(&phi), "phi must be in [0, 1) for stationarity");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Ar1 { phi, sigma, value: 0.0 }
    }

    /// Advance one step and return the new value. Generic over the
    /// generator so both the shared per-type streams ([`dirq_sim::SimRng`])
    /// and the per-node counter streams ([`dirq_sim::StreamRng`]) drive it.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.value = self.phi * self.value + sample_normal(rng, 0.0, self.sigma);
        self.value
    }

    /// The value `value` steps to under this process's φ and σ from a
    /// caller-supplied standard-normal innovation `z`. The world keeps its
    /// node-local values apart from their shared φ and σ and steps them
    /// here, feeding in paired innovations (see
    /// `dirq_sim::rng::sample_std_normal_pair`).
    #[inline]
    pub fn next_std(&self, value: f64, z: f64) -> f64 {
        self.phi * value + self.sigma * z
    }

    /// This process's φ and σ at `value`.
    pub fn with_value(&self, value: f64) -> Ar1 {
        Ar1 { value, ..*self }
    }

    /// Whether `other` has this process's φ and σ, bit for bit.
    pub fn same_parameters(&self, other: &Ar1) -> bool {
        self.phi.to_bits() == other.phi.to_bits() && self.sigma.to_bits() == other.sigma.to_bits()
    }

    /// Current value without stepping.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Stationary standard deviation `σ/√(1−φ²)`.
    pub fn stationary_std(&self) -> f64 {
        self.sigma / (1.0 - self.phi * self.phi).sqrt()
    }

    /// Write the process's φ and σ to `w`. Its value is the caller's to
    /// write: one φ and σ can serve many values.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter<impl dirq_sim::SnapSink>) {
        w.f64(self.phi);
        w.f64(self.sigma);
    }

    /// Rebuild a process's φ and σ captured by [`Ar1::snap`], at value 0.
    pub fn unsnap(r: &mut dirq_sim::SnapReader<'_>) -> Result<Self, dirq_sim::SnapError> {
        let pos = r.position();
        let phi = r.f64()?;
        let sigma = r.f64()?;
        if !(0.0..1.0).contains(&phi) || sigma.is_nan() || sigma < 0.0 {
            return Err(dirq_sim::SnapError::Malformed {
                pos,
                what: "AR(1) parameters out of range",
            });
        }
        Ok(Ar1 { phi, sigma, value: 0.0 })
    }
}

/// Deterministic diurnal sinusoid.
#[derive(Clone, Copy, Debug)]
pub struct Diurnal {
    amplitude: f64,
    period_epochs: f64,
    phase: f64,
}

impl Diurnal {
    /// Cycle with the given amplitude, period (in epochs) and phase
    /// (radians).
    pub fn new(amplitude: f64, period_epochs: f64, phase: f64) -> Self {
        assert!(period_epochs > 0.0, "period must be positive");
        Diurnal { amplitude, period_epochs, phase }
    }

    /// A flat cycle (no diurnal component).
    pub fn none() -> Self {
        Diurnal { amplitude: 0.0, period_epochs: 1.0, phase: 0.0 }
    }

    /// Value at `epoch`.
    pub fn value(&self, epoch: u64) -> f64 {
        self.amplitude
            * ((std::f64::consts::TAU * epoch as f64 / self.period_epochs) + self.phase).sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_sim::RngFactory;

    #[test]
    fn ar1_with_zero_sigma_decays_geometrically() {
        let mut p = Ar1::new(0.5, 0.0);
        p.value = 8.0;
        let mut rng = RngFactory::new(1).stream("ar1");
        assert_eq!(p.step(&mut rng), 4.0);
        assert_eq!(p.step(&mut rng), 2.0);
    }

    #[test]
    fn ar1_stationary_variance_matches_theory() {
        let mut p = Ar1::new(0.9, 1.0);
        let mut rng = RngFactory::new(2).stream("ar1-var");
        // Warm up past the transient.
        for _ in 0..500 {
            p.step(&mut rng);
        }
        let n = 50_000;
        let mut w = dirq_sim::stats::Welford::new();
        for _ in 0..n {
            w.observe(p.step(&mut rng));
        }
        let theory = p.stationary_std();
        assert!(
            (w.std_dev() - theory).abs() / theory < 0.1,
            "std {} vs theory {}",
            w.std_dev(),
            theory
        );
    }

    #[test]
    fn ar1_successive_values_are_correlated() {
        let mut p = Ar1::new(0.95, 1.0);
        let mut rng = RngFactory::new(3).stream("ar1-corr");
        for _ in 0..100 {
            p.step(&mut rng);
        }
        let mut num = 0.0;
        let mut den = 0.0;
        let mut prev = p.value();
        for _ in 0..20_000 {
            let cur = p.step(&mut rng);
            num += prev * cur;
            den += prev * prev;
            prev = cur;
        }
        let lag1 = num / den;
        assert!((lag1 - 0.95).abs() < 0.02, "lag-1 autocorr {lag1} != 0.95");
    }

    #[test]
    #[should_panic(expected = "phi must be in [0, 1)")]
    fn nonstationary_phi_rejected() {
        let _ = Ar1::new(1.0, 1.0);
    }

    #[test]
    fn diurnal_period_and_amplitude() {
        let d = Diurnal::new(5.0, 100.0, 0.0);
        assert_eq!(d.value(0), 0.0);
        assert!((d.value(25) - 5.0).abs() < 1e-9, "peak at quarter period");
        assert!(d.value(50).abs() < 1e-9, "zero at half period");
        assert!((d.value(75) + 5.0).abs() < 1e-9, "trough at three quarters");
        // Periodicity.
        assert!((d.value(137) - d.value(237)).abs() < 1e-9);
    }

    #[test]
    fn diurnal_none_is_flat() {
        let d = Diurnal::none();
        for e in [0u64, 7, 1000] {
            assert_eq!(d.value(e), 0.0);
        }
    }
}

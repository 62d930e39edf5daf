//! Adaptive Threshold Control (Section 6).
//!
//! The ICPPW paper defers ATC's internals to an unavailable companion paper
//! \[13\] but pins down its **contract**, which this module satisfies:
//!
//! * each node adjusts its threshold `δ` **autonomously** from locally
//!   available information;
//! * the inputs are (a) the number of queries expected over the next hour
//!   (the root's `EHr` broadcast) and (b) the **rate of variation of the
//!   measured parameter**;
//! * the outcome is that network-wide update traffic is throttled such that
//!   total DirQ cost stays at roughly 45–55 % of flooding (Fig. 6) while
//!   accuracy degrades only mildly. The paper puts the overshoot at about
//!   3.6 % (Fig. 7).
//!
//! The cost band is met (`cost_ratio --quick`: 0.535, 0.530 and 0.525 of
//! flooding at 20, 40 and 60 % relevance). The Fig. 7 overshoot is not:
//! `fig7_overshoot --quick` measures ATC at 12.3 percentage points of the
//! network (63.8 % relative) at 20 % relevance, and fixed δ = 3 % is
//! already at 11.0 points. That gap is open; ROADMAP.md tracks it under
//! the reproduction ledger.
//!
//! ## Reconstructed mechanism
//!
//! The root knows the analytic budget (Section 5, [`dirq_analytic`]) and
//! the measured per-query dissemination cost; from those it derives a
//! per-node **update budget** `u*` (transmissions per node per epoch) that
//! would land total cost mid-band, and ships it inside the `EHr` message.
//!
//! Each node then runs two local estimators:
//!
//! * `σ̂` — an EWMA of the per-epoch absolute change of its readings (the
//!   paper's "rate of variation"), and
//! * `r̂` — an EWMA of its own update transmission rate;
//!
//! and combines two corrections every adjustment window of
//! [`ADJUST_PERIOD`] epochs:
//!
//! * **feedforward**: for a drifting signal, a `±δ` window re-centres about
//!   every `2δ/σ̂` epochs, so the δ that meets the budget directly is
//!   `δ_ff = σ̂ / (2·u*)`;
//! * **feedback**: `δ_fb = δ · (r̂/u*)^gain` corrects the model error.
//!
//! The new δ is the geometric blend `δ_fb^(1−w) · δ_ff^w` of the two,
//! with its step and δ itself clamped. Both corrections use only
//! node-local state plus the broadcast budget — exactly the autonomy the
//! paper claims. The paper fixes none of the tuning; every run uses the
//! constants below.

use dirq_sim::stats::Ewma;
use dirq_sim::{SnapError, SnapReader, SnapSink, SnapWriter};

/// How a node's threshold is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaPolicy {
    /// Fixed δ as a percentage of the sensor's reference span (the paper's
    /// δ = 3 %, 5 %, 9 % runs).
    Fixed(f64),
    /// Adaptive Threshold Control, starting at δ = `INITIAL_DELTA_PCT`.
    Adaptive,
}

/// δ (percent of the reference span) an ATC node starts at, before any
/// adaptation.
pub(crate) const INITIAL_DELTA_PCT: f64 = 5.0;
/// Lower clamp for δ (percent).
const MIN_DELTA_PCT: f64 = 0.2;
/// Upper clamp for δ (percent).
const MAX_DELTA_PCT: f64 = 40.0;
/// Feedback exponent on the rate ratio.
const GAIN: f64 = 0.6;
/// Epochs per adjustment window.
pub const ADJUST_PERIOD: u64 = 50;
/// EWMA smoothing factor of the update-rate estimate `r̂`.
pub const RATE_ALPHA: f64 = 0.3;
/// Weight `w` of the feedforward term in the geometric blend.
const FEEDFORWARD_WEIGHT: f64 = 0.15;
/// Per-adjustment clamp on the multiplicative step (stability).
const MAX_STEP: f64 = 2.0;

/// Per-node ATC state. The node owns δ, which comes in as an argument.
#[derive(Clone, Debug)]
pub struct AtcController {
    /// Updates sent in the current adjustment window.
    sent_in_window: u64,
    /// Epochs of the current window so far, below [`ADJUST_PERIOD`].
    epochs_in_window: u64,
    rate: Ewma,
    /// Target update transmissions per epoch (from the latest EHr).
    budget_per_epoch: Option<f64>,
}

impl Default for AtcController {
    /// Fresh controller; its node starts at δ = `INITIAL_DELTA_PCT`.
    fn default() -> Self {
        AtcController {
            sent_in_window: 0,
            epochs_in_window: 0,
            rate: Ewma::new(RATE_ALPHA),
            budget_per_epoch: None,
        }
    }
}

impl AtcController {
    /// Record that this node transmitted one Update/Retract message.
    pub fn on_update_sent(&mut self) {
        self.sent_in_window += 1;
    }

    /// Receive the hourly budget from the root; one that is negative, NaN
    /// or infinite is ignored.
    pub fn on_budget(&mut self, per_node_budget_per_epoch: f64) {
        if valid_budget(per_node_budget_per_epoch) {
            self.budget_per_epoch = Some(per_node_budget_per_epoch);
        }
    }

    /// Advance one epoch of a node at δ = `delta` percent; `sigma` is the
    /// node's current estimate σ̂ of the per-epoch absolute signal change
    /// **in percent of the reference span** (same unit as δ). Returns
    /// `Some(new δ)` when an adjustment fired this epoch.
    pub fn on_epoch_end(&mut self, delta: f64, sigma: Option<f64>) -> Option<f64> {
        self.epochs_in_window += 1;
        if self.epochs_in_window < ADJUST_PERIOD {
            return None;
        }
        let window_rate = self.sent_in_window as f64 / self.epochs_in_window as f64;
        self.sent_in_window = 0;
        self.epochs_in_window = 0;
        self.rate.observe(window_rate);

        let Some(budget) = self.budget_per_epoch else {
            return None; // no EHr yet: keep the initial δ
        };
        // A zero budget means the root wants (almost) no updates: saturate
        // δ at its ceiling.
        let budget = budget.max(1e-6);

        // Feedback: steer the observed rate towards the budget.
        let observed = self.rate.value_or(window_rate).max(budget / 16.0);
        let fb = delta * (observed / budget).powf(GAIN);

        // Feedforward: drift model  rate ≈ σ̂ / (2δ)  ⇒  δ* = σ̂/(2·budget).
        let target = match sigma {
            Some(s) if s > 0.0 => {
                let ff = s / (2.0 * budget);
                let w = FEEDFORWARD_WEIGHT;
                fb.powf(1.0 - w) * ff.powf(w)
            }
            _ => fb,
        };

        let step = (target / delta).clamp(1.0 / MAX_STEP, MAX_STEP);
        Some((delta * step).clamp(MIN_DELTA_PCT, MAX_DELTA_PCT))
    }

    /// Write the adaptive state to `w`. δ is the node's, and its record
    /// holds it.
    pub fn snap(&self, w: &mut SnapWriter<impl SnapSink>) {
        w.u64(self.sent_in_window);
        w.u64(self.epochs_in_window);
        self.rate.snap(w);
        w.opt_f64(self.budget_per_epoch);
    }

    /// Overlay state captured by [`AtcController::snap`] onto a controller.
    /// A window count at or past [`ADJUST_PERIOD`] (a step resets it there)
    /// and a budget [`AtcController::on_budget`] would ignore are
    /// malformed.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sent_in_window = r.count()?;
        let pos = r.position();
        self.epochs_in_window = r.count()?;
        if self.epochs_in_window >= ADJUST_PERIOD {
            return Err(SnapError::Malformed { pos, what: "ATC window at or past its period" });
        }
        self.rate.restore(r)?;
        let pos = r.position();
        self.budget_per_epoch = r.opt_f64()?;
        if !self.budget_per_epoch.is_none_or(valid_budget) {
            return Err(SnapError::Malformed { pos, what: "ATC budget negative or not finite" });
        }
        Ok(())
    }
}

/// Whether `budget` is one [`AtcController::on_budget`] accepts: finite
/// and non-negative.
fn valid_budget(budget: f64) -> bool {
    budget.is_finite() && budget >= 0.0
}

/// Read a threshold δ captured by a `snap`, rejecting one that is
/// negative, NaN or infinite: every reading's tuple `[R − δ, R + δ]`
/// assumes a finite, non-negative δ.
pub(crate) fn restore_delta(r: &mut SnapReader<'_>) -> Result<f64, SnapError> {
    let pos = r.position();
    match r.f64()? {
        delta if delta.is_finite() && delta >= 0.0 => Ok(delta),
        _ => Err(SnapError::Malformed { pos, what: "threshold delta negative or not finite" }),
    }
}

/// Read an ATC node's δ captured by a `snap`, rejecting one outside
/// [`MIN_DELTA_PCT`, `MAX_DELTA_PCT`] (NaN included): a node starts at
/// [`INITIAL_DELTA_PCT`], inside that range, and every adjustment clamps
/// to it.
pub(crate) fn restore_adaptive_delta(r: &mut SnapReader<'_>) -> Result<f64, SnapError> {
    let pos = r.position();
    match r.f64()? {
        delta if (MIN_DELTA_PCT..=MAX_DELTA_PCT).contains(&delta) => Ok(delta),
        _ => Err(SnapError::Malformed { pos, what: "ATC delta outside its clamp" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A controller with the δ its node would hold.
    struct Node {
        delta: f64,
        c: AtcController,
    }

    impl Node {
        fn new() -> Self {
            Node { c: AtcController::default(), delta: INITIAL_DELTA_PCT }
        }

        fn on_epoch_end(&mut self, sigma_hat_pct: Option<f64>) -> Option<f64> {
            let new = self.c.on_epoch_end(self.delta, sigma_hat_pct);
            self.delta = new.unwrap_or(self.delta);
            new
        }

        /// Run one adjustment window, sending `updates_per_epoch` Updates
        /// each epoch; returns the window's adjustment.
        fn window(&mut self, updates_per_epoch: u64, sigma_hat_pct: Option<f64>) -> Option<f64> {
            for _ in 1..ADJUST_PERIOD {
                (0..updates_per_epoch).for_each(|_| self.c.on_update_sent());
                assert_eq!(self.on_epoch_end(sigma_hat_pct), None, "adjusted mid-window");
            }
            (0..updates_per_epoch).for_each(|_| self.c.on_update_sent());
            self.on_epoch_end(sigma_hat_pct)
        }
    }

    #[test]
    fn no_adjustment_before_period() {
        let mut c = Node::new();
        c.c.on_budget(0.1);
        for _ in 1..ADJUST_PERIOD {
            assert_eq!(c.on_epoch_end(Some(1.0)), None);
        }
        assert!(c.on_epoch_end(Some(1.0)).is_some());
    }

    #[test]
    fn no_adjustment_without_budget() {
        let mut c = Node::new();
        for _ in 0..4 {
            assert_eq!(c.window(1, Some(1.0)), None);
        }
        assert_eq!(c.delta, INITIAL_DELTA_PCT, "δ frozen until EHr arrives");
    }

    #[test]
    fn over_budget_raises_delta() {
        let mut c = Node::new();
        c.c.on_budget(0.05); // allow 2.5 updates per window
        let before = c.delta;
        // Send one update per epoch: heavily over budget.
        for _ in 0..10 {
            c.window(1, None);
        }
        assert!(c.delta > before * 2.0, "δ should grow under overload: {} -> {}", before, c.delta);
    }

    #[test]
    fn under_budget_lowers_delta() {
        let mut c = Node::new();
        c.c.on_budget(0.5);
        let before = c.delta;
        for _ in 0..10 {
            c.window(0, None); // zero updates sent
        }
        assert!(c.delta < before / 2.0, "δ should shrink when silent: {} -> {}", before, c.delta);
    }

    #[test]
    fn clamps_respected() {
        let mut c = Node::new();
        c.c.on_budget(1000.0); // effectively unlimited → δ falls
        for _ in 0..20 {
            c.window(0, None);
        }
        assert_eq!(c.delta, MIN_DELTA_PCT);
        c.c.on_budget(1e-9); // effectively zero → δ rises
        for _ in 0..20 {
            c.window(1, None);
        }
        assert_eq!(c.delta, MAX_DELTA_PCT);
    }

    /// With σ̂ present, one adjustment is the clamped geometric blend
    /// `fb^(1−w) · ff^w`, w = 0.15. At δ = 5 and budget 0.2 with one update
    /// per 5 epochs, the observed rate equals the budget, so fb = δ = 5.
    #[test]
    fn one_adjustment_is_the_clamped_blend() {
        let blend = |sigma: f64| {
            let mut c = Node::new();
            c.c.on_budget(0.2);
            for epoch in 1..=ADJUST_PERIOD {
                if epoch % 5 == 0 {
                    c.c.on_update_sent();
                }
                let new = c.on_epoch_end(Some(sigma));
                assert_eq!(new.is_some(), epoch == ADJUST_PERIOD);
            }
            c.delta
        };
        // σ̂ = 4: ff = 4 / (2 · 0.2) = 10, so 5^0.85 · 10^0.15 = 5 · 2^0.15.
        let got = blend(4.0);
        let want = 5.0 * 2f64.powf(0.15);
        assert!((got - want).abs() < 1e-12 * want, "blend {got}, hand-computed {want}");
        // σ̂ = 4 000: ff = 10 000, the blend 5 · 2 000^0.15 ≈ 15.6 is more
        // than twice δ, so the step clamp holds it at 5 · 2.
        assert_eq!(blend(4000.0), 10.0);
        // σ̂ = 0 is no estimate: feedback alone leaves δ where it is.
        assert_eq!(blend(0.0), 5.0);
    }

    #[test]
    fn step_clamp_limits_swing() {
        let mut c = Node::new();
        c.c.on_budget(0.01);
        let before = c.delta;
        let after = c.window(1, None).unwrap();
        assert_eq!(after / before, MAX_STEP);
    }

    #[test]
    fn invalid_budget_ignored() {
        let mut c = AtcController::default();
        c.on_budget(f64::NAN);
        assert_eq!(c.budget_per_epoch, None);
        c.on_budget(-1.0);
        assert_eq!(c.budget_per_epoch, None);
        c.on_budget(f64::INFINITY);
        assert_eq!(c.budget_per_epoch, None);
        c.on_budget(0.25);
        assert_eq!(c.budget_per_epoch, Some(0.25));
    }
}

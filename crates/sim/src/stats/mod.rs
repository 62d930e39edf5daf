//! Measurement toolkit for simulation experiments.
//!
//! Everything the reproduction reports — message counts, cost ratios,
//! overshoot percentages, update-rate time series — flows through these
//! primitives:
//!
//! * [`Ewma`] — exponentially weighted moving average (ATC's estimate of
//!   local signal variability and of a node's own update rate).
//! * [`Welford`] — numerically stable running mean/variance.
//! * [`TimeSeries`] — per-bucket accumulation (the paper's
//!   "updates per 100 epochs" curves in Fig. 6).

mod ewma;
mod timeseries;
mod welford;

pub use ewma::Ewma;
pub use timeseries::TimeSeries;
pub use welford::Welford;

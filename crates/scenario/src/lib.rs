//! # dirq-scenario — declarative large-scale experiment harness
//!
//! The paper evaluates DirQ on a handful of fixed 50-node setups; this
//! crate is the platform for everything beyond that. It separates *what*
//! an experiment is from *how* it runs:
//!
//! * [`spec`] — a declarative [`ScenarioSpec`] (topology family + size,
//!   churn schedule, workload mix, sensor-type profile, schemes under
//!   test, epoch budget, seed): public fields, set in a struct literal over
//!   [`ScenarioSpec::new`]'s defaults. Churn and measurement windows are
//!   run-relative, so a spec scales to quick smoke runs and full-budget
//!   sweeps without changing shape.
//! * [`registry`](mod@registry) — named presets spanning 100–50 000 nodes: dense grid,
//!   sparse random, corridor, clustered hotspot workload, heavy churn,
//!   heterogeneous sensor types, lossy radios, staged births, multiple
//!   sinks, a flooding head-to-head and the 2 000- to 50 000-node scale
//!   points.
//! * [`sweep`] — a deterministic executor fanning the scenario matrix
//!   (specs × schemes, one run per cell at the spec's seed) over worker
//!   threads.
//! * [`report`] — per-run [`ScenarioOutcome`]s, cross-scenario
//!   comparisons, a stable fingerprint and JSON rendering.
//!
//! Fixed seeds reproduce bit-identical [`ScenarioReport`]s across runs
//! and thread counts. `tests/scenario_golden.rs` (workspace root) pins
//! the report fingerprints of single presets, and `BENCH_2.json`, which
//! the `record_goldens` bench binary writes and checks, that of the whole
//! registry.
//!
//! ## Example
//!
//! ```
//! use dirq_scenario::{run_matrix_report, ScenarioSpec, Scheme, SweepConfig};
//!
//! // A small head-to-head: DirQ vs flooding on the same 40-node world.
//! let spec = ScenarioSpec {
//!     epochs: 300,
//!     schemes: vec![Scheme::DirqFixed(5.0), Scheme::Flooding],
//!     seed: 7,
//!     ..ScenarioSpec::new("demo", 40)
//! };
//!
//! let report = run_matrix_report(&[spec], &SweepConfig::default());
//! assert_eq!(report.rows.len(), 2);
//! // DirQ undercuts flooding on transmissions per delivered source.
//! let tx = report.comparisons.iter().find(|c| c.metric == "tx_per_delivered").unwrap();
//! assert!(tx.ratio < 1.0);
//! // The JSON artifact round-trips through the workspace parser.
//! let doc = report.to_json();
//! assert!(dirq_sim::json::Json::parse(&doc.render_pretty()).is_ok());
//! ```

#![warn(missing_docs)]

pub mod registry;
pub mod report;
pub mod spec;
pub mod sweep;

pub use registry::{preset, registry, smoke};
pub use report::{Comparison, ScenarioOutcome, ScenarioReport};
pub use spec::{ChurnProfile, ScenarioSpec, Scheme};
pub use sweep::{run_matrix_report, SweepConfig};

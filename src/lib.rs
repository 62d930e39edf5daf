//! # dirq — adaptive directed query dissemination for wireless sensor networks
//!
//! A from-scratch Rust reproduction of *"An Adaptive Directed Query
//! Dissemination Scheme for Wireless Sensor Networks"* (S. Chatterjea,
//! S. De Luigi, P. Havinga — ICPP Workshops 2006), including every
//! substrate the paper runs on:
//!
//! * [`sim`] — the deterministic simulation substrate: seeded RNG
//!   streams, statistics, a scoped-thread fan-out, JSON and snapshots
//!   (the paper used the OMNeT++ discrete-event simulator),
//! * [`net`] — node placement, radio models, topology graphs, spanning
//!   trees, unit-cost energy accounting, churn schedules,
//! * [`lmac`] — the LMAC TDMA MAC protocol with distributed slot
//!   scheduling and cross-layer neighbour-liveness upcalls,
//! * [`data`] — a synthetic spatio-temporally correlated sensor world and
//!   a coverage-calibrated range-query workload,
//! * [`core`] — DirQ itself: range tables, the update protocol, directed
//!   query routing, Adaptive Threshold Control, the flooding baseline and
//!   the scenario engine,
//! * [`analytic`] — the closed-form Section 5 cost model,
//! * [`scenario`] — declarative experiment specs, a preset registry
//!   spanning 100–50 000 nodes, and a deterministic sweep executor.
//!
//! ## Quick start
//!
//! ```
//! use dirq::prelude::*;
//!
//! // The paper's evaluation setup at a smoke-test scale.
//! let result = run_scenario(ScenarioConfig {
//!     epochs: 400,
//!     measure_from_epoch: 100,
//!     delta_policy: DeltaPolicy::Fixed(5.0),
//!     ..ScenarioConfig::paper(42)
//! });
//! assert!(result.queries_injected > 0);
//! // Directed dissemination undercuts flooding.
//! assert!(result.cost_per_query().unwrap() < result.flooding_cost_per_query());
//! ```
//!
//! See `examples/` for complete scenarios and `crates/bench` for the
//! binaries regenerating every figure of the paper.

#![warn(missing_docs)]

pub mod goldens;

pub use dirq_analytic as analytic;
pub use dirq_core as core;
pub use dirq_data as data;
pub use dirq_lmac as lmac;
pub use dirq_net as net;
pub use dirq_scenario as scenario;
pub use dirq_sim as sim;

/// The most common imports for building and running scenarios.
pub mod prelude {
    pub use dirq_analytic::{KaryCosts, TopologyCosts};
    pub use dirq_core::{
        run_scenario, ChurnSpec, DeltaPolicy, DirqNode, Engine, GeoTable, Protocol, RadioSpec,
        RunResult, SamplingStrategy, ScenarioConfig, TreeKind,
    };
    pub use dirq_data::{
        QueryGenerator, QueryId, RangeQuery, SensorCatalog, SensorType, SensorWorld, WorldConfig,
    };
    pub use dirq_lmac::{Destination, LmacConfig, LmacNetwork, MacIndication};
    pub use dirq_net::{
        churn::{ChurnEvent, ChurnPlan},
        placement::{Placement, SinkPlacement},
        radio::{LogDistance, UnitDisk},
        EnergyLedger, NodeId, Position, Rect, SpanningTree, Topology,
    };
    pub use dirq_scenario::{
        preset, registry, run_matrix_report, ChurnProfile, ScenarioReport, ScenarioSpec, Scheme,
        SweepConfig,
    };
    pub use dirq_sim::RngFactory;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let costs = KaryCosts::compute(2, 4);
        assert_eq!(costs.flooding, 91);
        let cfg = ScenarioConfig::paper_small(1);
        assert_eq!(cfg.n_nodes, 50);
    }
}

//! # dirq-net — network substrate
//!
//! The DirQ paper simulates a 50-node multihop wireless sensor network. This
//! crate provides everything below the MAC layer:
//!
//! * [`ids`] — dense node identifiers.
//! * [`bits`] — fixed-universe node bitsets for the hot simulation loops.
//! * [`nodelist`] — inline small-vectors of node ids (allocation-free
//!   multicast destination lists).
//! * [`geometry`] — 2-D positions and distances.
//! * [`placement`] — deployment strategies (uniform random, jittered grid,
//!   clustered).
//! * [`radio`] — connectivity models (unit disk; log-distance path loss with
//!   deterministic per-link shadowing).
//! * [`graph`] — the connectivity graph ([`Topology`]) with BFS reachability.
//! * [`tree`] — spanning-tree construction: BFS trees, the paper's
//!   bounded fan-out/depth random trees ("k = 8, d = 10"), and exact
//!   complete k-ary trees for validating the analytic model.
//! * [`energy`] — the paper's unit-cost energy ledger (1 unit per
//!   transmission, 1 unit per reception).
//! * [`churn`] — birth/death schedules driving the topology-dynamics
//!   experiments.

#![warn(missing_docs)]

pub mod bits;
pub mod churn;
pub mod energy;
pub mod geometry;
pub mod graph;
pub mod ids;
pub mod nodelist;
pub mod placement;
pub mod radio;
pub mod tree;

pub use bits::NodeBits;
pub use energy::EnergyLedger;
pub use geometry::{Position, Rect};
pub use graph::Topology;
pub use ids::NodeId;
pub use nodelist::NodeList;
pub use tree::SpanningTree;

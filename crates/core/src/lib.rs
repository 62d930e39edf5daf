//! # dirq-core — the DirQ protocol
//!
//! Implementation of *"An Adaptive Directed Query Dissemination Scheme for
//! Wireless Sensor Networks"* (Chatterjea, De Luigi, Havinga — ICPPW 2006).
//!
//! DirQ routes one-shot range queries only to the **relevant** nodes of a
//! sensor network instead of flooding it. Every node keeps, per sensor
//! type, a [`range_table::RangeTable`] with a `[THmin, THmax]` tuple for
//! itself and one for each one-hop child of a sink-rooted spanning tree;
//! aggregates propagate upward as **Update Messages** only when they move
//! by more than a threshold δ, and queries propagate downward only along
//! children whose advertised ranges overlap the query window. The
//! [`atc::AtcController`] adapts δ per node from the root's hourly query
//! estimate and the locally observed signal variability, holding total
//! cost near half of flooding.
//!
//! Module map:
//!
//! * [`messages`] — the wire messages (Update, Retract, Query, EHr, …).
//! * [`range_table`] — Section 4.1's data structure and update rule.
//! * [`node`] — the per-node protocol state machine.
//! * [`atc`] — Section 6's Adaptive Threshold Control (reconstructed; the
//!   companion paper with the original internals is unavailable).
//! * [`flooding`] — the Section 5.1 baseline.
//! * [`metrics`] — per-query outcomes, Fig. 6 time series, cost ledgers.
//! * [`engine`] — the scenario engine wiring LMAC, the world and the
//!   protocol together; [`engine::run_scenario`] is the main entry point.
//!   Its crate-private modules hold one plane each: `config` (the public
//!   types), `run` (construction and the epoch loop), `snapshot`, `tree`
//!   (churn, repair, attachment), `dispatch` (the MAC frame, routing and
//!   the one MAC enqueue, injection, EHr, finalisation) and
//!   `sensing` (the dense per-(node, type) sampling state, which also
//!   holds every node's own and last-transmitted range tuples, and the one
//!   sampling pass; a node is entered only when a reading escapes its own
//!   tuple).

#![warn(missing_docs)]

pub mod atc;
pub mod engine;
pub mod flooding;
pub mod geo;
pub mod messages;
pub mod metrics;
pub mod node;
mod pending;
pub mod range_table;
pub mod sampling;

pub use atc::{AtcController, DeltaPolicy};
pub use engine::{
    run_scenario, ChurnSpec, CompletedQuery, Engine, EngineFootprint, PhaseTimings, Protocol,
    RadioSpec, RunResult, ScenarioConfig, TreeKind,
};
pub use geo::GeoTable;
pub use messages::{DirqMessage, EhrMessage, MessageCategory};
pub use metrics::{Metrics, QueryOutcome};
pub use node::{DirqNode, NodeConfig, Outgoing};
pub use range_table::{RangeEntry, RangeTable, Row, RowBuf, RowMut};
pub use sampling::{Sampler, SamplingStrategy};

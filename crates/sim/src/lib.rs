//! # dirq-sim — deterministic simulation substrate
//!
//! The DirQ paper evaluates its protocol inside OMNeT++, a discrete-event
//! simulator. The reproduction needs no event queue: the engine
//! (`dirq-core`) steps one LMAC frame per epoch and drives the MAC slot
//! by slot. This crate provides the substrate every layer shares:
//!
//! * [`rng`] — reproducible hierarchical random-number streams so that every
//!   component (radio, data generator, workload, …) draws from an
//!   independent, seed-derived stream.
//! * [`stats`] — EWMAs, Welford accumulators and bucketed time series
//!   used by the measurement harness.
//! * [`runner`] — a parallel parameter-sweep/matrix executor (one
//!   simulation per thread, deterministic output ordering, seed
//!   replication) over the scoped-thread fan-out that also shards the
//!   engine's world advance and sensor sampling.
//! * [`report`] — tiny CSV/ASCII-table emitters for experiment output.
//! * [`json`] — a deterministic JSON writer/parser for bench artifacts,
//!   scenario reports and the daemon wire protocol.
//! * [`snap`] — the versioned binary snapshot codec behind engine
//!   checkpoint/restore (and the on-disk image framing).
//! * [`fingerprint`] — the FNV-1a hasher behind every determinism golden.

#![warn(missing_docs)]

pub mod fingerprint;
pub mod json;
pub mod report;
pub mod rng;
pub mod runner;
pub mod snap;
pub mod stats;

pub use fingerprint::Fnv;
pub use json::Json;
pub use rng::{split_key, RngFactory, SimRng, StreamRng};
pub use snap::{SnapError, SnapReader, SnapWriter};

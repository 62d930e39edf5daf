//! # dirqd — a query-serving daemon for live DirQ deployments
//!
//! The simulation workspace runs experiments as batch jobs; `dirqd`
//! turns an [`Engine`](dirq_core::Engine) into a *service*: named
//! deployments built from the scenario registry, hosted behind a
//! newline-JSON TCP protocol, accepting ad-hoc range queries from
//! clients and answering them with scored outcomes once the protocol's
//! completion window has elapsed.
//!
//! Four pieces:
//!
//! * [`daemon`] — the server: deployments multiplexed over a fixed-size
//!   serving pool, epoch-boundary batching of client queries,
//!   snapshot/restore of the full engine state to versioned image
//!   files, and crash recovery from rotating auto-checkpoints.
//! * [`client`] — a blocking protocol client ([`Client`]).
//! * [`protocol`] — the wire format: bounded newline-JSON lines and the
//!   snapshot image header.
//! * [`loadmodel`] — the engine-level replay of the serving loop, which
//!   the tests, the golden recorder and the benchmark hold the daemon to.
//!
//! Binaries: `dirqd` (serve) and `dirq-cli` (one-shot protocol calls
//! from the shell). The integration tests (`tests/daemon.rs`) are the
//! daemon's one end-to-end check; its throughput and latency are
//! measured by the benchmark's `serve_mixed` workload, not here.
//!
//! ## Determinism contract
//!
//! Engines are deterministic; the daemon preserves that per deployment
//! by forcing every mutation through one command stream and ordering
//! concurrent query submissions by content at each epoch boundary. Two
//! daemons fed the same barriered call sequence produce byte-identical
//! engine state — `state_fingerprint` equality after a
//! snapshot/restore round trip is asserted by the integration tests.

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod loadmodel;
pub mod protocol;

pub use client::{
    Client, ClientError, DeployOptions, DeploySummary, DrainReport, QueryReport, SnapshotReport,
    StatusReport,
};
pub use daemon::{Daemon, DaemonOptions, DeploymentInfo, RecoveredFrom};
pub use protocol::{ImageHeader, ServingOptions, MAX_LINE_BYTES};

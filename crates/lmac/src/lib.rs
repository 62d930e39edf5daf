//! # dirq-lmac — the LMAC medium-access substrate
//!
//! DirQ (Chatterjea et al., ICPPW'06) runs on top of **LMAC** (van Hoesel &
//! Havinga 2004): a TDMA MAC for wireless sensor networks with a completely
//! distributed, self-organising slot-scheduling algorithm. The DirQ paper
//! leans on two LMAC properties:
//!
//! 1. **Scheduled, collision-free data exchange** once slot selection has
//!    converged — each node owns one slot per frame and transmits a control
//!    section (identity, occupied-slot bitmap, gateway hop distance) plus an
//!    optional data section addressed to a set of neighbours.
//! 2. **Cross-layer notifications**: LMAC's neighbour bookkeeping detects
//!    dead and new neighbours, and DirQ subscribes to those events to repair
//!    its spanning tree and range tables (Section 4.2 of the paper).
//!
//! This crate reproduces exactly that contract:
//!
//! * [`slots`] — fixed-size slot bitmaps used by the distributed scheduler.
//! * [`config`] — frame geometry and LMAC's two fixed liveness timers.
//! * [`neighbor`] — the network-owned, edge-aligned neighbour arena with
//!   last-heard tracking, read through typed per-node views.
//! * [`indication`] — the upcall stream handed to the upper layer
//!   (deliveries, dead-neighbour and new-neighbour events).
//! * `store` — the message store: every node's transmit queue as an index
//!   list in one slab of 12-byte entries, and every queued payload once,
//!   in reference-counted slots of one of two sizes by its [`Payload`]
//!   class.
//! * [`network`] — [`network::LmacNetwork`], the slot-synchronous state
//!   machine simulating every node's MAC instance over a shared
//!   [`dirq_net::Topology`].
//!
//! ## Modelling notes (documented substitutions)
//!
//! * Slot boundaries are globally synchronous (no clock drift); LMAC's
//!   guard times make this a reasonable abstraction at epoch scale.
//! * Links are reliable when the radio graph says two nodes are connected;
//!   the only losses modelled are slot **collisions** (two transmitters
//!   within interference range of a listener in the same slot), which is
//!   the failure mode LMAC's scheduler actually has to resolve.
//! * Energy is split into two ledgers: the *data* ledger counts exactly the
//!   messages the paper's Section-5 cost model counts (1 unit per data
//!   transmission, 1 unit per *intended* reception), while the *control*
//!   ledger tracks LMAC's own overhead, which the paper excludes because it
//!   is identical for DirQ and flooding.

#![warn(missing_docs)]

pub mod config;
pub mod indication;
pub mod neighbor;
pub mod network;
pub mod slots;
mod store;

pub use config::LmacConfig;
pub use indication::{Destination, MacIndication, Payload, PayloadHandle};
pub use neighbor::{NeighborArena, NeighborInfo, NeighborView};
pub use network::{LmacNetwork, MacFootprint};
pub use slots::SlotSet;

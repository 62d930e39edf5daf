//! The slot-synchronous LMAC state machine.
//!
//! [`LmacNetwork`] simulates one MAC instance per node over a shared radio
//! graph. The upper layer (DirQ, flooding) drives it one slot at a time and
//! consumes the resulting [`MacIndication`] stream. See the crate docs for
//! the modelling notes.
//!
//! ## Hot-path layout
//!
//! One slot is the innermost loop of every experiment (20 000 epochs ×
//! `slots_per_frame` slots per run), so it is engineered for zero
//! steady-state allocations:
//!
//! * queued payloads are interned once into a [`PayloadHandle`] and shared
//!   by every per-receiver indication instead of cloned;
//! * per-slot working state (transmitter set, listener set, collision set,
//!   audible list, per-transmitter records) lives in a persistent
//!   `FrameScratch` of flat vectors and [`NodeBits`] bitsets, reused
//!   across slots;
//! * membership tests (is transmitting? has collided?) are O(1) bit tests
//!   rather than linear `Vec::contains` scans, and listener iteration runs
//!   in ascending id order straight off the bitset — the sort+dedup the
//!   old representation needed is gone;
//! * audibility is resolved from the *listener's* side: each listener walks
//!   its own CSR neighbour slice and probes a node→transmission index
//!   (`tx_index`), instead of testing `has_link` against every concurrent
//!   transmitter — the listeners × transmitters scan of `has_link`
//!   probes that dominated dense frames is gone;
//! * neighbour knowledge is network-owned in an **edge-aligned
//!   [`NeighborArena`]** (`Topology::row_start(listener) + mirror_pos`),
//!   so the listener loop's stores land sequentially in listener order on
//!   one contiguous array instead of hopping through per-node heap vecs;
//! * at the control plane's **fixed point** — once a full frame changed
//!   no neighbour entry's slot, gateway distance or presence — slots skip
//!   the per-edge control pass altogether and carry data only: every
//!   alive owner still marks itself transmitting (half-duplex) and records
//!   its control transmission, but only owners with queued data touch the
//!   data ledger or get a transmission record; control receptions accrue
//!   at the frame boundary in one O(n) pass and `last_heard_frame` is
//!   implied by the clock (see `frame_boundary` for the gate);
//! * the slot-occupancy index (`slot_owners` + the per-slot alive check)
//!   short-circuits slots nobody owns: an empty slot advances the clock
//!   without touching the scratch buffers at all;
//! * callers that want full reuse drive [`LmacNetwork::advance_slot_into`]
//!   with a long-lived output buffer ([`LmacNetwork::advance_slot`] remains
//!   as a convenience wrapper).
//!
//! [`LmacNetwork::advance_slot_full_scan_into`] keeps the pre-index
//! reference semantics (scan every transmitter per listener, process empty
//! slots, never take the fixed-point path) for the differential property
//! tests; both paths must produce identical indication streams,
//! statistics, ledgers, neighbour views and snapshots.

use std::collections::VecDeque;

use dirq_net::{EnergyLedger, NodeBits, NodeId, Topology};
use dirq_sim::snap::{SnapError, SnapReader, SnapWriter};
use dirq_sim::SimRng;
use rand::Rng;

use crate::config::LmacConfig;
use crate::indication::{Destination, MacIndication, PayloadHandle};
use crate::neighbor::{Heard, NeighborArena, NeighborView, SteadyClock};
use crate::slots::SlotSet;

/// Aggregate MAC statistics for a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MacStats {
    /// Data messages delivered to an intended receiver.
    pub delivered: u64,
    /// Data messages that could not reach an intended receiver.
    pub undeliverable: u64,
    /// Slot collisions observed by listeners (join transients).
    pub collisions: u64,
    /// Slots given up after a collision.
    pub slots_surrendered: u64,
    /// Successful slot selections.
    pub slots_picked: u64,
    /// Frames in which a node found no free slot to pick.
    pub no_free_slot: u64,
    /// Dead-neighbour upcalls raised.
    pub deaths_detected: u64,
    /// New-neighbour upcalls raised.
    pub new_neighbors_detected: u64,
}

/// Per-node MAC state. Neighbour knowledge does **not** live here — it is
/// network-owned, in the edge-aligned [`NeighborArena`].
struct MacNode<P> {
    alive: bool,
    my_slot: Option<u16>,
    listen_remaining: u32,
    tx_queue: VecDeque<(Destination, PayloadHandle<P>)>,
}

impl<P> MacNode<P> {
    fn offline() -> Self {
        MacNode { alive: false, my_slot: None, listen_remaining: 0, tx_queue: VecDeque::new() }
    }
}

/// `FrameScratch::audible_tx` sentinel: no transmitter audible yet.
const AUDIBLE_NONE: u64 = u64::MAX;
/// `FrameScratch::audible_tx` sentinel: two or more transmitters audible.
const AUDIBLE_COLLIDED: u64 = u64::MAX - 1;

/// One transmission within the current slot; its data messages live in
/// `FrameScratch::tx_data[data_start..data_end]`.
struct TxRecord {
    from: NodeId,
    occupied: SlotSet,
    gateway_dist: u16,
    data_start: u32,
    data_end: u32,
}

/// Persistent per-slot working state (see the module docs).
struct FrameScratch<P> {
    /// This slot's alive owners: they transmit, so they do not listen.
    tx_mark: NodeBits,
    txs: Vec<TxRecord>,
    /// Flat storage for all data messages sent in this slot.
    tx_data: Vec<(Destination, PayloadHandle<P>)>,
    /// Alive non-transmitting neighbours of this slot's transmitters;
    /// iterated in ascending id order.
    listener_mark: NodeBits,
    /// Transmitters that must surrender their slot after a collision.
    collided_mark: NodeBits,
    /// Indices into `txs` audible at the current listener.
    audible: Vec<u32>,
    /// node → audibility resolution for this slot: `AUDIBLE_NONE`, a
    /// single tx index, or `AUDIBLE_COLLIDED`. Written while marking
    /// listeners, consumed (and reset) by the listener loop.
    audible_tx: Vec<u64>,
    /// node → index into `txs` for this slot (`u32::MAX` = no record).
    /// Reset by iterating `txs`, never by an O(n) fill.
    tx_index: Vec<u32>,
    /// Stale-neighbour collection buffer for the frame boundary.
    stale_buf: Vec<NodeId>,
    /// A steady slot's data deliveries as (listener, message index into
    /// `tx_data`, tx index), sorted into the listener loop's order.
    deliveries: Vec<(NodeId, u32, u32)>,
}

impl<P> FrameScratch<P> {
    fn new(topo: &Topology, cfg: &LmacConfig) -> Self {
        let n = topo.len();
        // Concurrent same-slot transmitters are bounded by a 2-hop
        // neighbourhood during join transients; the maximum degree is a
        // safe, topology-derived capacity for every per-slot list.
        let width = topo.max_degree().max(8);
        FrameScratch {
            tx_mark: NodeBits::new(n),
            txs: Vec::with_capacity(width),
            tx_data: Vec::with_capacity(width * cfg.data_messages_per_slot),
            listener_mark: NodeBits::new(n),
            collided_mark: NodeBits::new(n),
            audible: Vec::with_capacity(width),
            audible_tx: vec![AUDIBLE_NONE; n],
            tx_index: vec![u32::MAX; n],
            stale_buf: Vec::with_capacity(width),
            deliveries: Vec::with_capacity(width),
        }
    }

    /// Empty scratch (used only while the real one is temporarily moved
    /// out to satisfy the borrow checker).
    fn placeholder() -> Self {
        FrameScratch {
            tx_mark: NodeBits::new(0),
            txs: Vec::new(),
            tx_data: Vec::new(),
            listener_mark: NodeBits::new(0),
            collided_mark: NodeBits::new(0),
            audible: Vec::new(),
            audible_tx: Vec::new(),
            tx_index: Vec::new(),
            stale_buf: Vec::new(),
            deliveries: Vec::new(),
        }
    }
}

/// The simulated LMAC network.
///
/// Generic over the upper-layer payload `P`; the MAC never inspects it.
pub struct LmacNetwork<P> {
    cfg: LmacConfig,
    topo: Topology,
    nodes: Vec<MacNode<P>>,
    /// Network-owned neighbour knowledge, edge-aligned to `topo`'s CSR
    /// rows (`Topology::row_start(listener) + mirror_pos`).
    arena: NeighborArena,
    /// slot → owners (normally ≤1 per 2-hop area; >1 during joins).
    slot_owners: Vec<Vec<NodeId>>,
    frame: u64,
    slot: u16,
    data_ledger: EnergyLedger,
    control_ledger: EnergyLedger,
    stats: MacStats,
    /// Alive nodes currently without a slot. The frame-boundary join scan
    /// is O(n) over big `MacNode` records; in steady state (everyone
    /// placed) this count short-circuits it entirely.
    unslotted_alive: usize,
    scratch: FrameScratch<P>,
    /// Compact mirror of per-node liveness — the reception loops test
    /// liveness per neighbour per slot, and a bit probe beats pulling a
    /// whole `MacNode` cache line.
    alive_mask: NodeBits,
    /// Edge-aligned mirror positions: for the CSR edge slot holding
    /// `neighbors(u)[p] == v`, the value is `v`'s row position of `u` —
    /// i.e. where `u` sits in `v`'s (row-aligned) arena row. Lets the
    /// reception loop update the listener's row with a direct indexed
    /// store instead of a per-event search.
    mirror_pos: Vec<u32>,
    /// Whether the control plane is at its fixed point: the last full
    /// frame changed nothing (see [`LmacNetwork::frame_boundary`]) and no
    /// `set_alive` or `restore` came after it. Slots then skip the
    /// per-edge control pass.
    steady: bool,
    /// Whether the current frame has changed nothing in the control plane
    /// so far: no entry's slot, gateway distance or presence, no
    /// collision, surrender, pick or death, and no `set_alive`. A frame
    /// that a `restore` entered mid-way is never quiet.
    frame_quiet: bool,
    /// Control receptions in the current frame.
    frame_rx: u64,
}

impl<P> LmacNetwork<P> {
    /// Create a network over `topo` with every node alive but no slots
    /// assigned yet; nodes acquire slots through the join protocol. All
    /// per-slot working buffers are pre-sized from the topology.
    pub fn new(cfg: LmacConfig, topo: Topology) -> Self {
        cfg.validate();
        let n = topo.len();
        let mut nodes: Vec<MacNode<P>> = (0..n).map(|_| MacNode::offline()).collect();
        for node in nodes.iter_mut() {
            node.alive = true;
            node.listen_remaining = cfg.listen_frames_before_pick;
        }
        let mut alive_mask = NodeBits::new(n);
        for i in 0..n {
            alive_mask.insert(NodeId::from_index(i));
        }
        // Edge-aligned mirror positions (see the field docs). Rows are
        // ascending and links symmetric, so walking `u` in ascending order
        // meets each `v`'s row entries in row order: a per-node cursor
        // gives every reverse position without a search.
        let mut mirror_pos = vec![0u32; 2 * topo.link_count()];
        let mut cursor = vec![0u32; n];
        for i in 0..n {
            let u = NodeId::from_index(i);
            let base = topo.row_start(u);
            for (p, &v) in topo.neighbors(u).iter().enumerate() {
                let back = &mut cursor[v.index()];
                debug_assert_eq!(topo.neighbors(v)[*back as usize], u, "undirected edge");
                mirror_pos[base + p] = *back;
                *back += 1;
            }
        }
        // Each row consumed exactly: every mirror position lies inside its
        // row.
        assert!(
            topo.nodes().all(|v| cursor[v.index()] as usize == topo.degree(v)),
            "topology rows must be symmetric"
        );
        LmacNetwork {
            slot_owners: vec![Vec::new(); cfg.slots_per_frame as usize],
            data_ledger: EnergyLedger::new(n),
            control_ledger: EnergyLedger::new(n),
            scratch: FrameScratch::new(&topo, &cfg),
            arena: NeighborArena::new(&topo),
            alive_mask,
            mirror_pos,
            steady: false,
            frame_quiet: true,
            frame_rx: 0,
            unslotted_alive: n,
            cfg,
            topo,
            nodes,
            frame: 0,
            slot: 0,
            stats: MacStats::default(),
        }
    }

    /// Deterministically pre-assign slots with a greedy 2-hop colouring and
    /// pre-populate neighbour tables, skipping the join transient. This is
    /// the steady state the paper's experiments start from.
    ///
    /// # Panics
    /// Panics if `slots_per_frame` is too small for some 2-hop
    /// neighbourhood, or if a node already holds a slot (the assignment
    /// runs once, on a network that has not advanced a frame).
    pub fn assign_slots_greedy(&mut self) {
        assert_eq!(
            self.unslotted_alive,
            self.alive_mask.len(),
            "greedy assignment runs before any node holds a slot"
        );
        // A dense slot table, and per node the slots held so far in its
        // closed neighbourhood (itself and its neighbours), extended as
        // each slot is assigned. A node's 2-hop occupancy is then the
        // union over its neighbours: O(degree) instead of a 2-hop walk.
        // No node holds a slot beforehand, so that union never contains
        // the node's own slot.
        let mut slot = vec![0u16; self.nodes.len()];
        let mut held = vec![SlotSet::EMPTY; self.nodes.len()];
        for i in 0..slot.len() {
            let node = NodeId::from_index(i);
            if !self.alive_mask.contains(node) {
                continue;
            }
            let mut forbidden = SlotSet::EMPTY;
            for &nb in self.topo.neighbors(node) {
                forbidden.union_with(held[nb.index()]);
            }
            let s = forbidden.first_free(self.cfg.slots_per_frame).unwrap_or_else(|| {
                panic!(
                    "no free slot for {node}: {} slots/frame too few for its 2-hop degree",
                    self.cfg.slots_per_frame
                )
            });
            slot[i] = s;
            held[i].insert(s);
            for &nb in self.topo.neighbors(node) {
                held[nb.index()].insert(s);
            }
            self.nodes[i].my_slot = Some(s);
            self.nodes[i].listen_remaining = 0;
            self.unslotted_alive -= 1;
            self.slot_owners[s as usize].push(node);
        }
        // Pre-populate neighbour tables as if a full frame had elapsed.
        // Gateway distances settle within a few frames of real traffic;
        // seed them from graph hop counts, which is what LMAC converges to.
        // Arena rows are the topology rows, so a neighbour's row position
        // is its index in `neighbors(node)`; every alive neighbour now has
        // its entry in `slot`.
        if slot.is_empty() {
            return; // no root to measure hops from
        }
        let hops = self.topo.hop_distances(NodeId::ROOT, |v| self.alive_mask.contains(v));
        for i in 0..slot.len() {
            let node = NodeId::from_index(i);
            if !self.alive_mask.contains(node) {
                continue;
            }
            for (p, &nb) in self.topo.neighbors(node).iter().enumerate() {
                if self.alive_mask.contains(nb) {
                    let d = hops[nb.index()];
                    let d16 =
                        if d == u32::MAX { u16::MAX } else { d.min(u16::MAX as u32 - 1) as u16 };
                    let s = Some(slot[nb.index()]);
                    self.arena.heard_at(node, p, nb, s, SlotSet::EMPTY, d16, self.frame);
                }
            }
        }
    }

    /// The radio graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Configuration in use.
    pub fn config(&self) -> &LmacConfig {
        &self.cfg
    }

    /// Whether `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.index()].alive
    }

    /// Slot owned by `node`, if it has converged.
    pub fn slot_of(&self, node: NodeId) -> Option<u16> {
        self.nodes[node.index()].my_slot
    }

    /// The node's MAC neighbour view (cross-layer read access — this is
    /// the information DirQ uses to repair its tree).
    pub fn neighbor_table(&self, node: NodeId) -> NeighborView<'_> {
        self.arena.view_at(node, self.clock())
    }

    /// Hop distance to the gateway as the MAC currently believes it
    /// (root = 0; `u16::MAX` when unknown).
    pub fn gateway_distance(&self, node: NodeId) -> u16 {
        if node.is_root() {
            0
        } else {
            self.arena.view(node).min_gateway_dist().saturating_add(1)
        }
    }

    /// Paper-comparable data-message energy ledger.
    pub fn data_ledger(&self) -> &EnergyLedger {
        &self.data_ledger
    }

    /// LMAC's own control-traffic ledger (excluded from the paper's cost
    /// comparison; identical for DirQ and flooding). Transmissions are
    /// exact at every slot, receptions at frame boundaries. Inside a frame
    /// at the fixed point, its receptions lag: they accrue at the frame
    /// boundary, or when the MAC leaves the fixed point.
    pub fn control_ledger(&self) -> &EnergyLedger {
        &self.control_ledger
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &MacStats {
        &self.stats
    }

    /// Number of messages waiting in `node`'s transmit queue.
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.nodes[node.index()].tx_queue.len()
    }

    /// Queue a data message for transmission in `from`'s next owned slot.
    /// The payload is interned once; all receiver indications will share
    /// it. Returns `false` (dropping the message) when `from` is dead.
    pub fn enqueue(&mut self, from: NodeId, dest: Destination, payload: P) -> bool {
        self.enqueue_shared(from, dest, PayloadHandle::new(payload))
    }

    /// Queue an already-interned payload (zero-copy re-forwarding: a
    /// rebroadcast can pass the handle it received straight back down).
    pub fn enqueue_shared(
        &mut self,
        from: NodeId,
        dest: Destination,
        payload: PayloadHandle<P>,
    ) -> bool {
        let node = &mut self.nodes[from.index()];
        if !node.alive {
            return false;
        }
        node.tx_queue.push_back((dest, payload));
        true
    }

    /// Kill or revive a node. Death silences it immediately (neighbours
    /// detect the silence via the liveness timeout). Birth starts the LMAC
    /// join procedure: listen, then pick a free slot.
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        let idx = node.index();
        if self.nodes[idx].alive == alive {
            return;
        }
        self.leave_fixed_point();
        if alive {
            self.nodes[idx] = MacNode::offline();
            self.nodes[idx].alive = true;
            self.nodes[idx].listen_remaining = self.cfg.listen_frames_before_pick;
            self.arena.reset_row(node);
            self.alive_mask.insert(node);
            self.unslotted_alive += 1;
        } else {
            match self.nodes[idx].my_slot.take() {
                Some(s) => self.slot_owners[s as usize].retain(|&n| n != node),
                None => self.unslotted_alive -= 1,
            }
            self.nodes[idx].alive = false;
            self.nodes[idx].tx_queue.clear();
            self.arena.reset_row(node);
            self.alive_mask.remove(node);
        }
    }

    /// Write the dynamic MAC state (clock, statistics, ledgers, per-node
    /// join/queue state, slot ownership, neighbour knowledge) to `w`.
    /// `encode` serializes one queued payload; the MAC never inspects
    /// payloads, so their codec belongs to the upper layer.
    pub fn snap(&self, w: &mut SnapWriter, mut encode: impl FnMut(&mut SnapWriter, &P)) {
        w.tag(b"LMAC");
        w.u64(self.frame);
        w.u16(self.slot);
        for v in [
            self.stats.delivered,
            self.stats.undeliverable,
            self.stats.collisions,
            self.stats.slots_surrendered,
            self.stats.slots_picked,
            self.stats.no_free_slot,
            self.stats.deaths_detected,
            self.stats.new_neighbors_detected,
        ] {
            w.u64(v);
        }
        self.data_ledger.snap(w);
        match self.clock() {
            // Mid-frame at the fixed point: add the receptions of the
            // slots already run, as the per-edge loop would have.
            Some(clock) if clock.slot > 0 => {
                let mut ledger = self.control_ledger.clone();
                self.arena.credit_receptions(&mut ledger, Some(clock.slot));
                ledger.snap(w);
            }
            _ => self.control_ledger.snap(w),
        }
        w.len_of(self.nodes.len());
        for node in &self.nodes {
            w.bool(node.alive);
            w.opt_u16(node.my_slot);
            w.u32(node.listen_remaining);
            w.len_of(node.tx_queue.len());
            for (dest, payload) in &node.tx_queue {
                match dest {
                    Destination::Broadcast => w.u8(0),
                    Destination::Multicast(list) => {
                        w.u8(1);
                        w.len_of(list.len());
                        for id in list.as_slice() {
                            w.u32(id.index() as u32);
                        }
                    }
                }
                encode(w, payload);
            }
        }
        w.len_of(self.slot_owners.len());
        for owners in &self.slot_owners {
            w.len_of(owners.len());
            for id in owners {
                w.u32(id.index() as u32);
            }
        }
        self.arena.snap(w, self.clock());
    }

    /// Overlay state captured by [`LmacNetwork::snap`] onto this network,
    /// which must be freshly built over the same configuration and
    /// topology. The liveness bitmap and unslotted-alive count are
    /// recomputed; slot advancement resumes exactly where the snapshot
    /// left off, outside the fixed point.
    ///
    /// Every slot in the image must lie below `slots_per_frame` (the
    /// current slot, each node's slot and each present neighbour entry's),
    /// and each slot's owner list must hold exactly the nodes that own the
    /// slot, once each; otherwise restore fails with
    /// [`SnapError::Malformed`].
    pub fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        mut decode: impl FnMut(&mut SnapReader<'_>) -> Result<P, SnapError>,
    ) -> Result<(), SnapError> {
        r.tag(b"LMAC")?;
        let spf = self.cfg.slots_per_frame;
        self.frame = r.count()?;
        let pos = r.position();
        self.slot = r.u16()?;
        if self.slot >= spf {
            return Err(SnapError::Malformed { pos, what: "MAC slot out of range" });
        }
        self.stats.delivered = r.count()?;
        self.stats.undeliverable = r.count()?;
        self.stats.collisions = r.count()?;
        self.stats.slots_surrendered = r.count()?;
        self.stats.slots_picked = r.count()?;
        self.stats.no_free_slot = r.count()?;
        self.stats.deaths_detected = r.count()?;
        self.stats.new_neighbors_detected = r.count()?;
        self.data_ledger.restore(r)?;
        self.control_ledger.restore(r)?;
        let n = self.nodes.len();
        let pos = r.position();
        if r.seq_len(3)? != n {
            return Err(SnapError::Malformed { pos, what: "MAC node count mismatch" });
        }
        let read_node_id = |r: &mut SnapReader<'_>| -> Result<NodeId, SnapError> {
            let pos = r.position();
            let idx = r.u32()? as usize;
            if idx >= n {
                return Err(SnapError::Malformed { pos, what: "node id out of range" });
            }
            Ok(NodeId::from_index(idx))
        };
        for node in self.nodes.iter_mut() {
            node.alive = r.bool()?;
            let pos = r.position();
            node.my_slot = r.opt_u16()?;
            if node.my_slot.is_some_and(|s| s >= spf) {
                return Err(SnapError::Malformed { pos, what: "node slot out of range" });
            }
            node.listen_remaining = r.u32()?;
            node.tx_queue.clear();
            let q = r.seq_len(2)?;
            for _ in 0..q {
                let dest = match r.u8()? {
                    0 => Destination::Broadcast,
                    1 => {
                        let m = r.seq_len(4)?;
                        let mut list = dirq_net::NodeList::new();
                        for _ in 0..m {
                            list.push(read_node_id(r)?);
                        }
                        Destination::Multicast(list)
                    }
                    _ => {
                        return Err(SnapError::Malformed {
                            pos: r.position(),
                            what: "unknown destination kind",
                        })
                    }
                };
                node.tx_queue.push_back((dest, PayloadHandle::new(decode(r)?)));
            }
        }
        let pos = r.position();
        if r.seq_len(8)? != self.slot_owners.len() {
            return Err(SnapError::Malformed { pos, what: "slot count mismatch" });
        }
        // Each owner list holds exactly its slot's holders, once each:
        // every listed node owns the slot it is listed under, no node is
        // listed twice, and every slot holder is listed.
        let mut listed = NodeBits::new(n);
        for (s, owners) in self.slot_owners.iter_mut().enumerate() {
            owners.clear();
            let m = r.seq_len(4)?;
            for _ in 0..m {
                let pos = r.position();
                let id = read_node_id(r)?;
                if self.nodes[id.index()].my_slot != Some(s as u16) || listed.contains(id) {
                    return Err(SnapError::Malformed { pos, what: "slot owner list mismatch" });
                }
                listed.insert(id);
                owners.push(id);
            }
        }
        if listed.len() != self.nodes.iter().filter(|node| node.my_slot.is_some()).count() {
            let pos = r.position();
            return Err(SnapError::Malformed { pos, what: "slot owner list mismatch" });
        }
        self.arena.restore(r, spf)?;
        self.alive_mask = NodeBits::new(n);
        self.unslotted_alive = 0;
        for i in 0..n {
            if self.nodes[i].alive {
                self.alive_mask.insert(NodeId::from_index(i));
                if self.nodes[i].my_slot.is_none() {
                    self.unslotted_alive += 1;
                }
            }
        }
        // The image says nothing about the frames before it: the gate
        // reopens after a full frame observed from here.
        self.steady = false;
        self.frame_quiet = self.slot == 0;
        self.frame_rx = 0;
        Ok(())
    }

    /// The MAC's position in the frame while the control plane is at its
    /// fixed point.
    fn clock(&self) -> Option<SteadyClock> {
        self.steady.then_some(SteadyClock { frame: self.frame, slot: self.slot })
    }

    /// Close the gate before a change the fixed point does not cover:
    /// credit the receptions of the slots already run in this frame,
    /// store every present entry's implied `last_heard_frame`, and keep
    /// the gate closed at least until the next frame boundary.
    fn leave_fixed_point(&mut self) {
        if let Some(clock) = self.clock() {
            if clock.slot > 0 {
                self.arena.credit_receptions(&mut self.control_ledger, Some(clock.slot));
            }
            self.arena.settle(clock);
            self.steady = false;
        }
        self.frame_quiet = false;
    }

    /// Advance one slot, returning the upcalls generated in it.
    ///
    /// Convenience wrapper over [`LmacNetwork::advance_slot_into`]; hot
    /// callers should hold a reusable buffer and call that directly.
    pub fn advance_slot(&mut self, rng: &mut SimRng) -> Vec<MacIndication<P>> {
        let mut out = Vec::new();
        self.advance_slot_into(rng, &mut out);
        out
    }

    /// Advance one slot, appending the generated upcalls to `out`.
    /// Performs no heap allocation in steady state.
    pub fn advance_slot_into(&mut self, rng: &mut SimRng, out: &mut Vec<MacIndication<P>>) {
        self.advance_slot_impl(rng, out, false);
    }

    /// Reference implementation of one slot with the occupancy-index,
    /// listener-side audibility and fixed-point shortcuts disabled: every
    /// slot is processed, every listener scans the full per-slot
    /// transmitter list through `Topology::has_link`, exactly as the
    /// pre-index loop did, and every frame ends in the full stale scan.
    /// Kept for the differential property tests — indications, statistics,
    /// ledgers, neighbour views and snapshots must match
    /// [`LmacNetwork::advance_slot_into`] bit for bit.
    pub fn advance_slot_full_scan_into(
        &mut self,
        rng: &mut SimRng,
        out: &mut Vec<MacIndication<P>>,
    ) {
        self.advance_slot_impl(rng, out, true);
    }

    fn advance_slot_impl(
        &mut self,
        rng: &mut SimRng,
        out: &mut Vec<MacIndication<P>>,
        full_scan: bool,
    ) {
        if full_scan {
            // The reference never takes the fast path: each of its slots
            // keeps the gate closed.
            self.leave_fixed_point();
        }
        let s = self.slot;

        // Slot-occupancy index: a slot with no alive owner carries no
        // transmission, no reception and no RNG draw — skip straight to the
        // clock advance instead of clearing and scanning the scratch state.
        // (Owner lists are maintained by `set_alive`/joins; typically 0 or
        // 1 entries, so the alive probe is O(1) in practice.)
        let occupied = self.slot_owners[s as usize].iter().any(|&t| self.alive_mask.contains(t));
        if self.steady {
            if occupied {
                self.run_steady_slot(out);
            }
        } else if occupied || full_scan {
            self.run_slot_traffic(rng, out, full_scan);
        }

        // --- Slot advance / frame boundary ---------------------------------
        self.slot += 1;
        if self.slot == self.cfg.slots_per_frame {
            self.slot = 0;
            self.frame += 1;
            self.frame_boundary(rng, out);
        }
    }

    /// Collect the current slot's alive transmitters and send each one's
    /// control section and up to `data_messages_per_slot` queued data
    /// messages. `adverts` (every slot outside the fixed point) computes
    /// the control sections' occupancy and gateway distance, which only the
    /// per-edge listener loop reads. Without it the slot carries data only:
    /// every alive owner is marked transmitting and records its control
    /// transmission, but only queued owners get a transmission record.
    fn transmit(&mut self, scratch: &mut FrameScratch<P>, adverts: bool) {
        let FrameScratch { tx_mark, txs, tx_data, tx_index, .. } = scratch;
        tx_mark.clear();
        txs.clear();
        tx_data.clear();
        for &t in &self.slot_owners[self.slot as usize] {
            if !self.alive_mask.contains(t) {
                continue;
            }
            tx_mark.insert(t);
            self.control_ledger.record_tx(t);
            if !adverts && self.nodes[t.index()].tx_queue.is_empty() {
                continue;
            }
            let (occupied, gw) = if adverts {
                (self.arena.view(t).one_hop_occupancy(), self.gateway_distance(t))
            } else {
                (SlotSet::EMPTY, u16::MAX)
            };
            let node = &mut self.nodes[t.index()];
            let data_start = tx_data.len() as u32;
            for _ in 0..self.cfg.data_messages_per_slot {
                match node.tx_queue.pop_front() {
                    Some(m) => tx_data.push(m),
                    None => break,
                }
            }
            let data_end = tx_data.len() as u32;
            for _ in data_start..data_end {
                self.data_ledger.record_tx(t);
            }
            tx_index[t.index()] = txs.len() as u32;
            txs.push(TxRecord { from: t, occupied, gateway_dist: gw, data_start, data_end });
        }
    }

    /// Multicast destinations that did not hear the message — dead, out
    /// of range, transmitting or colliding — surface to the upper layer
    /// in transmitter order; the payload handle is shared, not copied.
    /// Then the slot's sent payloads drop and its `tx_index` entries
    /// reset (O(|txs|), never an O(n) fill).
    fn finish_slot(&mut self, scratch: &mut FrameScratch<P>, out: &mut Vec<MacIndication<P>>) {
        let FrameScratch { tx_mark, txs, tx_data, collided_mark, tx_index, .. } = scratch;
        for tx in txs.iter() {
            for (dest, payload) in &tx_data[tx.data_start as usize..tx.data_end as usize] {
                if let Destination::Multicast(list) = dest {
                    for &d in list.as_slice() {
                        let heard = self.alive_mask.contains(d)
                            && self.topo.has_link(tx.from, d)
                            && !tx_mark.contains(d)
                            && !collided_mark.contains(tx.from);
                        if !heard {
                            self.stats.undeliverable += 1;
                            out.push(MacIndication::Undeliverable {
                                from: tx.from,
                                to: d,
                                payload: payload.clone(),
                            });
                        }
                    }
                }
            }
        }
        tx_data.clear();
        for tx in txs.iter() {
            tx_index[tx.from.index()] = u32::MAX;
        }
    }

    /// One slot at the control plane's fixed point. The previous frame's
    /// control traffic repeats: every listener hears exactly one
    /// transmitter and writes what its entry already holds. So the slot
    /// only delivers data — from each owner with queued data to each
    /// destination that is alive, linked and not transmitting — in the
    /// listener loop's order, with no arena write, collision check or
    /// control-rx tally (those accrue at the frame boundary).
    fn run_steady_slot(&mut self, out: &mut Vec<MacIndication<P>>) {
        let mut scratch = std::mem::replace(&mut self.scratch, FrameScratch::placeholder());
        self.transmit(&mut scratch, false);
        {
            let FrameScratch { tx_mark, txs, tx_data, collided_mark, deliveries, .. } =
                &mut scratch;
            collided_mark.clear();
            deliveries.clear();
            let hears = |d: NodeId| self.alive_mask.contains(d) && !tx_mark.contains(d);
            for (ti, tx) in txs.iter().enumerate() {
                for k in tx.data_start..tx.data_end {
                    match &tx_data[k as usize].0 {
                        Destination::Broadcast => {
                            for &d in self.topo.neighbors(tx.from) {
                                if hears(d) {
                                    deliveries.push((d, k, ti as u32));
                                }
                            }
                        }
                        Destination::Multicast(list) => {
                            for &d in list.as_slice() {
                                if hears(d) && self.topo.has_link(tx.from, d) {
                                    deliveries.push((d, k, ti as u32));
                                }
                            }
                        }
                    }
                }
            }
            // Ascending listener, then message order; a destination listed
            // twice still hears the message once.
            deliveries.sort_unstable();
            deliveries.dedup();
            for &(l, k, ti) in deliveries.iter() {
                self.data_ledger.record_rx(l);
                self.stats.delivered += 1;
                out.push(MacIndication::Delivered {
                    to: l,
                    from: txs[ti as usize].from,
                    payload: tx_data[k as usize].1.clone(),
                });
            }
        }
        self.finish_slot(&mut scratch, out);
        self.scratch = scratch;
    }

    /// Transmission + reception + collision resolution for the current
    /// slot, walking every edge from a transmitter to its listeners. Split
    /// out of [`LmacNetwork::advance_slot_impl`] so empty slots can bypass
    /// it entirely; `advance_slot_full_scan_into` flows through here with
    /// `full_scan` set.
    fn run_slot_traffic(
        &mut self,
        rng: &mut SimRng,
        out: &mut Vec<MacIndication<P>>,
        full_scan: bool,
    ) {
        let s = self.slot;

        // The scratch moves out of `self` for the duration of the slot so
        // its buffers can be borrowed independently of the node table.
        let mut scratch = std::mem::replace(&mut self.scratch, FrameScratch::placeholder());
        self.transmit(&mut scratch, true);
        let FrameScratch {
            tx_mark,
            txs,
            tx_data,
            listener_mark,
            collided_mark,
            audible,
            audible_tx,
            tx_index,
            ..
        } = &mut scratch;
        listener_mark.clear();
        collided_mark.clear();

        // --- Reception phase -----------------------------------------------
        // Listeners are the alive neighbours of transmitters (half-duplex:
        // a transmitter cannot listen in its own slot). The bitset yields
        // them deduplicated in ascending id order. The same pass resolves
        // audibility: with a converged 2-hop schedule each listener hears
        // exactly one transmitter, so a single node→tx slot suffices and
        // the collided sentinel flags the (rare) join transients.
        for (ti, tx) in txs.iter().enumerate() {
            let base = self.topo.row_start(tx.from);
            for (p, &nb) in self.topo.neighbors(tx.from).iter().enumerate() {
                if self.alive_mask.contains(nb) && !tx_mark.contains(nb) {
                    listener_mark.insert(nb);
                    let slot_entry = &mut audible_tx[nb.index()];
                    // Pack (tx index, the transmitter's position in the
                    // listener's row) for the delivery hot path.
                    *slot_entry = if *slot_entry == AUDIBLE_NONE {
                        ((ti as u64) << 32) | u64::from(self.mirror_pos[base + p])
                    } else {
                        AUDIBLE_COLLIDED
                    };
                }
            }
        }

        // Every marked listener in ascending id order: audibility,
        // collision detection, the arena-row update, statistics and
        // ledgers.
        for l in listener_mark.iter() {
            let resolved = std::mem::replace(&mut audible_tx[l.index()], AUDIBLE_NONE);
            audible.clear();
            if full_scan {
                // Reference path: probe the link matrix per transmitter.
                for (i, tx) in txs.iter().enumerate() {
                    if self.topo.has_link(tx.from, l) {
                        audible.push(i as u32);
                    }
                }
            } else if resolved == AUDIBLE_COLLIDED {
                // Rare join transient: recover the full audible set by
                // walking the listener's CSR row against the per-slot
                // transmitter index (links are symmetric).
                for &nb in self.topo.neighbors(l) {
                    let ti = tx_index[nb.index()];
                    if ti != u32::MAX {
                        audible.push(ti);
                    }
                }
            } else {
                audible.push((resolved >> 32) as u32);
            }
            if audible.len() > 1 {
                // Collision: l hears garbage and will advertise it; every
                // audible transmitter must surrender its slot.
                self.stats.collisions += 1;
                self.frame_quiet = false;
                for &i in audible.iter() {
                    collided_mark.insert(txs[i as usize].from);
                }
                continue;
            }
            let tx = &txs[audible[0] as usize];
            self.control_ledger.record_rx(l);
            self.frame_rx += 1;
            let heard = if full_scan || resolved == AUDIBLE_COLLIDED {
                // Cold paths resolve by id, as the pre-index loop did.
                self.arena.heard(l, tx.from, Some(s), tx.occupied, tx.gateway_dist, self.frame)
            } else {
                self.arena.heard_at(
                    l,
                    (resolved & 0xFFFF_FFFF) as usize,
                    tx.from,
                    Some(s),
                    tx.occupied,
                    tx.gateway_dist,
                    self.frame,
                )
            };
            if heard != Heard::Refreshed {
                self.frame_quiet = false;
            }
            if heard == Heard::New {
                self.stats.new_neighbors_detected += 1;
                out.push(MacIndication::NeighborNew { observer: l, new: tx.from });
            }
            for (dest, payload) in &tx_data[tx.data_start as usize..tx.data_end as usize] {
                if dest.includes(l) {
                    self.data_ledger.record_rx(l);
                    self.stats.delivered += 1;
                    out.push(MacIndication::Delivered {
                        to: l,
                        from: tx.from,
                        payload: payload.clone(),
                    });
                }
            }
        }

        // Collision resolution: surrender and re-join after a random
        // backoff, in ascending id order (as the sorted list used to be).
        for t in collided_mark.iter() {
            if let Some(slot) = self.nodes[t.index()].my_slot.take() {
                self.slot_owners[slot as usize].retain(|&n| n != t);
                self.stats.slots_surrendered += 1;
                self.unslotted_alive += 1;
                self.nodes[t.index()].listen_remaining =
                    self.cfg.listen_frames_before_pick + rng.gen_range(0..2u32);
            }
        }
        self.finish_slot(&mut scratch, out);
        self.scratch = scratch;
    }

    /// Advance a whole frame (`slots_per_frame` slots).
    pub fn advance_frame(&mut self, rng: &mut SimRng) -> Vec<MacIndication<P>> {
        let mut out = Vec::new();
        let start_frame = self.frame;
        while self.frame == start_frame {
            self.advance_slot_into(rng, &mut out);
        }
        out
    }

    /// Liveness, the fixed-point gate and slot selection, once per frame.
    ///
    /// The gate opens when the frame just ended changed nothing
    /// (`frame_quiet`), every alive node holds a slot, and its control
    /// receptions equal the present entries across all rows. A quiet frame
    /// writes no new slot, gateway distance or presence, so every node's
    /// next advertisement repeats this frame's; the RNG is drawn only on
    /// collisions and joins. The reception count means every present entry
    /// was heard this frame: none belongs to a dead or inaudible
    /// neighbour, and every advertised occupancy is current. The next
    /// frame therefore repeats this one, and so does every frame after it
    /// until `set_alive` or `restore`.
    fn frame_boundary(&mut self, rng: &mut SimRng, out: &mut Vec<MacIndication<P>>) {
        if self.steady {
            // Every alive listener heard each present neighbour once; no
            // entry can be stale and no node is joining.
            self.arena.credit_receptions(&mut self.control_ledger, None);
            return;
        }
        // Liveness: stale neighbours are declared dead (cross-layer upcall).
        let mut stale_buf = std::mem::take(&mut self.scratch.stale_buf);
        for i in 0..self.nodes.len() {
            let observer = NodeId::from_index(i);
            if !self.nodes[i].alive {
                continue;
            }
            stale_buf.clear();
            self.arena.collect_stale(
                observer,
                self.frame,
                self.cfg.max_missed_frames,
                None,
                &mut stale_buf,
            );
            for &dead in &stale_buf {
                self.arena.remove(observer, dead);
                self.stats.deaths_detected += 1;
                self.frame_quiet = false;
                out.push(MacIndication::NeighborDied { observer, dead });
            }
        }
        stale_buf.clear();
        self.scratch.stale_buf = stale_buf;

        self.steady = self.frame_quiet
            && self.unslotted_alive == 0
            && self.frame_rx == self.arena.present_total();
        self.frame_quiet = true;
        self.frame_rx = 0;

        // Slot selection for joining nodes (skipped outright when every
        // alive node is placed — the steady state).
        if self.unslotted_alive == 0 {
            return;
        }
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            let n = &mut self.nodes[i];
            if !n.alive || n.my_slot.is_some() {
                continue;
            }
            if n.listen_remaining > 0 {
                n.listen_remaining -= 1;
                continue;
            }
            let occupied = self.arena.view(node).two_hop_occupancy();
            let free = occupied.free_slots(self.cfg.slots_per_frame);
            if free.is_empty() {
                self.stats.no_free_slot += 1;
                continue;
            }
            let slot = free[rng.gen_range(0..free.len())];
            n.my_slot = Some(slot);
            self.unslotted_alive -= 1;
            self.slot_owners[slot as usize].push(node);
            self.stats.slots_picked += 1;
        }
    }

    /// Verify the global TDMA invariant: no two alive nodes within two hops
    /// own the same slot. Returns the violating pairs (empty = converged).
    pub fn schedule_conflicts(&self) -> Vec<(NodeId, NodeId)> {
        let mut conflicts = Vec::new();
        for a in self.topo.nodes() {
            let (Some(sa), true) = (self.nodes[a.index()].my_slot, self.nodes[a.index()].alive)
            else {
                continue;
            };
            for &b in self.topo.neighbors(a) {
                if !self.nodes[b.index()].alive {
                    continue;
                }
                if b > a && self.nodes[b.index()].my_slot == Some(sa) {
                    conflicts.push((a, b));
                }
                for &c in self.topo.neighbors(b) {
                    if c > a
                        && c != a
                        && !self.topo.has_link(a, c)
                        && self.nodes[c.index()].alive
                        && self.nodes[c.index()].my_slot == Some(sa)
                    {
                        conflicts.push((a, c));
                    }
                }
            }
        }
        conflicts.sort_unstable();
        conflicts.dedup();
        conflicts
    }

    /// Whether every alive node currently owns a slot.
    pub fn all_converged(&self) -> bool {
        self.nodes.iter().all(|n| !n.alive || n.my_slot.is_some())
    }
}

#[cfg(test)]
impl<P> LmacNetwork<P> {
    /// Whether the control plane is at its fixed point (a test accessor,
    /// not a [`MacStats`] field: statistics feed fingerprints and images).
    pub(crate) fn at_fixed_point(&self) -> bool {
        self.steady
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_net::placement::{Placement, SinkPlacement};
    use dirq_net::radio::UnitDisk;
    use dirq_sim::RngFactory;

    type Net = LmacNetwork<u32>;

    fn line_topo(n: usize) -> Topology {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).map(|i| (NodeId::from_index(i), NodeId::from_index(i + 1))).collect();
        Topology::from_edges(n, &edges)
    }

    fn random_topo(n: usize, seed: u64) -> Topology {
        let mut rng = RngFactory::new(seed).stream("lmac-test");
        Topology::deploy_connected(
            n,
            &Placement::UniformRandom { side: 100.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(30.0),
            &mut rng,
            200,
        )
        .expect("connected deployment")
    }

    #[test]
    fn empty_topology_builds_a_network() {
        let mut net = Net::new(LmacConfig::default(), Topology::from_edges(0, &[]));
        net.assign_slots_greedy();
        assert!(net.all_converged());
        assert!(net.schedule_conflicts().is_empty());
    }

    #[test]
    fn greedy_assignment_is_conflict_free() {
        let mut net = Net::new(LmacConfig::default(), random_topo(50, 1));
        net.assign_slots_greedy();
        assert!(net.all_converged());
        assert!(net.schedule_conflicts().is_empty());
    }

    #[test]
    fn greedy_assignment_is_first_fit_and_seeds_rows() {
        // Each alive node takes the lowest slot not held by an alive node
        // within two hops that precedes it, and its row holds every alive
        // neighbour's slot and graph hop distance.
        for seed in 0..4 {
            let topo = random_topo(50, 40 + seed);
            let mut net = Net::new(LmacConfig::default(), topo.clone());
            for v in (3..50).step_by(7) {
                net.set_alive(NodeId::from_index(v), false);
            }
            net.assign_slots_greedy();
            let alive = |v: NodeId| net.is_alive(v);
            let hops = topo.hop_distances(NodeId::ROOT, alive);
            for u in topo.nodes().filter(|&u| alive(u)) {
                let mut taken = SlotSet::EMPTY;
                for &v in topo.neighbors(u) {
                    for w in std::iter::once(v).chain(topo.neighbors(v).iter().copied()) {
                        if w < u && alive(w) {
                            taken.insert(net.slot_of(w).unwrap());
                        }
                    }
                }
                assert_eq!(net.slot_of(u), taken.first_free(net.config().slots_per_frame));
                for &v in topo.neighbors(u) {
                    let info = net.neighbor_table(u).get(v);
                    if alive(v) {
                        let info = info.expect("alive neighbour seeded");
                        let d = hops[v.index()].min(u32::from(u16::MAX)) as u16;
                        assert_eq!((info.slot, info.gateway_dist), (net.slot_of(v), d));
                    } else {
                        assert!(info.is_none(), "dead neighbour {v} seeded into {u}'s row");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "before any node holds a slot")]
    fn greedy_assignment_runs_once() {
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.assign_slots_greedy();
        net.assign_slots_greedy();
    }

    #[test]
    fn join_protocol_converges_conflict_free() {
        let mut rng = RngFactory::new(2).stream("join");
        let mut net = Net::new(LmacConfig::default(), random_topo(30, 2));
        for _ in 0..40 {
            net.advance_frame(&mut rng);
            if net.all_converged() && net.schedule_conflicts().is_empty() {
                break;
            }
        }
        assert!(net.all_converged(), "nodes failed to acquire slots");
        assert!(
            net.schedule_conflicts().is_empty(),
            "schedule still conflicted: {:?}",
            net.schedule_conflicts()
        );
    }

    #[test]
    fn unicast_delivery_and_energy() {
        let mut rng = RngFactory::new(3).stream("uni");
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), 42);
        let inds = net.advance_frame(&mut rng);
        let delivered: Vec<_> = inds
            .iter()
            .filter_map(|i| match i {
                MacIndication::Delivered { to, from, payload } => Some((*to, *from, **payload)),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![(NodeId(1), NodeId(0), 42)]);
        // Paper cost model: 1 tx + 1 intended rx.
        assert_eq!(net.data_ledger().total_tx(), 1);
        assert_eq!(net.data_ledger().total_rx(), 1);
        // Node 2 heard nothing relevant: no data rx recorded for it.
        assert_eq!(net.data_ledger().rx_count(NodeId(2)), 0);
    }

    #[test]
    fn broadcast_counts_all_hearers() {
        let mut rng = RngFactory::new(4).stream("bc");
        // Star: 0 in the middle of 1, 2, 3.
        let topo = Topology::from_edges(
            4,
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))],
        );
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::Broadcast, 7);
        let inds = net.advance_frame(&mut rng);
        let delivered =
            inds.iter().filter(|i| matches!(i, MacIndication::Delivered { .. })).count();
        assert_eq!(delivered, 3);
        assert_eq!(net.data_ledger().total_tx(), 1);
        assert_eq!(net.data_ledger().total_rx(), 3);
    }

    #[test]
    fn broadcast_shares_one_payload_allocation() {
        let mut rng = RngFactory::new(4).stream("bc-shared");
        let topo = Topology::from_edges(
            4,
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))],
        );
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::Broadcast, 7);
        let inds = net.advance_frame(&mut rng);
        let handles: Vec<&PayloadHandle<u32>> = inds
            .iter()
            .filter_map(|i| match i {
                MacIndication::Delivered { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        assert_eq!(handles.len(), 3);
        assert!(
            handles.windows(2).all(|w| PayloadHandle::ptr_eq(w[0], w[1])),
            "every receiver's indication must share the interned payload"
        );
    }

    #[test]
    fn multicast_counts_only_intended() {
        let mut rng = RngFactory::new(5).stream("mc");
        let topo = Topology::from_edges(
            4,
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))],
        );
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::multicast([NodeId(1), NodeId(3)]), 9);
        let inds = net.advance_frame(&mut rng);
        let to: Vec<NodeId> = inds
            .iter()
            .filter_map(|i| match i {
                MacIndication::Delivered { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(to, vec![NodeId(1), NodeId(3)]);
        assert_eq!(net.data_ledger().total_tx(), 1);
        assert_eq!(net.data_ledger().total_rx(), 2);
        assert_eq!(net.data_ledger().rx_count(NodeId(2)), 0);
    }

    #[test]
    fn dead_neighbor_detected_within_timeout() {
        let mut rng = RngFactory::new(6).stream("death");
        let cfg = LmacConfig { max_missed_frames: 3, ..Default::default() };
        let mut net = Net::new(cfg, line_topo(3));
        net.assign_slots_greedy();
        // Run a few frames so tables are warm.
        for _ in 0..3 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(2), false);
        let mut died: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..6 {
            for ind in net.advance_frame(&mut rng) {
                if let MacIndication::NeighborDied { observer, dead } = ind {
                    died.push((observer, dead));
                }
            }
        }
        assert_eq!(died, vec![(NodeId(1), NodeId(2))]);
        assert_eq!(net.stats().deaths_detected, 1);
    }

    #[test]
    fn born_node_joins_and_is_announced() {
        let mut rng = RngFactory::new(7).stream("birth");
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.set_alive(NodeId(2), false);
        net.assign_slots_greedy();
        for _ in 0..2 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(2), true);
        let mut seen_new = Vec::new();
        for _ in 0..8 {
            for ind in net.advance_frame(&mut rng) {
                if let MacIndication::NeighborNew { observer, new } = ind {
                    seen_new.push((observer, new));
                }
            }
        }
        // Node 1 must eventually hear node 2 (and node 2 hears node 1 on
        // joining — it had an empty table).
        assert!(seen_new.contains(&(NodeId(1), NodeId(2))), "saw: {seen_new:?}");
        assert!(net.slot_of(NodeId(2)).is_some(), "new node never acquired a slot");
        assert!(net.schedule_conflicts().is_empty());
    }

    #[test]
    fn undeliverable_to_dead_destination() {
        let mut rng = RngFactory::new(8).stream("undeliv");
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.assign_slots_greedy();
        net.set_alive(NodeId(1), false);
        net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), 5);
        let inds = net.advance_frame(&mut rng);
        assert!(inds.iter().any(|i| matches!(
            i,
            MacIndication::Undeliverable { from, to, payload }
                if *from == NodeId(0) && *to == NodeId(1) && **payload == 5
        )));
        assert_eq!(net.stats().undeliverable, 1);
    }

    #[test]
    fn enqueue_on_dead_node_is_rejected() {
        let mut net = Net::new(LmacConfig::default(), line_topo(2));
        net.set_alive(NodeId(1), false);
        assert!(!net.enqueue(NodeId(1), Destination::Broadcast, 1));
        assert!(net.enqueue(NodeId(0), Destination::Broadcast, 1));
    }

    #[test]
    fn queue_drains_at_configured_rate() {
        let mut rng = RngFactory::new(9).stream("queue");
        let cfg = LmacConfig { data_messages_per_slot: 2, ..Default::default() };
        let mut net = Net::new(cfg, line_topo(2));
        net.assign_slots_greedy();
        for i in 0..5 {
            net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), i);
        }
        assert_eq!(net.queue_len(NodeId(0)), 5);
        net.advance_frame(&mut rng);
        assert_eq!(net.queue_len(NodeId(0)), 3, "2 messages per slot drain");
        net.advance_frame(&mut rng);
        net.advance_frame(&mut rng);
        assert_eq!(net.queue_len(NodeId(0)), 0);
        assert_eq!(net.stats().delivered, 5);
    }

    #[test]
    fn advance_slot_into_reuses_buffer() {
        let mut rng = RngFactory::new(9).stream("reuse");
        let mut net = Net::new(LmacConfig::default(), line_topo(2));
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), 1);
        let mut buf = Vec::with_capacity(16);
        let cap = buf.capacity();
        let mut delivered = 0;
        for _ in 0..net.config().slots_per_frame {
            buf.clear();
            net.advance_slot_into(&mut rng, &mut buf);
            delivered +=
                buf.iter().filter(|i| matches!(i, MacIndication::Delivered { .. })).count();
        }
        assert_eq!(delivered, 1);
        assert_eq!(buf.capacity(), cap, "steady-state frame must not grow the buffer");
    }

    #[test]
    fn gateway_distance_propagates() {
        let mut rng = RngFactory::new(10).stream("gw");
        let mut net = Net::new(LmacConfig::default(), line_topo(4));
        net.assign_slots_greedy();
        for _ in 0..6 {
            net.advance_frame(&mut rng);
        }
        assert_eq!(net.gateway_distance(NodeId(0)), 0);
        assert_eq!(net.gateway_distance(NodeId(1)), 1);
        assert_eq!(net.gateway_distance(NodeId(2)), 2);
        assert_eq!(net.gateway_distance(NodeId(3)), 3);
    }

    #[test]
    fn scarce_slots_converge_through_collisions() {
        // 12 slots for a dense 30-node graph: joins collide repeatedly but
        // either converge conflict-free or report no_free_slot — never a
        // silent inconsistency.
        let mut rng = RngFactory::new(20).stream("scarce");
        let topo = random_topo(30, 20);
        let cfg = LmacConfig { slots_per_frame: 24, ..Default::default() };
        let mut net = Net::new(cfg, topo);
        for _ in 0..120 {
            net.advance_frame(&mut rng);
        }
        assert!(
            net.schedule_conflicts().is_empty(),
            "persisting conflicts: {:?}",
            net.schedule_conflicts()
        );
        let unplaced = (0..30)
            .filter(|&i| net.is_alive(NodeId(i)) && net.slot_of(NodeId(i)).is_none())
            .count();
        if unplaced > 0 {
            assert!(net.stats().no_free_slot > 0, "unplaced nodes must be accounted for");
        }
    }

    #[test]
    fn mass_death_detected_for_every_neighbour() {
        let mut rng = RngFactory::new(21).stream("mass-death");
        let topo = random_topo(20, 21);
        let mut net = Net::new(LmacConfig::default(), topo.clone());
        net.assign_slots_greedy();
        for _ in 0..4 {
            net.advance_frame(&mut rng);
        }
        // Kill half the network at once.
        let victims: Vec<NodeId> = (10..20).map(NodeId).collect();
        for &v in &victims {
            net.set_alive(v, false);
        }
        let mut died: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..10 {
            for ind in net.advance_frame(&mut rng) {
                if let MacIndication::NeighborDied { observer, dead } = ind {
                    died.push((observer, dead));
                }
            }
        }
        // Every surviving node must have declared each dead neighbour.
        for survivor in (0..10).map(NodeId) {
            for &v in &victims {
                if topo.has_link(survivor, v) {
                    assert!(died.contains(&(survivor, v)), "{survivor} never declared {v} dead");
                }
            }
        }
        // And no declarations among the dead or for alive neighbours.
        for &(observer, dead) in &died {
            assert!(observer.index() < 10, "dead node {observer} raised an upcall");
            assert!(dead.index() >= 10, "alive node {dead} was declared dead");
        }
    }

    #[test]
    fn reborn_node_reacquires_distinct_slot() {
        let mut rng = RngFactory::new(22).stream("rebirth");
        let topo = random_topo(15, 22);
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        for _ in 0..3 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(7), false);
        for _ in 0..6 {
            net.advance_frame(&mut rng);
        }
        net.set_alive(NodeId(7), true);
        for _ in 0..12 {
            net.advance_frame(&mut rng);
        }
        assert!(net.slot_of(NodeId(7)).is_some(), "rebirth must re-join");
        assert!(net.schedule_conflicts().is_empty());
    }

    #[test]
    fn fixed_point_gate_opens_closes_and_reopens() {
        let mut rng = RngFactory::new(33).stream("gate");
        let cfg = LmacConfig { max_missed_frames: 2, ..LmacConfig::default() };
        let mut net = Net::new(cfg, random_topo(40, 33));
        net.assign_slots_greedy();
        assert!(!net.at_fixed_point(), "the gate opens only at a frame boundary");
        net.advance_frame(&mut rng);
        assert!(net.at_fixed_point(), "one frame from the greedy schedule reaches it");
        net.enqueue(NodeId(3), Destination::Broadcast, 1);
        net.advance_frame(&mut rng);
        assert!(net.at_fixed_point(), "data traffic does not leave it");

        // A death closes the gate until every neighbour has declared it.
        let victim = NodeId(7);
        net.set_alive(victim, false);
        assert!(!net.at_fixed_point(), "set_alive closes the gate");
        let mut died = 0;
        for frame in 0.. {
            assert!(frame < 8, "the gate never reopened");
            died += net
                .advance_frame(&mut rng)
                .iter()
                .filter(
                    |i| matches!(i, MacIndication::NeighborDied { dead, .. } if *dead == victim),
                )
                .count();
            if net.at_fixed_point() {
                break;
            }
        }
        assert_eq!(died, net.topology().degree(victim), "reopened before the death was detected");

        // A restored network starts outside the fixed point, reopens after
        // one frame and runs that frame exactly as the original does.
        let mut w = SnapWriter::new();
        net.snap(&mut w, |w, p| w.u32(*p));
        let image = w.finish();
        let mut restored = Net::new(cfg, net.topology().clone());
        restored.restore(&mut SnapReader::new(&image), |r| r.u32()).expect("own image");
        assert!(!restored.at_fixed_point(), "restore closes the gate");
        let mut rng_restored = rng.clone();
        assert_eq!(restored.advance_frame(&mut rng_restored), net.advance_frame(&mut rng));
        assert!(restored.at_fixed_point());
    }

    /// A mid-frame network at the fixed point, with data queued.
    fn mid_frame_net() -> Net {
        let mut rng = RngFactory::new(12).stream("restore");
        let mut net = Net::new(LmacConfig::default(), random_topo(20, 12));
        net.assign_slots_greedy();
        net.enqueue(NodeId(2), Destination::Broadcast, 1);
        for _ in 0..45 {
            net.advance_slot(&mut rng);
        }
        net
    }

    /// Restore `net`'s image into a fresh network over its topology.
    fn restore_image(net: &Net) -> Result<(), SnapError> {
        let mut w = SnapWriter::new();
        net.snap(&mut w, |w, p| w.u32(*p));
        let image = w.finish();
        let mut fresh = Net::new(*net.config(), net.topology().clone());
        fresh.restore(&mut SnapReader::new(&image), |r| r.u32())
    }

    fn malformed(result: Result<(), SnapError>) -> &'static str {
        match result {
            Err(SnapError::Malformed { what, .. }) => what,
            other => panic!("expected a malformed image, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_out_of_range_slots() {
        assert!(restore_image(&mid_frame_net()).is_ok());

        let mut net = mid_frame_net();
        net.slot = 500;
        assert_eq!(malformed(restore_image(&net)), "MAC slot out of range");

        let mut net = mid_frame_net();
        net.nodes[5].my_slot = Some(net.cfg.slots_per_frame);
        assert_eq!(malformed(restore_image(&net)), "node slot out of range");

        let mut net = mid_frame_net();
        let (l, nb) = (NodeId(4), net.topology().neighbors(NodeId(4))[0]);
        assert!(net.neighbor_table(l).get(nb).is_some(), "a present entry to patch");
        let _ = net.arena.heard(l, nb, Some(200), SlotSet::EMPTY, 1, 0);
        assert_eq!(malformed(restore_image(&net)), "neighbour slot out of range");
    }

    #[test]
    fn restore_rejects_owner_lists_that_disagree_with_node_slots() {
        let owned =
            |net: &Net| (0..net.slot_owners.len()).find(|&s| !net.slot_owners[s].is_empty());

        // A holder listed twice.
        let mut net = mid_frame_net();
        let s = owned(&net).expect("an owned slot");
        let holder = net.slot_owners[s][0];
        net.slot_owners[s].push(holder);
        assert_eq!(malformed(restore_image(&net)), "slot owner list mismatch");

        // A holder missing from its slot's list.
        let mut net = mid_frame_net();
        let s = owned(&net).expect("an owned slot");
        net.slot_owners[s].clear();
        assert_eq!(malformed(restore_image(&net)), "slot owner list mismatch");

        // A node listed under a slot it does not own.
        let mut net = mid_frame_net();
        let s = owned(&net).expect("an owned slot");
        let other = NodeId::from_index(
            (0..20).find(|&i| net.nodes[i].my_slot != Some(s as u16)).expect("another node"),
        );
        net.slot_owners[s].push(other);
        assert_eq!(malformed(restore_image(&net)), "slot owner list mismatch");
    }

    #[test]
    fn control_ledger_separate_from_data() {
        let mut rng = RngFactory::new(11).stream("ctrl");
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
        net.assign_slots_greedy();
        net.advance_frame(&mut rng);
        // 3 control transmissions (one per node); data untouched.
        assert_eq!(net.control_ledger().total_tx(), 3);
        assert_eq!(net.data_ledger().total_tx(), 0);
        assert!(net.control_ledger().total_rx() > 0);
    }
}

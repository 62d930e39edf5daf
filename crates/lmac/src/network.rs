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
//! * every node's transmit queue lives in one message store: 12-byte
//!   entries linked by `u32` indices in one chunked slab, with a head and
//!   tail per node, and each payload stored once in a reference-counted
//!   slot of the slab its [`Payload`] class picks (32 bytes for a small
//!   one). Every per-receiver indication carries the same 4-byte
//!   [`PayloadHandle`], a flooding rebroadcast queues that handle again,
//!   and an enqueue allocates only when a burst needs a new slab chunk (a
//!   chunk no recent frame needs is freed once it empties);
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
//!   [`NeighborArena`]** of 24-byte entries, so the listener loop's stores
//!   land sequentially in listener order on one contiguous array; only
//!   slots off the fixed point touch it, so a reception finds its entry by
//!   binary search of the listener's row, with no per-edge index beside it;
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
//!   with a long-lived output buffer.
//!
//! [`LmacNetwork::advance_slot_full_scan_into`] keeps the pre-index
//! reference semantics (scan every transmitter per listener, process empty
//! slots, never take the fixed-point path) for the differential property
//! tests; both paths must produce identical indication streams,
//! statistics, ledgers, neighbour views and snapshots.

use dirq_net::{EnergyLedger, NodeBits, NodeId, Topology};
use dirq_sim::snap::{SnapError, SnapReader, SnapSink, SnapWriter};
use dirq_sim::SimRng;
use rand::Rng;

use crate::config::{LmacConfig, LISTEN_FRAMES_BEFORE_PICK, MAX_MISSED_FRAMES};
use crate::indication::{Destination, MacIndication, Payload, PayloadHandle};
use crate::neighbor::{Clock, Heard, NeighborArena, NeighborView};
use crate::slots::SlotSet;
use crate::store::{MessageStore, Queue};

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

/// The heap bytes an [`LmacNetwork`] holds, by part, from the lengths and
/// capacities of its buffers ([`LmacNetwork::footprint`]). The topology
/// it runs over is not counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MacFootprint {
    /// The neighbour arena: an entry per directed edge, and a count of
    /// present entries per node.
    pub arena: usize,
    /// The per-node MAC records and the liveness mask.
    pub nodes: usize,
    /// The message store: queue entries, payload slots, multicast lists
    /// and the handles held until the next advance.
    pub store: usize,
    /// The per-slot working state.
    pub scratch: usize,
    /// The data and control ledgers.
    pub ledgers: usize,
    /// The owner list of every slot.
    pub slot_owners: usize,
}

impl MacFootprint {
    /// Every part's bytes together.
    pub fn total(&self) -> usize {
        self.arena + self.nodes + self.store + self.scratch + self.ledgers + self.slot_owners
    }
}

/// Per-node MAC state. Neighbour knowledge does **not** live here — it is
/// network-owned, in the edge-aligned [`NeighborArena`] — and neither is
/// liveness (`LmacNetwork::alive_mask`) or the queued messages (the
/// network's message store; `queue` names this node's).
struct MacNode {
    my_slot: Option<u16>,
    listen_remaining: u32,
    queue: Queue,
}

impl MacNode {
    /// A node without a slot that listens `listen_remaining` frames
    /// before it picks one.
    fn joining(listen_remaining: u32) -> Self {
        MacNode { my_slot: None, listen_remaining, queue: Queue::EMPTY }
    }
}

/// `FrameScratch::audible_tx` sentinel: no transmitter audible yet.
const AUDIBLE_NONE: u32 = u32::MAX;
/// `FrameScratch::audible_tx` sentinel: two or more transmitters audible.
const AUDIBLE_COLLIDED: u32 = u32::MAX - 1;

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
    audible_tx: Vec<u32>,
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

    /// Heap bytes held.
    fn heap_bytes(&self) -> usize {
        [&self.tx_mark, &self.listener_mark, &self.collided_mark]
            .iter()
            .map(|bits| bits.heap_bytes())
            .sum::<usize>()
            + self.txs.capacity() * std::mem::size_of::<TxRecord>()
            + self.tx_data.capacity() * std::mem::size_of::<(Destination, PayloadHandle<P>)>()
            + (self.audible.capacity() + self.audible_tx.capacity() + self.tx_index.capacity())
                * std::mem::size_of::<u32>()
            + self.stale_buf.capacity() * std::mem::size_of::<NodeId>()
            + self.deliveries.capacity() * std::mem::size_of::<(NodeId, u32, u32)>()
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
/// Generic over the upper-layer payload `P`; the MAC reads only its
/// [`Payload`] class.
pub struct LmacNetwork<P: Payload> {
    cfg: LmacConfig,
    topo: Topology,
    nodes: Vec<MacNode>,
    /// Every node's queued messages and their payloads.
    store: MessageStore<P>,
    /// Network-owned neighbour knowledge, edge-aligned to `topo`'s CSR
    /// rows: listener `l`'s entry for `neighbors(l)[p]` sits at
    /// `Topology::row_start(l) + p`.
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
    /// Per-node liveness, the deployment's one copy: the upper layer reads
    /// it through [`LmacNetwork::alive`], and the reception loops probe it
    /// per neighbour per slot.
    alive_mask: NodeBits,
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

impl<P: Payload> LmacNetwork<P> {
    /// Create a network over `topo` with every node alive but no slots
    /// assigned yet; nodes acquire slots through the join protocol. All
    /// per-slot working buffers are pre-sized from the topology.
    pub fn new(cfg: LmacConfig, topo: Topology) -> Self {
        cfg.validate();
        let n = topo.len();
        let nodes = (0..n).map(|_| MacNode::joining(LISTEN_FRAMES_BEFORE_PICK)).collect();
        let mut alive_mask = NodeBits::new(n);
        for i in 0..n {
            alive_mask.insert(NodeId::from_index(i));
        }
        LmacNetwork {
            slot_owners: vec![Vec::new(); cfg.slots_per_frame as usize],
            data_ledger: EnergyLedger::new(n),
            control_ledger: EnergyLedger::new(n),
            scratch: FrameScratch::new(&topo, &cfg),
            arena: NeighborArena::new(&topo),
            alive_mask,
            steady: false,
            frame_quiet: true,
            frame_rx: 0,
            unslotted_alive: n,
            cfg,
            topo,
            nodes,
            store: MessageStore::new(n),
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
        // Every alive neighbour now has its entry in `slot`.
        if slot.is_empty() {
            return; // no root to measure hops from
        }
        let hops = self.topo.hop_distances(NodeId::ROOT, |v| self.alive_mask.contains(v));
        for i in 0..slot.len() {
            let node = NodeId::from_index(i);
            if !self.alive_mask.contains(node) {
                continue;
            }
            for &nb in self.topo.neighbors(node) {
                if self.alive_mask.contains(nb) {
                    let d = hops[nb.index()];
                    let d16 =
                        if d == u32::MAX { u16::MAX } else { d.min(u16::MAX as u32 - 1) as u16 };
                    let s = Some(slot[nb.index()]);
                    self.arena.heard(&self.topo, node, nb, s, SlotSet::EMPTY, d16, self.frame);
                }
            }
        }
    }

    /// The radio graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The current frame and the slot within it.
    pub fn now(&self) -> (u64, u16) {
        (self.frame, self.slot)
    }

    /// Configuration in use.
    pub fn config(&self) -> &LmacConfig {
        &self.cfg
    }

    /// Whether `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive_mask.contains(node)
    }

    /// Every node's liveness.
    pub fn alive(&self) -> &NodeBits {
        &self.alive_mask
    }

    /// Slot owned by `node`, if it has converged.
    pub fn slot_of(&self, node: NodeId) -> Option<u16> {
        self.nodes[node.index()].my_slot
    }

    /// The node's MAC neighbour view (cross-layer read access — this is
    /// the information DirQ uses to repair its tree).
    pub fn neighbor_table(&self, node: NodeId) -> NeighborView<'_> {
        self.arena.view(&self.topo, node, self.clock())
    }

    /// The heap bytes the network holds, by part. Computed on demand from
    /// lengths and capacities; nothing the MAC steps reads it.
    pub fn footprint(&self) -> MacFootprint {
        MacFootprint {
            arena: self.arena.heap_bytes(),
            nodes: self.nodes.capacity() * std::mem::size_of::<MacNode>()
                + self.alive_mask.heap_bytes(),
            store: self.store.heap_bytes(),
            scratch: self.scratch.heap_bytes(),
            ledgers: self.data_ledger.heap_bytes() + self.control_ledger.heap_bytes(),
            slot_owners: self.slot_owners.capacity() * std::mem::size_of::<Vec<NodeId>>()
                + self.slot_owners.iter().map(Vec::capacity).sum::<usize>()
                    * std::mem::size_of::<NodeId>(),
        }
    }

    /// Hop distance to the gateway as the MAC currently believes it
    /// (root = 0; `u16::MAX` when unknown).
    pub fn gateway_distance(&self, node: NodeId) -> u16 {
        if node.is_root() {
            0
        } else {
            self.neighbor_table(node).min_gateway_dist().saturating_add(1)
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

    /// Number of messages waiting in `node`'s transmit queue (a walk of
    /// its list).
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.store.iter(self.nodes[node.index()].queue).count()
    }

    /// A copy of the payload behind `handle`.
    ///
    /// # Panics
    /// Panics if the payload was released: a handle from an indication is
    /// valid until the MAC next advances or restores, unless it was queued
    /// again before then.
    pub fn payload(&self, handle: PayloadHandle<P>) -> P {
        self.store.payload(handle)
    }

    /// Queue a data message for transmission in `from`'s next owned slot.
    /// The payload is stored once; all receiver indications will name it.
    /// Returns `false` (dropping the message) when `from` is dead.
    pub fn enqueue(&mut self, from: NodeId, dest: Destination, payload: P) -> bool {
        if !self.alive_mask.contains(from) {
            return false;
        }
        self.store.push(&mut self.nodes[from.index()].queue, dest, payload);
        true
    }

    /// Queue a payload the MAC already holds (zero-copy re-forwarding: a
    /// rebroadcast passes the handle it received straight back down,
    /// before the MAC next advances).
    ///
    /// # Panics
    /// Panics if the payload was released.
    pub fn enqueue_shared(
        &mut self,
        from: NodeId,
        dest: Destination,
        payload: PayloadHandle<P>,
    ) -> bool {
        if !self.alive_mask.contains(from) {
            return false;
        }
        self.store.push_shared(&mut self.nodes[from.index()].queue, dest, payload);
        true
    }

    /// Kill or revive a node. Death silences it immediately (neighbours
    /// detect the silence via the liveness timeout). Birth starts the LMAC
    /// join procedure: listen, then pick a free slot.
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        let idx = node.index();
        if self.alive_mask.contains(node) == alive {
            return;
        }
        self.leave_fixed_point();
        self.store.clear(&mut self.nodes[idx].queue);
        if alive {
            self.nodes[idx] = MacNode::joining(LISTEN_FRAMES_BEFORE_PICK);
            self.arena.reset_row(&self.topo, node);
            self.alive_mask.insert(node);
            self.unslotted_alive += 1;
        } else {
            match self.nodes[idx].my_slot.take() {
                Some(s) => self.slot_owners[s as usize].retain(|&n| n != node),
                None => self.unslotted_alive -= 1,
            }
            self.arena.reset_row(&self.topo, node);
            self.alive_mask.remove(node);
        }
    }

    /// Write the dynamic MAC state (clock, statistics, ledgers, per-node
    /// join/queue state, slot ownership, neighbour knowledge) to `w`.
    /// `encode` serializes one queued payload; the MAC never inspects
    /// payloads, so their codec belongs to the upper layer.
    pub fn snap<S: SnapSink>(
        &self,
        w: &mut SnapWriter<S>,
        mut encode: impl FnMut(&mut SnapWriter<S>, &P),
    ) {
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
        if self.steady && self.slot > 0 {
            // Mid-frame at the fixed point: add the receptions of the
            // slots already run, as the per-edge loop would have.
            let mut ledger = self.control_ledger.clone();
            self.arena.credit_receptions(&self.topo, &mut ledger, Some(self.slot));
            ledger.snap(w);
        } else {
            self.control_ledger.snap(w);
        }
        w.len_of(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            w.bool(self.alive_mask.contains(NodeId::from_index(i)));
            w.opt_u16(node.my_slot);
            w.u32(node.listen_remaining);
            w.len_of(self.store.iter(node.queue).count());
            for (dest, payload) in self.store.iter(node.queue) {
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
                encode(w, &payload);
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
    /// topology. The unslotted-alive count is recomputed; slot
    /// advancement resumes exactly where the snapshot left off, outside
    /// the fixed point.
    ///
    /// Every slot in the image must lie below `slots_per_frame` (the
    /// current slot, each node's slot and each present neighbour entry's),
    /// no node may listen more frames before it picks a slot than a
    /// collision's backoff gives it (`LISTEN_FRAMES_BEFORE_PICK` + 1), each
    /// slot's owner list must hold exactly the nodes that own the slot,
    /// once each, and every present neighbour entry must have been heard
    /// no later than the image's frame and less than 2^32 frames before
    /// it; otherwise restore fails with [`SnapError::Malformed`].
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
        self.alive_mask.clear();
        // Handles from before the restore are spent.
        self.store = MessageStore::new(n);
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if r.bool()? {
                self.alive_mask.insert(NodeId::from_index(i));
            }
            let pos = r.position();
            node.my_slot = r.opt_u16()?;
            if node.my_slot.is_some_and(|s| s >= spf) {
                return Err(SnapError::Malformed { pos, what: "node slot out of range" });
            }
            let pos = r.position();
            node.listen_remaining = r.u32()?;
            if node.listen_remaining > LISTEN_FRAMES_BEFORE_PICK + 1 {
                return Err(SnapError::Malformed { pos, what: "node listen count out of range" });
            }
            node.queue = Queue::EMPTY;
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
                self.store.push(&mut node.queue, dest, decode(r)?);
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
        self.arena.restore(&self.topo, r, spf, self.frame)?;
        self.unslotted_alive =
            self.alive_mask.iter().filter(|v| self.nodes[v.index()].my_slot.is_none()).count();
        // The image says nothing about the frames before it: the gate
        // reopens after a full frame observed from here.
        self.steady = false;
        self.frame_quiet = self.slot == 0;
        self.frame_rx = 0;
        Ok(())
    }

    /// The MAC's clock as the arena reads it: the current frame, and the
    /// next slot to run while the control plane is at its fixed point.
    fn clock(&self) -> Clock {
        Clock { frame: self.frame, steady_slot: self.steady.then_some(self.slot) }
    }

    /// Close the gate before a change the fixed point does not cover:
    /// credit the receptions of the slots already run in this frame,
    /// store every present entry's implied `last_heard_frame`, and keep
    /// the gate closed at least until the next frame boundary.
    fn leave_fixed_point(&mut self) {
        if self.steady {
            if self.slot > 0 {
                self.arena.credit_receptions(&self.topo, &mut self.control_ledger, Some(self.slot));
            }
            self.arena.settle(self.clock());
            self.steady = false;
        }
        self.frame_quiet = false;
    }

    /// Advance one slot, appending the generated upcalls to `out`.
    /// Performs no heap allocation in steady state. The payload handles of
    /// the previous advance's indications are spent from here on.
    pub fn advance_slot_into(&mut self, rng: &mut SimRng, out: &mut Vec<MacIndication<P>>) {
        self.store.release_held();
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
        self.store.release_held();
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
            self.store.trim();
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
            if !adverts && self.nodes[t.index()].queue.is_empty() {
                continue;
            }
            let (occupied, gw) = if adverts {
                (self.neighbor_table(t).one_hop_occupancy(), self.gateway_distance(t))
            } else {
                (SlotSet::EMPTY, u16::MAX)
            };
            let queue = &mut self.nodes[t.index()].queue;
            let data_start = tx_data.len() as u32;
            for _ in 0..self.cfg.data_messages_per_slot {
                match self.store.pop(queue) {
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
    /// in transmitter order, with the message's payload handle. Then the
    /// slot's sent messages drop (the store holds their payloads until
    /// the next advance) and its `tx_index` entries reset (O(|txs|), never
    /// an O(n) fill).
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
                                payload: *payload,
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
                    payload: tx_data[k as usize].1,
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
            for &nb in self.topo.neighbors(tx.from) {
                if self.alive_mask.contains(nb) && !tx_mark.contains(nb) {
                    listener_mark.insert(nb);
                    let slot_entry = &mut audible_tx[nb.index()];
                    *slot_entry =
                        if *slot_entry == AUDIBLE_NONE { ti as u32 } else { AUDIBLE_COLLIDED };
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
                audible.push(resolved);
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
            let heard = self.arena.heard(
                &self.topo,
                l,
                tx.from,
                Some(s),
                tx.occupied,
                tx.gateway_dist,
                self.frame,
            );
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
                    out.push(MacIndication::Delivered { to: l, from: tx.from, payload: *payload });
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
                    LISTEN_FRAMES_BEFORE_PICK + rng.gen_range(0..2u32);
            }
        }
        self.finish_slot(&mut scratch, out);
        self.scratch = scratch;
    }

    /// Advance a whole frame (`slots_per_frame` slots). Every payload
    /// handle in the returned indications stays valid until the MAC next
    /// advances.
    pub fn advance_frame(&mut self, rng: &mut SimRng) -> Vec<MacIndication<P>> {
        self.store.release_held();
        let mut out = Vec::new();
        let start_frame = self.frame;
        while self.frame == start_frame {
            self.advance_slot_impl(rng, &mut out, false);
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
            self.arena.credit_receptions(&self.topo, &mut self.control_ledger, None);
            return;
        }
        // Liveness: stale neighbours are declared dead (cross-layer upcall).
        // Stored frames widen against the frame that just ended, which
        // every entry was heard in or before: restore admits an entry
        // 2^32 - 1 frames older than its frame, which the new frame already
        // puts 2^32 frames back.
        let heard_by = Clock::at(self.frame - 1);
        let mut stale_buf = std::mem::take(&mut self.scratch.stale_buf);
        for i in 0..self.nodes.len() {
            let observer = NodeId::from_index(i);
            if !self.alive_mask.contains(observer) {
                continue;
            }
            stale_buf.clear();
            self.arena.collect_stale(
                &self.topo,
                observer,
                self.frame,
                MAX_MISSED_FRAMES,
                heard_by,
                &mut stale_buf,
            );
            for &dead in &stale_buf {
                self.arena.remove(&self.topo, observer, dead);
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
            if !self.alive_mask.contains(node) || n.my_slot.is_some() {
                continue;
            }
            if n.listen_remaining > 0 {
                n.listen_remaining -= 1;
                continue;
            }
            let occupied =
                self.arena.view(&self.topo, node, Clock::at(self.frame)).two_hop_occupancy();
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
        let alive = |v: NodeId| self.alive_mask.contains(v);
        for a in self.topo.nodes() {
            let (Some(sa), true) = (self.nodes[a.index()].my_slot, alive(a)) else {
                continue;
            };
            for &b in self.topo.neighbors(a) {
                if !alive(b) {
                    continue;
                }
                if b > a && self.nodes[b.index()].my_slot == Some(sa) {
                    conflicts.push((a, b));
                }
                for &c in self.topo.neighbors(b) {
                    if c > a
                        && c != a
                        && !self.topo.has_link(a, c)
                        && alive(c)
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
        self.alive_mask.iter().all(|v| self.nodes[v.index()].my_slot.is_some())
    }
}

#[cfg(test)]
impl<P: Payload> LmacNetwork<P> {
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
    use proptest::prelude::*;
    use std::collections::VecDeque;

    use crate::slots::MAX_SLOTS;
    use crate::store::tests::Mixed;

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
                MacIndication::Delivered { to, from, payload } => {
                    Some((*to, *from, net.payload(*payload)))
                }
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
    fn broadcast_shares_one_stored_payload() {
        let mut rng = RngFactory::new(4).stream("bc-shared");
        let topo = Topology::from_edges(
            4,
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))],
        );
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        net.enqueue(NodeId(0), Destination::Broadcast, 7);
        let inds = net.advance_frame(&mut rng);
        let handles: Vec<PayloadHandle<u32>> = inds
            .iter()
            .filter_map(|i| match i {
                MacIndication::Delivered { payload, .. } => Some(*payload),
                _ => None,
            })
            .collect();
        assert_eq!(handles.len(), 3);
        assert!(
            handles.windows(2).all(|w| w[0] == w[1]),
            "every receiver's indication must name the one stored payload"
        );
        assert_eq!(net.payload(handles[0]), 7);
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
        let mut net = Net::new(LmacConfig::default(), line_topo(3));
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
                if *from == NodeId(0) && *to == NodeId(1) && net.payload(*payload) == 5
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
        let cfg = LmacConfig::default();
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
        let mut out = Vec::new();
        for _ in 0..45 {
            net.advance_slot_into(&mut rng, &mut out);
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
        let _ = net.arena.heard(&net.topo, l, nb, Some(MAX_SLOTS - 1), SlotSet::EMPTY, 1, 0);
        assert_eq!(malformed(restore_image(&net)), "neighbour slot out of range");
    }

    /// A joining node listens `LISTEN_FRAMES_BEFORE_PICK` frames, or one
    /// more after a collision's backoff. A longer count is a typed error at
    /// restore, not a node kept unslotted, and the MAC off its fixed
    /// point, for that many frames.
    #[test]
    fn restore_rejects_a_listen_count_no_step_writes() {
        let with_listen = |frames: u32| {
            let mut net = mid_frame_net();
            let v = NodeId(5);
            let s = net.nodes[5].my_slot.take().expect("a slotted node");
            net.slot_owners[usize::from(s)].retain(|&n| n != v);
            net.nodes[5].listen_remaining = frames;
            restore_image(&net)
        };
        with_listen(LISTEN_FRAMES_BEFORE_PICK + 1).expect("a backoff's count restores");
        for frames in [LISTEN_FRAMES_BEFORE_PICK + 2, u32::MAX] {
            assert_eq!(malformed(with_listen(frames)), "node listen count out of range");
        }
    }

    /// `net`, at a frame boundary at its fixed point, moved to `frame`: its
    /// image reads as a network that ran `frame` frames, each entry last
    /// heard in the frame before.
    fn at_frame(mut net: Net, frame: u64) -> Net {
        assert!(net.at_fixed_point() && net.now().1 == 0, "a frame boundary at the fixed point");
        net.frame = frame;
        net
    }

    /// `net`'s image restored into a fresh network over its topology.
    fn restored(net: &Net) -> Net {
        let mut w = SnapWriter::new();
        net.snap(&mut w, |w, p| w.u32(*p));
        let mut fresh = Net::new(*net.config(), net.topology().clone());
        fresh.restore(&mut SnapReader::new(&w.finish()), |r| r.u32()).expect("own image");
        fresh
    }

    /// An entry keeps 32 bits of its frame. A network restored a few
    /// frames below 2^32 and stepped across it off the fixed point (the
    /// reference loop never takes it) reads every entry's
    /// `last_heard_frame` as a 64-bit field would: the frame its
    /// neighbour's slot last ran in. Its image at every frame boundary is
    /// the fast path's, which reaches the fixed point and infers the
    /// frame from the slot instead.
    #[test]
    fn entries_read_their_frame_across_2_pow_32() {
        const START: u64 = (1 << 32) - 3;
        let mut rng = RngFactory::new(34).stream("wrap");
        let topo = random_topo(30, 34);
        let mut net = Net::new(LmacConfig::default(), topo.clone());
        net.assign_slots_greedy();
        net.advance_frame(&mut rng);
        let image_net = at_frame(net, START);
        let (mut full, mut fast) = (restored(&image_net), restored(&image_net));
        let (mut rng_fast, mut out) = (rng.clone(), Vec::new());
        while full.now().0 < START + 6 {
            full.advance_slot_full_scan_into(&mut rng, &mut out);
            fast.advance_slot_into(&mut rng_fast, &mut out);
            let (frame, next) = full.now();
            for l in topo.nodes() {
                let view = full.neighbor_table(l);
                for &nb in topo.neighbors(l) {
                    let info = view.get(nb).expect("every neighbour stays known");
                    let heard_in =
                        if info.slot.expect("slotted") < next { frame } else { frame - 1 };
                    assert_eq!(info.last_heard_frame, heard_in, "{l}'s entry for {nb} at {frame}");
                }
            }
            if next == 0 {
                assert!(fast.at_fixed_point() && !full.at_fixed_point());
                let (mut a, mut b) = (SnapWriter::new(), SnapWriter::new());
                full.snap(&mut a, |w, p| w.u32(*p));
                fast.snap(&mut b, |w, p| w.u32(*p));
                assert_eq!(a.finish(), b.finish(), "images at frame {frame}");
            }
        }
        assert_eq!(full.stats().deaths_detected, 0);
    }

    /// An image may hold an entry 2^32 − 1 frames older than its frame.
    /// At the next frame boundary that entry is 2^32 frames old: the stale
    /// scan reads it against the frame that just ended, so it is declared
    /// dead there, as a 64-bit field would have it, and not read as heard
    /// in the new frame.
    #[test]
    fn an_entry_restored_2_pow_32_minus_1_frames_old_dies_at_the_next_boundary() {
        const IMAGE: u64 = (1 << 32) + 1;
        let mut rng = RngFactory::new(35).stream("old");
        let topo = random_topo(30, 35);
        let mut net = Net::new(LmacConfig::default(), topo.clone());
        net.assign_slots_greedy();
        net.advance_frame(&mut rng);
        let mut net = at_frame(net, IMAGE);
        // Its other neighbours last heard `dead` in the frame before.
        let (dead, observer) = (NodeId(9), topo.neighbors(NodeId(9))[0]);
        let slot = net.slot_of(dead);
        net.set_alive(dead, false);
        let oldest = IMAGE - u64::from(u32::MAX);
        let _ = net.arena.heard(&net.topo, observer, dead, slot, SlotSet::EMPTY, 1, oldest);
        let mut net = restored(&net);
        assert_eq!(net.neighbor_table(observer).get(dead).unwrap().last_heard_frame, oldest);
        let died: Vec<_> = net
            .advance_frame(&mut rng)
            .into_iter()
            .filter_map(|i| match i {
                MacIndication::NeighborDied { observer, dead } => Some((observer, dead)),
                _ => None,
            })
            .collect();
        assert_eq!(died, vec![(observer, dead)]);
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

    /// A network whose payloads come in both classes.
    type MixedNet = LmacNetwork<Mixed>;

    /// One node's queue as the store holds it: destinations and payloads.
    fn queued(net: &MixedNet, node: NodeId) -> Vec<(Destination, Mixed)> {
        net.store.iter(net.nodes[node.index()].queue).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The message store keeps every node's queue as a per-node
        /// `VecDeque` would, under random unicast, multicast, broadcast
        /// and shared enqueues of small and large payloads, slot advances,
        /// deaths and births, and snapshot–restore: each slot sends the
        /// first messages of each owner's queue in order, every indication
        /// names a payload its sender sent, and once every queue has
        /// drained and one more slot ran, no entry or payload of either
        /// class is live.
        #[test]
        fn prop_store_matches_a_queue_model(
            n in 3usize..20,
            chords in proptest::collection::vec((0u32..64, 0u32..64), 0..12),
            seed in 0u64..1_000,
            ops in proptest::collection::vec((0u8..7, 0u32..64, 0u32..64), 0..80),
        ) {
            // A chain with chords; 48 slots exceed any 2-hop neighbourhood
            // of 20 nodes.
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
            edges.extend(chords.iter().map(|&(a, b)| (a as usize % n, b as usize % n)));
            edges.retain(|&(a, b)| a < b);
            edges.sort_unstable();
            edges.dedup();
            let edges: Vec<_> =
                edges.into_iter().map(|(a, b)| (NodeId::from_index(a), NodeId::from_index(b))).collect();
            let topo = Topology::from_edges(n, &edges);
            let cfg = LmacConfig {
                slots_per_frame: 48,
                data_messages_per_slot: 2,
                ..LmacConfig::default()
            };
            let mut net = MixedNet::new(cfg, topo.clone());
            net.assign_slots_greedy();
            let mut rng = RngFactory::new(seed).stream("store-model");
            let mut model: Vec<VecDeque<(Destination, Mixed)>> = vec![VecDeque::new(); n];
            let mut next_value = 0u32;
            let mut out = Vec::new();
            let node = |raw: u32| NodeId::from_index(raw as usize % n);
            let mut advance = |net: &mut MixedNet,
                               model: &mut Vec<VecDeque<(Destination, Mixed)>>,
                               out: &mut Vec<MacIndication<Mixed>>|
             -> Result<(), TestCaseError> {
                let (_, s) = net.now();
                let mut sent: Vec<(NodeId, Mixed)> = Vec::new();
                for v in net.topology().nodes() {
                    if net.is_alive(v) && net.slot_of(v) == Some(s) {
                        let q = &mut model[v.index()];
                        for _ in 0..cfg.data_messages_per_slot.min(q.len()) {
                            sent.push((v, q.pop_front().expect("queued").1));
                        }
                    }
                }
                out.clear();
                net.advance_slot_into(&mut rng, out);
                for ind in out.iter() {
                    if let MacIndication::Delivered { from, payload, .. }
                    | MacIndication::Undeliverable { from, payload, .. } = ind
                    {
                        let value = net.payload(*payload);
                        prop_assert!(sent.contains(&(*from, value)), "{from} never sent {value:?}");
                    }
                }
                Ok(())
            };
            for (op, a, b) in ops {
                let (from, to) = (node(a), node(b));
                match op {
                    0..=2 => {
                        let dest = match op {
                            0 => Destination::unicast(to),
                            1 => Destination::multicast([to, node(b + 1)]),
                            _ => Destination::Broadcast,
                        };
                        next_value += 1;
                        let value = Mixed::new(next_value);
                        if net.enqueue(from, dest.clone(), value) {
                            model[from.index()].push_back((dest, value));
                        }
                    }
                    3 => {
                        // Queue again a payload the last slot sent.
                        let handles: Vec<PayloadHandle<Mixed>> = out
                            .iter()
                            .filter_map(|i| match i {
                                MacIndication::Delivered { payload, .. }
                                | MacIndication::Undeliverable { payload, .. } => Some(*payload),
                                _ => None,
                            })
                            .collect();
                        if let Some(&h) = handles.get(b as usize % handles.len().max(1)) {
                            let value = net.payload(h);
                            if net.enqueue_shared(from, Destination::Broadcast, h) {
                                model[from.index()].push_back((Destination::Broadcast, value));
                            }
                        }
                    }
                    4 => {
                        for _ in 0..1 + b % 40 {
                            advance(&mut net, &mut model, &mut out)?;
                        }
                    }
                    5 if !from.is_root() => {
                        net.set_alive(from, !net.is_alive(from));
                        model[from.index()].clear();
                    }
                    6 => {
                        let mut w = SnapWriter::new();
                        net.snap(&mut w, |w, p| w.u32(p.value()));
                        let image = w.finish();
                        net = MixedNet::new(cfg, topo.clone());
                        net.restore(&mut SnapReader::new(&image), |r| r.u32().map(Mixed::new))
                            .expect("own image");
                        out.clear();
                    }
                    _ => {}
                }
                for v in topo.nodes() {
                    prop_assert!(
                        queued(&net, v).iter().eq(model[v.index()].iter()),
                        "{v}'s queue diverged after op {op}"
                    );
                }
            }
            // Drain every queue, then run one more slot: the store is empty.
            for _ in 0..64 * cfg.slots_per_frame {
                if model.iter().all(VecDeque::is_empty) {
                    break;
                }
                advance(&mut net, &mut model, &mut out)?;
            }
            prop_assert!(model.iter().all(VecDeque::is_empty), "queues never drained");
            advance(&mut net, &mut model, &mut out)?;
            prop_assert_eq!(net.store.live(), (0, 0, 0, 0));
        }
    }

    #[test]
    fn burst_capacity_is_given_back_once_it_drains() {
        // A burst of small payloads, as epoch 0's Updates: it takes no
        // large-payload chunk.
        let mut rng = RngFactory::new(13).stream("burst");
        let mut net = Net::new(LmacConfig::default(), random_topo(50, 13));
        net.assign_slots_greedy();
        let chunk = 1 << crate::store::chunk_bits(50);
        let burst = 8 * chunk;
        for i in 0..burst {
            net.enqueue(NodeId::from_index(i % 50), Destination::Broadcast, i as u32);
        }
        let (entries, small, large) = net.store.capacity();
        assert!(entries >= burst && small >= burst && large == 0, "{entries} / {small} / {large}");
        // A steady trickle of one message a frame while the burst drains.
        let mut frames = 0;
        while (0..50).any(|i| net.queue_len(NodeId(i)) > 0) {
            net.enqueue(NodeId(1), Destination::Broadcast, u32::MAX);
            net.advance_frame(&mut rng);
            frames += 1;
            assert!(frames < 200, "the burst never drained");
        }
        net.enqueue(NodeId(1), Destination::Broadcast, u32::MAX);
        net.advance_frame(&mut rng);
        assert_eq!(net.store.capacity(), (chunk, chunk, 0), "the trickle keeps one chunk each");
    }

    /// Send `payloads[0]` from node 0 of a two-node line while
    /// `payloads[1]`, of the same class, stays queued behind it (so their
    /// chunk stays allocated), then read the sent one's handle after the
    /// next slot released it.
    fn read_after_release(payloads: [Mixed; 2]) {
        let mut rng = RngFactory::new(14).stream("released");
        let cfg = LmacConfig { data_messages_per_slot: 1, ..LmacConfig::default() };
        let mut net = MixedNet::new(cfg, line_topo(2));
        net.assign_slots_greedy();
        for p in payloads {
            net.enqueue(NodeId(0), Destination::unicast(NodeId(1)), p);
        }
        let mut out = Vec::new();
        let handle = loop {
            out.clear();
            net.advance_slot_into(&mut rng, &mut out);
            if let Some(MacIndication::Delivered { payload, .. }) = out.first() {
                break *payload;
            }
        };
        assert_eq!(net.payload(handle), payloads[0]);
        net.advance_slot_into(&mut rng, &mut out);
        assert_eq!(net.queue_len(NodeId(0)), 1);
        net.payload(handle);
    }

    #[test]
    #[should_panic(expected = "payload handle read after release")]
    fn reading_a_released_small_handle_panics() {
        read_after_release([Mixed::Small(1), Mixed::Small(2)]);
    }

    #[test]
    #[should_panic(expected = "payload handle read after release")]
    fn reading_a_released_large_handle_panics() {
        read_after_release([Mixed::Large(1, [1; 8]), Mixed::Large(2, [2; 8])]);
    }

    #[test]
    fn layout_budget() {
        // A node's MAC record: its slot, its listen countdown and its
        // queue's two indices.
        assert!(std::mem::size_of::<MacNode>() <= 16, "{}", std::mem::size_of::<MacNode>());
    }

    /// Every part of the footprint is counted from its buffers: the arena
    /// at 24 bytes a directed edge and 4 a node, the nodes at their
    /// records and mask, and a queued burst in the store until it drains.
    #[test]
    fn footprint_counts_each_part() {
        let mut rng = RngFactory::new(15).stream("footprint");
        let topo = random_topo(50, 15);
        let edges = 2 * topo.link_count();
        let mut net = Net::new(LmacConfig::default(), topo);
        net.assign_slots_greedy();
        let idle = net.footprint();
        assert_eq!(idle.arena, 24 * edges + 4 * 50);
        assert_eq!(idle.nodes, 50 * std::mem::size_of::<MacNode>() + 8);
        assert_eq!(idle.ledgers, 4 * 8 * 50);
        assert_eq!(idle.store, 0, "nothing queued");
        for i in 0..200 {
            net.enqueue(NodeId::from_index(i % 50), Destination::Broadcast, i as u32);
        }
        let busy = net.footprint();
        assert!(busy.store >= 200 * 12, "at least the queue entries: {busy:?}");
        assert_eq!(busy.total() - busy.store, idle.total() - idle.store);
        for _ in 0..8 {
            net.advance_frame(&mut rng);
        }
        assert!(net.footprint().store < busy.store, "the drained burst is given back");
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

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
//!   [`FrameScratch`] of flat vectors and [`NodeBits`] bitsets, reused
//!   across slots;
//! * membership tests (is transmitting? has collided?) are O(1) bit tests
//!   rather than linear `Vec::contains` scans, and listener iteration runs
//!   in ascending id order straight off the bitset — the sort+dedup the
//!   old representation needed is gone;
//! * audibility is resolved from the *listener's* side: each listener walks
//!   its own CSR neighbour slice and probes a node→transmission index
//!   (`tx_index`), instead of testing `has_link` against every concurrent
//!   transmitter — the listeners × transmitters link-matrix scan that
//!   dominated dense frames (and degenerates to a binary search per probe
//!   above `DENSE_LINK_MAX_NODES`) is gone;
//! * neighbour knowledge is network-owned in an **edge-aligned
//!   [`NeighborArena`]** (`Topology::row_start(listener) + mirror_pos`),
//!   so the listener loop's stores land sequentially in listener order on
//!   one contiguous array instead of hopping through per-node heap vecs;
//! * with `LmacConfig::workers > 1` the listener phase is **sharded across
//!   precomputed 2-hop colour classes** (same-colour nodes share no
//!   neighbour, so shards touch disjoint arena rows) on a persistent
//!   work-stealing pool, and the per-shard output is merged back in
//!   ascending listener order — indications, statistics and ledgers stay
//!   bit-identical at every worker count;
//! * the slot-occupancy index (`slot_owners` + the per-slot alive check)
//!   short-circuits slots nobody owns: an empty slot advances the clock
//!   without touching the scratch buffers at all;
//! * callers that want full reuse drive [`LmacNetwork::advance_slot_into`]
//!   with a long-lived output buffer ([`LmacNetwork::advance_slot`] remains
//!   as a convenience wrapper).
//!
//! [`LmacNetwork::advance_slot_full_scan_into`] keeps the pre-index
//! reference semantics (scan every transmitter per listener, process empty
//! slots) for the differential property tests; both paths must produce
//! identical indication streams, statistics and ledgers.

use std::collections::VecDeque;

use dirq_net::{EnergyLedger, NodeBits, NodeId, Topology};
use dirq_sim::runner::WorkerPool;
use dirq_sim::snap::{SnapError, SnapReader, SnapWriter};
use dirq_sim::SimRng;
use rand::Rng;

use crate::config::LmacConfig;
use crate::indication::{Destination, MacIndication, PayloadHandle};
use crate::neighbor::{ArenaRaw, NeighborArena, NeighborView};
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
    transmitters: Vec<NodeId>,
    /// Membership mirror of `transmitters`.
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
    /// node → index into `txs` for this slot (`u32::MAX` = not
    /// transmitting). Reset by iterating `transmitters`, never by an O(n)
    /// fill.
    tx_index: Vec<u32>,
    /// Stale-neighbour collection buffer for the frame boundary.
    stale_buf: Vec<NodeId>,
}

impl<P> FrameScratch<P> {
    fn new(topo: &Topology, cfg: &LmacConfig) -> Self {
        let n = topo.len();
        // Concurrent same-slot transmitters are bounded by a 2-hop
        // neighbourhood during join transients; the maximum degree is a
        // safe, topology-derived capacity for every per-slot list.
        let width = topo.max_degree().max(8);
        FrameScratch {
            transmitters: Vec::with_capacity(width),
            tx_mark: NodeBits::new(n),
            txs: Vec::with_capacity(width),
            tx_data: Vec::with_capacity(width * cfg.data_messages_per_slot),
            listener_mark: NodeBits::new(n),
            collided_mark: NodeBits::new(n),
            audible: Vec::with_capacity(width),
            audible_tx: vec![AUDIBLE_NONE; n],
            tx_index: vec![u32::MAX; n],
            stale_buf: Vec::with_capacity(width),
        }
    }

    /// Empty scratch (used only while the real one is temporarily moved
    /// out to satisfy the borrow checker).
    fn placeholder() -> Self {
        FrameScratch {
            transmitters: Vec::new(),
            tx_mark: NodeBits::new(0),
            txs: Vec::new(),
            tx_data: Vec::new(),
            listener_mark: NodeBits::new(0),
            collided_mark: NodeBits::new(0),
            audible: Vec::new(),
            audible_tx: Vec::new(),
            tx_index: Vec::new(),
            stale_buf: Vec::new(),
        }
    }
}

/// Per-shard working state of the colour-class parallel listener phase.
/// Shard `k` owns the listeners whose 2-hop colour class is congruent to
/// `k` modulo the shard count. Any partition of the listeners would make
/// the per-listener writes (arena row, audibility slot, rx tallies)
/// disjoint; colour classes are the key because same-colour listeners
/// also never hear the same transmitter, which spreads each
/// transmitter's listener burst across shards and keeps the door open to
/// sharding transmitter-side state later without changing the partition.
struct ShardScratch<P> {
    /// Indications produced by this shard, ascending by listener.
    out: Vec<MacIndication<P>>,
    /// Transmitters audible at a collided listener (must surrender).
    collided_from: Vec<NodeId>,
    /// Per-listener audible-set scratch.
    audible: Vec<u32>,
    /// Statistics deltas, summed into [`MacStats`] at the merge. Plain
    /// counter additions, so shard totals equal the serial totals.
    delivered: u64,
    new_neighbors: u64,
    collisions: u64,
    /// Merge cursor into `out`.
    cursor: usize,
}

impl<P> ShardScratch<P> {
    fn new() -> Self {
        ShardScratch {
            out: Vec::new(),
            collided_from: Vec::new(),
            audible: Vec::with_capacity(8),
            delivered: 0,
            new_neighbors: 0,
            collisions: 0,
            cursor: 0,
        }
    }
}

/// The published state of one parallel listener phase: everything a shard
/// needs, behind raw pointers where shards write disjointly (arena rows,
/// audibility slots, per-listener ledger tallies, their own scratch) and
/// shared borrows where they only read.
struct ListenerPhase<'a, P> {
    arena: ArenaRaw,
    audible_tx: *mut u64,
    shards: *mut ShardScratch<P>,
    control_rx: *mut u64,
    data_rx: *mut u64,
    topo: &'a Topology,
    shard_of: &'a [u32],
    listener_mark: &'a NodeBits,
    txs: &'a [TxRecord],
    tx_data: &'a [(Destination, PayloadHandle<P>)],
    tx_index: &'a [u32],
    slot: u16,
    frame: u64,
}

// SAFETY: shards access disjoint state — shard `k` touches only its own
// `ShardScratch` and the arena rows / `audible_tx` slots / rx tallies of
// its own listeners, and every write is indexed by the listener, which
// belongs to exactly one shard (the colour classes partition the nodes).
unsafe impl<P: Send + Sync> Sync for ListenerPhase<'_, P> {}

impl<P: Send + Sync> ListenerPhase<'_, P> {
    /// Process shard `k`: resolve audibility, update the listeners' arena
    /// rows, record receptions in the (listener-indexed, hence disjoint)
    /// ledger tallies and collect this shard's indications. Mirrors the
    /// serial listener loop exactly; only the ordered indication stream is
    /// left for the merge.
    ///
    /// # Safety
    /// `k` must be a valid shard index, and each shard must be executed by exactly one
    /// thread per slot (the pool guarantees exactly-once item execution).
    unsafe fn run_shard(&self, k: usize) {
        let shard = &mut *self.shards.add(k);
        shard.out.clear();
        shard.collided_from.clear();
        shard.delivered = 0;
        shard.new_neighbors = 0;
        shard.collisions = 0;
        shard.cursor = 0;
        let s = self.slot;
        for l in self.listener_mark.iter() {
            if self.shard_of[l.index()] != k as u32 {
                continue;
            }
            let resolved = std::mem::replace(&mut *self.audible_tx.add(l.index()), AUDIBLE_NONE);
            let audible = &mut shard.audible;
            audible.clear();
            if resolved == AUDIBLE_COLLIDED {
                // Rare join transient: recover the full audible set from
                // the listener's CSR row (links are symmetric).
                for &nb in self.topo.neighbors(l) {
                    let ti = self.tx_index[nb.index()];
                    if ti != u32::MAX {
                        audible.push(ti);
                    }
                }
            } else {
                audible.push((resolved >> 32) as u32);
            }
            if audible.len() > 1 {
                shard.collisions += 1;
                for &i in audible.iter() {
                    shard.collided_from.push(self.txs[i as usize].from);
                }
                continue;
            }
            let tx = &self.txs[audible[0] as usize];
            *self.control_rx.add(l.index()) += 1;
            let is_new = if resolved == AUDIBLE_COLLIDED {
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
            if is_new {
                shard.new_neighbors += 1;
                shard.out.push(MacIndication::NeighborNew { observer: l, new: tx.from });
            }
            for (dest, payload) in &self.tx_data[tx.data_start as usize..tx.data_end as usize] {
                if dest.includes(l) {
                    *self.data_rx.add(l.index()) += 1;
                    shard.delivered += 1;
                    shard.out.push(MacIndication::Delivered {
                        to: l,
                        from: tx.from,
                        payload: payload.clone(),
                    });
                }
            }
        }
    }
}

/// The listener an indication belongs to, for the merge's k-way walk.
fn indication_listener<P>(ind: &MacIndication<P>) -> NodeId {
    match ind {
        MacIndication::Delivered { to, .. } => *to,
        MacIndication::NeighborNew { observer, .. } => *observer,
        // Shards only emit the two variants above.
        _ => unreachable!("unexpected indication variant in a listener shard"),
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
    /// Shard per node: the precomputed 2-hop colour class reduced modulo
    /// the worker count — the sharding key of the parallel listener
    /// phase. Computed once per topology epoch; empty when
    /// `cfg.workers == 1`.
    shard_of: Vec<u32>,
    /// Persistent work-stealing pool (`None` when `cfg.workers == 1`).
    pool: Option<WorkerPool>,
    /// Per-shard output buffers for the parallel listener phase.
    shards: Vec<ShardScratch<P>>,
    /// Run the sharded listener phase even when the pool has no runnable
    /// helper (test hook; results are identical either way).
    force_sharded: bool,
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
        // row, which the unchecked sharded reception path relies on.
        assert!(
            topo.nodes().all(|v| cursor[v.index()] as usize == topo.degree(v)),
            "topology rows must be symmetric"
        );
        // Colour-class parallelism: the colouring and the worker pool are
        // set up once per topology epoch, and only when asked for.
        let (shard_of, pool, shards) = if cfg.workers > 1 {
            let mut coloring = topo.two_hop_coloring();
            for c in &mut coloring {
                *c %= cfg.workers as u32;
            }
            (
                coloring,
                Some(WorkerPool::new(cfg.workers)),
                (0..cfg.workers).map(|_| ShardScratch::new()).collect(),
            )
        } else {
            (Vec::new(), None, Vec::new())
        };
        LmacNetwork {
            slot_owners: vec![Vec::new(); cfg.slots_per_frame as usize],
            data_ledger: EnergyLedger::new(n),
            control_ledger: EnergyLedger::new(n),
            scratch: FrameScratch::new(&topo, &cfg),
            arena: NeighborArena::new(&topo),
            alive_mask,
            mirror_pos,
            shard_of,
            pool,
            shards,
            force_sharded: false,
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

    /// Force the colour-class sharded listener phase even when the worker
    /// pool was clamped to a single runnable thread (e.g. a 1-core CI
    /// host). Results are bit-identical either way; the differential
    /// suites call this so the sharded path is exercised on any machine.
    /// Requires `workers > 1` in the configuration.
    #[doc(hidden)]
    pub fn force_sharded_listeners(&mut self) {
        assert!(self.cfg.workers > 1, "sharding requires workers > 1");
        self.force_sharded = true;
    }

    /// Configuration in use.
    pub fn config(&self) -> &LmacConfig {
        &self.cfg
    }

    /// Current frame number.
    pub fn current_frame(&self) -> u64 {
        self.frame
    }

    /// Current slot within the frame.
    pub fn current_slot(&self) -> u16 {
        self.slot
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
        self.arena.view(node)
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

    /// Mutable access (for per-phase resets in experiments).
    pub fn data_ledger_mut(&mut self) -> &mut EnergyLedger {
        &mut self.data_ledger
    }

    /// LMAC's own control-traffic ledger (excluded from the paper's cost
    /// comparison; identical for DirQ and flooding).
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
        self.control_ledger.snap(w);
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
        self.arena.snap(w);
    }

    /// Overlay state captured by [`LmacNetwork::snap`] onto this network,
    /// which must be freshly built over the same configuration and
    /// topology. The liveness bitmap and unslotted-alive count are
    /// recomputed; slot advancement resumes exactly where the snapshot
    /// left off.
    pub fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        mut decode: impl FnMut(&mut SnapReader<'_>) -> Result<P, SnapError>,
    ) -> Result<(), SnapError> {
        r.tag(b"LMAC")?;
        self.frame = r.u64()?;
        self.slot = r.u16()?;
        self.stats.delivered = r.u64()?;
        self.stats.undeliverable = r.u64()?;
        self.stats.collisions = r.u64()?;
        self.stats.slots_surrendered = r.u64()?;
        self.stats.slots_picked = r.u64()?;
        self.stats.no_free_slot = r.u64()?;
        self.stats.deaths_detected = r.u64()?;
        self.stats.new_neighbors_detected = r.u64()?;
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
            node.my_slot = r.opt_u16()?;
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
        for owners in self.slot_owners.iter_mut() {
            owners.clear();
            let m = r.seq_len(4)?;
            for _ in 0..m {
                owners.push(read_node_id(r)?);
            }
        }
        self.arena.restore(r)?;
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
        Ok(())
    }
}

/// The slot machinery. `P: Send + Sync` because the colour-class sharded
/// listener phase may hand payload handles to pool workers; construction,
/// configuration and queueing above stay available for any payload.
impl<P: Send + Sync> LmacNetwork<P> {
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

    /// Reference implementation of one slot with the occupancy-index and
    /// listener-side audibility shortcuts disabled: every slot is processed
    /// and every listener scans the full per-slot transmitter list through
    /// `Topology::has_link`, exactly as the pre-index loop did. Kept for
    /// the differential property tests — indications, statistics and
    /// ledgers must match [`LmacNetwork::advance_slot_into`] bit for bit.
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
        let s = self.slot;

        // Slot-occupancy index: a slot with no alive owner carries no
        // transmission, no reception and no RNG draw — skip straight to the
        // clock advance instead of clearing and scanning the scratch state.
        // (Owner lists are maintained by `set_alive`/joins; typically 0 or
        // 1 entries, so the alive probe is O(1) in practice.)
        let occupied = self.slot_owners[s as usize].iter().any(|&t| self.alive_mask.contains(t));
        if occupied || full_scan {
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

    /// Transmission + reception + collision resolution for the current
    /// slot. Split out of [`LmacNetwork::advance_slot_impl`] so empty slots
    /// can bypass it entirely.
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
        {
            let FrameScratch {
                transmitters,
                tx_mark,
                txs,
                tx_data,
                listener_mark,
                collided_mark,
                audible,
                audible_tx,
                tx_index,
                stale_buf: _,
            } = &mut scratch;

            transmitters.clear();
            tx_mark.clear();
            txs.clear();
            tx_data.clear();
            listener_mark.clear();
            collided_mark.clear();

            for &t in &self.slot_owners[s as usize] {
                if self.alive_mask.contains(t) {
                    tx_index[t.index()] = transmitters.len() as u32;
                    transmitters.push(t);
                    tx_mark.insert(t);
                }
            }

            // --- Transmission phase --------------------------------------------
            // Each transmitter sends one control section plus up to
            // `data_messages_per_slot` queued data messages.
            for &t in transmitters.iter() {
                let gw = self.gateway_distance(t);
                let occupied = self.arena.view(t).one_hop_occupancy();
                let node = &mut self.nodes[t.index()];
                let data_start = tx_data.len() as u32;
                for _ in 0..self.cfg.data_messages_per_slot {
                    match node.tx_queue.pop_front() {
                        Some(m) => tx_data.push(m),
                        None => break,
                    }
                }
                let data_end = tx_data.len() as u32;
                self.control_ledger.record_tx(t);
                for _ in data_start..data_end {
                    self.data_ledger.record_tx(t);
                }
                txs.push(TxRecord { from: t, occupied, gateway_dist: gw, data_start, data_end });
            }

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

            // The sharded path helps only when the pool really has more
            // than one runnable worker (helpers are clamped to the
            // hardware); both paths are bit-identical, so this is purely a
            // speed decision. `force_sharded` lets the differential suites
            // cover the sharded path on any host.
            let sharded = !full_scan
                && (self.force_sharded || self.pool.as_ref().is_some_and(|p| p.workers() > 1));
            if sharded {
                // --- Colour-class parallel listener phase ------------------
                // Shard the listener loop across the precomputed 2-hop
                // colour classes: shards touch disjoint arena rows,
                // audibility slots and rx tallies, statistics merge as
                // plain sums, and the sparse indication streams are merged
                // back in ascending listener order — bit-identical to the
                // serial loop below at any worker count.
                let nshards = self.shards.len();
                let phase = ListenerPhase {
                    arena: self.arena.raw(),
                    audible_tx: audible_tx.as_mut_ptr(),
                    shards: self.shards.as_mut_ptr(),
                    control_rx: self.control_ledger.rx_tallies_mut().as_mut_ptr(),
                    data_rx: self.data_ledger.rx_tallies_mut().as_mut_ptr(),
                    topo: &self.topo,
                    shard_of: &self.shard_of,
                    listener_mark,
                    txs,
                    tx_data,
                    tx_index,
                    slot: s,
                    frame: self.frame,
                };
                let pool = self.pool.as_mut().expect("sharded path requires the pool");
                // SAFETY: shard `k` is executed exactly once and shards
                // touch disjoint state (see `ListenerPhase`).
                pool.run(nshards, &|k| unsafe { phase.run_shard(k) });

                // Deterministic merge. Statistics: sum the shard deltas in
                // shard order. Indications: a k-way merge by listener id —
                // every listener lives in exactly one shard and each
                // shard's stream is ascending, so the result reproduces
                // the serial loop's ascending interleaving exactly.
                for sh in &mut self.shards {
                    self.stats.collisions += sh.collisions;
                    self.stats.delivered += sh.delivered;
                    self.stats.new_neighbors_detected += sh.new_neighbors;
                    for &t in &sh.collided_from {
                        collided_mark.insert(t);
                    }
                }
                loop {
                    let mut best: Option<(NodeId, usize)> = None;
                    for k in 0..nshards {
                        let sh = &self.shards[k];
                        if sh.cursor < sh.out.len() {
                            let l = indication_listener(&sh.out[sh.cursor]);
                            if best.is_none_or(|(b, _)| l < b) {
                                best = Some((l, k));
                            }
                        }
                    }
                    let Some((_, k)) = best else { break };
                    let sh = &mut self.shards[k];
                    // A refcount bump, not a payload copy (manual Clone).
                    out.push(sh.out[sh.cursor].clone());
                    sh.cursor += 1;
                }
            } else {
                self.serial_listener_loop(
                    s,
                    out,
                    full_scan,
                    listener_mark,
                    collided_mark,
                    audible,
                    audible_tx,
                    tx_index,
                    txs,
                    tx_data,
                );
            }

            // Multicast destinations that did not hear the message: dead, out
            // of range, or currently colliding. Surface them to the upper
            // layer — the payload handle is shared, not copied.
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

            // Sent payload handles drop here; a handle survives only inside
            // the indications that reference it. The tx_index entries are
            // reset transmitter-by-transmitter, keeping the wipe O(|txs|).
            tx_data.clear();
            for &t in transmitters.iter() {
                tx_index[t.index()] = u32::MAX;
            }
        }
        self.scratch = scratch;
    }

    /// The serial listener phase: reception, arena-row updates, collision
    /// detection, statistics and ledgers for every marked listener, in
    /// ascending id order straight off the bitset. The parallel path must
    /// reproduce this loop's output bit for bit; `advance_slot_full_scan_into`
    /// flows through here with `full_scan` set.
    #[allow(clippy::too_many_arguments)]
    fn serial_listener_loop(
        &mut self,
        s: u16,
        out: &mut Vec<MacIndication<P>>,
        full_scan: bool,
        listener_mark: &NodeBits,
        collided_mark: &mut NodeBits,
        audible: &mut Vec<u32>,
        audible_tx: &mut [u64],
        tx_index: &[u32],
        txs: &[TxRecord],
        tx_data: &[(Destination, PayloadHandle<P>)],
    ) {
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
                for &i in audible.iter() {
                    collided_mark.insert(txs[i as usize].from);
                }
                continue;
            }
            let tx = &txs[audible[0] as usize];
            self.control_ledger.record_rx(l);
            let is_new = if full_scan || resolved == AUDIBLE_COLLIDED {
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
            if is_new {
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

    fn frame_boundary(&mut self, rng: &mut SimRng, out: &mut Vec<MacIndication<P>>) {
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
                &mut stale_buf,
            );
            for &dead in &stale_buf {
                self.arena.remove(observer, dead);
                self.stats.deaths_detected += 1;
                out.push(MacIndication::NeighborDied { observer, dead });
            }
        }
        stale_buf.clear();
        self.scratch.stale_buf = stale_buf;

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
    fn worker_count_never_changes_the_indication_stream() {
        // The colour-class parallel listener phase must be bit-identical
        // to the serial loop: same indications in the same order, same
        // statistics, same ledgers — across joins, traffic and churn.
        let topo = random_topo(40, 33);
        let mut nets: Vec<Net> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                let mut net =
                    Net::new(LmacConfig { workers: w, ..LmacConfig::default() }, topo.clone());
                if w > 1 {
                    net.force_sharded_listeners();
                }
                net
            })
            .collect();
        let mut rngs: Vec<_> =
            (0..nets.len()).map(|_| RngFactory::new(33).stream("workers")).collect();
        for net in &mut nets {
            net.enqueue(NodeId(0), Destination::Broadcast, 7);
            net.enqueue(NodeId(3), Destination::unicast(NodeId(5)), 9);
        }
        let slots = nets[0].config().slots_per_frame;
        let mut streams: Vec<Vec<MacIndication<u32>>> = vec![Vec::new(); nets.len()];
        for frame in 0..8u32 {
            if frame == 2 {
                for net in &mut nets {
                    net.set_alive(NodeId(7), false);
                    net.set_alive(NodeId(11), false);
                }
            }
            if frame == 5 {
                for net in &mut nets {
                    net.set_alive(NodeId(7), true);
                }
            }
            for _ in 0..slots {
                for (i, net) in nets.iter_mut().enumerate() {
                    net.advance_slot_into(&mut rngs[i], &mut streams[i]);
                }
            }
        }
        assert_eq!(streams[0], streams[1], "2 workers diverged from serial");
        assert_eq!(streams[0], streams[2], "4 workers diverged from serial");
        let reference = format!("{:?}", nets[0].stats());
        for net in &nets[1..] {
            assert_eq!(format!("{:?}", net.stats()), reference);
            assert_eq!(format!("{:?}", net.data_ledger()), format!("{:?}", nets[0].data_ledger()));
        }
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

//! Tree upkeep: scripted churn, orphan repair and the attachment scratch
//! query calibration reads.

use std::sync::Arc;

use dirq_lmac::Destination;
use dirq_net::churn::ChurnEvent;
use dirq_net::{NodeId, SpanningTree};

use crate::flooding::FloodingNode;
use crate::messages::DirqMessage;
use crate::node::DirqNode;

use super::sensing::SensorCell;
use super::Engine;

/// Epochs a node stays detached before the repair fallback adopts an
/// attached MAC neighbour directly.
const DETACH_FALLBACK_EPOCHS: u64 = 25;

/// The tree plane's scratch, reused across epochs: the attachment (each
/// node's depth and parent in the protocol tree, recomputed in place by
/// [`TreeScratch::attach`]) and the churn and repair buffers.
#[derive(Default)]
pub(super) struct TreeScratch {
    /// Per-node depth in the protocol tree (`None` = detached).
    depth: Vec<Option<u32>>,
    /// Per-node parent in the protocol tree (`None` for the root and
    /// detached nodes). Query calibration and ground truth read it (see
    /// [`Engine::query_parents`]).
    pub(super) parent: Vec<Option<NodeId>>,
    /// `tree_version` as of the last [`TreeScratch::attach`]; while it
    /// still matches, `depth` and `parent` are current.
    version: Option<u64>,
    /// BFS worklist for [`TreeScratch::attach`].
    queue: Vec<NodeId>,
    /// Churn events due this epoch.
    churn: Vec<ChurnEvent>,
    /// Per-orphan `(gateway_dist, neighbour)` candidates for the repair
    /// pass (reused across orphans and epochs).
    candidates: Vec<(u16, NodeId)>,
}

impl TreeScratch {
    /// Scratch for `n` nodes, with no attachment computed yet.
    pub(super) fn new(n: usize) -> Self {
        let (depth, parent, queue) = (vec![None; n], vec![None; n], Vec::with_capacity(n));
        TreeScratch { depth, parent, queue, ..TreeScratch::default() }
    }

    /// Recompute the attachment depths and parents — the same traversal
    /// as [`Engine::protocol_tree`] (children lists + matching parent
    /// pointers) without building a tree or allocating — and record
    /// `version`, the `tree_version` they reflect.
    fn attach(&mut self, nodes: &[DirqNode], alive: &[bool], version: u64) {
        self.depth.fill(None);
        self.parent.fill(None);
        self.version = Some(version);
        self.queue.clear();
        self.depth[NodeId::ROOT.index()] = Some(0);
        self.queue.push(NodeId::ROOT);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.depth[u.index()].expect("queued nodes are attached");
            for &c in nodes[u.index()].children() {
                if alive[c.index()]
                    && self.depth[c.index()].is_none()
                    && nodes[c.index()].parent() == Some(u)
                {
                    self.depth[c.index()] = Some(du + 1);
                    self.parent[c.index()] = Some(u);
                    self.queue.push(c);
                }
            }
        }
    }
}

impl Engine {
    /// Reconstruct the spanning tree implied by the protocol state
    /// (children lists + matching parent pointers). Query ground truth
    /// reads the same traversal's parents from the attachment scratch
    /// instead of building this tree.
    pub fn protocol_tree(&self) -> SpanningTree {
        let n = self.topo.len();
        let mut tree = SpanningTree::new(n, NodeId::ROOT);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(NodeId::ROOT);
        while let Some(u) = queue.pop_front() {
            for &c in self.nodes[u.index()].children() {
                if self.alive[c.index()]
                    && !tree.is_attached(c)
                    && self.nodes[c.index()].parent() == Some(u)
                {
                    tree.attach(c, u);
                    queue.push_back(c);
                }
            }
        }
        tree
    }

    pub(super) fn apply_churn(&mut self) {
        // Fast path: churn-free scenarios (most presets) pay one branch.
        if self.churn.is_empty() {
            return;
        }
        // The events are staged through an engine-owned scratch buffer so
        // the plan's borrow ends before the mutations below (and quiet
        // epochs allocate nothing).
        let mut events = std::mem::take(&mut self.tree_scratch.churn);
        events.clear();
        events.extend(self.churn.at_epoch(self.epoch));
        if !events.is_empty() {
            self.tree_version += 1;
        }
        for ev in events.drain(..) {
            match ev {
                ChurnEvent::Death(node) => {
                    self.alive[node.index()] = false;
                    self.mac.set_alive(node, false);
                    self.detached_since[node.index()] = None;
                }
                ChurnEvent::Birth(node) => {
                    self.alive[node.index()] = true;
                    self.mac.set_alive(node, true);
                    // Fresh protocol state: the node joins from scratch.
                    self.nodes[node.index()] = DirqNode::new(node, Arc::clone(&self.node_cfg));
                    self.plane.row_mut(node.index()).fill(SensorCell::EMPTY);
                    if self.cfg.location_enabled {
                        let pos = self.topo.position(node);
                        // Orphan: nothing is sent; the advert flows on attach.
                        self.handle(node, |n, out| n.set_position(pos, out));
                    }
                    self.flood[node.index()] = FloodingNode::new();
                }
            }
        }
        self.tree_scratch.churn = events;
    }

    /// Re-attach detached nodes.
    ///
    /// Primary (local) path: an orphan adopts the MAC neighbour advertising
    /// the smallest gateway distance (the paper's cross-layer repair).
    /// Candidates are tried in distance order under a cycle guard so a
    /// transiently stale best choice cannot livelock the node.
    ///
    /// Fallback path: distance-vector staleness can strand whole dangling
    /// regions (count-to-infinity), a failure mode the paper does not
    /// address. Any node detached from the root for more than
    /// `DETACH_FALLBACK_EPOCHS` re-parents onto a MAC neighbour that *is*
    /// attached (sending a Detach to its still-alive old parent). In a real
    /// deployment the same information comes from LMAC's gateway-distance
    /// field aging out; the simulator takes the direct route.
    ///
    /// Gated on the tree: a pass that finds every alive node attached
    /// changes nothing (every `detached_since` is `None`, there is no
    /// orphan and no fallback), and so does every later pass until
    /// something bumps `tree_version` — a death or birth, a restore, an
    /// adoption here, or a dispatched `Attach`, `Detach`, `GeoAdvert`,
    /// `NeighborDied` or child-adding `Update`. Those passes return at
    /// once; debug builds still recompute the attachment and assert it.
    ///
    /// Serial at every worker count: on the registry presets large enough
    /// to shard, the pass finds no orphan and no detached node at their
    /// full budgets (PERFORMANCE.md), so sharding it would only split an
    /// empty loop.
    pub(super) fn repair_orphans(&mut self) {
        if self.repaired_version == Some(self.tree_version) {
            #[cfg(debug_assertions)]
            {
                self.tree_scratch.attach(&self.nodes, &self.alive, self.tree_version);
                let depth = &self.tree_scratch.depth;
                debug_assert!(
                    (1..self.nodes.len()).all(|i| !self.alive[i] || depth[i].is_some()),
                    "repair skipped with a detached node at epoch {}",
                    self.epoch
                );
            }
            return;
        }
        self.tree_scratch.attach(&self.nodes, &self.alive, self.tree_version);

        // Track how long each alive node has been detached from the root.
        let mut all_attached = true;
        for i in 1..self.nodes.len() {
            if !self.alive[i] || self.tree_scratch.depth[i].is_some() {
                self.detached_since[i] = None;
            } else {
                all_attached = false;
                if self.detached_since[i].is_none() {
                    self.detached_since[i] = Some(self.epoch);
                }
            }
        }
        if all_attached {
            self.repaired_version = Some(self.tree_version);
            return;
        }

        // Primary: orphans (no parent at all) use the MAC gateway metric.
        // The candidate list reuses an engine-owned scratch buffer across
        // orphans and epochs.
        let mut candidates = std::mem::take(&mut self.tree_scratch.candidates);
        for i in 1..self.nodes.len() {
            let node = NodeId::from_index(i);
            if !self.alive[i] || self.nodes[i].parent().is_some() {
                continue;
            }
            let table = self.mac.neighbor_table(node);
            candidates.clear();
            candidates.extend(table.nodes().filter_map(|nb| {
                let info = table.get(nb).expect("listed neighbour");
                (info.gateway_dist != u16::MAX).then_some((info.gateway_dist, nb))
            }));
            candidates.sort_unstable();
            let Some(parent) =
                candidates.iter().map(|&(_, c)| c).find(|&c| !self.would_cycle(node, c))
            else {
                continue;
            };
            self.handle(node, |n, out| n.set_parent(Some(parent), out));
            self.tree_version += 1;
        }
        self.tree_scratch.candidates = candidates;

        // Fallback: long-detached nodes (orphan heads without usable
        // metrics, or interiors of dangling regions) adopt an attached
        // MAC neighbour directly.
        for i in 1..self.nodes.len() {
            let node = NodeId::from_index(i);
            if !self.alive[i] {
                continue;
            }
            let Some(since) = self.detached_since[i] else { continue };
            if self.epoch.saturating_sub(since) < DETACH_FALLBACK_EPOCHS {
                continue;
            }
            let depth = &self.tree_scratch.depth;
            let new_parent = self
                .mac
                .neighbor_table(node)
                .nodes()
                .filter(|&nb| depth[nb.index()].is_some())
                .min_by_key(|&nb| (depth[nb.index()].unwrap_or(u32::MAX), nb));
            let Some(new_parent) = new_parent else { continue };
            if self.nodes[i].parent() == Some(new_parent) {
                continue;
            }
            // Tell the old parent (if any, still alive) to drop us.
            if let Some(old) = self.nodes[i].parent() {
                if self.alive[old.index()] {
                    self.outbox().send(node, Destination::unicast(old), DirqMessage::Detach);
                }
            }
            self.detached_since[i] = None;
            self.handle(node, |n, out| n.set_parent(Some(new_parent), out));
            self.tree_version += 1;
        }
    }

    /// Whether the next repair pass would be skipped: no tree change since
    /// a pass found every alive node attached.
    #[cfg(test)]
    pub(super) fn repair_gate_open(&self) -> bool {
        self.repaired_version == Some(self.tree_version)
    }

    /// Bring the attachment parents up to date for query calibration and
    /// ground truth: recompute the attachment only when `tree_version` has
    /// moved since the last [`TreeScratch::attach`]. Debug builds check
    /// the scratch against [`Engine::protocol_tree`] at every use.
    pub(super) fn query_parents(&mut self) {
        if self.tree_scratch.version != Some(self.tree_version) {
            self.tree_scratch.attach(&self.nodes, &self.alive, self.tree_version);
        }
        debug_assert!(
            self.tree_scratch.parent == self.protocol_tree().parents(),
            "stale attachment scratch at epoch {}",
            self.epoch
        );
        #[cfg(test)]
        self.query_parents_log.push((self.tree_scratch.parent.clone(), self.protocol_tree()));
    }

    fn would_cycle(&self, node: NodeId, candidate_parent: NodeId) -> bool {
        let mut cur = Some(candidate_parent);
        let mut steps = 0;
        while let Some(p) = cur {
            if p == node {
                return true;
            }
            steps += 1;
            if steps > self.nodes.len() {
                return true;
            }
            cur = self.nodes[p.index()].parent();
        }
        false
    }
}

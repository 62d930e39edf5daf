//! Spanning-tree construction and maintenance.
//!
//! DirQ runs on a spanning tree rooted at the sink: update messages flow up
//! it, queries flow down it. Three builders are provided:
//!
//! * [`SpanningTree::bfs`] — shortest-hop tree over a [`Topology`].
//! * [`SpanningTree::bounded_random`] — randomised tree with a maximum
//!   fan-out `k` and maximum depth `d`, matching the paper's description of
//!   its 50-node evaluation network ("k = 8 and d = 10").
//! * [`SpanningTree::complete_kary`] — the exact complete k-ary tree of the
//!   analytic model in Section 5 (with the tree edges *as* the radio graph).
//!
//! The tree also supports the repair operations the protocol layer performs
//! when LMAC reports a dead neighbour: detaching a subtree and re-attaching
//! a node under a new parent.

use dirq_sim::SimRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::Topology;
use crate::ids::NodeId;

/// A rooted spanning tree over a set of nodes.
///
/// Detached nodes (not currently in the tree — e.g. dead, or orphaned by a
/// parent death until repair) have no parent and depth `None`.
#[derive(Clone, Debug)]
pub struct SpanningTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<Option<u32>>,
}

impl SpanningTree {
    /// An empty tree over `n` nodes containing only `root`.
    pub fn new(n: usize, root: NodeId) -> Self {
        assert!(root.index() < n, "root out of range");
        let mut t = SpanningTree {
            root,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            depth: vec![None; n],
        };
        t.depth[root.index()] = Some(0);
        t
    }

    /// Breadth-first spanning tree of `topo` rooted at `root`: every node
    /// attaches at minimum hop distance. Unreachable nodes stay detached.
    pub fn bfs(topo: &Topology, root: NodeId) -> Self {
        let mut t = SpanningTree::new(topo.len(), root);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in topo.neighbors(u) {
                if v != root && t.depth[v.index()].is_none() {
                    t.attach(v, u);
                    queue.push_back(v);
                }
            }
        }
        t
    }

    /// BFS spanning tree visiting only nodes for which `passable` returns
    /// true (used when part of the deployment is initially offline).
    /// Impassable and unreachable nodes stay detached.
    pub fn bfs_filtered(topo: &Topology, root: NodeId, passable: impl Fn(NodeId) -> bool) -> Self {
        let mut t = SpanningTree::new(topo.len(), root);
        assert!(passable(root), "the root must be passable");
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in topo.neighbors(u) {
                if v != root && t.depth[v.index()].is_none() && passable(v) {
                    t.attach(v, u);
                    queue.push_back(v);
                }
            }
        }
        t
    }

    /// Randomised spanning tree with fan-out at most `k` and depth at most
    /// `d`, built by randomised BFS over `topo`. This mirrors the paper's
    /// evaluation network: 50 nodes, k = 8, d = 10 — bounds, not a complete
    /// tree (a complete (8,10)-tree would have ~10⁹ nodes).
    ///
    /// Returns `None` if the bounds make full coverage impossible for this
    /// topology (some node would be left detached).
    pub fn bounded_random(
        topo: &Topology,
        root: NodeId,
        k: usize,
        d: u32,
        rng: &mut SimRng,
    ) -> Option<Self> {
        assert!(k > 0, "fan-out bound must be positive");
        let mut t = SpanningTree::new(topo.len(), root);
        // Frontier of nodes that can still accept children.
        let mut frontier = vec![root];
        let mut uncovered = topo.len() - 1;
        while uncovered > 0 {
            if frontier.is_empty() {
                return None;
            }
            // Pick a random frontier node with spare capacity and depth < d.
            let fi = rng.gen_range(0..frontier.len());
            let u = frontier[fi];
            let du = t.depth[u.index()].expect("frontier nodes are attached");
            let mut candidates: Vec<NodeId> = topo
                .neighbors(u)
                .iter()
                .copied()
                .filter(|v| t.depth[v.index()].is_none())
                .collect();
            if candidates.is_empty() || t.children[u.index()].len() >= k || du >= d {
                frontier.swap_remove(fi);
                continue;
            }
            candidates.shuffle(rng);
            let spare = k - t.children[u.index()].len();
            // Attach a random number of children (at least one) to diversify
            // shapes between runs.
            let take = rng.gen_range(1..=spare.min(candidates.len()));
            for &v in candidates.iter().take(take) {
                t.attach(v, u);
                frontier.push(v);
                uncovered -= 1;
            }
        }
        Some(t)
    }

    /// The complete k-ary tree of depth `d` from the analytic model: node 0
    /// is the root; node `i`'s children are `k·i + 1 ..= k·i + k`. Returns
    /// the tree together with a [`Topology`] whose links are exactly the
    /// tree edges.
    pub fn complete_kary(k: usize, d: u32) -> (Topology, Self) {
        assert!(k >= 1, "arity must be at least 1");
        let n = crate::tree::complete_kary_node_count(k, d);
        let mut edges = Vec::with_capacity(n - 1);
        for i in 0..n {
            for c in 1..=k {
                let child = i * k + c;
                if child < n {
                    edges.push((NodeId::from_index(i), NodeId::from_index(child)));
                }
            }
        }
        let topo = Topology::from_edges(n, &edges);
        let tree = SpanningTree::bfs(&topo, NodeId::ROOT);
        (topo, tree)
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of node slots (attached or not).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree has no node slots.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `node` (`None` for the root and for detached nodes).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Parent pointers indexed by node (`None` for the root and for
    /// detached nodes).
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// Children of `node`, in attachment order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Depth of `node` (root = 0), `None` when detached.
    pub fn depth(&self, node: NodeId) -> Option<u32> {
        self.depth[node.index()]
    }

    /// Whether `node` is currently part of the tree.
    pub fn is_attached(&self, node: NodeId) -> bool {
        self.depth[node.index()].is_some()
    }

    /// Number of attached nodes.
    pub fn attached_count(&self) -> usize {
        self.depth.iter().filter(|d| d.is_some()).count()
    }

    /// Attached nodes with no children.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.len())
            .map(NodeId::from_index)
            .filter(|&n| self.is_attached(n) && self.children[n.index()].is_empty())
            .collect()
    }

    /// Maximum depth over attached nodes.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Maximum fan-out over attached nodes.
    pub fn max_fanout(&self) -> usize {
        self.children.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Attach detached `node` under `parent`.
    ///
    /// # Panics
    /// Panics if `node` is already attached, the parent is detached, or the
    /// attachment would create a cycle (`node == parent`).
    pub fn attach(&mut self, node: NodeId, parent: NodeId) {
        assert_ne!(node, parent, "cannot attach a node to itself");
        assert!(self.depth[node.index()].is_none(), "{node} is already attached");
        let pd = self.depth[parent.index()].expect("parent must be attached");
        self.parent[node.index()] = Some(parent);
        self.children[parent.index()].push(node);
        self.depth[node.index()] = Some(pd + 1);
    }

    /// Detach `node` and its entire subtree; returns the detached nodes
    /// (including `node`) in BFS order. Detaching the root is forbidden.
    pub fn detach_subtree(&mut self, node: NodeId) -> Vec<NodeId> {
        assert_ne!(node, self.root, "cannot detach the root");
        if !self.is_attached(node) {
            return Vec::new();
        }
        if let Some(p) = self.parent[node.index()] {
            self.children[p.index()].retain(|&c| c != node);
        }
        let mut order = vec![node];
        let mut i = 0;
        while i < order.len() {
            let u = order[i];
            i += 1;
            for &c in &self.children[u.index()] {
                order.push(c);
            }
        }
        for &u in &order {
            self.parent[u.index()] = None;
            self.children[u.index()].clear();
            self.depth[u.index()] = None;
        }
        order
    }

    /// Subtree of `node` in BFS order (including `node`) without detaching.
    pub fn subtree(&self, node: NodeId) -> Vec<NodeId> {
        if !self.is_attached(node) {
            return Vec::new();
        }
        let mut order = vec![node];
        let mut i = 0;
        while i < order.len() {
            let u = order[i];
            i += 1;
            order.extend_from_slice(&self.children[u.index()]);
        }
        order
    }

    /// Validate the structural invariants (acyclicity, parent/child
    /// consistency, correct depths). Intended for tests and debug builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.depth[self.root.index()] != Some(0) {
            return Err("root must be attached at depth 0".into());
        }
        if self.parent[self.root.index()].is_some() {
            return Err("root must have no parent".into());
        }
        for i in 0..self.len() {
            let node = NodeId::from_index(i);
            match (self.parent[i], self.depth[i]) {
                (Some(p), Some(d)) => {
                    let pd = self.depth[p.index()]
                        .ok_or_else(|| format!("{node} has detached parent {p}"))?;
                    if d != pd + 1 {
                        return Err(format!("{node} depth {d} != parent depth {pd} + 1"));
                    }
                    if !self.children[p.index()].contains(&node) {
                        return Err(format!("{p} does not list child {node}"));
                    }
                }
                (None, Some(_)) if node != self.root => {
                    return Err(format!("{node} attached but has no parent"));
                }
                (Some(_), None) => {
                    return Err(format!("{node} detached but has a parent"));
                }
                _ => {}
            }
            for &c in &self.children[i] {
                if self.parent[c.index()] != Some(node) {
                    return Err(format!("child {c} of {node} disagrees about its parent"));
                }
            }
        }
        // Acyclicity: walking up from any attached node reaches the root in
        // at most n steps.
        for i in 0..self.len() {
            let node = NodeId::from_index(i);
            if self.is_attached(node) {
                let mut cur = node;
                let mut steps = 0;
                while let Some(p) = self.parent[cur.index()] {
                    cur = p;
                    steps += 1;
                    if steps > self.len() {
                        return Err(format!("cycle reachable from {node}"));
                    }
                }
                if cur != self.root {
                    return Err(format!("{node} does not reach the root"));
                }
            }
        }
        Ok(())
    }
}

/// Number of nodes in a complete k-ary tree of depth `d` (root at depth 0).
///
/// For k = 1 this is `d + 1` (a path); for k ≥ 2 it is
/// `(k^(d+1) − 1)/(k − 1)`.
pub fn complete_kary_node_count(k: usize, d: u32) -> usize {
    assert!(k >= 1, "arity must be at least 1");
    if k == 1 {
        return d as usize + 1;
    }
    let k = k as u128;
    let n = (k.pow(d + 1) - 1) / (k - 1);
    usize::try_from(n).expect("tree too large for this platform")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{Placement, SinkPlacement};
    use crate::radio::UnitDisk;
    use dirq_sim::RngFactory;
    use proptest::prelude::*;

    fn grid_topology(n: usize, seed: u64) -> Topology {
        let mut rng = RngFactory::new(seed).stream("tree-test");
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
    fn bfs_tree_covers_and_minimises_depth() {
        let topo = grid_topology(50, 3);
        let tree = SpanningTree::bfs(&topo, NodeId::ROOT);
        tree.check_invariants().unwrap();
        assert_eq!(tree.attached_count(), 50);
        let hops = topo.hop_distances(NodeId::ROOT, |_| true);
        for n in topo.nodes() {
            assert_eq!(tree.depth(n).unwrap(), hops[n.index()], "{n} not at BFS depth");
        }
    }

    #[test]
    fn complete_kary_shape() {
        let (topo, tree) = SpanningTree::complete_kary(2, 3);
        assert_eq!(topo.len(), 15);
        assert_eq!(topo.link_count(), 14);
        tree.check_invariants().unwrap();
        assert_eq!(tree.max_depth(), 3);
        assert_eq!(tree.max_fanout(), 2);
        assert_eq!(tree.leaves().len(), 8);
        assert_eq!(tree.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(tree.parent(NodeId(6)), Some(NodeId(2)));
    }

    #[test]
    fn kary_node_counts() {
        assert_eq!(complete_kary_node_count(2, 4), 31);
        assert_eq!(complete_kary_node_count(3, 2), 13);
        assert_eq!(complete_kary_node_count(1, 5), 6);
        assert_eq!(complete_kary_node_count(8, 1), 9);
    }

    #[test]
    fn bounded_random_respects_bounds() {
        let topo = grid_topology(50, 5);
        let mut rng = RngFactory::new(5).stream("bounded");
        let tree = SpanningTree::bounded_random(&topo, NodeId::ROOT, 8, 10, &mut rng)
            .expect("bounds are generous for this topology");
        tree.check_invariants().unwrap();
        assert_eq!(tree.attached_count(), 50);
        assert!(tree.max_fanout() <= 8, "fanout {}", tree.max_fanout());
        assert!(tree.max_depth() <= 10, "depth {}", tree.max_depth());
    }

    #[test]
    fn bounded_random_fails_on_impossible_bounds() {
        // A path graph cannot be covered with depth bound 1 from one end.
        let edges: Vec<(NodeId, NodeId)> = (0..9).map(|i| (NodeId(i), NodeId(i + 1))).collect();
        let topo = Topology::from_edges(10, &edges);
        let mut rng = RngFactory::new(1).stream("impossible");
        assert!(SpanningTree::bounded_random(&topo, NodeId::ROOT, 8, 1, &mut rng).is_none());
    }

    #[test]
    fn detach_and_reattach_subtree() {
        let (_, mut tree) = SpanningTree::complete_kary(2, 3);
        // Detach node 1's subtree: 1, 3, 4, 7, 8, 9, 10.
        let gone = tree.detach_subtree(NodeId(1));
        assert_eq!(gone.len(), 7);
        assert!(!tree.is_attached(NodeId(7)));
        assert_eq!(tree.attached_count(), 8);
        tree.check_invariants().unwrap();
        // Re-attach node 3 under node 2 (as a repair would).
        tree.attach(NodeId(3), NodeId(2));
        assert_eq!(tree.depth(NodeId(3)), Some(2));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn subtree_lists_descendants() {
        let (_, tree) = SpanningTree::complete_kary(2, 2);
        let sub = tree.subtree(NodeId(1));
        assert_eq!(sub, vec![NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let (_, mut tree) = SpanningTree::complete_kary(2, 2);
        tree.attach(NodeId(3), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "cannot detach the root")]
    fn detaching_root_panics() {
        let (_, mut tree) = SpanningTree::complete_kary(2, 2);
        tree.detach_subtree(NodeId::ROOT);
    }

    proptest! {
        /// Random bounded trees always satisfy their bounds and invariants.
        #[test]
        fn prop_bounded_random_invariants(seed in 0u64..50, k in 2usize..6, d in 3u32..12) {
            let topo = grid_topology(30, 1000 + seed);
            let mut rng = RngFactory::new(seed).stream("prop-bounded");
            if let Some(tree) = SpanningTree::bounded_random(&topo, NodeId::ROOT, k, d, &mut rng) {
                prop_assert!(tree.check_invariants().is_ok());
                prop_assert!(tree.max_fanout() <= k);
                prop_assert!(tree.max_depth() <= d);
                prop_assert_eq!(tree.attached_count(), 30);
                // Tree edges must exist in the radio graph.
                for n in topo.nodes() {
                    if let Some(p) = tree.parent(n) {
                        prop_assert!(topo.has_link(n, p));
                    }
                }
            }
        }

        /// BFS depth equals hop distance on arbitrary connected graphs.
        #[test]
        fn prop_bfs_depth_is_hop_distance(seed in 0u64..30) {
            let topo = grid_topology(25, 2000 + seed);
            let tree = SpanningTree::bfs(&topo, NodeId::ROOT);
            let hops = topo.hop_distances(NodeId::ROOT, |_| true);
            for n in topo.nodes() {
                prop_assert_eq!(tree.depth(n).unwrap(), hops[n.index()]);
            }
        }
    }
}

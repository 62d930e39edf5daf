//! The connectivity graph.
//!
//! A [`Topology`] is the immutable radio graph computed once at deployment:
//! node positions plus a symmetric adjacency structure. Runtime liveness
//! (deaths/births) is layered on top by the MAC and protocol engines — the
//! graph itself records every node that will ever exist.
//!
//! ## Layout
//!
//! Adjacency is stored in **CSR form** (`offsets`/`targets`): neighbour
//! lookup is a single slice over one contiguous array, so the per-slot MAC
//! loops walk memory linearly instead of chasing one heap allocation per
//! node. Rows are sorted, so [`Topology::has_link`] is a binary search over
//! one row; the CSR arrays are the only adjacency structure.
//!
//! ## Construction
//!
//! [`Topology::from_positions`] finds the radio links through a uniform
//! **cell grid** instead of testing all `n²/2` node pairs. The grid's square
//! cells are never narrower than [`RadioModel::max_range`], whose contract
//! is that `connected(a, b)` implies `distance(a, b) ≤ max_range()`, so
//! every link joins nodes in the same or adjacent cells. The cell side
//! carries a relative slack of 1e-9 so that floating-point rounding in
//! the bucket index can never put a linked pair two cells apart, and it
//! widens as needed to keep the grid at O(n) cells. Nodes are
//! bucketed by a counting sort; each unordered pair of same-or-adjacent
//! cells is visited once, and every candidate pair is tested as
//! `connected(lo, .., hi, ..)` with `lo < hi`, exactly as the all-pairs scan
//! did. The CSR rows are sorted, so the `Topology` is bit-identical to the
//! all-pairs one. A model with no finite bound (the `f64::INFINITY`
//! default) gets a single cell, which is the all-pairs scan.
//!
//! ## Deployment
//!
//! [`Topology::deploy_connected`] and
//! [`Topology::deploy_connected_multi_sink`] redraw placements until the
//! graph is connected, and decide that before any `Topology` exists. Each
//! draw is bucketed into the cell grid once. A draw in which some node
//! outside the backbone has no radio link is rejected at once: its probe
//! stops at the first linked node in the node's own and 8 adjacent cells.
//! (A radio without a finite reach gets one cell and no probe.) Otherwise
//! the pair scan runs, and a union–find over its edges plus the backbone
//! must leave one component. Only the accepted draw is built into
//! CSR form, without a BFS. The draws, the edge order and so the graph
//! equal building every draw with [`Topology::from_positions`] (or
//! [`Topology::from_positions_with_backbone`]) and keeping the first that
//! [`Topology::is_connected`]; a property test keeps that loop as its model.

use dirq_sim::SimRng;

use crate::geometry::Position;
use crate::ids::NodeId;
use crate::placement::{Placement, SinkPlacement};
use crate::radio::RadioModel;

/// Relative widening of the grid's cell side over
/// [`RadioModel::max_range`]: rounding in the bucket index stays far below
/// it, so a linked pair always lands in the same or adjacent cells.
const CELL_SLACK: f64 = 1e-9;

/// Node indices bucketed into square cells at least
/// [`RadioModel::max_range`] wide (see the module docs), in CSR form.
struct CellGrid {
    cols: usize,
    rows: usize,
    /// Cell `(x, y)` holds `members[start[c]..start[c + 1]]`, `c = y·cols + x`.
    start: Vec<u32>,
    /// Node indices grouped by cell, ascending within each cell.
    members: Vec<u32>,
}

impl CellGrid {
    fn new(positions: &[Position], max_range: f64) -> CellGrid {
        let n = positions.len();
        let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
        let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            (x0, y0, x1, y1) = (x0.min(p.x), y0.min(p.y), x1.max(p.x), y1.max(p.y));
        }
        let (w, h) = (x1 - x0, y1 - y0);
        // Widening the side past `max_range` where the field is sparse
        // bounds the grid at (w/side + 1)(h/side + 1) ≤ 3n + 1 cells.
        let m = n.max(1) as f64;
        let side = (max_range * (1.0 + CELL_SLACK)).max((w * h / m).sqrt()).max(w / m).max(h / m);
        // `as usize` saturates and maps NaN to 0, so an empty or
        // non-finite extent still gets one cell along its axis.
        let cols = (w / side) as usize + 1;
        let rows = (h / side) as usize + 1;
        let cell_of: Vec<u32> = positions
            .iter()
            .map(|p| {
                let x = (((p.x - x0) / side) as usize).min(cols - 1);
                let y = (((p.y - y0) / side) as usize).min(rows - 1);
                (y * cols + x) as u32
            })
            .collect();

        // Counting sort by cell; ascending node order within each cell.
        let mut start = vec![0u32; cols * rows + 1];
        for &c in &cell_of {
            start[c as usize + 1] += 1;
        }
        for c in 0..cols * rows {
            start[c + 1] += start[c];
        }
        let mut cursor: Vec<u32> = start[..cols * rows].to_vec();
        let mut members = vec![0u32; n];
        for (i, &c) in cell_of.iter().enumerate() {
            members[cursor[c as usize] as usize] = i as u32;
            cursor[c as usize] += 1;
        }
        CellGrid { cols, rows, start, members }
    }

    fn cell(&self, x: usize, y: usize) -> &[u32] {
        let c = y * self.cols + x;
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// The undirected edges `radio` induces over `positions` (`i < j`):
    /// each unordered pair of same-or-adjacent cells is scanned once.
    fn edges<R: RadioModel>(&self, positions: &[Position], radio: &R) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        let mut try_link = |a: u32, b: u32| {
            let (lo, hi) = ordered(a, b);
            if radio.connected(lo, &positions[lo], hi, &positions[hi]) {
                edges.push((NodeId::from_index(lo), NodeId::from_index(hi)));
            }
        };
        for y in 0..self.rows {
            for x in 0..self.cols {
                let here = self.cell(x, y);
                for (k, &a) in here.iter().enumerate() {
                    for &b in &here[k + 1..] {
                        try_link(a, b);
                    }
                }
                // The forward half of the 8-neighbourhood visits each
                // unordered pair of adjacent cells once (`x - 1` wraps to
                // an out-of-range column at `x = 0`).
                for (nx, ny) in [(x + 1, y), (x.wrapping_sub(1), y + 1), (x, y + 1), (x + 1, y + 1)]
                {
                    if nx < self.cols && ny < self.rows {
                        for &a in here {
                            for &b in self.cell(nx, ny) {
                                try_link(a, b);
                            }
                        }
                    }
                }
            }
        }
        edges
    }

    /// Whether every node not marked in `wired` has a radio link. A node's
    /// probe stops at the first linked node in its own and then the 8
    /// adjacent cells, testing pairs in the edge scan's `(lo, hi)` order.
    fn every_node_linked<R: RadioModel>(
        &self,
        positions: &[Position],
        radio: &R,
        wired: &[bool],
    ) -> bool {
        for y in 0..self.rows {
            for x in 0..self.cols {
                let (ys, xs) = (
                    y.saturating_sub(1)..(y + 2).min(self.rows),
                    x.saturating_sub(1)..(x + 2).min(self.cols),
                );
                for &a in self.cell(x, y) {
                    if wired[a as usize] {
                        continue;
                    }
                    let linked_in = |nx: usize, ny: usize| {
                        self.cell(nx, ny).iter().any(|&b| {
                            let (lo, hi) = ordered(a, b);
                            b != a && radio.connected(lo, &positions[lo], hi, &positions[hi])
                        })
                    };
                    // The own cell first: it holds the likeliest link.
                    let linked = linked_in(x, y)
                        || ys
                            .clone()
                            .any(|ny| xs.clone().any(|nx| (nx, ny) != (x, y) && linked_in(nx, ny)));
                    if !linked {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// `(a, b)` as indices, lower first.
fn ordered(a: u32, b: u32) -> (usize, usize) {
    if a < b {
        (a as usize, b as usize)
    } else {
        (b as usize, a as usize)
    }
}

/// Append the `backbone` links to `edges`, each as `(lo, hi)` and only
/// where radio does not already join the pair.
fn add_backbone(edges: &mut Vec<(NodeId, NodeId)>, n: usize, backbone: &[(NodeId, NodeId)]) {
    for &(a, b) in backbone {
        assert!(a.index() < n && b.index() < n, "backbone endpoint out of range");
        assert_ne!(a, b, "backbone self-loops are not allowed");
        let e = if a < b { (a, b) } else { (b, a) };
        if !edges.contains(&e) {
            edges.push(e);
        }
    }
}

/// Whether `edges` join all `n` nodes into one component: a union–find
/// with path halving that stops once one component is left.
fn spans(n: usize, edges: &[(NodeId, NodeId)]) -> bool {
    fn root(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut components = n;
    for &(a, b) in edges {
        if components <= 1 {
            break;
        }
        let (ra, rb) = (root(&mut parent, a.0), root(&mut parent, b.0));
        if ra != rb {
            parent[ra.max(rb) as usize] = ra.min(rb);
            components -= 1;
        }
    }
    components <= 1
}

/// An immutable radio connectivity graph in CSR layout.
#[derive(Clone, Debug)]
pub struct Topology {
    positions: Vec<Position>,
    /// CSR row starts; `offsets[i]..offsets[i + 1]` indexes `targets`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbour lists.
    targets: Vec<NodeId>,
    link_count: usize,
}

impl Topology {
    /// Build the graph implied by `positions` under `radio`.
    pub fn from_positions<R: RadioModel>(positions: Vec<Position>, radio: &R) -> Self {
        let edges = Topology::geometric_edges(&positions, radio);
        Topology::build(positions, &edges, false)
    }

    /// Build the graph implied by `positions` under `radio`, plus explicit
    /// `backbone` links that exist regardless of radio reach — the wired
    /// (or long-range) connections of a multi-sink deployment's sink
    /// backhaul. Backbone pairs already connected by radio are ignored.
    pub fn from_positions_with_backbone<R: RadioModel>(
        positions: Vec<Position>,
        radio: &R,
        backbone: &[(NodeId, NodeId)],
    ) -> Self {
        let mut edges = Topology::geometric_edges(&positions, radio);
        add_backbone(&mut edges, positions.len(), backbone);
        Topology::build(positions, &edges, false)
    }

    /// The undirected edges `radio` induces over `positions` (`i < j`),
    /// found through the cell grid (see the module docs).
    fn geometric_edges<R: RadioModel>(positions: &[Position], radio: &R) -> Vec<(NodeId, NodeId)> {
        CellGrid::new(positions, radio.max_range()).edges(positions, radio)
    }

    /// Deploy `n` nodes with `placement`/`sink`, retrying fresh placements
    /// until the graph is connected (up to `max_attempts`).
    ///
    /// Returns `None` when no connected deployment was found — callers
    /// should increase density or range rather than loop further.
    pub fn deploy_connected<R: RadioModel>(
        n: usize,
        placement: &Placement,
        sink: SinkPlacement,
        radio: &R,
        rng: &mut SimRng,
        max_attempts: usize,
    ) -> Option<Self> {
        Topology::redraw_until_connected(n, placement, sink, radio, rng, max_attempts, 0)
    }

    /// Deploy a **multi-sink** network: like [`Topology::deploy_connected`],
    /// but nodes `1..=extra_sinks` are repositioned onto deterministic
    /// spread sites ([`crate::placement::extra_sink_sites`]) and wired to
    /// the primary sink by backbone links. Every node then reaches *some*
    /// sink over radio, and the augmented graph's BFS tree attaches each
    /// node under its nearest sink.
    pub fn deploy_connected_multi_sink<R: RadioModel>(
        n: usize,
        placement: &Placement,
        sink: SinkPlacement,
        radio: &R,
        rng: &mut SimRng,
        max_attempts: usize,
        extra_sinks: usize,
    ) -> Option<Self> {
        assert!(extra_sinks + 1 < n, "need at least one non-sink node");
        Topology::redraw_until_connected(n, placement, sink, radio, rng, max_attempts, extra_sinks)
    }

    /// The attempt loop of both deploy functions: one `placement.generate`
    /// per attempt, nodes `1..=extra_sinks` moved onto their sites and
    /// wired to the root (an empty backbone without extra sinks), and the
    /// first draw [`Topology::connected_edges`] accepts built.
    fn redraw_until_connected<R: RadioModel>(
        n: usize,
        placement: &Placement,
        sink: SinkPlacement,
        radio: &R,
        rng: &mut SimRng,
        max_attempts: usize,
        extra_sinks: usize,
    ) -> Option<Self> {
        let sites = crate::placement::extra_sink_sites(placement.bounds(), extra_sinks);
        let backbone: Vec<(NodeId, NodeId)> =
            (1..=extra_sinks).map(|i| (NodeId::ROOT, NodeId::from_index(i))).collect();
        let mut wired = vec![false; n];
        for &(a, b) in &backbone {
            wired[a.index()] = true;
            wired[b.index()] = true;
        }
        for _ in 0..max_attempts {
            let mut positions = placement.generate(n, sink, rng);
            positions[1..=extra_sinks].copy_from_slice(&sites);
            if let Some(edges) = Topology::connected_edges(&positions, radio, &backbone, &wired) {
                return Some(Topology::build(positions, &edges, false));
            }
        }
        None
    }

    /// The edges of `positions` under `radio` plus `backbone`, in
    /// [`Topology::from_positions_with_backbone`]'s order, if they connect
    /// every node; `None` otherwise. Under a radio with a finite
    /// `max_range`, a node outside `wired` (the backbone's endpoints)
    /// without a radio link rejects the draw before the pair scan. The grid
    /// and the union–find are dropped on return.
    fn connected_edges<R: RadioModel>(
        positions: &[Position],
        radio: &R,
        backbone: &[(NodeId, NodeId)],
        wired: &[bool],
    ) -> Option<Vec<(NodeId, NodeId)>> {
        let n = positions.len();
        let grid = CellGrid::new(positions, radio.max_range());
        // The probe only pays where cells bound the reach: a radio with no
        // finite `max_range` gets one cell, where each node's probe would
        // search every node in index order.
        let probe = n > 1 && radio.max_range().is_finite();
        if probe && !grid.every_node_linked(positions, radio, wired) {
            return None;
        }
        let mut edges = grid.edges(positions, radio);
        drop(grid);
        add_backbone(&mut edges, n, backbone);
        spans(n, &edges).then_some(edges)
    }

    /// Build directly from an explicit edge list (used for synthetic exact
    /// trees and tests). Positions are laid out on a line; they carry no
    /// meaning for such graphs.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        for &(a, b) in edges {
            assert!(a.index() < n && b.index() < n, "edge endpoint out of range");
            assert_ne!(a, b, "self-loops are not allowed");
        }
        let positions = (0..n).map(|i| Position::new(i as f64, 0.0)).collect();
        Topology::build(positions, edges, true)
    }

    /// CSR construction from an undirected edge list. `check_duplicates`
    /// rejects repeated edges (explicit edge lists must be clean; the
    /// geometric builder cannot produce duplicates).
    fn build(positions: Vec<Position>, edges: &[(NodeId, NodeId)], check_duplicates: bool) -> Self {
        let n = positions.len();

        // Degree count, then prefix-sum into row offsets.
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in edges {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        // Fill rows, then sort each row in place.
        let mut targets = vec![NodeId(0); edges.len() * 2];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(a, b) in edges {
            targets[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            targets[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }
        for i in 0..n {
            let row = &mut targets[offsets[i] as usize..offsets[i + 1] as usize];
            row.sort_unstable();
            if check_duplicates {
                assert!(row.windows(2).all(|w| w[0] != w[1]), "duplicate edge in edge list");
            }
        }

        Topology { positions, offsets, targets, link_count: edges.len() }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Position of `node`.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// All positions, indexed by node.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Sorted neighbours of `node` — a contiguous CSR slice.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Start of `node`'s row in the global CSR target array: edge slot
    /// `row_start(u) + p` holds `neighbors(u)[p]`. Lets callers keep
    /// edge-aligned side tables (e.g. the MAC's mirror-position index).
    #[inline]
    pub fn row_start(&self, node: NodeId) -> usize {
        self.offsets[node.index()] as usize
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Maximum degree over all nodes (useful for pre-sizing MAC buffers).
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|i| (self.offsets[i + 1] - self.offsets[i]) as usize).max().unwrap_or(0)
    }

    /// Whether an undirected link `a`–`b` exists: a binary search over
    /// `a`'s sorted CSR row.
    #[inline]
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId::from_index)
    }

    /// Nodes reachable from `start` (including `start`), via BFS, visiting
    /// only nodes for which `passable` returns true.
    pub fn reachable_from(&self, start: NodeId, passable: impl Fn(NodeId) -> bool) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        if !passable(start) {
            return seen;
        }
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] && passable(v) {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Whether every node is reachable from the root.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.reachable_from(NodeId::ROOT, |_| true).iter().all(|&r| r)
    }

    /// Greedy 2-hop colouring: assigns every node the smallest colour not
    /// used by any node within two hops (ascending node order, so the
    /// result is deterministic for a given graph). Two nodes sharing a
    /// colour therefore have **disjoint closed neighbourhoods** — they are
    /// at least three hops apart and no third node hears both.
    ///
    /// This is the interference structure LMAC's slot schedule converges
    /// to. Nothing in the workspace calls it: the MAC's slot loop is
    /// serial. It stays only because the benchmark under `perfbench/`
    /// times it by name; drop it once the benchmark stops calling it.
    pub fn two_hop_coloring(&self) -> Vec<u32> {
        let n = self.len();
        let mut color = vec![0u32; n];
        // `stamp[c] == u` marks colour c as forbidden for node u; stamps
        // avoid clearing a bitmap per node.
        let mut stamp: Vec<u32> = Vec::new();
        for i in 0..n {
            let u = NodeId::from_index(i);
            let mark = |stamp: &mut Vec<u32>, c: u32| {
                let c = c as usize;
                if c >= stamp.len() {
                    stamp.resize(c + 1, u32::MAX);
                }
                stamp[c] = i as u32;
            };
            for &v in self.neighbors(u) {
                if v.index() < i {
                    mark(&mut stamp, color[v.index()]);
                }
                for &w in self.neighbors(v) {
                    if w.index() < i {
                        mark(&mut stamp, color[w.index()]);
                    }
                }
            }
            color[i] = (0..).find(|&c| stamp.get(c as usize).copied() != Some(i as u32)).unwrap();
        }
        color
    }

    /// BFS hop distance from `start` to every node (`u32::MAX` where
    /// unreachable), visiting only `passable` nodes.
    pub fn hop_distances(&self, start: NodeId, passable: impl Fn(NodeId) -> bool) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        if !passable(start) {
            return dist;
        }
        let mut queue = std::collections::VecDeque::new();
        dist[start.index()] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if dist[v.index()] == u32::MAX && passable(v) {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::{LogDistance, UnitDisk};
    use dirq_sim::RngFactory;
    use proptest::prelude::*;
    use rand::Rng;

    /// The all-pairs scan the cell grid replaced, kept as its reference.
    fn all_pairs_edges<R: RadioModel>(positions: &[Position], radio: &R) -> Vec<(NodeId, NodeId)> {
        let n = positions.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if radio.connected(i, &positions[i], j, &positions[j]) {
                    edges.push((NodeId::from_index(i), NodeId::from_index(j)));
                }
            }
        }
        edges
    }

    /// Whether the grid's edge set and the topology built from it equal
    /// the all-pairs reference; `Err` names the first difference.
    fn grid_vs_all_pairs<R: RadioModel>(positions: &[Position], radio: &R) -> Result<(), String> {
        let n = positions.len();
        let grid = CellGrid::new(positions, radio.max_range());
        if grid.cols * grid.rows > 3 * n.max(1) + 1 {
            return Err(format!("{}×{} cells for {n} nodes", grid.cols, grid.rows));
        }
        let mut edges = Topology::geometric_edges(positions, radio);
        edges.sort_unstable();
        let reference_edges = all_pairs_edges(positions, radio);
        if edges != reference_edges {
            return Err(format!(
                "grid found {} edges, all-pairs {}",
                edges.len(),
                reference_edges.len()
            ));
        }
        let t = Topology::from_positions(positions.to_vec(), radio);
        let r = Topology::build(positions.to_vec(), &reference_edges, false);
        if t.link_count() != r.link_count() {
            return Err(format!("link_count {} != {}", t.link_count(), r.link_count()));
        }
        for a in r.nodes() {
            if t.neighbors(a) != r.neighbors(a) {
                return Err(format!("CSR row of {a} differs"));
            }
            if let Some(b) = r.nodes().find(|&b| t.has_link(a, b) != r.has_link(a, b)) {
                return Err(format!("has_link({a}, {b}) differs"));
            }
        }
        Ok(())
    }

    /// `n` positions of field `shape` at radio scale `range`, drawn from
    /// `seed`.
    fn field(shape: u8, n: usize, range: f64, seed: u64) -> Vec<Position> {
        let mut rng = RngFactory::new(seed).stream("grid-field");
        // Mean degree from about 0.8 to about 35.
        let side = range * (n as f64).sqrt().max(1.0) * rng.gen_range(0.3..2.0);
        let mut uniform = |w: f64, h: f64| -> Vec<Position> {
            (0..n).map(|_| Position::new(rng.gen_range(0.0..w), rng.gen_range(0.0..h))).collect()
        };
        match shape {
            0 => uniform(side, side),
            // A corridor one cell tall.
            1 => uniform(4.0 * side, 0.9 * range),
            // Sparse: side ≫ range·√n, so the cell count hits its O(n) cap.
            2 => uniform(100.0 * range * (n as f64 + 1.0), 100.0 * range * (n as f64 + 1.0)),
            // Gaussian clusters.
            3 => {
                let centres = uniform(side, side);
                let mut rng = RngFactory::new(seed).stream("grid-clusters");
                (0..n)
                    .map(|i| {
                        let c = centres[i % (n / 40 + 1)];
                        let dx = dirq_sim::rng::sample_normal(&mut rng, 0.0, 2.0 * range);
                        let dy = dirq_sim::rng::sample_normal(&mut rng, 0.0, 2.0 * range);
                        Position::new(c.x + dx, c.y + dy)
                    })
                    .collect()
            }
            // A jittered grid at about the range's spacing, in negative
            // coordinates.
            4 => {
                let cols = (n as f64).sqrt().ceil().max(1.0) as usize;
                let step = range * rng.gen_range(0.7..1.3);
                (0..n)
                    .map(|i| {
                        let jx = rng.gen_range(-0.3..0.3) * step;
                        let jy = rng.gen_range(-0.3..0.3) * step;
                        let x = -1234.5 - side + (i % cols) as f64 * step + jx;
                        let y = -0.25 * side + (i / cols) as f64 * step + jy;
                        Position::new(x, y)
                    })
                    .collect()
            }
            // Coincident points: every node on one of a few sites.
            _ => {
                let sites = uniform(side, side);
                (0..n).map(|i| sites[(i * 7) % (n / 8 + 1)]).collect()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The cell grid finds exactly the all-pairs edge set, so the
        /// built topology is bit-identical, on every field shape and under
        /// both radio models.
        #[test]
        fn prop_grid_matches_all_pairs(
            shape in 0u8..6,
            n in 0usize..300,
            range in 1.0f64..60.0,
            log_distance in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let positions = field(shape, n, range, seed);
            let checked = if log_distance == 1 {
                grid_vs_all_pairs(&positions, &LogDistance::forest(seed))
            } else {
                grid_vs_all_pairs(&positions, &UnitDisk::new(range))
            };
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn grid_matches_all_pairs_on_small_and_boundary_cases() {
        let radio = UnitDisk::new(10.0);
        let p = Position::new;
        // (positions, pairs that must link). The later cases place pairs
        // exactly one range apart across cell boundaries (cells are
        // anchored at the field's lower-left corner and ~10 m wide): along
        // x, along y, and on 6-8-10 diagonals, also at negative
        // coordinates. In the `edge` case, a cell even 1e-9 narrower than
        // the range would put the linked pair two cells apart.
        let edge = 10.0 - 2f64.powi(-26);
        let cases = [
            (vec![], vec![]),
            (vec![p(3.0, 4.0)], vec![]),
            (vec![p(3.0, 4.0), p(3.0, 4.0)], vec![(0, 1)]),
            (vec![p(0.0, 0.0), p(10.0, 1e-7)], vec![]),
            (vec![p(0.0, 0.0), p(edge, 0.0), p(edge + 10.0, 0.0)], vec![(1, 2)]),
            (
                vec![
                    p(0.0, 0.0),
                    p(10.0, 0.0),
                    p(20.0, 0.0),
                    p(4.5, 0.0),
                    p(14.5, 0.0),
                    p(0.0, 10.0),
                    p(0.0, 20.0),
                    p(6.0, 28.0),
                    p(12.0, 36.0),
                ],
                vec![(0, 1), (1, 2), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)],
            ),
            (
                vec![p(-20.0, -20.0), p(-14.0, -12.0), p(-8.0, -4.0), p(-2.0, 4.0)],
                vec![(0, 1), (1, 2), (2, 3)],
            ),
        ];
        for (positions, links) in &cases {
            assert_eq!(grid_vs_all_pairs(positions, &radio), Ok(()), "{positions:?}");
            assert_eq!(grid_vs_all_pairs(positions, &LogDistance::forest(3)), Ok(()));
            let t = Topology::from_positions(positions.clone(), &radio);
            for &(a, b) in links {
                assert!(t.has_link(NodeId(a), NodeId(b)), "{a}-{b} in {positions:?}");
            }
        }
    }

    fn line(n: usize) -> Topology {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).map(|i| (NodeId::from_index(i), NodeId::from_index(i + 1))).collect();
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn from_positions_symmetric_adjacency() {
        let positions =
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(100.0, 0.0)];
        let t = Topology::from_positions(positions, &UnitDisk::new(10.0));
        assert_eq!(t.link_count(), 1);
        assert!(t.has_link(NodeId(0), NodeId(1)));
        assert!(t.has_link(NodeId(1), NodeId(0)));
        assert!(!t.has_link(NodeId(0), NodeId(2)));
        assert_eq!(t.degree(NodeId(2)), 0);
        assert!(!t.is_connected());
    }

    #[test]
    fn line_graph_metrics() {
        let t = line(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.link_count(), 4);
        assert!(t.is_connected());
        let d = t.hop_distances(NodeId(0), |_| true);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn csr_rows_are_sorted_and_symmetric() {
        let t = Topology::from_edges(
            5,
            &[
                (NodeId(4), NodeId(0)),
                (NodeId(2), NodeId(0)),
                (NodeId(0), NodeId(1)),
                (NodeId(3), NodeId(2)),
            ],
        );
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(t.neighbors(NodeId(2)), &[NodeId(0), NodeId(3)]);
        assert_eq!(t.max_degree(), 3);
        for a in t.nodes() {
            for &b in t.neighbors(a) {
                assert!(t.has_link(a, b) && t.has_link(b, a));
            }
        }
    }

    #[test]
    fn reachability_respects_passability() {
        let t = line(5);
        // Node 2 impassable cuts the line.
        let seen = t.reachable_from(NodeId(0), |n| n != NodeId(2));
        assert_eq!(seen, vec![true, true, false, false, false]);
        let d = t.hop_distances(NodeId(0), |n| n != NodeId(2));
        assert_eq!(d[4], u32::MAX);
    }

    #[test]
    fn deploy_connected_finds_dense_network() {
        let mut rng = RngFactory::new(11).stream("deploy");
        let t = Topology::deploy_connected(
            50,
            &Placement::UniformRandom { side: 100.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(25.0),
            &mut rng,
            100,
        )
        .expect("a 50-node/25m/100m network should connect within 100 tries");
        assert!(t.is_connected());
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn deploy_connected_gives_up_on_sparse_network() {
        let mut rng = RngFactory::new(11).stream("deploy-sparse");
        let t = Topology::deploy_connected(
            50,
            &Placement::UniformRandom { side: 1000.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(5.0),
            &mut rng,
            5,
        );
        assert!(t.is_none());
    }

    /// The deploy loop the connectivity-first attempt replaced, kept as its
    /// model: a whole `Topology` and a BFS per draw. Returns the topology
    /// and the draws taken.
    fn redraw_model<R: RadioModel>(
        n: usize,
        placement: &Placement,
        radio: &R,
        rng: &mut SimRng,
        max_attempts: usize,
        extra_sinks: usize,
    ) -> (Option<Topology>, usize) {
        let sites = crate::placement::extra_sink_sites(placement.bounds(), extra_sinks);
        let backbone: Vec<(NodeId, NodeId)> =
            (1..=extra_sinks).map(|i| (NodeId::ROOT, NodeId::from_index(i))).collect();
        for draw in 1..=max_attempts {
            let mut positions = placement.generate(n, SinkPlacement::Corner, rng);
            positions[1..=extra_sinks].copy_from_slice(&sites);
            let topo = if extra_sinks == 0 {
                Topology::from_positions(positions, radio)
            } else {
                Topology::from_positions_with_backbone(positions, radio, &backbone)
            };
            if topo.is_connected() {
                return (Some(topo), draw);
            }
        }
        (None, max_attempts)
    }

    /// `Err` naming the first difference between two deployments:
    /// positions bit for bit, link count and CSR rows.
    fn same_deployment(got: &Option<Topology>, want: &Option<Topology>) -> Result<(), String> {
        let (t, m) = match (got, want) {
            (None, None) => return Ok(()),
            (Some(t), Some(m)) => (t, m),
            _ => return Err(format!("deployed {} vs model {}", got.is_some(), want.is_some())),
        };
        let bits = |p: &[Position]| p.iter().map(|q| (q.x.to_bits(), q.y.to_bits())).collect();
        let (tp, mp): (Vec<_>, Vec<_>) = (bits(t.positions()), bits(m.positions()));
        if tp != mp {
            return Err("positions differ".into());
        }
        if t.link_count() != m.link_count() {
            return Err(format!("link_count {} != {}", t.link_count(), m.link_count()));
        }
        match m.nodes().find(|&v| t.neighbors(v) != m.neighbors(v)) {
            Some(v) => Err(format!("CSR row of {v} differs")),
            None => Ok(()),
        }
    }

    /// Deploy through the public entry point for `extra_sinks` and through
    /// the model from the same stream; `Err` if the deployments or the
    /// streams' next draws differ. `Ok` carries the model's draw count.
    fn deploy_vs_model<R: RadioModel>(
        n: usize,
        placement: &Placement,
        radio: &R,
        seed: u64,
        max_attempts: usize,
        extra_sinks: usize,
    ) -> Result<usize, String> {
        let mut rng = RngFactory::new(seed).stream("deploy");
        let mut model_rng = rng.clone();
        let got = if extra_sinks == 0 {
            Topology::deploy_connected(
                n,
                placement,
                SinkPlacement::Corner,
                radio,
                &mut rng,
                max_attempts,
            )
        } else {
            Topology::deploy_connected_multi_sink(
                n,
                placement,
                SinkPlacement::Corner,
                radio,
                &mut rng,
                max_attempts,
                extra_sinks,
            )
        };
        let (want, draws) =
            redraw_model(n, placement, radio, &mut model_rng, max_attempts, extra_sinks);
        same_deployment(&got, &want).map_err(|e| format!("{e} (model took {draws} draws)"))?;
        if rng.gen::<u64>() != model_rng.gen::<u64>() {
            return Err(format!("the stream moved differently (model took {draws} draws)"));
        }
        Ok(draws)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Deciding connectivity before building gives the old loop's
        /// deployment and leaves the stream where it left it: unit-disk
        /// and shadowed log-distance radios, uniform and clustered fields,
        /// one sink or four, at mean degrees from about 2 (many draws, or
        /// none connected) to about 12.
        #[test]
        fn prop_deploy_matches_the_redraw_model(
            n in 5usize..90,
            mean_degree in 2.0f64..12.0,
            clustered in 0u8..2,
            log_distance in 0u8..2,
            three_sinks in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let extra_sinks = 3 * three_sinks as usize;
            let shadowed = LogDistance::forest(seed);
            let range = if log_distance == 1 { shadowed.nominal_range() } else { 25.0 };
            let side = range * (std::f64::consts::PI * n as f64 / mean_degree).sqrt();
            let placement = if clustered == 1 {
                Placement::Clustered { side, clusters: 1 + (seed % 4) as usize, spread: side / 6.0 }
            } else {
                Placement::UniformRandom { side }
            };
            let checked = if log_distance == 1 {
                deploy_vs_model(n, &placement, &shadowed, seed, 40, extra_sinks)
            } else {
                deploy_vs_model(n, &placement, &UnitDisk::new(range), seed, 40, extra_sinks)
            };
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    /// Sparse deployments that take several draws, under both radios and
    /// with one sink or four, match the model draw for draw.
    #[test]
    fn deploy_matches_the_model_across_many_draws() {
        let mut most = 0;
        for seed in 0..12u64 {
            for extra_sinks in [0, 3] {
                let placement = Placement::UniformRandom { side: 160.0 };
                let unit =
                    deploy_vs_model(60, &placement, &UnitDisk::new(25.0), seed, 200, extra_sinks);
                let shadowed = LogDistance::forest(seed);
                let placement = Placement::UniformRandom { side: 6.4 * shadowed.nominal_range() };
                let log = deploy_vs_model(60, &placement, &shadowed, seed, 200, extra_sinks);
                most = most.max(unit.unwrap()).max(log.unwrap());
            }
        }
        assert!(most >= 5, "no case took several draws (at most {most})");
    }

    #[test]
    #[should_panic(expected = "at least the sink node")]
    fn deploy_of_no_nodes_panics_like_the_placement() {
        let mut rng = RngFactory::new(1).stream("deploy");
        let placement = Placement::UniformRandom { side: 10.0 };
        let _ = Topology::deploy_connected(
            0,
            &placement,
            SinkPlacement::Corner,
            &UnitDisk::new(1.0),
            &mut rng,
            5,
        );
    }

    /// A lone sink is connected although it has no radio link.
    #[test]
    fn deploy_of_one_node_takes_one_draw() {
        let placement = Placement::UniformRandom { side: 10.0 };
        assert_eq!(deploy_vs_model(1, &placement, &UnitDisk::new(1.0), 3, 5, 0), Ok(1));
        let mut rng = RngFactory::new(3).stream("deploy");
        let t = Topology::deploy_connected(
            1,
            &placement,
            SinkPlacement::Corner,
            &UnitDisk::new(1.0),
            &mut rng,
            5,
        )
        .unwrap();
        assert_eq!((t.len(), t.link_count()), (1, 0));
    }

    /// The attempt test on hand-placed draws, against the model's build
    /// and BFS: `None` exactly where the graph is disconnected, else the
    /// model's edges in order.
    #[test]
    fn connected_edges_agrees_with_build_and_bfs() {
        let radio = UnitDisk::new(10.0);
        let p = Position::new;
        // (positions, node 1 wired to the root, connected)
        let cases = [
            // The root has no radio link; the others link up.
            (vec![p(0.0, 0.0), p(100.0, 0.0), p(105.0, 0.0)], false, false),
            // A leaf whose only link lies in the cell behind it.
            (vec![p(0.0, 0.0), p(9.0, 0.0), p(18.0, 0.0), p(3.0, 0.0)], false, true),
            // Every node linked, yet two components.
            (vec![p(0.0, 0.0), p(5.0, 0.0), p(100.0, 0.0), p(105.0, 0.0)], false, false),
            // A backbone endpoint with no radio link joins by its wire.
            (vec![p(0.0, 0.0), p(500.0, 0.0), p(5.0, 0.0)], true, true),
            // ... but a node off the backbone without a link still rejects.
            (vec![p(0.0, 0.0), p(500.0, 0.0), p(5.0, 0.0), p(250.0, 0.0)], true, false),
            // A backbone pair radio already joins is not added twice.
            (vec![p(0.0, 0.0), p(5.0, 0.0), p(10.0, 0.0)], true, true),
        ];
        for (positions, wire, connected) in cases {
            let backbone = if wire { vec![(NodeId::ROOT, NodeId(1))] } else { vec![] };
            let mut wired = vec![false; positions.len()];
            for &(a, b) in &backbone {
                wired[a.index()] = true;
                wired[b.index()] = true;
            }
            let model =
                Topology::from_positions_with_backbone(positions.clone(), &radio, &backbone);
            assert_eq!(model.is_connected(), connected, "{positions:?}");
            let got = Topology::connected_edges(&positions, &radio, &backbone, &wired);
            match got {
                None => assert!(!connected, "rejected a connected draw: {positions:?}"),
                Some(edges) => {
                    assert!(connected, "accepted a disconnected draw: {positions:?}");
                    let built = Some(Topology::build(positions.clone(), &edges, false));
                    assert_eq!(same_deployment(&built, &Some(model)), Ok(()), "{positions:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = Topology::from_edges(2, &[(NodeId(0), NodeId(0))]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let _ = Topology::from_edges(2, &[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]);
    }

    #[test]
    fn empty_graph_is_connected() {
        let t = Topology::from_edges(0, &[]);
        assert!(t.is_connected());
        assert!(t.is_empty());
    }

    /// Ring + long chords, defined purely by index arithmetic, so a large
    /// graph needs no O(n²) geometry.
    fn chord_edges(n: usize) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for i in 0..n {
            if i + 1 < n {
                edges.push((NodeId::from_index(i), NodeId::from_index(i + 1)));
            }
            if i + 97 < n {
                edges.push((NodeId::from_index(i), NodeId::from_index(i + 97)));
            }
        }
        edges
    }

    /// `has_link` holds both ways on every input edge and fails on
    /// sampled non-edges: on a 40-node deployment (edges from the
    /// all-pairs reference scan) and on the 4 200-node chord graph.
    #[test]
    fn has_link_matches_the_input_edges() {
        let radio = UnitDisk::new(30.0);
        let mut rng = RngFactory::new(77).stream("csr");
        let deployed = Topology::deploy_connected(
            40,
            &Placement::UniformRandom { side: 100.0 },
            SinkPlacement::Corner,
            &radio,
            &mut rng,
            100,
        )
        .unwrap();
        let deployed_edges = all_pairs_edges(deployed.positions(), &radio);
        let chords = Topology::from_edges(4_200, &chord_edges(4_200));
        for (t, edges) in [(&deployed, deployed_edges), (&chords, chord_edges(4_200))] {
            let mut edge_set = std::collections::HashSet::new();
            for &(a, b) in &edges {
                assert!(t.has_link(a, b) && t.has_link(b, a), "missing link {a}-{b}");
                edge_set.insert((a.min(b), a.max(b)));
            }
            let mut x: u64 = 0x243F6A8885A308D3;
            let mut non_edges = 0;
            for _ in 0..50_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = NodeId::from_index((x >> 33) as usize % t.len());
                let b = NodeId::from_index((x >> 11) as usize % t.len());
                if edge_set.contains(&(a.min(b), a.max(b))) {
                    continue;
                }
                assert!(!t.has_link(a, b), "phantom link {a}-{b}");
                non_edges += 1;
            }
            assert!(non_edges > 1_000, "too few non-edges sampled ({non_edges})");
        }
    }

    #[test]
    fn backbone_links_exist_regardless_of_radio_reach() {
        let positions =
            vec![Position::new(0.0, 0.0), Position::new(500.0, 0.0), Position::new(5.0, 0.0)];
        let t = Topology::from_positions_with_backbone(
            positions,
            &UnitDisk::new(10.0),
            &[(NodeId(0), NodeId(1))],
        );
        assert!(t.has_link(NodeId(0), NodeId(1)), "backbone link must exist");
        assert!(t.has_link(NodeId(0), NodeId(2)), "radio link preserved");
        assert!(!t.has_link(NodeId(1), NodeId(2)));
        // A backbone pair already in radio reach is not duplicated.
        let positions = vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)];
        let t = Topology::from_positions_with_backbone(
            positions,
            &UnitDisk::new(10.0),
            &[(NodeId(1), NodeId(0))],
        );
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn multi_sink_deployment_pins_sites_and_connects() {
        let mut rng = RngFactory::new(9).stream("multi-sink");
        let placement = Placement::UniformRandom { side: 200.0 };
        let t = Topology::deploy_connected_multi_sink(
            80,
            &placement,
            SinkPlacement::Corner,
            &UnitDisk::new(40.0),
            &mut rng,
            200,
            3,
        )
        .expect("multi-sink deployment should connect");
        assert!(t.is_connected());
        // Extra sinks sit on the deterministic sites, wired to the root.
        let sites = crate::placement::extra_sink_sites((200.0, 200.0), 3);
        for (i, &site) in sites.iter().enumerate() {
            let sink = NodeId::from_index(i + 1);
            assert_eq!(t.position(sink), site);
            assert!(t.has_link(NodeId::ROOT, sink), "backbone to {sink} missing");
        }
        // Nearest-sink attachment: hop distances in the augmented graph
        // are never worse than radio-only distances from the root.
        let multi = t.hop_distances(NodeId::ROOT, |_| true);
        assert!(multi.iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn two_hop_coloring_is_proper_and_deterministic() {
        let t = Topology::deploy_connected(
            60,
            &Placement::UniformRandom { side: 100.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(30.0),
            &mut RngFactory::new(5).stream("color"),
            100,
        )
        .unwrap();
        let color = t.two_hop_coloring();
        assert_eq!(color, t.two_hop_coloring(), "colouring must be deterministic");
        for a in t.nodes() {
            for &b in t.neighbors(a) {
                assert_ne!(color[a.index()], color[b.index()], "1-hop clash {a}-{b}");
                for &c in t.neighbors(b) {
                    if c != a {
                        assert_ne!(color[a.index()], color[c.index()], "2-hop clash {a}-{c}");
                    }
                }
            }
        }
        // Greedy colour count is bounded by the densest 2-hop
        // neighbourhood plus one.
        let max_two_hop = t
            .nodes()
            .map(|u| {
                let mut seen = std::collections::HashSet::new();
                for &v in t.neighbors(u) {
                    seen.insert(v);
                    seen.extend(t.neighbors(v).iter().copied());
                }
                seen.remove(&u);
                seen.len()
            })
            .max()
            .unwrap();
        let colors = color.iter().max().unwrap() + 1;
        assert!(colors as usize <= max_two_hop + 1, "{colors} colours for {max_two_hop} 2-hop");
    }

    #[test]
    fn two_hop_coloring_of_a_line_cycles_three_colors() {
        let t = line(7);
        assert_eq!(t.two_hop_coloring(), vec![0, 1, 2, 0, 1, 2, 0]);
        // Isolated nodes all take colour 0.
        let empty = Topology::from_edges(3, &[]);
        assert_eq!(empty.two_hop_coloring(), vec![0, 0, 0]);
    }

    #[test]
    fn large_graph_neighbor_slices_stay_sorted_and_symmetric() {
        let n = 4_200;
        let t = Topology::from_edges(n, &chord_edges(n));
        assert_eq!(t.len(), n);
        assert!(t.is_connected());
        let mut degree_sum = 0;
        for a in t.nodes() {
            let row = t.neighbors(a);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {a} not strictly sorted");
            assert_eq!(row.len(), t.degree(a));
            degree_sum += row.len();
            for &b in row {
                assert!(t.neighbors(b).binary_search(&a).is_ok(), "asymmetric link {a}-{b}");
            }
        }
        assert_eq!(degree_sum, 2 * t.link_count());
        // Hop distances stay exact: node i sits (roughly) i/97 chord hops
        // from the root.
        let d = t.hop_distances(NodeId::ROOT, |_| true);
        assert_eq!(d[97], 1);
        assert_eq!(d[2 * 97], 2);
        assert_eq!(d[1], 1);
    }
}

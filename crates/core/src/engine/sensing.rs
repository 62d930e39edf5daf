//! The sensing plane: the per-(node, sensor type) state every sample
//! touches, in dense node-major arrays owned by the engine.
//!
//! DirQ nodes sample every epoch, but a node acts on a reading only when
//! it leaves the node's own `[R − δ, R + δ]` tuple (Fig. 1): only then can
//! the Range Table change and an Update follow (Fig. 3). Every other
//! sample just replaces the last reading and feeds the variability
//! estimate ATC reads. So that work lives here, one 32-byte
//! [`SensorCell`] per `(node, type)`, and the protocol node ([`DirqNode`])
//! is entered only when a reading escapes. The engine's sampling pass,
//! [`sample_pass`], runs [`SensorCell::observe`] on every reading and the
//! node's escape handler ([`DirqNode::sample`]) on the ones that leave the
//! tuple, in one loop per node and type.
//!
//! The plane is the one home of the node's range-table tuples (see
//! [`crate::range_table`]): a cell's bounds are the own tuple itself, and
//! the aggregate each node last transmitted per type sits in a parallel
//! node-major array the sampling pass never reads, so the pass's stride
//! stays 32 bytes. Node `i`'s row is its cells and sent tuples, which every
//! handler that reads or writes a tuple takes.

use std::ops::Range;

use dirq_data::SensorType;
use dirq_lmac::{Destination, Payload};
use dirq_net::{NodeBits, NodeId};
use dirq_sim::runner;

use crate::messages::{CompactMessage, DirqMessage};
use crate::node::{DirqNode, Outgoing};
use crate::range_table::{RangeEntry, Row, RowMut, ABSENT};
use crate::sampling::{Sampler, SamplingStrategy};

use super::dispatch::Outbox;
use super::Engine;

/// EWMA smoothing factor of the signal-variability estimate
/// ([`SensorCell::variability`]).
pub(crate) const VARIABILITY_ALPHA: f64 = 0.2;

/// One carried sensor's sampling state. `NaN` marks each field as absent.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SensorCell {
    /// The last reading acquired.
    pub(crate) last: f64,
    /// EWMA of |Δreading| per epoch, in percent of the reference span —
    /// the signal variability ATC reads.
    pub(crate) variability: f64,
    /// Lower bound of the node's own tuple, the escape window; the tuple
    /// lives here and nowhere else.
    pub(crate) lo: f64,
    /// Upper bound of the node's own tuple.
    pub(crate) hi: f64,
}

impl SensorCell {
    /// A cell that has seen nothing and has no own tuple.
    pub(crate) const EMPTY: SensorCell =
        SensorCell { last: f64::NAN, variability: f64::NAN, lo: f64::NAN, hi: f64::NAN };

    /// Record `reading`: swap in the new last reading and update the
    /// variability with `Ewma::observe`'s expression at
    /// [`VARIABILITY_ALPHA`] (the first observation is taken as is).
    /// Returns whether the reading escaped the own tuple; with no tuple
    /// (`NaN` bounds) every reading escapes, as [`RangeEntry::contains`]
    /// decides.
    #[inline]
    pub(crate) fn observe(&mut self, reading: f64, span: f64) -> bool {
        let prev = std::mem::replace(&mut self.last, reading);
        if !prev.is_nan() {
            let pct = ((reading - prev).abs() / span) * 100.0;
            let v = self.variability;
            self.variability = if v.is_nan() { pct } else { v + VARIABILITY_ALPHA * (pct - v) };
        }
        !(self.lo <= reading && reading <= self.hi)
    }

    /// The escape window as `(lo, hi)`, if the node has an own tuple.
    #[inline]
    pub(crate) fn window(&self) -> Option<(f64, f64)> {
        (!self.lo.is_nan()).then_some((self.lo, self.hi))
    }
}

/// One [`SensorCell`] and one sent tuple per `(node, type)`, node-major:
/// node `i`'s row is `i * width..(i + 1) * width` of each, indexed by
/// [`SensorType::index`].
pub(crate) struct SensingPlane {
    /// Sensor types per row: the catalog's.
    pub(super) width: usize,
    cells: Vec<SensorCell>,
    /// The aggregate each node last transmitted per type (`NaN` = absent).
    sent: Vec<RangeEntry>,
    /// One predictive sampler per `(node, type)`, indexed like the cells;
    /// `None` under `SamplingStrategy::EveryEpoch`.
    pub(super) samplers: Option<Vec<Sampler>>,
}

impl SensingPlane {
    /// An empty plane for `n` nodes and `width` sensor types, with fresh
    /// samplers under predictive `sampling`.
    pub(crate) fn new(n: usize, width: usize, sampling: SamplingStrategy) -> Self {
        let samplers =
            (sampling == SamplingStrategy::Predictive).then(|| vec![Sampler::default(); n * width]);
        let (cells, sent) = (vec![SensorCell::EMPTY; n * width], vec![ABSENT; n * width]);
        SensingPlane { width, cells, sent, samplers }
    }

    /// Node `i`'s part of each array.
    fn span(&self, i: usize) -> Range<usize> {
        i * self.width..(i + 1) * self.width
    }

    /// Node `i`'s row.
    pub(crate) fn row(&self, i: usize) -> Row<'_> {
        Row::new(&self.cells[self.span(i)], &self.sent[self.span(i)])
    }

    /// Node `i`'s row, mutably.
    pub(crate) fn row_mut(&mut self, i: usize) -> RowMut<'_> {
        let span = self.span(i);
        RowMut::new(&mut self.cells[span.clone()], &mut self.sent[span])
    }

    /// Start node `i` afresh at its birth: an empty row (no reading and no
    /// tuple) and, under predictive sampling, samplers reset to their first
    /// read (their tallies stay).
    pub(crate) fn reset_row(&mut self, i: usize) {
        let span = self.span(i);
        self.cells[span.clone()].fill(SensorCell::EMPTY);
        self.sent[span.clone()].fill(ABSENT);
        if let Some(samplers) = self.samplers.as_mut() {
            samplers[span].iter_mut().for_each(Sampler::reset);
        }
    }

    /// Node `i`'s smoothed signal variability for ATC, in percent of span:
    /// the maximum over its present estimates, folded in type order (the
    /// most volatile sensor drives the update rate).
    pub(crate) fn sigma_hat_pct(&self, i: usize) -> Option<f64> {
        self.cells[self.span(i)]
            .iter()
            .map(|c| c.variability)
            .filter(|v| !v.is_nan())
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
    }

    /// The plane's heap bytes: cells, sent tuples and samplers.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cells.capacity() * size_of::<SensorCell>()
            + self.sent.capacity() * size_of::<RangeEntry>()
            + self.samplers.as_ref().map_or(0, |s| s.capacity() * size_of::<Sampler>())
    }
}

// --- the sampling pass: the one sharded upkeep pass ------------------------

/// Nodes per sampling block: the serial pass sends each block's enqueues
/// before the next block, so no buffer grows with the pass.
const SAMPLE_BLOCK: usize = 64;

impl Engine {
    /// Sample every alive node's carried sensors through [`sample_pass`],
    /// over one shard per resolved upkeep worker, and send the enqueues
    /// through the engine's [`Outbox`].
    pub(super) fn sample_sensors(&mut self) {
        let world = &self.world;
        let rows: Vec<&[f64]> = world.catalog().types().map(|t| world.readings(t)).collect();
        let inputs = SampleInputs {
            masks: world.assignment().masks(),
            rows: &rows,
            width: self.plane.width,
            spans: &self.node_cfg.reference_spans,
        };
        let mut outbox = Outbox {
            mac: &mut self.mac,
            metrics: &mut self.metrics,
            pending: &mut self.pending,
            epoch: self.epoch,
        };
        sample_pass(
            &inputs,
            &mut self.nodes,
            &mut self.plane.cells,
            &mut self.plane.sent,
            self.plane.samplers.as_deref_mut(),
            &mut self.sample_shards,
            &mut outbox,
        );
    }
}

/// Where the sampling pass reads liveness and sends its enqueues: the
/// engine's [`Outbox`] over the MAC, which owns liveness.
pub(super) trait SampleSink {
    /// Every node's liveness.
    fn alive(&self) -> &NodeBits;
    /// Send one enqueue.
    fn emit(&mut self, e: Effect);
}

impl SampleSink for Outbox<'_> {
    fn alive(&self) -> &NodeBits {
        self.mac.alive()
    }

    fn emit(&mut self, e: Effect) {
        let (from, dest, msg) = e.enqueue();
        self.send(from, dest, msg);
    }
}

/// One sampling chunk's buffers, reused across epochs.
#[derive(Default)]
pub(super) struct UpkeepShard {
    /// The chunk's deferred enqueues (see [`sample_pass`]); between
    /// sharded passes, room for at most one per node of the chunk.
    effects: Vec<Effect>,
    /// What the escape handler appends; routed after each reading.
    outgoing: Vec<Outgoing>,
}

/// One MAC enqueue an escape queued. An escape appends only Updates and
/// Retracts for the node's parent (`DirqNode::flush_table`), so an effect
/// is the sender, its parent and the message's compact form: 32 bytes.
pub(super) struct Effect {
    from: NodeId,
    parent: NodeId,
    msg: CompactMessage,
}

impl Effect {
    /// The enqueue `dispatch::route` makes of `node`'s escape output
    /// `out`: none while the node is orphaned.
    fn new(node: &DirqNode, out: Outgoing) -> Option<Effect> {
        let Outgoing::ToParent(msg) = out else {
            unreachable!("an escape sends only to the parent")
        };
        let msg = msg.compact().expect("an escape sends only Updates and Retracts");
        Some(Effect { from: node.id(), parent: node.parent()?, msg })
    }

    /// The enqueue as [`Outbox::send`] takes it.
    fn enqueue(self) -> (NodeId, Destination, DirqMessage) {
        (self.from, Destination::unicast(self.parent), DirqMessage::expand(self.msg))
    }
}

/// What every node of one sampling pass reads.
pub(super) struct SampleInputs<'a> {
    /// Carried-type mask per node (the sensor assignment's).
    masks: &'a [u64],
    /// Current readings per type id (`NaN` = no reading), mirroring
    /// `SensorWorld::reading`.
    rows: &'a [&'a [f64]],
    /// Plane cells per node.
    width: usize,
    /// Reference span per type id (δ and the variability are relative to
    /// it).
    spans: &'a [f64],
}

/// The one sampling pass, over explicit parts: sample the carried sensors
/// of every non-root node alive by `sink` against the state of every node
/// — `nodes`, their plane `cells` and `sent` tuples and, under predictive
/// sampling, their `samplers`, node-major like the cells — and hand each
/// MAC enqueue an escape queues to `sink`, in node and type order.
///
/// [`split_chunks`] cuts the nodes into one contiguous range per shard.
/// One chunk runs here and sends each block's enqueues before the next
/// block. Several run in place on scoped threads, each deferring its
/// enqueues into its shard, and `sink` takes them afterwards in chunk
/// order — the serial order. Sampling reads no MAC queue, metrics or
/// pending state, so deferring changes nothing. A shard keeps room for
/// one enqueue per node of its chunk between passes: only epoch 0, where
/// every carried cell escapes, needs more (stress_20000's later passes
/// need at most 0.43 per node), and it gives that room back.
pub(super) fn sample_pass(
    inputs: &SampleInputs<'_>,
    nodes: &mut [DirqNode],
    cells: &mut [SensorCell],
    sent: &mut [RangeEntry],
    samplers: Option<&mut [Sampler]>,
    shards: &mut [UpkeepShard],
    sink: &mut impl SampleSink,
) {
    let threads = shards.len();
    let mut chunks = split_chunks(inputs.width, nodes, cells, sent, samplers, shards);
    if let [chunk] = chunks.as_mut_slice() {
        for block in blocks(chunk.range()) {
            chunk.sample(inputs, sink.alive(), block);
            chunk.shard.effects.drain(..).for_each(|e| sink.emit(e));
        }
        return;
    }
    let alive = sink.alive();
    runner::for_each_mut(&mut chunks, threads, |chunk| {
        for block in blocks(chunk.range()) {
            chunk.sample(inputs, alive, block);
        }
    });
    for chunk in &mut chunks {
        let effects = &mut chunk.shard.effects;
        effects.drain(..).for_each(|e| sink.emit(e));
        effects.shrink_to(chunk.nodes.len());
    }
}

/// The sampling blocks of `nodes`, [`SAMPLE_BLOCK`] nodes each, without
/// the root: the gateway never samples.
fn blocks(nodes: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = nodes.end;
    (nodes.start.max(1)..end).step_by(SAMPLE_BLOCK).map(move |b| b..end.min(b + SAMPLE_BLOCK))
}

/// One sampling chunk's share of the engine: the state of nodes
/// `first..first + nodes.len()` (`width` plane cells, sent tuples and
/// samplers per node) and its shard's buffers. The serial pass is one
/// chunk over every node.
struct SampleChunk<'a> {
    first: usize,
    nodes: &'a mut [DirqNode],
    cells: &'a mut [SensorCell],
    sent: &'a mut [RangeEntry],
    /// `None` unless sampling is predictive.
    samplers: Option<&'a mut [Sampler]>,
    shard: &'a mut UpkeepShard,
}

impl SampleChunk<'_> {
    /// The chunk's nodes.
    fn range(&self) -> Range<usize> {
        self.first..self.first + self.nodes.len()
    }

    /// Sample the carried sensors of the `alive` nodes of `block`, the one
    /// sampling routine. Per node, in type order: the predictive gate, the
    /// world read and the cell step; on an escape, the node's escape
    /// handler over its row and its output into the shard's effects
    /// ([`Effect::new`]); then the sampler's update from the cell's new
    /// window.
    fn sample(&mut self, inputs: &SampleInputs<'_>, alive: &NodeBits, block: Range<usize>) {
        let width = inputs.width;
        let UpkeepShard { effects, outgoing } = &mut *self.shard;
        for i in block {
            let mask = inputs.masks[i];
            if mask == 0 || !alive.contains(NodeId::from_index(i)) {
                continue;
            }
            let j = i - self.first;
            let node = &mut self.nodes[j];
            let row = &mut self.cells[j * width..(j + 1) * width];
            let sent = &mut self.sent[j * width..(j + 1) * width];
            let mut samplers =
                self.samplers.as_deref_mut().map(|s| &mut s[j * width..(j + 1) * width]);
            for idx in bits(mask) {
                if samplers.as_deref_mut().is_some_and(|s| !s[idx].should_sample()) {
                    continue;
                }
                let reading = inputs.rows[idx][i];
                if reading.is_nan() {
                    continue;
                }
                if row[idx].observe(reading, inputs.spans[idx]) {
                    let stype = SensorType(idx as u8);
                    node.sample(RowMut::new(row, sent), stype, reading, outgoing);
                    effects.extend(outgoing.drain(..).filter_map(|out| Effect::new(node, out)));
                }
                if let Some(s) = samplers.as_deref_mut() {
                    s[idx].on_sampled(reading, row[idx].window());
                }
            }
        }
    }
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            idx
        })
    })
}

/// Split the sampling state over `shards`: shard k takes the k-th of
/// near-equal contiguous node ranges (none when there are fewer nodes than
/// shards) with those nodes' plane cells, sent tuples and samplers
/// (`width` each per node).
fn split_chunks<'a>(
    width: usize,
    mut nodes: &'a mut [DirqNode],
    mut cells: &'a mut [SensorCell],
    mut sent: &'a mut [RangeEntry],
    mut samplers: Option<&'a mut [Sampler]>,
    shards: &'a mut [UpkeepShard],
) -> Vec<SampleChunk<'a>> {
    let (n, count) = (nodes.len(), shards.len());
    let mut chunks = Vec::with_capacity(count);
    let mut first = 0;
    for (k, shard) in shards.iter_mut().enumerate() {
        let len = n * (k + 1) / count - first;
        if len == 0 {
            continue;
        }
        chunks.push(SampleChunk {
            first,
            nodes: split_front(&mut nodes, len),
            cells: split_front(&mut cells, len * width),
            sent: split_front(&mut sent, len * width),
            samplers: samplers.as_mut().map(|s| split_front(s, len * width)),
            shard,
        });
        first += len;
    }
    chunks
}

/// Split the first `len` elements off `rest`, leaving the remainder there.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// Run one reading of `stype` through its cell in `row`, entering `node`
/// only when the reading escapes its own tuple; a contained reading
/// appends nothing and leaves the node untouched. The one-reading form of
/// the engine's sampling pass, kept as the model its tests compare
/// against.
#[cfg(test)]
pub(crate) fn sample(
    node: &mut DirqNode,
    row: RowMut<'_>,
    stype: SensorType,
    reading: f64,
    span: f64,
    out: &mut Vec<Outgoing>,
) {
    if row.cells[stype.index()].observe(reading, span) {
        node.sample(row, stype, reading, out);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dirq_net::NodeId;
    use dirq_sim::stats::Ewma;
    use proptest::prelude::*;

    use super::*;
    use crate::atc::DeltaPolicy;
    use crate::node::NodeConfig;
    use crate::range_table::RowBuf;

    const SPANS: [f64; 2] = [20.0, 40.0];

    fn cfg(delta_pct: f64) -> Arc<NodeConfig> {
        Arc::new(NodeConfig {
            delta_policy: DeltaPolicy::Fixed(delta_pct),
            reference_spans: SPANS.to_vec(),
            tx_threshold_factor: 1.0,
        })
    }

    /// A node with a parent, so escapes emit Updates.
    fn attached(cfg: &Arc<NodeConfig>, row: RowMut<'_>) -> DirqNode {
        let mut n = DirqNode::new(NodeId(1), Arc::clone(cfg));
        n.set_parent(row, Some(NodeId(0)), &mut Vec::new());
        n
    }

    /// Run one handler on a fresh buffer and return what it appended.
    fn run(handler: impl FnOnce(&mut Vec<Outgoing>)) -> Vec<Outgoing> {
        let mut out = Vec::new();
        handler(&mut out);
        out
    }

    /// The sampling state a node kept before the plane existed: the last
    /// reading and a variability EWMA per type, next to the node and a row
    /// that holds nothing but its tuples.
    struct Model {
        node: DirqNode,
        row: RowBuf,
        last_reading: Vec<f64>,
        variability: Vec<Option<Ewma>>,
    }

    impl Model {
        fn new(cfg: &Arc<NodeConfig>) -> Self {
            let mut row = RowBuf::new(SPANS.len());
            Model {
                node: attached(cfg, row.row_mut()),
                row,
                last_reading: vec![f64::NAN; SPANS.len()],
                variability: vec![None; SPANS.len()],
            }
        }

        /// The pre-plane `DirqNode::sample`: the variability update, then
        /// the own-tuple test and table flush on every reading.
        fn sample(&mut self, stype: SensorType, reading: f64) -> Vec<Outgoing> {
            let idx = stype.index();
            let span = SPANS[idx];
            let prev = std::mem::replace(&mut self.last_reading[idx], reading);
            if !prev.is_nan() {
                let pct = ((reading - prev).abs() / span) * 100.0;
                self.variability[idx]
                    .get_or_insert_with(|| Ewma::new(VARIABILITY_ALPHA))
                    .observe(pct);
            }
            run(|o| self.node.sample(self.row.row_mut(), stype, reading, o))
        }

        fn own(&self, stype: SensorType) -> Option<RangeEntry> {
            self.node.table(self.row.row(), stype).and_then(|t| t.own())
        }

        fn sigma_hat_pct(&self) -> Option<f64> {
            self.variability
                .iter()
                .flatten()
                .filter_map(|e| e.value())
                .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
        }
    }

    /// A one-node plane, its row holding the node's tuples.
    fn one_node_plane() -> SensingPlane {
        SensingPlane::new(1, SPANS.len(), SamplingStrategy::EveryEpoch)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The plane plus the escape handler is bit-equal to the pre-plane
        /// node on every reading: last reading, variability, escape
        /// decision, own tuple and emitted messages.
        #[test]
        fn plane_matches_the_pre_plane_node(
            delta_pct in 0.5f64..12.0,
            steps in proptest::collection::vec((0u8..13, 0.0f64..1.0), 1..120),
        ) {
            let cfg = cfg(delta_pct);
            let mut model = Model::new(&cfg);
            let mut plane = one_node_plane();
            let mut node = attached(&cfg, plane.row_mut(0));
            for (k, &(kind, raw)) in steps.iter().enumerate() {
                let stype = SensorType(kind % 2);
                let idx = stype.index();
                match kind {
                    // Drop the own sensor: the window clears with the tuple.
                    10 => {
                        let want = run(|o| model.node.drop_own_sensor(model.row.row_mut(), stype, o));
                        let got = run(|o| node.drop_own_sensor(plane.row_mut(0), stype, o));
                        prop_assert_eq!(got, want, "step {}: drop_own_sensor", k);
                    }
                    // Rebirth: a fresh node and a reset row.
                    11 => {
                        model = Model::new(&cfg);
                        plane.reset_row(0);
                        node = attached(&cfg, plane.row_mut(0));
                    }
                    // A child's Update widens or moves the aggregate; the
                    // own tuple and the window stay.
                    12 => {
                        let (min, max) = (SPANS[idx] * raw, SPANS[idx] * (raw + 0.2));
                        let want = run(|o| {
                            model.node.on_update(model.row.row_mut(), NodeId(7), stype, min, max, o)
                        });
                        let got =
                            run(|o| node.on_update(plane.row_mut(0), NodeId(7), stype, min, max, o));
                        prop_assert_eq!(got, want, "step {}: child update", k);
                    }
                    _ => {
                        // Readings drift around 50 % of the span; kinds 6..10
                        // land exactly on a bound of the current window.
                        let reading = match (kind, plane.cells[idx].window()) {
                            (6 | 7, Some((lo, _))) => lo,
                            (8 | 9, Some((_, hi))) => hi,
                            _ => SPANS[idx] * (0.3 + 0.4 * raw),
                        };
                        let escapes = !model.own(stype).is_some_and(|e| e.contains(reading));
                        let want = model.sample(stype, reading);
                        // `sample` decides on the cell's own copy of the
                        // same step; probe it on a copy first.
                        let mut probe = plane.cells[idx];
                        let escaped = probe.observe(reading, SPANS[idx]);
                        let got = run(|o| {
                            sample(&mut node, plane.row_mut(0), stype, reading, SPANS[idx], o)
                        });
                        prop_assert_eq!(escaped, escapes, "step {}: escape decision", k);
                        prop_assert_eq!(got, want, "step {}: messages", k);
                    }
                }
                for (t, cell) in plane.cells.iter().enumerate() {
                    let s = SensorType(t as u8);
                    prop_assert_eq!(
                        cell.last.to_bits(),
                        model.last_reading[t].to_bits(),
                        "step {}: last reading of type {}", k, t
                    );
                    let var = model.variability[t].and_then(|e| e.value());
                    prop_assert_eq!(
                        (!cell.variability.is_nan()).then_some(cell.variability.to_bits()),
                        var.map(f64::to_bits),
                        "step {}: variability of type {}", k, t
                    );
                    let own = node.table(plane.row(0), s).and_then(|t| t.own());
                    prop_assert_eq!(own, model.own(s));
                    prop_assert_eq!(cell.window(), own.map(|e| (e.min, e.max)));
                }
                prop_assert_eq!(
                    plane.sigma_hat_pct(0).map(f64::to_bits),
                    model.sigma_hat_pct().map(f64::to_bits)
                );
                prop_assert_eq!(node.updates_sent(), model.node.updates_sent());
            }
        }
    }

    #[test]
    fn variability_estimate_tracks_changes() {
        let mut plane = SensingPlane::new(2, SPANS.len(), SamplingStrategy::EveryEpoch);
        let mut node = attached(&cfg(5.0), plane.row_mut(1));
        assert_eq!(plane.sigma_hat_pct(1), None);
        let t0 = SensorType(0);
        sample(&mut node, plane.row_mut(1), t0, 20.0, SPANS[0], &mut Vec::new());
        assert_eq!(plane.sigma_hat_pct(1), None, "one reading has no change yet");
        // |Δ| = 1.0 = 5 % of span 20, inside the ±1.0 tuple: no escape.
        let out = run(|o| sample(&mut node, plane.row_mut(1), t0, 21.0, SPANS[0], o));
        assert!(out.is_empty());
        let sigma = plane.sigma_hat_pct(1).unwrap();
        assert!((sigma - 5.0).abs() < 1e-9, "sigma {sigma}");
    }

    #[test]
    fn layout_budget() {
        // A deferred enqueue: the sender, its parent and a compact message.
        assert!(std::mem::size_of::<Effect>() <= 32, "{}", std::mem::size_of::<Effect>());
    }

    #[test]
    fn readings_on_the_window_bounds_stay_inside() {
        let mut cell = SensorCell::EMPTY;
        assert!(cell.observe(20.0, 20.0), "no tuple: the first reading escapes");
        (cell.lo, cell.hi) = (19.0, 21.0);
        assert!(!cell.observe(19.0, 20.0));
        assert!(!cell.observe(21.0, 20.0));
        assert!(cell.observe(21.0 + 1e-9, 20.0));
        (cell.lo, cell.hi) = (f64::NAN, f64::NAN);
        assert!(cell.observe(20.0, 20.0), "a cleared window escapes");
    }
}

#[cfg(test)]
mod block_tests {
    //! The sampling pass, serial and sharded, against a one-pass model
    //! built on the one-reading [`sample`], and the serial pass's
    //! buffering.

    use std::sync::Arc;

    use dirq_sim::rng::splitmix64;
    use dirq_sim::SnapWriter;
    use proptest::prelude::*;

    use super::*;
    use crate::atc::DeltaPolicy;
    use crate::engine::dispatch::route;
    use crate::node::NodeConfig;

    const SPANS: [f64; 4] = [20.0, 40.0, 100.0, 10.0];
    const EPOCHS: usize = 6;

    /// One MAC enqueue as the model routes it: sender, destination and
    /// message.
    type Enqueue = (NodeId, Destination, DirqMessage);

    /// A sink that records what the pass sends, under a fixed liveness.
    struct Recorder<'a> {
        alive: &'a NodeBits,
        sent: Vec<Enqueue>,
    }

    impl SampleSink for Recorder<'_> {
        fn alive(&self) -> &NodeBits {
            self.alive
        }

        fn emit(&mut self, e: Effect) {
            self.sent.push(e.enqueue());
        }
    }

    /// Everything a sampling pass mutates.
    #[derive(Clone)]
    struct State {
        nodes: Vec<DirqNode>,
        cells: Vec<SensorCell>,
        sent: Vec<RangeEntry>,
        samplers: Option<Vec<Sampler>>,
    }

    impl State {
        /// The model: the one-pass loop over every alive non-root node,
        /// effects in node order.
        fn run_model(&mut self, inputs: &SampleInputs<'_>, alive: &NodeBits) -> Vec<Enqueue> {
            let mut effects = Vec::new();
            for i in (1..self.nodes.len()).filter(|&i| alive.contains(NodeId::from_index(i))) {
                self.sample_carrier(inputs, i, &mut effects);
            }
            effects
        }

        /// The model of the block routine: sample node `i`'s sensors in
        /// type order — the predictive gate, the world read, the plane
        /// step through [`sample`] and the sampler's update from the cell's
        /// window — appending the routed MAC enqueues to `effects`.
        fn sample_carrier(
            &mut self,
            inputs: &SampleInputs<'_>,
            i: usize,
            effects: &mut Vec<Enqueue>,
        ) {
            let span = i * SPANS.len()..(i + 1) * SPANS.len();
            let node = &mut self.nodes[i];
            let (cells, sent) = (&mut self.cells[span.clone()], &mut self.sent[span.clone()]);
            let mut samplers = self.samplers.as_mut().map(|s| &mut s[span]);
            let mut mask = inputs.masks[i];
            while mask != 0 {
                let idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(s) = samplers.as_deref_mut() {
                    if !s[idx].should_sample() {
                        continue;
                    }
                }
                let reading = inputs.rows[idx][i];
                if reading.is_nan() {
                    continue;
                }
                let stype = SensorType(idx as u8);
                let mut outs = Vec::new();
                let span = inputs.spans[idx];
                sample(node, RowMut::new(cells, sent), stype, reading, span, &mut outs);
                for out in outs {
                    if let Some((dest, msg)) = route(node, out) {
                        effects.push((NodeId::from_index(i), dest, msg));
                    }
                }
                if let Some(s) = samplers.as_deref_mut() {
                    s[idx].on_sampled(reading, cells[idx].window());
                }
            }
        }

        /// [`sample_pass`] on `threads` shards, the effects in the order it
        /// sends them; every shard is empty afterwards.
        fn run_pass(
            &mut self,
            inputs: &SampleInputs<'_>,
            alive: &NodeBits,
            threads: usize,
        ) -> Vec<Enqueue> {
            let mut shards: Vec<UpkeepShard> =
                (0..threads).map(|_| UpkeepShard::default()).collect();
            let mut sink = Recorder { alive, sent: Vec::new() };
            sample_pass(
                inputs,
                &mut self.nodes,
                &mut self.cells,
                &mut self.sent,
                self.samplers.as_deref_mut(),
                &mut shards,
                &mut sink,
            );
            assert!(
                shards.iter().all(|s| s.effects.is_empty() && s.outgoing.is_empty()),
                "the pass left effects behind"
            );
            sink.sent
        }
    }

    /// Node `i`'s row of node-major `cells` and `sent`.
    fn row_of<'a>(cells: &'a mut [SensorCell], sent: &'a mut [RangeEntry], i: usize) -> RowMut<'a> {
        let span = i * SPANS.len()..(i + 1) * SPANS.len();
        RowMut::new(&mut cells[span.clone()], &mut sent[span])
    }

    /// A uniform float in `[0, 1)` from `state`.
    fn unit(state: &mut u64) -> f64 {
        (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bit-level view of one state for comparison: every cell's four
    /// fields, every node's snapshot (tables over its row, child lists, δ,
    /// updates sent) and every sampler's snapshot.
    fn bits_of(state: &State) -> (Vec<[u64; 4]>, Vec<u8>) {
        let width = SPANS.len();
        let cells = state
            .cells
            .iter()
            .map(|c| [c.last.to_bits(), c.variability.to_bits(), c.lo.to_bits(), c.hi.to_bits()])
            .collect();
        let mut w = SnapWriter::new();
        for (i, node) in state.nodes.iter().enumerate() {
            let span = i * width..(i + 1) * width;
            node.snap(&mut w, Row::new(&state.cells[span.clone()], &state.sent[span]));
        }
        for s in state.samplers.iter().flatten() {
            s.snap(&mut w);
        }
        (cells, w.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Serial, 2-chunk and 3-chunk runs of the sampling pass are
        /// bit-equal to the one-pass loop over several epochs: cells,
        /// nodes, samplers, and the effects in order. Carrier counts cross
        /// the block size; the first epoch escapes everywhere; readings go
        /// missing, walk, and land on or just past window bounds. Samplers
        /// are off or on, so the window they see after an escape matters.
        #[test]
        fn block_routine_matches_the_one_pass_loop(
            pick in 0usize..12,
            predictive in 0u8..2,
            delta_pct in 0.5f64..12.0,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = seed;
            let carrier_count = match pick {
                0 => 0,
                1 => 63,
                2 => 64,
                3 => 65,
                4 => 128,
                5 => 300,
                _ => (splitmix64(&mut rng) % 301) as usize,
            };
            let gaps = (splitmix64(&mut rng) % (carrier_count as u64 / 4 + 2)) as usize;
            let n = 1 + carrier_count + gaps;
            let width = SPANS.len();
            let cfg = Arc::new(NodeConfig {
                delta_policy: DeltaPolicy::Fixed(delta_pct),
                reference_spans: SPANS.to_vec(),
                tx_threshold_factor: 1.0,
            });

            // Carriers are `carrier_count` of nodes 1..n, the rest gaps.
            let mut masks = vec![0u64; n];
            let mut left = carrier_count;
            for (i, mask) in masks.iter_mut().enumerate().skip(1) {
                if (splitmix64(&mut rng) % (n - i) as u64) < left as u64 {
                    *mask = 1 + splitmix64(&mut rng) % 15;
                    left -= 1;
                }
            }
            prop_assert_eq!(masks.iter().filter(|&&m| m != 0).count(), carrier_count);
            let mut alive = NodeBits::new(n);
            for i in 0..n {
                if unit(&mut rng) < 0.85 {
                    alive.insert(NodeId::from_index(i));
                }
            }

            let (mut cells, mut sent) = (vec![SensorCell::EMPTY; n * width], vec![ABSENT; n * width]);
            let mut nodes = Vec::with_capacity(n);
            for i in 0..n {
                let mut node = DirqNode::new(NodeId::from_index(i), Arc::clone(&cfg));
                if i > 0 && unit(&mut rng) < 0.9 {
                    let row = row_of(&mut cells, &mut sent, i);
                    node.set_parent(row, Some(NodeId::ROOT), &mut Vec::new());
                }
                // Some nodes hold child tuples, so aggregates mix in children.
                if unit(&mut rng) < 0.3 {
                    let t = (splitmix64(&mut rng) % width as u64) as usize;
                    let lo = SPANS[t] * unit(&mut rng);
                    let (child, stype) = (NodeId::from_index(n + i), SensorType(t as u8));
                    let row = row_of(&mut cells, &mut sent, i);
                    node.on_update(row, child, stype, lo, lo + 1.0, &mut Vec::new());
                }
                nodes.push(node);
            }
            let samplers = (predictive == 1).then(|| vec![Sampler::default(); n * width]);
            let mut model = State { nodes, cells, sent, samplers };
            let mut runs = [model.clone(), model.clone(), model.clone()];

            for epoch in 0..EPOCHS {
                // Readings: missing, on or just past a window bound, a short
                // step from the last one, or fresh.
                let rows: Vec<Vec<f64>> = (0..width)
                    .map(|t| {
                        let (span, step) = (SPANS[t], SPANS[t] * delta_pct / 100.0);
                        (0..n)
                            .map(|i| {
                                let cell = model.cells[i * width + t];
                                let u = unit(&mut rng);
                                match cell.window() {
                                    _ if u < 0.08 => f64::NAN,
                                    Some((lo, _)) if u < 0.11 => lo,
                                    Some((_, hi)) if u < 0.14 => hi,
                                    Some((lo, _)) if u < 0.17 => lo - 1e-6 * span,
                                    Some((_, hi)) if u < 0.20 => hi + 1e-6 * span,
                                    _ if u < 0.75 && !cell.last.is_nan() => {
                                        cell.last + (unit(&mut rng) - 0.5) * step
                                    }
                                    _ => span * (0.3 + 0.4 * unit(&mut rng)),
                                }
                            })
                            .collect()
                    })
                    .collect();
                let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                let inputs = SampleInputs {
                    masks: &masks,
                    rows: &row_refs,
                    width,
                    spans: &SPANS,
                };
                let want = model.run_model(&inputs, &alive);
                let (want_cells, want_state) = bits_of(&model);
                for (k, run) in runs.iter_mut().enumerate() {
                    let got = run.run_pass(&inputs, &alive, k + 1);
                    let (cells, state) = bits_of(run);
                    let label = ["serial", "2 chunks", "3 chunks"][k];
                    prop_assert!(cells == want_cells, "epoch {}, {}: cells differ", epoch, label);
                    prop_assert!(state == want_state, "epoch {}, {}: node or sampler state differs", epoch, label);
                    prop_assert_eq!(&got, &want, "epoch {}, {}: effects", epoch, label);
                }
            }
        }
    }

    /// The serial pass sends each block's enqueues before the next block,
    /// so its shard never buffers more than one block's: on a fresh plane,
    /// as at epoch 0, every carried cell escapes and a pass that sent only
    /// at its end would hold every node's Updates at once.
    #[test]
    fn serial_pass_buffers_at_most_one_block() {
        let (n, width) = (1 + 5 * SAMPLE_BLOCK, SPANS.len());
        let cfg = Arc::new(NodeConfig {
            delta_policy: DeltaPolicy::Fixed(5.0),
            reference_spans: SPANS.to_vec(),
            tx_threshold_factor: 1.0,
        });
        let masks = vec![(1u64 << width) - 1; n];
        let mut alive = NodeBits::new(n);
        let (mut cells, mut sent) = (vec![SensorCell::EMPTY; n * width], vec![ABSENT; n * width]);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            alive.insert(NodeId::from_index(i));
            let mut node = DirqNode::new(NodeId::from_index(i), Arc::clone(&cfg));
            if i > 0 {
                let row = row_of(&mut cells, &mut sent, i);
                node.set_parent(row, Some(NodeId::ROOT), &mut Vec::new());
            }
            nodes.push(node);
        }
        let rows: Vec<Vec<f64>> = SPANS
            .iter()
            .map(|&span| (0..n).map(|i| span * (i % 7) as f64 / 7.0).collect())
            .collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let inputs = SampleInputs { masks: &masks, rows: &row_refs, width, spans: &SPANS };
        let mut shards = [UpkeepShard::default()];
        let mut sink = Recorder { alive: &alive, sent: Vec::new() };
        sample_pass(&inputs, &mut nodes, &mut cells, &mut sent, None, &mut shards, &mut sink);
        assert_eq!(sink.sent.len(), (n - 1) * width, "every carried cell escapes");
        let held = shards[0].effects.capacity();
        assert!(held <= SAMPLE_BLOCK * width, "the serial pass buffered {held} enqueues");
    }
}

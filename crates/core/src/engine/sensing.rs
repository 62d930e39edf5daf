//! The sensing plane: the per-(node, sensor type) state every sample
//! touches, in one dense node-major array owned by the engine.
//!
//! DirQ nodes sample every epoch, but a node acts on a reading only when
//! it leaves the node's own `[R − δ, R + δ]` tuple (Fig. 1): only then can
//! the Range Table change and an Update follow (Fig. 3). Every other
//! sample just replaces the last reading and feeds the variability
//! estimate ATC reads. So that work lives here, one 32-byte
//! [`SensorCell`] per `(node, type)`, and the protocol node ([`DirqNode`])
//! is entered only when a reading escapes. The engine's sampling pass,
//! [`sample_pass`], runs [`SensorCell::observe`] on every reading and
//! [`escape`] on the ones that leave the window.
//!
//! Each cell keeps a copy of its node's own tuple as the escape window.
//! The own tuple changes only in the escape handler, when a sensor is
//! removed, when a node is born and on restore, and each of those sites
//! refreshes the window.

use dirq_data::sensor::SensorAssignment;
use dirq_data::SensorType;
use dirq_lmac::Destination;
use dirq_net::NodeId;
use dirq_sim::runner;

use crate::messages::DirqMessage;
use crate::node::{DirqNode, Outgoing};
use crate::range_table::RangeEntry;
use crate::sampling::Sampler;

use super::dispatch::{route, warm_up, Outbox};
use super::Engine;

/// One carried sensor's sampling state. `NaN` marks each field as absent.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SensorCell {
    /// The last reading acquired.
    pub(crate) last: f64,
    /// EWMA of |Δreading| per epoch, in percent of the reference span —
    /// the signal variability ATC reads.
    pub(crate) variability: f64,
    /// Lower bound of the node's own tuple: the escape window.
    pub(crate) lo: f64,
    /// Upper bound of the node's own tuple.
    pub(crate) hi: f64,
}

impl SensorCell {
    /// A cell that has seen nothing and has no own tuple.
    pub(crate) const EMPTY: SensorCell =
        SensorCell { last: f64::NAN, variability: f64::NAN, lo: f64::NAN, hi: f64::NAN };

    /// Record `reading`: swap in the new last reading and update the
    /// variability with `Ewma::observe`'s expression (the first observation
    /// is taken as is). Returns whether the reading escaped the own tuple;
    /// with no tuple (`NaN` bounds) every reading escapes, as
    /// [`RangeEntry::contains`] decides.
    #[inline]
    pub(crate) fn observe(&mut self, reading: f64, span: f64, alpha: f64) -> bool {
        let prev = std::mem::replace(&mut self.last, reading);
        if !prev.is_nan() {
            let pct = ((reading - prev).abs() / span) * 100.0;
            let v = self.variability;
            self.variability = if v.is_nan() { pct } else { v + alpha * (pct - v) };
        }
        !(self.lo <= reading && reading <= self.hi)
    }

    /// The escape window as `(lo, hi)`, if the node has an own tuple.
    #[inline]
    pub(crate) fn window(&self) -> Option<(f64, f64)> {
        (!self.lo.is_nan()).then_some((self.lo, self.hi))
    }

    /// Copy the node's own tuple into the escape window (`None` clears it).
    #[inline]
    pub(crate) fn set_window(&mut self, own: Option<RangeEntry>) {
        (self.lo, self.hi) = own.map_or((f64::NAN, f64::NAN), |e| (e.min, e.max));
    }
}

/// One [`SensorCell`] per `(node, type)`, node-major: node `i`'s row is
/// `cells[i * width..(i + 1) * width]`, indexed by [`SensorType::index`].
pub(crate) struct SensingPlane {
    width: usize,
    cells: Vec<SensorCell>,
}

impl SensingPlane {
    /// An empty plane for `n` nodes and `width` sensor types.
    pub(crate) fn new(n: usize, width: usize) -> Self {
        SensingPlane { width, cells: vec![SensorCell::EMPTY; n * width] }
    }

    /// Sensor types per row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Node `i`'s row.
    pub(crate) fn row(&self, i: usize) -> &[SensorCell] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Node `i`'s row, mutably.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [SensorCell] {
        &mut self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Every row, node-major, for chunks that each own a disjoint run of
    /// rows.
    pub(crate) fn cells_mut(&mut self) -> &mut [SensorCell] {
        &mut self.cells
    }

    /// Node `i`'s smoothed signal variability for ATC, in percent of span:
    /// the maximum over its present estimates, folded in type order (the
    /// most volatile sensor drives the update rate).
    pub(crate) fn sigma_hat_pct(&self, i: usize) -> Option<f64> {
        self.row(i)
            .iter()
            .map(|c| c.variability)
            .filter(|v| !v.is_nan())
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
    }
}

/// Enter `node` with a reading of `stype` that escaped `cell`'s window:
/// the escape handler appends its messages to `out`, and the window is
/// refreshed from the node's new own tuple.
#[inline]
pub(crate) fn escape(
    node: &mut DirqNode,
    cell: &mut SensorCell,
    stype: SensorType,
    reading: f64,
    out: &mut Vec<Outgoing>,
) {
    node.sample(stype, reading, out);
    cell.set_window(node.table(stype).and_then(|t| t.own()));
}

// --- the sampling pass: the one sharded upkeep pass ------------------------

/// Below this many carrier nodes to sample the fan-out costs more than
/// the work; the serial loop runs at any upkeep worker count.
const UPKEEP_MIN_ITEMS: usize = 256;

/// Carriers per sampling block. Its escape bits live on the stack, and in
/// the serial pass each escape's enqueues are sent right away, so no
/// buffer grows with the block.
const SAMPLE_BLOCK: usize = 64;

impl Engine {
    /// Sample every carrier's sensors through [`sample_pass`], at the
    /// resolved upkeep worker count once the pass has enough carriers to
    /// feed them, and send the enqueues through the engine's [`Outbox`].
    pub(super) fn sample_sensors(&mut self) {
        let read_ahead = self.reads_ahead();
        let width = self.plane.width();
        let scratch = &mut self.sample_scratch;
        scratch.refresh(self.world.assignment(), self.nodes.len(), width);
        let world = &self.world;
        let rows: Vec<&[f64]> = world.catalog().types().map(|t| world.readings(t)).collect();
        let inputs = SampleInputs {
            alive: &self.alive,
            masks: &scratch.masks,
            carriers: &scratch.carriers,
            rows: &rows,
            width,
            spans: &self.node_cfg.reference_spans,
            alpha: self.node_cfg.variability_alpha,
            read_ahead,
        };
        let threads = if scratch.force || scratch.carriers.len() >= UPKEEP_MIN_ITEMS {
            scratch.shards.len()
        } else {
            1
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
            self.plane.cells_mut(),
            self.samplers.as_deref_mut(),
            &mut scratch.shards[..threads],
            |e| outbox.send(e.from, e.dest, e.msg),
        );
    }
}

/// The sampling plane's scratch, reused across epochs: the carrier index
/// over the sensor assignment and one shard per upkeep worker.
///
/// The index lists the ascending nodes carrying at least one sensor plus
/// their carried-type masks, rebuilt only when the assignment version
/// changes. Iterating carriers node-outer with mask bits ascending visits
/// exactly the `(node, type)` pairs a full `1..n` × catalog scan visits,
/// in the same order — so the indexed pass stays bit-identical to that
/// scan while skipping non-carriers entirely.
#[derive(Default)]
pub(super) struct SampleScratch {
    /// Assignment version the index was built against.
    version: Option<u64>,
    /// Carried-type mask per node (bit `t.index()`; the environmental
    /// catalog `Engine::new` pins has 4 types, and the masks cover the
    /// first 64 type ids).
    masks: Vec<u64>,
    /// Ascending node indices with a non-zero mask (the root excluded).
    carriers: Vec<u32>,
    /// Per-chunk buffers: one per upkeep worker, and one alone runs the
    /// serial pass. The `upkeep_workers` knob resolves to this count
    /// through `runner::shard_workers`.
    shards: Vec<UpkeepShard>,
    /// Test hook: shard sampling regardless of size thresholds.
    force: bool,
}

impl SampleScratch {
    /// Scratch for `workers` upkeep workers, with no index built yet.
    pub(super) fn new(workers: usize) -> Self {
        let shards = (0..workers).map(|_| UpkeepShard::default()).collect();
        SampleScratch { shards, ..SampleScratch::default() }
    }

    /// Shard every pass over `workers` chunks, bypassing the size
    /// thresholds (see [`Engine::force_sharded_upkeep`]).
    pub(super) fn force_sharded(&mut self, workers: usize) {
        *self = SampleScratch { force: true, ..SampleScratch::new(workers) };
    }

    /// Rebuild the carrier index when the sensor assignment has changed
    /// (runtime `add_sensor`/`remove_sensor`, or a restore; one version
    /// probe otherwise). Only types the world has readings for — the
    /// plane's `width` — count.
    fn refresh(&mut self, assignment: &SensorAssignment, n: usize, width: usize) {
        let version = assignment.version();
        if self.version == Some(version) {
            return;
        }
        let sampled = u64::MAX >> (64 - width.clamp(1, 64));
        self.masks.clear();
        self.masks.resize(n, 0);
        self.carriers.clear();
        for i in 1..n {
            let mask = assignment.carried_mask(i) & sampled;
            self.masks[i] = mask;
            if mask != 0 {
                self.carriers.push(i as u32);
            }
        }
        self.version = Some(version);
    }
}

/// One sampling chunk's buffers, reused across epochs.
#[derive(Default)]
pub(super) struct UpkeepShard {
    /// A sharded chunk's enqueues, sent in chunk order after the chunks
    /// run.
    effects: Vec<Effect>,
    /// What the escape handler appends; routed after each reading.
    outgoing: Vec<Outgoing>,
}

/// One MAC enqueue an escape queued: [`route`]'s destination and message
/// for the escaping node.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(super) struct Effect {
    from: NodeId,
    dest: Destination,
    msg: DirqMessage,
}

/// What every carrier of one sampling pass reads.
pub(super) struct SampleInputs<'a> {
    alive: &'a [bool],
    /// Carried-type mask per node (see [`SampleScratch`]).
    masks: &'a [u64],
    /// The carriers to sample, ascending.
    carriers: &'a [u32],
    /// Current readings per type id (`NaN` = no reading), mirroring
    /// `SensorWorld::reading`.
    rows: &'a [&'a [f64]],
    /// Plane cells per node.
    width: usize,
    /// Reference span per type id (δ and the variability are relative to
    /// it).
    spans: &'a [f64],
    /// The variability EWMA's smoothing factor.
    alpha: f64,
    /// Whether the escape pass reads ahead ([`Engine::reads_ahead`]).
    read_ahead: bool,
}

/// The one sampling pass, over explicit parts: sample every carrier of
/// `inputs` against the state of every node — `nodes`, their plane
/// `cells` and their `samplers` — and hand each MAC enqueue an escape
/// queues to `send`, in carrier and type order.
///
/// With one shard, one chunk samples every carrier and `send` runs as
/// each escape queues. With several, [`split_chunks`] splits the carriers
/// over the shards; the chunks run in place on scoped threads, each
/// deferring its enqueues into its shard, and `send` runs on them
/// afterwards in chunk order — the serial order. Sampling reads no MAC,
/// metrics or pending state, so deferring changes nothing.
pub(super) fn sample_pass(
    inputs: &SampleInputs<'_>,
    nodes: &mut [DirqNode],
    cells: &mut [SensorCell],
    samplers: Option<&mut [Vec<Sampler>]>,
    shards: &mut [UpkeepShard],
    mut send: impl FnMut(Effect),
) {
    if let [shard] = shards {
        let outgoing = &mut shard.outgoing;
        let carriers = inputs.carriers;
        SampleChunk { first: 0, carriers, nodes, cells, samplers, outgoing }.sample(inputs, send);
        return;
    }
    let threads = shards.len();
    let mut chunks = split_chunks(inputs, nodes, cells, samplers, shards);
    runner::for_each_mut(&mut chunks, threads, |(chunk, effects)| {
        chunk.sample(inputs, |e| effects.push(e));
    });
    for shard in shards {
        shard.effects.drain(..).for_each(&mut send);
    }
}

/// One sampling chunk's share of the engine: the state of nodes
/// `first..first + nodes.len()` (`width` plane cells per node), the
/// chunk's carriers among them, and its shard's handler-output buffer.
/// The serial pass is one chunk over every node.
struct SampleChunk<'a> {
    first: usize,
    carriers: &'a [u32],
    nodes: &'a mut [DirqNode],
    cells: &'a mut [SensorCell],
    /// Per-node sampler rows; `None` under `SamplingStrategy::EveryEpoch`.
    samplers: Option<&'a mut [Vec<Sampler>]>,
    outgoing: &'a mut Vec<Outgoing>,
}

impl SampleChunk<'_> {
    /// Sample the chunk's carriers, the one sampling routine: per block of
    /// [`SAMPLE_BLOCK`] carriers, a plane pass over every carried cell,
    /// then an escape pass over the readings that left their window, which
    /// hands each enqueue to `emit`.
    ///
    /// This is bit-equal to sampling each carrier's types in one pass:
    /// a cell's step touches only that cell, its sampler and, on an
    /// escape, its node's table for that type, and sampling reads no MAC,
    /// metrics or pending state. Escapes still run in carrier and type
    /// order, so the enqueue order is the same too.
    fn sample(&mut self, inputs: &SampleInputs<'_>, mut emit: impl FnMut(Effect)) {
        for block in self.carriers.chunks(SAMPLE_BLOCK) {
            let mut escaped = [0u64; SAMPLE_BLOCK];
            self.plane_pass(inputs, block, &mut escaped);
            self.escape_pass(inputs, block, &escaped, &mut emit);
        }
    }

    /// Per carrier, in type order: the predictive gate, the world read and
    /// the cell step. A reading inside its window updates its sampler here;
    /// one that escapes sets its type's bit in `escaped` for the escape
    /// pass.
    fn plane_pass(
        &mut self,
        inputs: &SampleInputs<'_>,
        block: &[u32],
        escaped: &mut [u64; SAMPLE_BLOCK],
    ) {
        let width = inputs.width;
        for (&ci, escaped) in block.iter().zip(escaped) {
            let i = ci as usize;
            if !inputs.alive[i] {
                continue;
            }
            let j = i - self.first;
            let row = &mut self.cells[j * width..(j + 1) * width];
            let mut samplers = self.samplers.as_deref_mut().map(|rows| rows[j].as_mut_slice());
            for idx in bits(inputs.masks[i]) {
                if let Some(s) = samplers.as_deref_mut() {
                    if !s[idx].should_sample() {
                        continue;
                    }
                }
                let reading = inputs.rows[idx][i];
                if reading.is_nan() {
                    continue;
                }
                let cell = &mut row[idx];
                if cell.observe(reading, inputs.spans[idx], inputs.alpha) {
                    *escaped |= 1 << idx;
                    continue;
                }
                debug_assert_eq!(
                    cell.window(),
                    self.nodes[j]
                        .table(SensorType(idx as u8))
                        .and_then(|t| t.own())
                        .map(|e| (e.min, e.max)),
                    "escape window out of step with node {i}'s own tuple"
                );
                if let Some(s) = samplers.as_deref_mut() {
                    s[idx].on_sampled(reading, cell.window());
                }
            }
        }
    }

    /// Read ahead of the block's escaping nodes through [`warm_up`], then,
    /// in carrier and type order, run each escape through [`escape`],
    /// route its handler output to `emit`, and update its sampler from the
    /// refreshed window.
    fn escape_pass(
        &mut self,
        inputs: &SampleInputs<'_>,
        block: &[u32],
        escaped: &[u64; SAMPLE_BLOCK],
        emit: &mut impl FnMut(Effect),
    ) {
        let (first, width) = (self.first, inputs.width);
        if inputs.read_ahead {
            let nodes = &*self.nodes;
            let escapes = || {
                block
                    .iter()
                    .zip(escaped)
                    .filter(|&(_, &mask)| mask != 0)
                    .map(|(&ci, &mask)| (&nodes[ci as usize - first], mask))
            };
            warm_up(escapes().map(|(node, _)| node), || {
                escapes().flat_map(|(node, mask)| {
                    bits(mask).map(move |idx| (node, SensorType(idx as u8), false))
                })
            });
        }
        for (&ci, &mask) in block.iter().zip(escaped) {
            if mask == 0 {
                continue;
            }
            let i = ci as usize;
            let j = i - first;
            let node = &mut self.nodes[j];
            let row = &mut self.cells[j * width..(j + 1) * width];
            let mut samplers = self.samplers.as_deref_mut().map(|rows| rows[j].as_mut_slice());
            for idx in bits(mask) {
                let reading = inputs.rows[idx][i];
                let cell = &mut row[idx];
                escape(node, cell, SensorType(idx as u8), reading, self.outgoing);
                for out in self.outgoing.drain(..) {
                    if let Some((dest, msg)) = route(node, out) {
                        emit(Effect { from: node.id(), dest, msg });
                    }
                }
                if let Some(s) = samplers.as_deref_mut() {
                    s[idx].on_sampled(reading, cell.window());
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
/// near-equal contiguous runs of the carriers (none when there are fewer
/// carriers than shards) and the nodes, plane rows and sampler rows from
/// the end of the previous chunk up to the next chunk's first carrier.
/// Each chunk comes paired with its shard's effect buffer.
fn split_chunks<'a>(
    inputs: &SampleInputs<'a>,
    mut nodes: &'a mut [DirqNode],
    mut cells: &'a mut [SensorCell],
    mut samplers: Option<&'a mut [Vec<Sampler>]>,
    shards: &'a mut [UpkeepShard],
) -> Vec<(SampleChunk<'a>, &'a mut Vec<Effect>)> {
    let (carriers, width, n, count) = (inputs.carriers, inputs.width, nodes.len(), shards.len());
    let mut chunks = Vec::with_capacity(count);
    let (mut start, mut first) = (0, 0);
    for (k, UpkeepShard { effects, outgoing }) in shards.iter_mut().enumerate() {
        let end = carriers.len() * (k + 1) / count;
        if end == start {
            continue;
        }
        let next = carriers.get(end).map_or(n, |&c| c as usize);
        let len = next - first;
        let chunk = SampleChunk {
            first,
            carriers: &carriers[start..end],
            nodes: split_front(&mut nodes, len),
            cells: split_front(&mut cells, len * width),
            samplers: samplers.as_mut().map(|rows| split_front(rows, len)),
            outgoing,
        };
        chunks.push((chunk, effects));
        (start, first) = (end, next);
    }
    chunks
}

/// Split the first `len` elements off `rest`, leaving the remainder there.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// Run one reading of `stype` through `cell`, entering `node` only when
/// the reading escapes its own tuple; a contained reading appends nothing
/// and leaves the node untouched. The one-reading form of the engine's
/// sampling pass, kept as the model its tests compare against.
#[cfg(test)]
pub(crate) fn sample(
    node: &mut DirqNode,
    cell: &mut SensorCell,
    stype: SensorType,
    reading: f64,
    span: f64,
    alpha: f64,
    out: &mut Vec<Outgoing>,
) {
    if !cell.observe(reading, span, alpha) {
        debug_assert_eq!(
            cell.window(),
            node.table(stype).and_then(|t| t.own()).map(|e| (e.min, e.max)),
            "escape window out of step with node {:?}'s own tuple",
            node.id()
        );
        return;
    }
    node.sample(stype, reading, out);
    cell.set_window(node.table(stype).and_then(|t| t.own()));
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

    const ALPHA: f64 = 0.2;
    const SPANS: [f64; 2] = [20.0, 40.0];

    fn cfg(delta_pct: f64) -> Arc<NodeConfig> {
        Arc::new(NodeConfig {
            delta_policy: DeltaPolicy::Fixed(delta_pct),
            reference_spans: SPANS.to_vec(),
            variability_alpha: ALPHA,
            tx_threshold_factor: 1.0,
        })
    }

    /// A node with a parent, so escapes emit Updates.
    fn attached(cfg: &Arc<NodeConfig>) -> DirqNode {
        let mut n = DirqNode::new(NodeId(1), Arc::clone(cfg));
        n.set_parent(Some(NodeId(0)), &mut Vec::new());
        n
    }

    /// Run one handler on a fresh buffer and return what it appended.
    fn run(handler: impl FnOnce(&mut Vec<Outgoing>)) -> Vec<Outgoing> {
        let mut out = Vec::new();
        handler(&mut out);
        out
    }

    /// The sampling state a node kept before the plane existed: the last
    /// reading and a variability EWMA per type, next to the node itself.
    struct Model {
        node: DirqNode,
        last_reading: Vec<f64>,
        variability: Vec<Option<Ewma>>,
    }

    impl Model {
        fn new(cfg: &Arc<NodeConfig>) -> Self {
            Model {
                node: attached(cfg),
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
                self.variability[idx].get_or_insert_with(|| Ewma::new(ALPHA)).observe(pct);
            }
            run(|o| self.node.sample(stype, reading, o))
        }

        fn sigma_hat_pct(&self) -> Option<f64> {
            self.variability
                .iter()
                .flatten()
                .filter_map(|e| e.value())
                .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
        }
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
            let mut node = attached(&cfg);
            let mut row = [SensorCell::EMPTY; SPANS.len()];
            for (k, &(kind, raw)) in steps.iter().enumerate() {
                let stype = SensorType(kind % 2);
                let idx = stype.index();
                match kind {
                    // Drop the own sensor: the window clears with the tuple.
                    10 => {
                        let want = run(|o| model.node.drop_own_sensor(stype, o));
                        let got = run(|o| node.drop_own_sensor(stype, o));
                        prop_assert_eq!(got, want, "step {}: drop_own_sensor", k);
                        row[idx].set_window(node.table(stype).and_then(|t| t.own()));
                    }
                    // Rebirth: a fresh node and a reset row.
                    11 => {
                        model = Model::new(&cfg);
                        node = attached(&cfg);
                        row = [SensorCell::EMPTY; SPANS.len()];
                    }
                    // A child's Update widens or moves the aggregate; the
                    // own tuple and the window stay.
                    12 => {
                        let (min, max) = (SPANS[idx] * raw, SPANS[idx] * (raw + 0.2));
                        let want = run(|o| model.node.on_update(NodeId(7), stype, min, max, o));
                        let got = run(|o| node.on_update(NodeId(7), stype, min, max, o));
                        prop_assert_eq!(got, want, "step {}: child update", k);
                    }
                    _ => {
                        // Readings drift around 50 % of the span; kinds 6..10
                        // land exactly on a bound of the current window.
                        let reading = match (kind, row[idx].window()) {
                            (6 | 7, Some((lo, _))) => lo,
                            (8 | 9, Some((_, hi))) => hi,
                            _ => SPANS[idx] * (0.3 + 0.4 * raw),
                        };
                        let escapes = !model
                            .node
                            .table(stype)
                            .and_then(|t| t.own())
                            .is_some_and(|e| e.contains(reading));
                        let want = model.sample(stype, reading);
                        // `sample` decides on the cell's own copy of the
                        // same step; probe it on a copy first.
                        let mut probe = row[idx];
                        let escaped = probe.observe(reading, SPANS[idx], ALPHA);
                        let got = run(|o| {
                            sample(&mut node, &mut row[idx], stype, reading, SPANS[idx], ALPHA, o)
                        });
                        prop_assert_eq!(escaped, escapes, "step {}: escape decision", k);
                        prop_assert_eq!(got, want, "step {}: messages", k);
                    }
                }
                for (t, cell) in row.iter().enumerate() {
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
                    let own = node.table(s).and_then(|t| t.own());
                    prop_assert_eq!(own, model.node.table(s).and_then(|t| t.own()));
                    prop_assert_eq!(cell.window(), own.map(|e| (e.min, e.max)));
                }
                let mut plane = SensingPlane::new(1, SPANS.len());
                plane.row_mut(0).copy_from_slice(&row);
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
        let mut plane = SensingPlane::new(2, SPANS.len());
        let mut node = attached(&cfg(5.0));
        assert_eq!(plane.sigma_hat_pct(1), None);
        let t0 = SensorType(0);
        sample(&mut node, &mut plane.row_mut(1)[0], t0, 20.0, SPANS[0], ALPHA, &mut Vec::new());
        assert_eq!(plane.sigma_hat_pct(1), None, "one reading has no change yet");
        // |Δ| = 1.0 = 5 % of span 20, inside the ±1.0 tuple: no escape.
        let out =
            run(|o| sample(&mut node, &mut plane.row_mut(1)[0], t0, 21.0, SPANS[0], ALPHA, o));
        assert!(out.is_empty());
        let sigma = plane.sigma_hat_pct(1).unwrap();
        assert!((sigma - 5.0).abs() < 1e-9, "sigma {sigma}");
    }

    #[test]
    fn readings_on_the_window_bounds_stay_inside() {
        let mut cell = SensorCell::EMPTY;
        assert!(cell.observe(20.0, 20.0, ALPHA), "no tuple: the first reading escapes");
        cell.set_window(Some(RangeEntry::around(20.0, 1.0)));
        assert!(!cell.observe(19.0, 20.0, ALPHA));
        assert!(!cell.observe(21.0, 20.0, ALPHA));
        assert!(cell.observe(21.0 + 1e-9, 20.0, ALPHA));
        cell.set_window(None);
        assert!(cell.observe(20.0, 20.0, ALPHA), "a cleared window escapes");
    }
}

#[cfg(test)]
mod block_tests {
    //! The sampling pass, serial and sharded, against the one-pass loop
    //! its block routine replaced.

    use std::sync::Arc;

    use dirq_sim::rng::splitmix64;
    use dirq_sim::SnapWriter;
    use proptest::prelude::*;

    use super::*;
    use crate::atc::DeltaPolicy;
    use crate::node::NodeConfig;
    use crate::sampling::PredictiveConfig;

    const SPANS: [f64; 4] = [20.0, 40.0, 100.0, 10.0];
    const ALPHA: f64 = 0.2;
    const EPOCHS: usize = 6;

    impl SampleInputs<'_> {
        /// The one-pass loop the block routine replaced: sample carrier
        /// `i`'s sensors in type order — the predictive gate, the world
        /// read, the plane step through [`sample`] and the
        /// sampler's update from the cell's window — appending the routed
        /// MAC enqueues to `effects`.
        fn sample_carrier(
            &self,
            i: usize,
            node: &mut DirqNode,
            row: &mut [SensorCell],
            mut samplers: Option<&mut [Sampler]>,
            effects: &mut Vec<Effect>,
        ) {
            if !self.alive[i] {
                return;
            }
            let mut mask = self.masks[i];
            while mask != 0 {
                let idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(s) = samplers.as_deref_mut() {
                    if !s[idx].should_sample() {
                        continue;
                    }
                }
                let reading = self.rows[idx][i];
                if reading.is_nan() {
                    continue;
                }
                let stype = SensorType(idx as u8);
                let cell = &mut row[idx];
                let mut outs = Vec::new();
                sample(node, cell, stype, reading, self.spans[idx], self.alpha, &mut outs);
                for out in outs {
                    if let Some((dest, msg)) = route(node, out) {
                        effects.push(Effect { from: NodeId::from_index(i), dest, msg });
                    }
                }
                if let Some(s) = samplers.as_deref_mut() {
                    s[idx].on_sampled(reading, cell.window());
                }
            }
        }
    }

    /// Everything a sampling pass mutates.
    #[derive(Clone)]
    struct State {
        nodes: Vec<DirqNode>,
        cells: Vec<SensorCell>,
        samplers: Option<Vec<Vec<Sampler>>>,
    }

    impl State {
        /// The model: the one-pass loop over every carrier, effects in
        /// carrier order.
        fn run_model(&mut self, inputs: &SampleInputs<'_>) -> Vec<Effect> {
            let width = SPANS.len();
            let mut effects = Vec::new();
            for &ci in inputs.carriers {
                let i = ci as usize;
                let row = &mut self.cells[i * width..(i + 1) * width];
                let samplers = self.samplers.as_mut().map(|rows| rows[i].as_mut_slice());
                inputs.sample_carrier(i, &mut self.nodes[i], row, samplers, &mut effects);
            }
            effects
        }

        /// [`sample_pass`] on `threads` shards, the effects in the order it
        /// sends them; every shard is empty afterwards.
        fn run_pass(&mut self, inputs: &SampleInputs<'_>, threads: usize) -> Vec<Effect> {
            let mut shards: Vec<UpkeepShard> =
                (0..threads).map(|_| UpkeepShard::default()).collect();
            let mut sent = Vec::new();
            sample_pass(
                inputs,
                &mut self.nodes,
                &mut self.cells,
                self.samplers.as_deref_mut(),
                &mut shards,
                |e| sent.push(e),
            );
            assert!(
                shards.iter().all(|s| s.effects.is_empty() && s.outgoing.is_empty()),
                "the pass left effects behind"
            );
            sent
        }
    }

    /// A uniform float in `[0, 1)` from `state`.
    fn unit(state: &mut u64) -> f64 {
        (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bit-level view of one state for comparison: every cell's four
    /// fields, every node's snapshot (tables, child lists, δ, updates
    /// sent) and every sampler's snapshot.
    fn bits_of(state: &State) -> (Vec<[u64; 4]>, Vec<u8>) {
        let width = SPANS.len();
        let cells = state
            .cells
            .iter()
            .map(|c| [c.last.to_bits(), c.variability.to_bits(), c.lo.to_bits(), c.hi.to_bits()])
            .collect();
        let mut w = SnapWriter::new();
        for (i, node) in state.nodes.iter().enumerate() {
            node.snap(&mut w, &state.cells[i * width..(i + 1) * width]);
        }
        for s in state.samplers.iter().flatten().flatten() {
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
        /// are off, at their defaults, or tuned to skip whenever the window
        /// leaves room, so the window they see after an escape matters.
        #[test]
        fn block_routine_matches_the_one_pass_loop(
            pick in 0usize..12,
            predictive in 0u8..3,
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
                variability_alpha: ALPHA,
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
            let carriers: Vec<u32> =
                (1..n).filter(|&i| masks[i] != 0).map(|i| i as u32).collect();
            prop_assert_eq!(carriers.len(), carrier_count);
            let alive: Vec<bool> = (0..n).map(|_| unit(&mut rng) < 0.85).collect();

            let mut nodes = Vec::with_capacity(n);
            for i in 0..n {
                let mut node = DirqNode::new(NodeId::from_index(i), Arc::clone(&cfg));
                if i > 0 && unit(&mut rng) < 0.9 {
                    node.set_parent(Some(NodeId::ROOT), &mut Vec::new());
                }
                // Some nodes hold child tuples, so aggregates mix in children.
                if unit(&mut rng) < 0.3 {
                    let t = (splitmix64(&mut rng) % width as u64) as usize;
                    let lo = SPANS[t] * unit(&mut rng);
                    let child = NodeId::from_index(n + i);
                    node.on_update(child, SensorType(t as u8), lo, lo + 1.0, &mut Vec::new());
                }
                nodes.push(node);
            }
            let eager = PredictiveConfig {
                safety_margin: 0.0,
                volatility_factor: 0.0,
                ..PredictiveConfig::default()
            };
            let samplers = [None, Some(PredictiveConfig::default()), Some(eager)]
                [usize::from(predictive)]
                .map(|pc| (0..n).map(|_| (0..width).map(|_| Sampler::new(pc)).collect()).collect());
            let mut model = State { nodes, cells: vec![SensorCell::EMPTY; n * width], samplers };
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
                    alive: &alive,
                    masks: &masks,
                    carriers: &carriers,
                    rows: &row_refs,
                    width,
                    spans: &SPANS,
                    alpha: ALPHA,
                    read_ahead: true,
                };
                let want = model.run_model(&inputs);
                let (want_cells, want_state) = bits_of(&model);
                for (k, run) in runs.iter_mut().enumerate() {
                    let got = run.run_pass(&inputs, k + 1);
                    let (cells, state) = bits_of(run);
                    let label = ["serial", "2 chunks", "3 chunks"][k];
                    prop_assert!(cells == want_cells, "epoch {}, {}: cells differ", epoch, label);
                    prop_assert!(state == want_state, "epoch {}, {}: node or sampler state differs", epoch, label);
                    prop_assert_eq!(&got, &want, "epoch {}, {}: effects", epoch, label);
                }
            }
        }
    }
}

//! Range-query workloads.
//!
//! Users inject **one-shot range queries** ("acquire all temperature
//! readings currently between 22 °C and 25 °C"). The paper's experiments
//! are parameterised by the *percentage of nodes involved in responding to
//! a query*, which it defines as source nodes **plus** the intermediate
//! forwarding nodes on the tree paths to them (Section 7.1). The
//! [`QueryGenerator`] here calibrates each query's value window so that the
//! involved fraction hits a target (the paper's 20 %, 40 %, 60 %).

use dirq_net::{NodeId, Position, Rect};
use dirq_sim::SimRng;
use rand::Rng;

use crate::sensor::SensorType;
use crate::world::SensorWorld;

/// Unique query identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A one-shot range query over a single sensor type, optionally scoped to
/// a spatial region (the paper's *static location attribute*: "queries can
/// be directed based on … even location (static) if it is available").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeQuery {
    /// Unique id (assigned by the generator / engine).
    pub id: QueryId,
    /// The sensor type queried.
    pub stype: SensorType,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
    /// Optional spatial scope: only readings taken inside this rectangle
    /// qualify. `None` = the whole network.
    pub region: Option<Rect>,
}

impl RangeQuery {
    /// A value-only query over the whole network.
    pub fn value(id: QueryId, stype: SensorType, lo: f64, hi: f64) -> Self {
        RangeQuery { id, stype, lo, hi, region: None }
    }

    /// Add a spatial scope.
    pub fn with_region(self, region: Rect) -> Self {
        RangeQuery { region: Some(region), ..self }
    }

    /// Whether a reading satisfies the value window (ignores the region;
    /// see [`RangeQuery::matches_at`]).
    #[inline]
    pub fn matches(&self, value: f64) -> bool {
        !value.is_nan() && value >= self.lo && value <= self.hi
    }

    /// Whether a reading taken at `pos` fully satisfies the query.
    #[inline]
    pub fn matches_at(&self, value: f64, pos: &Position) -> bool {
        self.matches(value) && self.region.is_none_or(|r| r.contains(pos))
    }

    /// Whether an advertised `[min, max]` interval overlaps the query
    /// window — the routing test DirQ applies at every hop.
    #[inline]
    pub fn overlaps(&self, min: f64, max: f64) -> bool {
        min <= self.hi && max >= self.lo
    }

    /// Write the query to `w` (value bounds by bit pattern).
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter) {
        w.u64(self.id.0);
        w.u8(self.stype.0);
        w.f64(self.lo);
        w.f64(self.hi);
        w.bool(self.region.is_some());
        if let Some(region) = &self.region {
            region.snap(w);
        }
    }

    /// Rebuild a query captured by [`RangeQuery::snap`].
    pub fn unsnap(r: &mut dirq_sim::SnapReader<'_>) -> Result<Self, dirq_sim::SnapError> {
        Ok(RangeQuery {
            id: QueryId(r.u64()?),
            stype: SensorType(r.u8()?),
            lo: r.f64()?,
            hi: r.f64()?,
            region: if r.bool()? { Some(Rect::unsnap(r)?) } else { None },
        })
    }
}

/// Ground truth for one query at injection time.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    /// Alive nodes whose current reading matches the query.
    pub sources: Vec<NodeId>,
    /// `involved[node]`: the node is a source or lies on a tree path from
    /// the root to a source (root itself excluded — it injects the query).
    pub involved: Vec<bool>,
    /// Number of involved nodes.
    pub involved_count: usize,
}

impl GroundTruth {
    /// Involved fraction of the whole network (including the root in the
    /// denominator, matching the paper's percentages).
    pub fn involved_fraction(&self) -> f64 {
        if self.involved.is_empty() {
            0.0
        } else {
            self.involved_count as f64 / self.involved.len() as f64
        }
    }

    /// Write the full truth record to `w`.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter) {
        w.len_of(self.sources.len());
        for s in &self.sources {
            w.u32(s.0);
        }
        w.bools(&self.involved);
        w.len_of(self.involved_count);
    }

    /// Rebuild a record captured by [`GroundTruth::snap`].
    pub fn unsnap(r: &mut dirq_sim::SnapReader<'_>) -> Result<Self, dirq_sim::SnapError> {
        let n = r.seq_len(4)?;
        let sources = (0..n).map(|_| r.u32().map(NodeId)).collect::<Result<_, _>>()?;
        let involved = r.bools()?;
        let involved_count = r.u64()? as usize;
        Ok(GroundTruth { sources, involved, involved_count })
    }
}

/// Compute the ground truth of a window `[lo, hi]` over `readings` (indexed
/// by node, `NaN` = no sensor), with forwarding paths taken from `parents`
/// (indexed by node; `None` for the root and for detached nodes, as
/// [`SpanningTree::parents`](dirq_net::SpanningTree::parents) reports them).
/// `is_alive` filters dead nodes out of the source set.
///
/// Sources detached from the tree (mid-repair orphans) are counted as
/// involved — they *should* ideally be reached — but contribute no
/// forwarding path.
pub fn ground_truth(
    readings: &[f64],
    parents: &[Option<NodeId>],
    lo: f64,
    hi: f64,
    is_alive: impl Fn(NodeId) -> bool,
) -> GroundTruth {
    ground_truth_by(readings.len(), parents, |i| {
        let node = NodeId::from_index(i);
        let v = readings[i];
        !v.is_nan() && v >= lo && v <= hi && is_alive(node)
    })
}

/// Ground truth for a full [`RangeQuery`], honouring its optional spatial
/// region (`positions` indexed by node).
pub fn ground_truth_for_query(
    readings: &[f64],
    positions: &[dirq_net::Position],
    parents: &[Option<NodeId>],
    query: &RangeQuery,
    is_alive: impl Fn(NodeId) -> bool,
) -> GroundTruth {
    assert_eq!(readings.len(), positions.len(), "readings/positions must align");
    ground_truth_by(readings.len(), parents, |i| {
        is_alive(NodeId::from_index(i)) && query.matches_at(readings[i], &positions[i])
    })
}

/// Shared core: sources are the non-root nodes satisfying `is_source`;
/// involved = sources plus their tree paths (root excluded).
///
/// Paths are marked by walking parent pointers and stopping at the first
/// already-involved node — path suffixes towards the root are shared, so
/// total marking work is O(n) rather than O(n · depth).
fn ground_truth_by(
    n: usize,
    parents: &[Option<NodeId>],
    is_source: impl Fn(usize) -> bool,
) -> GroundTruth {
    assert_eq!(parents.len(), n, "readings/parents must align");
    let mut involved = vec![false; n];
    let mut sources = Vec::new();
    let mut involved_count = 0;
    for i in 0..n {
        let node = NodeId::from_index(i);
        if node.is_root() || !is_source(i) {
            continue;
        }
        sources.push(node);
        let mut cur = Some(node);
        while let Some(v) = cur.filter(|v| !v.is_root() && !involved[v.index()]) {
            involved[v.index()] = true;
            involved_count += 1;
            cur = parents[v.index()];
        }
    }
    GroundTruth { sources, involved, involved_count }
}

/// The involved set of a changing source set, kept up to date one source
/// at a time for window calibration.
///
/// `k[v]` is 1 if `v` is a source plus the number of `v`'s involved
/// children, so `v` is involved exactly while `k[v] > 0`. Like
/// [`ground_truth`], a walk up the parent chain stops at the root (never
/// involved) and at a `None` parent (a detached source counts but adds no
/// path), so `count` always equals the `involved_count` of the truth over
/// the same sources.
#[derive(Clone, Debug, Default)]
struct Involvement {
    k: Vec<u32>,
    /// Number of nodes with `k > 0`.
    count: usize,
    /// Sources at the bracket's upper end but not at its lower end: the
    /// only nodes a bisection probe has to re-test.
    band: Vec<NodeId>,
}

impl Involvement {
    /// Make `source` a source: count up its parent chain, stopping at the
    /// first node that was already involved.
    fn add(&mut self, parents: &[Option<NodeId>], source: NodeId) {
        let mut v = source;
        loop {
            self.k[v.index()] += 1;
            if self.k[v.index()] > 1 {
                return;
            }
            self.count += 1;
            match parents[v.index()] {
                Some(p) if !p.is_root() => v = p,
                _ => return,
            }
        }
    }

    /// Undo [`Involvement::add`]: count down the parent chain, stopping at
    /// the first node that stays involved.
    fn remove(&mut self, parents: &[Option<NodeId>], source: NodeId) {
        let mut v = source;
        loop {
            self.k[v.index()] -= 1;
            if self.k[v.index()] > 0 {
                return;
            }
            self.count -= 1;
            match parents[v.index()] {
                Some(p) if !p.is_root() => v = p,
                _ => return,
            }
        }
    }

    /// Bisect a window parameter inside `bracket`: `iters` probes, each
    /// keeping the half whose involved fraction brackets `target`, then one
    /// evaluation of the accepted midpoint. Returns that midpoint and its
    /// involved count.
    ///
    /// `sources_at(p)` builds the source predicate (by node index) at
    /// parameter `p`; it must only gain nodes as `p` grows. Both callers'
    /// predicates do, because IEEE addition and subtraction round
    /// monotonically, and every midpoint lies inside the current bracket.
    /// So the sources at `lo` are sources at every probe, the non-sources
    /// at `hi` are at none, and a probe re-tests only the band between
    /// them; the state then equals what a fresh scan would find.
    fn bisect<F: Fn(usize) -> bool>(
        &mut self,
        parents: &[Option<NodeId>],
        bracket: (f64, f64),
        iters: usize,
        target: f64,
        sources_at: impl Fn(f64) -> F,
    ) -> (f64, usize) {
        let n = parents.len();
        let (mut lo, mut hi) = bracket;
        debug_assert!(
            0.0 <= lo && lo <= hi,
            "bracket ({lo}, {hi}) must be ordered and non-negative"
        );
        self.k.clear();
        self.k.resize(n, 0);
        self.count = 0;
        let mut band = std::mem::take(&mut self.band);
        band.clear();
        let (at_lo, at_hi) = (sources_at(lo), sources_at(hi));
        for i in 0..n {
            let node = NodeId::from_index(i);
            if node.is_root() {
                continue;
            }
            if at_lo(i) {
                self.add(parents, node);
            } else if at_hi(i) {
                band.push(node);
            }
        }
        // Whether the state holds the sources at `lo` (else at `hi`).
        let mut state_at_lo = true;
        for _ in 0..iters {
            let mid = 0.5 * (lo + hi);
            let inside = self.move_to(parents, &mut band, state_at_lo, sources_at(mid));
            if (self.count as f64 / n as f64) < target {
                lo = mid;
                band.drain(..inside);
                state_at_lo = true;
            } else {
                hi = mid;
                band.truncate(inside);
                state_at_lo = false;
            }
        }
        let mid = 0.5 * (lo + hi);
        self.move_to(parents, &mut band, state_at_lo, sources_at(mid));
        self.band = band;
        (mid, self.count)
    }

    /// Move the state from the sources at one bracket end to those at a
    /// midpoint: order `band` so its members inside at the midpoint come
    /// first, add them (from `lo`) or remove the rest (from `hi`), and
    /// return how many are inside.
    fn move_to(
        &mut self,
        parents: &[Option<NodeId>],
        band: &mut [NodeId],
        from_lo: bool,
        inside: impl Fn(usize) -> bool,
    ) -> usize {
        let mut split = 0;
        for j in 0..band.len() {
            if inside(band[j].index()) {
                band.swap(split, j);
                split += 1;
            }
        }
        if from_lo {
            band[..split].iter().for_each(|&v| self.add(parents, v));
        } else {
            band[split..].iter().for_each(|&v| self.remove(parents, v));
        }
        split
    }
}

/// A calibrated query plus its injection-time ground truth.
#[derive(Clone, Debug)]
pub struct CalibratedQuery {
    /// The query to inject.
    pub query: RangeQuery,
    /// Ground truth at calibration time.
    pub truth: GroundTruth,
}

/// The best candidate of one calibration: its involvement error, its query
/// and the involved count that error came from.
struct Candidate {
    err: f64,
    query: RangeQuery,
    count: usize,
}

impl Candidate {
    /// The better of a warm and a cold result: the cold one only on a
    /// strictly smaller error.
    fn better(warm: Option<Candidate>, cold: Option<Candidate>) -> Option<Candidate> {
        match (warm, cold) {
            (Some(a), Some(b)) => Some(if b.err < a.err { b } else { a }),
            (a, b) => b.or(a),
        }
    }
}

/// The largest id cursor a restored generator accepts: the counter bound
/// of every restore. No run hands out 2^63 ids, so a cursor past it comes
/// only from a corrupt image, and every accepted cursor has 2^63
/// increments left before it overflows.
const MAX_ID_CURSOR: u64 = dirq_sim::snap::MAX_COUNT;

/// Cold-start calibration: candidate window centres per query.
const COLD_CANDIDATES: usize = 8;
/// Cold-start calibration: bisection steps per candidate.
const COLD_ITERS: usize = 24;
/// Warm-start calibration: candidate window centres per query.
const WARM_CANDIDATES: usize = 3;
/// Warm-start calibration: bisection steps per candidate (the bracket is
/// only 64× wide, so 10 steps resolve the width to ~w/128).
const WARM_ITERS: usize = 10;
/// Warm-start bracket half-decades around the previous width.
const WARM_BRACKET: f64 = 8.0;

/// Generates range queries whose involved fraction approximates a target.
///
/// Calibration **warm-starts from the previous window per sensor type**:
/// the involved fraction is monotone in the window half-width, and the
/// target width drifts slowly between consecutive queries of a type (the
/// world's diurnal/regional components move all readings together), so the
/// bisection brackets `[w₀/8, 8·w₀]` around the last accepted width with
/// fewer candidates and steps. A cold full-span calibration runs for the
/// first query of each type — and as a fallback whenever the warm result
/// misses the target badly (e.g. after heavy churn reshapes the value
/// distribution). This cuts the ~200 ground-truth probes per query to
/// ~35, which is what keeps multi-thousand-node scenario generation fast.
///
/// A probe costs the band of sources still undecided between the bracket's
/// ends, not a rescan: the generator keeps a per-node involvement count
/// that each probe updates one band source at a time (`Involvement`). Only
/// the winning candidate builds its [`GroundTruth`], through the same
/// [`ground_truth`] / [`ground_truth_for_query`] that external queries use.
/// Paths come from the caller's parent pointers (indexed by node).
pub struct QueryGenerator {
    next_id: u64,
    target_fraction: f64,
    every_epochs: u64,
    /// Number of candidate window centres evaluated per cold query.
    candidates: usize,
    /// Probability that a generated query is spatially scoped (requires
    /// node positions — the paper's optional location attribute).
    spatial_fraction: f64,
    rng: SimRng,
    /// Calibration state: the incremental involvement count and its band
    /// (transient, reused across probes and queries).
    involvement: Involvement,
    /// Last accepted half-width per sensor type (warm-start state).
    warm_width: Vec<Option<f64>>,
    /// Last accepted region half-size per sensor type (spatial warm-start
    /// state, mirroring `warm_width`).
    warm_half: Vec<Option<f64>>,
    /// Ground-truth evaluations performed so far (bisection probes plus
    /// final candidate scorings) — observability for the warm-start win.
    probes: u64,
}

impl QueryGenerator {
    /// Generator aiming at `target_fraction` involvement, firing every
    /// `every_epochs` epochs (the paper: every 20 epochs).
    pub fn new(target_fraction: f64, every_epochs: u64, rng: SimRng) -> Self {
        assert!((0.0..=1.0).contains(&target_fraction), "target must be a fraction");
        assert!(every_epochs > 0, "query period must be positive");
        QueryGenerator {
            next_id: 0,
            target_fraction,
            every_epochs,
            candidates: COLD_CANDIDATES,
            spatial_fraction: 0.0,
            rng,
            involvement: Involvement::default(),
            warm_width: Vec::new(),
            warm_half: Vec::new(),
            probes: 0,
        }
    }

    /// Total ground-truth evaluations performed by calibration so far.
    pub fn ground_truth_probes(&self) -> u64 {
        self.probes
    }

    /// Allocate a query id from the generator's id space. External query
    /// sources (the daemon) share the space so scheduled and injected
    /// queries never collide.
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The id the generator hands out next; every id handed out so far is
    /// below it.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Write the dynamic state (id cursor, RNG position, warm-start
    /// widths, probe tally) to `w`. Targets, periods and candidate counts
    /// are configuration and are rebuilt by the constructor.
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter) {
        w.tag(b"QGEN");
        w.u64(self.next_id);
        w.rng(&self.rng);
        w.u64(self.probes);
        w.len_of(self.warm_width.len());
        for &v in &self.warm_width {
            w.opt_f64(v);
        }
        w.len_of(self.warm_half.len());
        for &v in &self.warm_half {
            w.opt_f64(v);
        }
    }

    /// Overlay state captured by [`QueryGenerator::snap`]. Calibration
    /// scratch buffers are transient and keep their current (reusable)
    /// allocation. An id cursor past `MAX_ID_CURSOR` is a typed error, and
    /// so is a warm width or half-size that is negative, NaN or infinite.
    pub fn restore(&mut self, r: &mut dirq_sim::SnapReader<'_>) -> Result<(), dirq_sim::SnapError> {
        r.tag(b"QGEN")?;
        let pos = r.position();
        self.next_id = r.u64()?;
        if self.next_id > MAX_ID_CURSOR {
            return Err(dirq_sim::SnapError::Malformed {
                pos,
                what: "query id cursor out of range",
            });
        }
        self.rng = r.rng()?;
        self.probes = r.count()?;
        self.warm_width = restore_warm(r, "warm width out of range")?;
        self.warm_half = restore_warm(r, "warm half-size out of range")?;
        Ok(())
    }

    /// Make a fraction of the generated queries spatially scoped.
    pub fn with_spatial_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        self.spatial_fraction = fraction;
        self
    }

    /// The involvement target.
    pub fn target_fraction(&self) -> f64 {
        self.target_fraction
    }

    /// Whether a query fires at `epoch` (epoch 0 is warm-up, no query).
    pub fn should_fire(&self, epoch: u64) -> bool {
        epoch > 0 && epoch.is_multiple_of(self.every_epochs)
    }

    /// Generate a query for a uniformly random sensor type that currently
    /// has at least one alive carrier. Returns `None` if no type qualifies.
    /// When a spatial fraction is configured and `positions` is non-empty,
    /// the corresponding share of queries is spatially scoped. `parents`
    /// gives the forwarding paths (see [`ground_truth`]).
    pub fn generate(
        &mut self,
        world: &SensorWorld,
        positions: &[dirq_net::Position],
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
    ) -> Option<CalibratedQuery> {
        let mut types: Vec<SensorType> = world.catalog().types().collect();
        // Random rotation so every type is exercised over a run.
        if types.is_empty() {
            return None;
        }
        let spatial = self.spatial_fraction > 0.0
            && !positions.is_empty()
            && self.rng.gen::<f64>() < self.spatial_fraction;
        let start = self.rng.gen_range(0..types.len());
        types.rotate_left(start);
        for t in types {
            let q = if spatial {
                self.generate_spatial_for_type(t, world, positions, parents, is_alive)
            } else {
                self.generate_for_type(t, world, parents, is_alive)
            };
            if q.is_some() {
                return q;
            }
        }
        None
    }

    /// Generate a spatially scoped query: the value window spans every
    /// current reading ("all readings of this type"), and the *region* is
    /// calibrated so that sources + forwarders hit the involvement target.
    ///
    /// Like the value-window path, region calibration **warm-starts from
    /// the previous accepted half-size per sensor type**: involvement is
    /// monotone in the region half-size and the target size drifts slowly
    /// between hotspot queries of a type (it is set by carrier density, not
    /// by the moving readings), so the warm bracket `[h₀/8, 8·h₀]` with the
    /// small candidate budget suffices. A cold full-diagonal calibration
    /// runs for the first spatial query of each type and as a fallback
    /// whenever the warm result misses the target badly.
    pub fn generate_spatial_for_type(
        &mut self,
        stype: SensorType,
        world: &SensorWorld,
        positions: &[dirq_net::Position],
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
    ) -> Option<CalibratedQuery> {
        let readings = world.readings(stype);
        let carriers: Vec<usize> = readings
            .iter()
            .enumerate()
            .filter(|&(i, v)| !v.is_nan() && is_alive(NodeId::from_index(i)))
            .map(|(i, _)| i)
            .collect();
        if carriers.is_empty() {
            return None;
        }
        let (lo, hi) = world.value_range(stype)?;
        let pad = (hi - lo).max(1.0) * 0.01;
        // The field diagonal bounds the useful region size.
        let max_half = positions.iter().map(|p| p.x.max(p.y)).fold(0.0f64, f64::max).max(1.0);

        let warm = self.warm_half.get(stype.index()).copied().flatten();
        let mut best = match warm {
            Some(h0) => {
                let hi_h = (h0 * WARM_BRACKET).min(max_half);
                let lo_h = (h0 / WARM_BRACKET).min(hi_h * 0.5);
                self.calibrate_region(
                    stype,
                    readings,
                    &carriers,
                    positions,
                    parents,
                    is_alive,
                    (lo - pad, hi + pad),
                    (lo_h, hi_h),
                    WARM_ITERS,
                    WARM_CANDIDATES,
                )
            }
            None => None,
        };
        let tolerance = (0.5 * self.target_fraction).max(2.0 / readings.len() as f64);
        if !best.as_ref().map(|c| c.err <= tolerance).unwrap_or(false) {
            let cold = self.calibrate_region(
                stype,
                readings,
                &carriers,
                positions,
                parents,
                is_alive,
                (lo - pad, hi + pad),
                (0.0, max_half),
                COLD_ITERS,
                self.candidates,
            );
            best = Candidate::better(best, cold);
        }

        let Candidate { query, count, .. } = best?;
        if count == 0 {
            return None;
        }
        let truth = ground_truth_for_query(readings, positions, parents, &query, is_alive);
        debug_assert_eq!(truth.involved_count, count, "incremental involvement diverged");
        let idx = stype.index();
        if self.warm_half.len() <= idx {
            self.warm_half.resize(idx + 1, None);
        }
        self.warm_half[idx] = query.region.map(|r| 0.5 * (r.x_max - r.x_min));
        self.next_id += 1;
        Some(CalibratedQuery { query, truth })
    }

    /// Core region calibration: evaluate `candidates` random carrier
    /// centres, bisecting each half-size inside `bracket`, and return the
    /// candidate with the smallest involvement error.
    #[allow(clippy::too_many_arguments)] // internal helper behind two entry points
    fn calibrate_region(
        &mut self,
        stype: SensorType,
        readings: &[f64],
        carriers: &[usize],
        positions: &[dirq_net::Position],
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
        window: (f64, f64),
        bracket: (f64, f64),
        iters: usize,
        candidates: usize,
    ) -> Option<Candidate> {
        let n = readings.len();
        let id = QueryId(self.next_id);
        let mut best: Option<Candidate> = None;
        for _ in 0..candidates {
            let centre = positions[carriers[self.rng.gen_range(0..carriers.len())]];
            let query_at = |h: f64| {
                RangeQuery::value(id, stype, window.0, window.1)
                    .with_region(dirq_net::Rect::centered(centre, h))
            };
            let (h, count) =
                self.involvement.bisect(parents, bracket, iters, self.target_fraction, |h| {
                    let probe = query_at(h);
                    move |i: usize| {
                        is_alive(NodeId::from_index(i))
                            && probe.matches_at(readings[i], &positions[i])
                    }
                });
            self.probes += iters as u64 + 1;
            let err = (count as f64 / n as f64 - self.target_fraction).abs();
            if best.as_ref().map(|c| err < c.err).unwrap_or(true) {
                best = Some(Candidate { err, query: query_at(h), count });
            }
        }
        best
    }

    /// Generate a calibrated query for a specific sensor type.
    ///
    /// Warm path: bisect inside a narrow bracket around the type's last
    /// accepted width. Cold path (first query of a type, or when the warm
    /// result misses the target by more than half of it): full-span
    /// bisection with the larger candidate budget.
    pub fn generate_for_type(
        &mut self,
        stype: SensorType,
        world: &SensorWorld,
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
    ) -> Option<CalibratedQuery> {
        let readings = world.readings(stype);
        let alive_values: Vec<f64> = readings
            .iter()
            .enumerate()
            .filter(|&(i, v)| !v.is_nan() && is_alive(NodeId::from_index(i)))
            .map(|(_, &v)| v)
            .collect();
        if alive_values.is_empty() {
            return None;
        }
        let span = {
            let lo = alive_values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = alive_values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (hi - lo).max(1e-9)
        };

        let warm = self.warm_width.get(stype.index()).copied().flatten();
        let mut best = match warm {
            Some(w0) => {
                let hi_w = (w0 * WARM_BRACKET).min(span);
                let lo_w = (w0 / WARM_BRACKET).min(hi_w * 0.5);
                self.calibrate_value_window(
                    stype,
                    readings,
                    &alive_values,
                    parents,
                    is_alive,
                    (lo_w, hi_w),
                    WARM_ITERS,
                    WARM_CANDIDATES,
                )
            }
            None => None,
        };
        let tolerance = (0.5 * self.target_fraction).max(2.0 / readings.len() as f64);
        if !best.as_ref().map(|c| c.err <= tolerance).unwrap_or(false) {
            // Cold (re)calibration over the full value span.
            let cold = self.calibrate_value_window(
                stype,
                readings,
                &alive_values,
                parents,
                is_alive,
                (0.0, span),
                COLD_ITERS,
                self.candidates,
            );
            best = Candidate::better(best, cold);
        }

        let Candidate { query, count, .. } = best?;
        if count == 0 {
            return None;
        }
        let truth = ground_truth(readings, parents, query.lo, query.hi, is_alive);
        debug_assert_eq!(truth.involved_count, count, "incremental involvement diverged");
        let idx = stype.index();
        if self.warm_width.len() <= idx {
            self.warm_width.resize(idx + 1, None);
        }
        self.warm_width[idx] = Some(0.5 * (query.hi - query.lo));
        self.next_id += 1;
        Some(CalibratedQuery { query, truth })
    }

    /// Core value-window calibration: evaluate `candidates` random centres,
    /// bisecting each half-width inside `bracket`, and return the candidate
    /// with the smallest involvement error.
    #[allow(clippy::too_many_arguments)] // internal helper behind two entry points
    fn calibrate_value_window(
        &mut self,
        stype: SensorType,
        readings: &[f64],
        alive_values: &[f64],
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
        bracket: (f64, f64),
        iters: usize,
        candidates: usize,
    ) -> Option<Candidate> {
        let n = readings.len();
        let mut best: Option<Candidate> = None;
        for _ in 0..candidates {
            let center = alive_values[self.rng.gen_range(0..alive_values.len())];
            // Bisect the half-width: involvement is monotone in w.
            let (w, count) =
                self.involvement.bisect(parents, bracket, iters, self.target_fraction, |w| {
                    move |i: usize| {
                        let v = readings[i];
                        !v.is_nan()
                            && v >= center - w
                            && v <= center + w
                            && is_alive(NodeId::from_index(i))
                    }
                });
            self.probes += iters as u64 + 1;
            let err = (count as f64 / n as f64 - self.target_fraction).abs();
            if best.as_ref().map(|c| err < c.err).unwrap_or(true) {
                let query = RangeQuery::value(QueryId(self.next_id), stype, center - w, center + w);
                best = Some(Candidate { err, query, count });
            }
        }
        best
    }
}

/// Read one warm-start list captured by [`QueryGenerator::snap`]. An
/// accepted width or half-size is always half of an ordered, finite
/// bracket's span, so a negative, NaN or infinite one is the typed error
/// `what` (it would invert the next bisection bracket).
fn restore_warm(
    r: &mut dirq_sim::SnapReader<'_>,
    what: &'static str,
) -> Result<Vec<Option<f64>>, dirq_sim::SnapError> {
    let n = r.seq_len(1)?;
    (0..n)
        .map(|_| {
            let pos = r.position();
            match r.opt_f64()? {
                Some(v) if !(v.is_finite() && v >= 0.0) => {
                    Err(dirq_sim::SnapError::Malformed { pos, what })
                }
                v => Ok(v),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::{SensorAssignment, SensorCatalog};
    use crate::world::{SensorWorld, WorldConfig};
    use dirq_net::placement::{Placement, SinkPlacement};
    use dirq_net::radio::UnitDisk;
    use dirq_net::{SpanningTree, Topology};
    use dirq_sim::RngFactory;
    use proptest::prelude::*;

    fn setup(seed: u64) -> (SensorWorld, Topology, SpanningTree) {
        let f = RngFactory::new(seed);
        let mut rng = f.stream("topo");
        let topo = Topology::deploy_connected(
            50,
            &Placement::UniformRandom { side: 100.0 },
            SinkPlacement::Corner,
            &UnitDisk::new(30.0),
            &mut rng,
            200,
        )
        .unwrap();
        let tree = SpanningTree::bfs(&topo, NodeId::ROOT);
        let assignment = SensorAssignment::heterogeneous(50, 4, 0.8, &mut f.stream("assign"));
        let world = SensorWorld::new(
            &WorldConfig::environmental(100.0),
            SensorCatalog::environmental(),
            assignment,
            &topo,
            &f,
        );
        (world, topo, tree)
    }

    #[test]
    fn query_matching_semantics() {
        let q = RangeQuery::value(QueryId(0), SensorType(0), 10.0, 20.0);
        assert!(q.matches(10.0) && q.matches(20.0) && q.matches(15.0));
        assert!(!q.matches(9.999) && !q.matches(20.001));
        assert!(!q.matches(f64::NAN));
        assert!(q.overlaps(5.0, 10.0));
        assert!(q.overlaps(20.0, 30.0));
        assert!(!q.overlaps(20.5, 30.0));
        assert!(q.overlaps(0.0, 100.0));
    }

    #[test]
    fn ground_truth_sources_and_paths() {
        // Line 0-1-2-3; only node 3 matches.
        let edges: Vec<(NodeId, NodeId)> = (0..3).map(|i| (NodeId(i), NodeId(i + 1))).collect();
        let topo = Topology::from_edges(4, &edges);
        let tree = SpanningTree::bfs(&topo, NodeId::ROOT);
        let readings = vec![f64::NAN, 0.0, 0.0, 5.0];
        let gt = ground_truth(&readings, tree.parents(), 4.0, 6.0, |_| true);
        assert_eq!(gt.sources, vec![NodeId(3)]);
        // Forwarders 1 and 2 are involved; root is not.
        assert_eq!(gt.involved, vec![false, true, true, true]);
        assert_eq!(gt.involved_count, 3);
        assert!((gt.involved_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ground_truth_respects_liveness() {
        let edges: Vec<(NodeId, NodeId)> = (0..3).map(|i| (NodeId(i), NodeId(i + 1))).collect();
        let topo = Topology::from_edges(4, &edges);
        let tree = SpanningTree::bfs(&topo, NodeId::ROOT);
        let readings = vec![f64::NAN, 5.0, 0.0, 5.0];
        let gt = ground_truth(&readings, tree.parents(), 4.0, 6.0, |n| n != NodeId(3));
        assert_eq!(gt.sources, vec![NodeId(1)]);
        assert_eq!(gt.involved_count, 1);
    }

    #[test]
    fn wider_window_never_reduces_involvement() {
        let (world, _, tree) = setup(41);
        let readings = world.readings(SensorType(0));
        let center = 20.0;
        let mut prev = 0;
        for w in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let gt = ground_truth(readings, tree.parents(), center - w, center + w, |_| true);
            assert!(gt.involved_count >= prev, "involvement must be monotone in width");
            prev = gt.involved_count;
        }
    }

    #[test]
    fn generator_hits_target_fractions() {
        let (world, _, tree) = setup(42);
        for (target, tolerance) in [(0.2, 0.10), (0.4, 0.10), (0.6, 0.15)] {
            let mut generator = QueryGenerator::new(target, 20, RngFactory::new(42).stream("qgen"));
            let mut total_err = 0.0;
            let trials = 20;
            for _ in 0..trials {
                let cal = generator
                    .generate(&world, &[], tree.parents(), |_| true)
                    .expect("calibration should succeed");
                total_err += (cal.truth.involved_fraction() - target).abs();
                assert!(!cal.truth.sources.is_empty());
                assert!(cal.query.lo < cal.query.hi);
            }
            let mean_err = total_err / trials as f64;
            assert!(
                mean_err < tolerance,
                "target {target}: mean calibration error {mean_err:.3} > {tolerance}"
            );
        }
    }

    #[test]
    fn matches_at_honours_region() {
        let q = RangeQuery::value(QueryId(1), SensorType(0), 0.0, 10.0)
            .with_region(Rect::new(Position::new(0.0, 0.0), Position::new(5.0, 5.0)));
        assert!(q.matches_at(5.0, &Position::new(2.0, 2.0)));
        assert!(!q.matches_at(5.0, &Position::new(9.0, 2.0)), "outside the region");
        assert!(!q.matches_at(50.0, &Position::new(2.0, 2.0)), "outside the window");
        // Without a region the position is irrelevant.
        let open = RangeQuery::value(QueryId(2), SensorType(0), 0.0, 10.0);
        assert!(open.matches_at(5.0, &Position::new(1e6, 1e6)));
    }

    #[test]
    fn ground_truth_for_query_applies_region() {
        let edges: Vec<(NodeId, NodeId)> = (0..3).map(|i| (NodeId(i), NodeId(i + 1))).collect();
        let topo = Topology::from_edges(4, &edges);
        let tree = SpanningTree::bfs(&topo, NodeId::ROOT);
        let readings = vec![f64::NAN, 5.0, 5.0, 5.0];
        // from_edges lays nodes out at x = 0, 1, 2, 3.
        let positions: Vec<Position> = (0..4).map(|i| Position::new(i as f64, 0.0)).collect();
        let q = RangeQuery::value(QueryId(0), SensorType(0), 4.0, 6.0)
            .with_region(Rect::new(Position::new(2.5, -1.0), Position::new(4.0, 1.0)));
        let gt = ground_truth_for_query(&readings, &positions, tree.parents(), &q, |_| true);
        assert_eq!(gt.sources, vec![NodeId(3)], "only node 3 is in the region");
        // Forwarders 1 and 2 still count as involved.
        assert_eq!(gt.involved_count, 3);
    }

    #[test]
    fn spatial_generator_hits_target() {
        let (world, topo, tree) = setup(45);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(45).stream("sg"))
            .with_spatial_fraction(1.0);
        let mut total_err = 0.0;
        let trials = 15;
        for _ in 0..trials {
            let cal = g
                .generate(&world, topo.positions(), tree.parents(), |_| true)
                .expect("spatial calibration should succeed");
            assert!(cal.query.region.is_some(), "query must be spatially scoped");
            total_err += (cal.truth.involved_fraction() - 0.4).abs();
        }
        let mean_err = total_err / trials as f64;
        assert!(mean_err < 0.12, "spatial calibration error {mean_err:.3}");
    }

    #[test]
    fn spatial_fraction_zero_never_produces_regions() {
        let (world, topo, tree) = setup(46);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(46).stream("sg0"));
        for _ in 0..5 {
            let cal = g.generate(&world, topo.positions(), tree.parents(), |_| true).unwrap();
            assert!(cal.query.region.is_none());
        }
    }

    #[test]
    fn warm_start_cuts_ground_truth_probes() {
        let (world, _, tree) = setup(47);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(47).stream("warm"));
        g.generate(&world, &[], tree.parents(), |_| true).unwrap();
        let cold = g.ground_truth_probes();
        // The first query of a type pays the full calibration: 8 candidates
        // × (24 probes + 1 scoring) = 200 per type attempted.
        assert!(cold >= 200 && cold.is_multiple_of(200), "cold calibration cost changed: {cold}");
        let mut warm_total = 0;
        let trials = 16;
        for _ in 0..trials {
            let before = g.ground_truth_probes();
            g.generate(&world, &[], tree.parents(), |_| true).unwrap();
            warm_total += g.ground_truth_probes() - before;
        }
        let warm_mean = warm_total as f64 / trials as f64;
        // Some of the 16 draws hit a not-yet-warm sensor type (cold again);
        // the mean must still be far below the 200-probe cold cost.
        assert!(warm_mean < 100.0, "warm-start saved too little: {warm_mean:.0} probes/query");
    }

    #[test]
    fn spatial_warm_start_cuts_ground_truth_probes() {
        let (world, topo, tree) = setup(50);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(50).stream("spatial-warm"))
            .with_spatial_fraction(1.0);
        g.generate(&world, topo.positions(), tree.parents(), |_| true).unwrap();
        let cold = g.ground_truth_probes();
        // First spatial query of a type pays the full region calibration:
        // 8 candidates × (24 probes + 1 scoring) = 200 per type attempted.
        assert!(cold >= 200 && cold.is_multiple_of(200), "cold spatial cost changed: {cold}");
        let mut warm_total = 0;
        let trials = 16;
        for _ in 0..trials {
            let before = g.ground_truth_probes();
            g.generate(&world, topo.positions(), tree.parents(), |_| true).unwrap();
            warm_total += g.ground_truth_probes() - before;
        }
        let warm_mean = warm_total as f64 / trials as f64;
        // Some draws still hit a cold type or trip the fallback; the mean
        // must land near the 3 × (10 + 1) = 33-probe warm cost.
        assert!(warm_mean < 100.0, "spatial warm-start saved too little: {warm_mean:.0}");
        // And the pure warm path costs exactly 3 candidates × (10
        // bisections + 1 scoring) = 33 probes — most trials should hit it.
        let mut g2 = QueryGenerator::new(0.4, 20, RngFactory::new(50).stream("spatial-warm"))
            .with_spatial_fraction(1.0);
        let mut exact_warm = 0;
        for _ in 0..=trials {
            let before = g2.ground_truth_probes();
            g2.generate(&world, topo.positions(), tree.parents(), |_| true).unwrap();
            if g2.ground_truth_probes() - before == 33 {
                exact_warm += 1;
            }
        }
        assert!(exact_warm >= trials / 2, "only {exact_warm} pure 33-probe warm calibrations");
    }

    #[test]
    fn spatial_warm_start_preserves_accuracy() {
        let (world, topo, tree) = setup(51);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(51).stream("spatial-warm-acc"))
            .with_spatial_fraction(1.0);
        // Warm every type up first.
        for _ in 0..8 {
            g.generate(&world, topo.positions(), tree.parents(), |_| true).unwrap();
        }
        let mut total_err = 0.0;
        let trials = 15;
        for _ in 0..trials {
            let cal = g.generate(&world, topo.positions(), tree.parents(), |_| true).unwrap();
            assert!(cal.query.region.is_some());
            total_err += (cal.truth.involved_fraction() - 0.4).abs();
        }
        let mean_err = total_err / trials as f64;
        assert!(mean_err < 0.12, "warm spatial calibration error {mean_err:.3}");
    }

    #[test]
    fn warm_start_preserves_calibration_accuracy() {
        let (world, _, tree) = setup(48);
        for target in [0.2, 0.4] {
            let mut g = QueryGenerator::new(target, 20, RngFactory::new(48).stream("warm-acc"));
            // Warm every type up first.
            for _ in 0..8 {
                g.generate(&world, &[], tree.parents(), |_| true).unwrap();
            }
            let mut total_err = 0.0;
            let trials = 20;
            for _ in 0..trials {
                let cal = g.generate(&world, &[], tree.parents(), |_| true).unwrap();
                total_err += (cal.truth.involved_fraction() - target).abs();
            }
            let mean_err = total_err / trials as f64;
            assert!(mean_err < 0.10, "target {target}: warm-started error {mean_err:.3}");
        }
    }

    #[test]
    fn warm_start_recovers_when_distribution_shifts() {
        // Calibrate against full liveness, then kill half the carriers:
        // the warm bracket no longer matches, and the cold fallback must
        // still deliver a usable window.
        let (world, _, tree) = setup(49);
        let mut g = QueryGenerator::new(0.3, 20, RngFactory::new(49).stream("warm-shift"));
        for _ in 0..4 {
            g.generate(&world, &[], tree.parents(), |_| true).unwrap();
        }
        let cal = g
            .generate(&world, &[], tree.parents(), |n: NodeId| n.index().is_multiple_of(2))
            .expect("fallback calibration should still produce a query");
        assert!(!cal.truth.sources.is_empty());
        assert!(cal.truth.sources.iter().all(|s| s.index() % 2 == 0));
    }

    #[test]
    fn generator_fires_on_schedule() {
        let g = QueryGenerator::new(0.4, 20, RngFactory::new(1).stream("qg"));
        assert!(!g.should_fire(0));
        assert!(g.should_fire(20));
        assert!(!g.should_fire(21));
        assert!(g.should_fire(4000));
    }

    #[test]
    fn generator_assigns_unique_ids() {
        let (world, _, tree) = setup(43);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(2).stream("qg2"));
        let a = g.generate(&world, &[], tree.parents(), |_| true).unwrap();
        let b = g.generate(&world, &[], tree.parents(), |_| true).unwrap();
        assert_ne!(a.query.id, b.query.id);
    }

    #[test]
    fn generator_none_when_no_carriers_alive() {
        let (world, _, tree) = setup(44);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(3).stream("qg3"));
        assert!(g.generate(&world, &[], tree.parents(), |_| false).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// At every probe of a band bisection, through both predicates, the
        /// incremental count equals a fresh `ground_truth` at that probe's
        /// parameter. Parent arrays are random forests: `None` parents mid-
        /// tree detach whole subtrees, dead nodes and NaN readings occur,
        /// the root carries a reading, and readings, positions, centres and
        /// bracket ends share a quarter-unit grid, so ties and values
        /// exactly on a probe's bounds are common. Brackets include
        /// `lo = hi` and `lo = 0`.
        #[test]
        fn prop_band_bisection_counts_match_ground_truth(
            nodes in proptest::collection::vec((0u64..1_000, 0u8..10, 0u8..4, 0u8..6, 0u8..6), 2..40),
            bracket in (0u8..12, 0u8..12),
            pick in 0usize..64,
            target in 0.0f64..1.0,
            iters in 0usize..10,
        ) {
            let n = nodes.len();
            let parents: Vec<Option<NodeId>> = nodes
                .iter()
                .enumerate()
                .map(|(i, &(p, ..))| {
                    (i > 0 && p % 7 != 0).then(|| NodeId::from_index(p as usize % i))
                })
                .collect();
            let readings: Vec<f64> = nodes
                .iter()
                .map(|&(_, r, ..)| if r == 9 { f64::NAN } else { f64::from(r) * 0.5 })
                .collect();
            let alive: Vec<bool> = nodes.iter().map(|&(_, _, a, ..)| a != 0).collect();
            let positions: Vec<Position> = nodes
                .iter()
                .map(|&(.., x, y)| Position::new(f64::from(x), f64::from(y)))
                .collect();
            let is_alive = |v: NodeId| alive[v.index()];
            let lo = f64::from(bracket.0) * 0.25;
            let bracket = (lo, lo + f64::from(bracket.1) * 0.25);
            let center = (pick % 10) as f64 * 0.5;
            let centre = positions[pick % n];
            let window = (1.0, 3.5);
            let mut inv = Involvement::default();
            for steps in 0..=iters {
                // A bisection cut after `steps` probes evaluates the
                // parameter the next probe of a longer one would test.
                let (w, count) = inv.bisect(&parents, bracket, steps, target, |w| {
                    let readings = &readings;
                    move |i: usize| {
                        let v = readings[i];
                        !v.is_nan() && v >= center - w && v <= center + w && is_alive(NodeId::from_index(i))
                    }
                });
                prop_assert!(bracket.0 <= w && w <= bracket.1);
                let truth = ground_truth(&readings, &parents, center - w, center + w, is_alive);
                prop_assert_eq!(count, truth.involved_count);
                let query_at = |h: f64| {
                    RangeQuery::value(QueryId(0), SensorType(0), window.0, window.1)
                        .with_region(Rect::centered(centre, h))
                };
                let (h, count) = inv.bisect(&parents, bracket, steps, target, |h| {
                    let (probe, readings, positions) = (query_at(h), &readings, &positions);
                    move |i: usize| is_alive(NodeId::from_index(i)) && probe.matches_at(readings[i], &positions[i])
                });
                let truth = ground_truth_for_query(&readings, &positions, &parents, &query_at(h), is_alive);
                prop_assert_eq!(count, truth.involved_count);
            }
        }
    }

    /// The involved count of one probe before the band bisection: a full
    /// scan that walks every source's parent chain.
    fn model_mark(
        n: usize,
        parents: &[Option<NodeId>],
        is_source: impl Fn(usize) -> bool,
    ) -> usize {
        let mut involved = vec![false; n];
        let mut count = 0;
        for i in 0..n {
            let node = NodeId::from_index(i);
            if node.is_root() || !is_source(i) {
                continue;
            }
            if !involved[i] {
                involved[i] = true;
                count += 1;
            }
            let mut cur = node;
            while let Some(p) = parents[cur.index()] {
                if p.is_root() || involved[p.index()] {
                    break;
                }
                involved[p.index()] = true;
                count += 1;
                cur = p;
            }
        }
        count
    }

    /// The calibration before the band bisection, run on `g`'s state: every
    /// probe rescans all nodes (`model_mark`) and every candidate builds its
    /// ground truth. The reference the band bisection must equal bit for bit.
    fn model_generate(
        g: &mut QueryGenerator,
        world: &SensorWorld,
        positions: &[Position],
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
    ) -> Option<CalibratedQuery> {
        let mut types: Vec<SensorType> = world.catalog().types().collect();
        if types.is_empty() {
            return None;
        }
        let spatial = g.spatial_fraction > 0.0
            && !positions.is_empty()
            && g.rng.gen::<f64>() < g.spatial_fraction;
        let start = g.rng.gen_range(0..types.len());
        types.rotate_left(start);
        types.into_iter().find_map(|t| {
            if spatial {
                model_spatial_for_type(g, t, world, positions, parents, is_alive)
            } else {
                model_for_type(g, t, world, parents, is_alive)
            }
        })
    }

    type Scored = (f64, CalibratedQuery);

    fn model_better(best: Option<Scored>, cold: Option<Scored>) -> Option<Scored> {
        match (best, cold) {
            (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
            (a, b) => b.or(a),
        }
    }

    fn model_spatial_for_type(
        g: &mut QueryGenerator,
        stype: SensorType,
        world: &SensorWorld,
        positions: &[Position],
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
    ) -> Option<CalibratedQuery> {
        let readings = world.readings(stype);
        let carriers: Vec<usize> = (0..readings.len())
            .filter(|&i| !readings[i].is_nan() && is_alive(NodeId::from_index(i)))
            .collect();
        if carriers.is_empty() {
            return None;
        }
        let (lo, hi) = world.value_range(stype)?;
        let pad = (hi - lo).max(1.0) * 0.01;
        let window = (lo - pad, hi + pad);
        let max_half = positions.iter().map(|p| p.x.max(p.y)).fold(0.0f64, f64::max).max(1.0);
        let mut best = g.warm_half.get(stype.index()).copied().flatten().and_then(|h0| {
            let hi_h = (h0 * WARM_BRACKET).min(max_half);
            let lo_h = (h0 / WARM_BRACKET).min(hi_h * 0.5);
            let bracket = (lo_h, hi_h);
            model_region(
                g,
                stype,
                readings,
                &carriers,
                positions,
                parents,
                is_alive,
                window,
                bracket,
                WARM_ITERS,
                WARM_CANDIDATES,
            )
        });
        let tolerance = (0.5 * g.target_fraction).max(2.0 / readings.len() as f64);
        if !best.as_ref().map(|&(err, _)| err <= tolerance).unwrap_or(false) {
            let candidates = g.candidates;
            let bracket = (0.0, max_half);
            let cold = model_region(
                g, stype, readings, &carriers, positions, parents, is_alive, window, bracket,
                COLD_ITERS, candidates,
            );
            best = model_better(best, cold);
        }
        let (_, cal) = best?;
        if cal.truth.sources.is_empty() {
            return None;
        }
        let idx = stype.index();
        if g.warm_half.len() <= idx {
            g.warm_half.resize(idx + 1, None);
        }
        g.warm_half[idx] = cal.query.region.map(|r| 0.5 * (r.x_max - r.x_min));
        g.next_id += 1;
        Some(cal)
    }

    #[allow(clippy::too_many_arguments)]
    fn model_region(
        g: &mut QueryGenerator,
        stype: SensorType,
        readings: &[f64],
        carriers: &[usize],
        positions: &[Position],
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
        window: (f64, f64),
        bracket: (f64, f64),
        iters: usize,
        candidates: usize,
    ) -> Option<Scored> {
        let n = readings.len();
        let mut best: Option<Scored> = None;
        for _ in 0..candidates {
            let centre = positions[carriers[g.rng.gen_range(0..carriers.len())]];
            let query_at = |h: f64, id: u64| {
                RangeQuery::value(QueryId(id), stype, window.0, window.1)
                    .with_region(Rect::centered(centre, h))
            };
            let (mut lo_h, mut hi_h) = bracket;
            for _ in 0..iters {
                let mid = 0.5 * (lo_h + hi_h);
                let probe = query_at(mid, g.next_id);
                g.probes += 1;
                let count = model_mark(n, parents, |i| {
                    is_alive(NodeId::from_index(i)) && probe.matches_at(readings[i], &positions[i])
                });
                if (count as f64 / n as f64) < g.target_fraction {
                    lo_h = mid;
                } else {
                    hi_h = mid;
                }
            }
            let query = query_at(0.5 * (lo_h + hi_h), g.next_id);
            g.probes += 1;
            let truth = ground_truth_for_query(readings, positions, parents, &query, is_alive);
            let err = (truth.involved_fraction() - g.target_fraction).abs();
            if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
                best = Some((err, CalibratedQuery { query, truth }));
            }
        }
        best
    }

    fn model_for_type(
        g: &mut QueryGenerator,
        stype: SensorType,
        world: &SensorWorld,
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
    ) -> Option<CalibratedQuery> {
        let readings = world.readings(stype);
        let alive_values: Vec<f64> = (0..readings.len())
            .filter(|&i| !readings[i].is_nan() && is_alive(NodeId::from_index(i)))
            .map(|i| readings[i])
            .collect();
        if alive_values.is_empty() {
            return None;
        }
        let lo = alive_values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = alive_values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-9);
        let mut best = g.warm_width.get(stype.index()).copied().flatten().and_then(|w0| {
            let hi_w = (w0 * WARM_BRACKET).min(span);
            let lo_w = (w0 / WARM_BRACKET).min(hi_w * 0.5);
            let bracket = (lo_w, hi_w);
            model_value(
                g,
                stype,
                readings,
                &alive_values,
                parents,
                is_alive,
                bracket,
                WARM_ITERS,
                WARM_CANDIDATES,
            )
        });
        let tolerance = (0.5 * g.target_fraction).max(2.0 / readings.len() as f64);
        if !best.as_ref().map(|&(err, _)| err <= tolerance).unwrap_or(false) {
            let candidates = g.candidates;
            let cold = model_value(
                g,
                stype,
                readings,
                &alive_values,
                parents,
                is_alive,
                (0.0, span),
                COLD_ITERS,
                candidates,
            );
            best = model_better(best, cold);
        }
        let (_, cal) = best?;
        if cal.truth.sources.is_empty() {
            return None;
        }
        let idx = stype.index();
        if g.warm_width.len() <= idx {
            g.warm_width.resize(idx + 1, None);
        }
        g.warm_width[idx] = Some(0.5 * (cal.query.hi - cal.query.lo));
        g.next_id += 1;
        Some(cal)
    }

    #[allow(clippy::too_many_arguments)]
    fn model_value(
        g: &mut QueryGenerator,
        stype: SensorType,
        readings: &[f64],
        alive_values: &[f64],
        parents: &[Option<NodeId>],
        is_alive: impl Fn(NodeId) -> bool + Copy,
        bracket: (f64, f64),
        iters: usize,
        candidates: usize,
    ) -> Option<Scored> {
        let n = readings.len();
        let mut best: Option<Scored> = None;
        for _ in 0..candidates {
            let center = alive_values[g.rng.gen_range(0..alive_values.len())];
            let (mut lo_w, mut hi_w) = bracket;
            for _ in 0..iters {
                let mid = 0.5 * (lo_w + hi_w);
                g.probes += 1;
                let count = model_mark(n, parents, |i| {
                    let v = readings[i];
                    !v.is_nan()
                        && v >= center - mid
                        && v <= center + mid
                        && is_alive(NodeId::from_index(i))
                });
                if (count as f64 / n as f64) < g.target_fraction {
                    lo_w = mid;
                } else {
                    hi_w = mid;
                }
            }
            let w = 0.5 * (lo_w + hi_w);
            g.probes += 1;
            let truth = ground_truth(readings, parents, center - w, center + w, is_alive);
            let err = (truth.involved_fraction() - g.target_fraction).abs();
            let query = RangeQuery::value(QueryId(g.next_id), stype, center - w, center + w);
            if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
                best = Some((err, CalibratedQuery { query, truth }));
            }
        }
        best
    }

    /// Everything a calibrated query carries, floats by bit pattern.
    #[allow(clippy::type_complexity)]
    fn query_bits(
        c: &CalibratedQuery,
    ) -> (u64, u8, [u64; 2], Option<[u64; 4]>, &[NodeId], &[bool], usize) {
        let q = &c.query;
        (
            q.id.0,
            q.stype.0,
            [q.lo.to_bits(), q.hi.to_bits()],
            q.region.map(|r| [r.x_min, r.y_min, r.x_max, r.y_max].map(f64::to_bits)),
            &c.truth.sources,
            &c.truth.involved,
            c.truth.involved_count,
        )
    }

    fn warm_bits(warm: &[Option<f64>]) -> Vec<Option<u64>> {
        warm.iter().map(|w| w.map(f64::to_bits)).collect()
    }

    /// The band bisection equals the rescanning model bit for bit: query
    /// ids, bounds and regions, ground truth, probe totals, warm-start
    /// state and the generator's next RNG draw. Covers targets, value and
    /// spatial workloads and three liveness patterns, with the world
    /// drifting between queries so warm starts and cold fallbacks both run.
    #[test]
    fn band_bisection_matches_the_rescanning_model() {
        for seed in [60, 61, 62] {
            let (mut world, topo, tree) = setup(seed);
            let n = topo.len();
            // A dead subtree: a relay and everything below it, detached the
            // way the engine's protocol tree reports dead nodes.
            let relay = (1..n)
                .map(NodeId::from_index)
                .find(|&v| !tree.children(v).is_empty())
                .expect("a relay");
            let below_relay =
                |v: NodeId| std::iter::successors(Some(v), |&c| tree.parent(c)).any(|c| c == relay);
            let subtree_alive: Vec<bool> =
                (0..n).map(|i| !below_relay(NodeId::from_index(i))).collect();
            let subtree_parents: Vec<Option<NodeId>> = tree
                .parents()
                .iter()
                .zip(&subtree_alive)
                .map(|(&p, &alive)| p.filter(|_| alive))
                .collect();
            let cases: [(Vec<bool>, &[Option<NodeId>]); 3] = [
                (vec![true; n], tree.parents()),
                ((0..n).map(|i| i % 2 == 0).collect(), tree.parents()),
                (subtree_alive, &subtree_parents),
            ];
            for target in [0.2, 0.4, 0.6] {
                for spatial in [0.0, 1.0] {
                    for (alive, parents) in &cases {
                        let is_alive = |v: NodeId| alive[v.index()];
                        let fresh = || {
                            QueryGenerator::new(target, 20, RngFactory::new(seed).stream("model"))
                                .with_spatial_fraction(spatial)
                        };
                        let (mut fast, mut model) = (fresh(), fresh());
                        for _ in 0..6 {
                            let a = fast.generate(&world, topo.positions(), parents, is_alive);
                            let b = model_generate(
                                &mut model,
                                &world,
                                topo.positions(),
                                parents,
                                is_alive,
                            );
                            let ctx = format!("seed {seed}, target {target}, spatial {spatial}");
                            assert_eq!(
                                a.as_ref().map(query_bits),
                                b.as_ref().map(query_bits),
                                "{ctx}"
                            );
                            assert_eq!(fast.probes, model.probes, "{ctx}");
                            assert_eq!(fast.next_id, model.next_id, "{ctx}");
                            assert_eq!(warm_bits(&fast.warm_width), warm_bits(&model.warm_width));
                            assert_eq!(warm_bits(&fast.warm_half), warm_bits(&model.warm_half));
                            for _ in 0..5 {
                                world.advance_epoch();
                            }
                        }
                        assert_eq!(fast.rng.gen::<u64>(), model.rng.gen::<u64>());
                    }
                }
            }
        }
    }
}

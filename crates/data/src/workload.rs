//! Range-query workloads.
//!
//! Users inject **one-shot range queries** ("acquire all temperature
//! readings currently between 22 °C and 25 °C"). The paper's experiments
//! are parameterised by the *percentage of nodes involved in responding to
//! a query*, which it defines as source nodes **plus** the intermediate
//! forwarding nodes on the tree paths to them (Section 7.1). The
//! [`QueryGenerator`] here calibrates each query's value window so that the
//! involved fraction hits a target (the paper's 20 %, 40 %, 60 %).

use dirq_net::{NodeId, Position, Rect, SpanningTree};
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
/// by node, `NaN` = no sensor), with forwarding paths taken from `tree`.
/// `is_alive` filters dead nodes out of the source set.
///
/// Sources detached from the tree (mid-repair orphans) are counted as
/// involved — they *should* ideally be reached — but contribute no
/// forwarding path.
pub fn ground_truth(
    readings: &[f64],
    tree: &SpanningTree,
    lo: f64,
    hi: f64,
    is_alive: impl Fn(NodeId) -> bool,
) -> GroundTruth {
    ground_truth_by(readings.len(), tree, |i| {
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
    tree: &SpanningTree,
    query: &RangeQuery,
    is_alive: impl Fn(NodeId) -> bool,
) -> GroundTruth {
    assert_eq!(readings.len(), positions.len(), "readings/positions must align");
    ground_truth_by(readings.len(), tree, |i| {
        is_alive(NodeId::from_index(i)) && query.matches_at(readings[i], &positions[i])
    })
}

/// Shared core: sources are the non-root nodes satisfying `is_source`;
/// involved = sources plus their tree paths (root excluded).
fn ground_truth_by(
    n: usize,
    tree: &SpanningTree,
    is_source: impl Fn(usize) -> bool,
) -> GroundTruth {
    let mut scratch = TruthScratch::default();
    let involved_count = scratch.mark(n, tree, is_source);
    GroundTruth {
        sources: std::mem::take(&mut scratch.sources),
        involved: std::mem::take(&mut scratch.involved),
        involved_count,
    }
}

/// Reusable buffers for ground-truth evaluation. The generator's window
/// calibration bisects over ~200 candidate windows per query; with these
/// buffers each evaluation is allocation-free (the old path allocated an
/// `involved` vector plus one path vector per source per evaluation).
#[derive(Clone, Debug, Default)]
struct TruthScratch {
    involved: Vec<bool>,
    sources: Vec<NodeId>,
}

impl TruthScratch {
    /// Recompute `sources`/`involved` in place; returns the involved count.
    ///
    /// Paths are marked by walking parent pointers and stopping at the
    /// first already-involved ancestor — path suffixes towards the root are
    /// shared, so total marking work is O(n) rather than O(n · depth).
    fn mark(&mut self, n: usize, tree: &SpanningTree, is_source: impl Fn(usize) -> bool) -> usize {
        self.involved.clear();
        self.involved.resize(n, false);
        self.sources.clear();
        let mut count = 0;
        for i in 0..n {
            let node = NodeId::from_index(i);
            if node.is_root() || !is_source(i) {
                continue;
            }
            self.sources.push(node);
            if !self.involved[i] {
                self.involved[i] = true;
                count += 1;
            }
            let mut cur = node;
            while let Some(p) = tree.parent(cur) {
                if p.is_root() || self.involved[p.index()] {
                    break;
                }
                self.involved[p.index()] = true;
                count += 1;
                cur = p;
            }
        }
        count
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

/// The largest id cursor a restored generator accepts. No run hands out
/// 2^63 ids, so a cursor past it comes only from a corrupt image, and
/// every accepted cursor has 2^63 increments left before it overflows.
const MAX_ID_CURSOR: u64 = 1 << 63;

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
    /// Reusable ground-truth buffers for window calibration.
    scratch: TruthScratch,
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
            scratch: TruthScratch::default(),
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
    /// allocation. An id cursor past `MAX_ID_CURSOR` is a typed error.
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
        self.probes = r.u64()?;
        let n = r.seq_len(1)?;
        self.warm_width = (0..n).map(|_| r.opt_f64()).collect::<Result<_, _>>()?;
        let n = r.seq_len(1)?;
        self.warm_half = (0..n).map(|_| r.opt_f64()).collect::<Result<_, _>>()?;
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
    /// the corresponding share of queries is spatially scoped.
    pub fn generate(
        &mut self,
        world: &SensorWorld,
        positions: &[dirq_net::Position],
        tree: &SpanningTree,
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
                self.generate_spatial_for_type(t, world, positions, tree, is_alive)
            } else {
                self.generate_for_type(t, world, tree, is_alive)
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
        tree: &SpanningTree,
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
                    tree,
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
        if !best.as_ref().map(|&(err, _)| err <= tolerance).unwrap_or(false) {
            let cold = self.calibrate_region(
                stype,
                readings,
                &carriers,
                positions,
                tree,
                is_alive,
                (lo - pad, hi + pad),
                (0.0, max_half),
                COLD_ITERS,
                self.candidates,
            );
            best = match (best, cold) {
                (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
                (a, b) => b.or(a),
            };
        }

        let (_, cal) = best?;
        if cal.truth.sources.is_empty() {
            return None;
        }
        let idx = stype.index();
        if self.warm_half.len() <= idx {
            self.warm_half.resize(idx + 1, None);
        }
        self.warm_half[idx] = cal.query.region.map(|r| 0.5 * (r.x_max - r.x_min));
        self.next_id += 1;
        Some(cal)
    }

    /// Core region calibration: evaluate `candidates` random carrier
    /// centres, bisecting each half-size inside `bracket`, and return the
    /// candidate with the smallest involvement error (paired with it).
    #[allow(clippy::too_many_arguments)] // internal helper behind two entry points
    fn calibrate_region(
        &mut self,
        stype: SensorType,
        readings: &[f64],
        carriers: &[usize],
        positions: &[dirq_net::Position],
        tree: &SpanningTree,
        is_alive: impl Fn(NodeId) -> bool + Copy,
        window: (f64, f64),
        bracket: (f64, f64),
        iters: usize,
        candidates: usize,
    ) -> Option<(f64, CalibratedQuery)> {
        let n = readings.len();
        let mut best: Option<(f64, CalibratedQuery)> = None;
        for _ in 0..candidates {
            let centre = positions[carriers[self.rng.gen_range(0..carriers.len())]];
            let query_at = |h: f64, id: u64| {
                RangeQuery::value(QueryId(id), stype, window.0, window.1)
                    .with_region(dirq_net::Rect::centered(centre, h))
            };
            let (mut lo_h, mut hi_h) = bracket;
            for _ in 0..iters {
                let mid = 0.5 * (lo_h + hi_h);
                let probe = query_at(mid, self.next_id);
                self.probes += 1;
                let count = self.scratch.mark(n, tree, |i| {
                    is_alive(NodeId::from_index(i)) && probe.matches_at(readings[i], &positions[i])
                });
                if (count as f64 / n as f64) < self.target_fraction {
                    lo_h = mid;
                } else {
                    hi_h = mid;
                }
            }
            let h = 0.5 * (lo_h + hi_h);
            let query = query_at(h, self.next_id);
            self.probes += 1;
            let truth = ground_truth_for_query(readings, positions, tree, &query, is_alive);
            let err = (truth.involved_fraction() - self.target_fraction).abs();
            if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
                best = Some((err, CalibratedQuery { query, truth }));
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
        tree: &SpanningTree,
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
                    tree,
                    is_alive,
                    (lo_w, hi_w),
                    WARM_ITERS,
                    WARM_CANDIDATES,
                )
            }
            None => None,
        };
        let tolerance = (0.5 * self.target_fraction).max(2.0 / readings.len() as f64);
        if !best.as_ref().map(|&(err, _)| err <= tolerance).unwrap_or(false) {
            // Cold (re)calibration over the full value span.
            let cold = self.calibrate_value_window(
                stype,
                readings,
                &alive_values,
                tree,
                is_alive,
                (0.0, span),
                COLD_ITERS,
                self.candidates,
            );
            best = match (best, cold) {
                (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
                (a, b) => b.or(a),
            };
        }

        let (_, cal) = best?;
        if cal.truth.sources.is_empty() {
            return None;
        }
        let idx = stype.index();
        if self.warm_width.len() <= idx {
            self.warm_width.resize(idx + 1, None);
        }
        self.warm_width[idx] = Some(0.5 * (cal.query.hi - cal.query.lo));
        self.next_id += 1;
        Some(cal)
    }

    /// Core value-window calibration: evaluate `candidates` random centres,
    /// bisecting each half-width inside `bracket`, and return the candidate
    /// with the smallest involvement error (paired with that error).
    #[allow(clippy::too_many_arguments)] // internal helper behind two entry points
    fn calibrate_value_window(
        &mut self,
        stype: SensorType,
        readings: &[f64],
        alive_values: &[f64],
        tree: &SpanningTree,
        is_alive: impl Fn(NodeId) -> bool + Copy,
        bracket: (f64, f64),
        iters: usize,
        candidates: usize,
    ) -> Option<(f64, CalibratedQuery)> {
        let n = readings.len();
        let mut best: Option<(f64, CalibratedQuery)> = None;
        for _ in 0..candidates {
            let center = alive_values[self.rng.gen_range(0..alive_values.len())];
            // Bisect the half-width: involvement is monotone in w. Only the
            // involved *count* matters here, so the scratch-based evaluator
            // avoids materialising a GroundTruth per probe.
            let (mut lo_w, mut hi_w) = bracket;
            for _ in 0..iters {
                let mid = 0.5 * (lo_w + hi_w);
                self.probes += 1;
                let count = self.scratch.mark(n, tree, |i| {
                    let v = readings[i];
                    !v.is_nan()
                        && v >= center - mid
                        && v <= center + mid
                        && is_alive(NodeId::from_index(i))
                });
                if (count as f64 / n as f64) < self.target_fraction {
                    lo_w = mid;
                } else {
                    hi_w = mid;
                }
            }
            let w = 0.5 * (lo_w + hi_w);
            self.probes += 1;
            let truth = ground_truth(readings, tree, center - w, center + w, is_alive);
            let err = (truth.involved_fraction() - self.target_fraction).abs();
            let query = RangeQuery::value(QueryId(self.next_id), stype, center - w, center + w);
            if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
                best = Some((err, CalibratedQuery { query, truth }));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::{SensorAssignment, SensorCatalog};
    use crate::world::{SensorWorld, WorldConfig};
    use dirq_net::placement::{Placement, SinkPlacement};
    use dirq_net::radio::UnitDisk;
    use dirq_net::Topology;
    use dirq_sim::RngFactory;

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
        let gt = ground_truth(&readings, &tree, 4.0, 6.0, |_| true);
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
        let gt = ground_truth(&readings, &tree, 4.0, 6.0, |n| n != NodeId(3));
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
            let gt = ground_truth(readings, &tree, center - w, center + w, |_| true);
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
                    .generate(&world, &[], &tree, |_| true)
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
        let gt = ground_truth_for_query(&readings, &positions, &tree, &q, |_| true);
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
                .generate(&world, topo.positions(), &tree, |_| true)
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
            let cal = g.generate(&world, topo.positions(), &tree, |_| true).unwrap();
            assert!(cal.query.region.is_none());
        }
    }

    #[test]
    fn warm_start_cuts_ground_truth_probes() {
        let (world, _, tree) = setup(47);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(47).stream("warm"));
        g.generate(&world, &[], &tree, |_| true).unwrap();
        let cold = g.ground_truth_probes();
        // The first query of a type pays the full calibration: 8 candidates
        // × (24 probes + 1 scoring) = 200 per type attempted.
        assert!(cold >= 200 && cold.is_multiple_of(200), "cold calibration cost changed: {cold}");
        let mut warm_total = 0;
        let trials = 16;
        for _ in 0..trials {
            let before = g.ground_truth_probes();
            g.generate(&world, &[], &tree, |_| true).unwrap();
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
        g.generate(&world, topo.positions(), &tree, |_| true).unwrap();
        let cold = g.ground_truth_probes();
        // First spatial query of a type pays the full region calibration:
        // 8 candidates × (24 probes + 1 scoring) = 200 per type attempted.
        assert!(cold >= 200 && cold.is_multiple_of(200), "cold spatial cost changed: {cold}");
        let mut warm_total = 0;
        let trials = 16;
        for _ in 0..trials {
            let before = g.ground_truth_probes();
            g.generate(&world, topo.positions(), &tree, |_| true).unwrap();
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
            g2.generate(&world, topo.positions(), &tree, |_| true).unwrap();
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
            g.generate(&world, topo.positions(), &tree, |_| true).unwrap();
        }
        let mut total_err = 0.0;
        let trials = 15;
        for _ in 0..trials {
            let cal = g.generate(&world, topo.positions(), &tree, |_| true).unwrap();
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
                g.generate(&world, &[], &tree, |_| true).unwrap();
            }
            let mut total_err = 0.0;
            let trials = 20;
            for _ in 0..trials {
                let cal = g.generate(&world, &[], &tree, |_| true).unwrap();
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
            g.generate(&world, &[], &tree, |_| true).unwrap();
        }
        let cal = g
            .generate(&world, &[], &tree, |n: NodeId| n.index().is_multiple_of(2))
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
        let a = g.generate(&world, &[], &tree, |_| true).unwrap();
        let b = g.generate(&world, &[], &tree, |_| true).unwrap();
        assert_ne!(a.query.id, b.query.id);
    }

    #[test]
    fn generator_none_when_no_carriers_alive() {
        let (world, _, tree) = setup(44);
        let mut g = QueryGenerator::new(0.4, 20, RngFactory::new(3).stream("qg3"));
        assert!(g.generate(&world, &[], &tree, |_| false).is_none());
    }
}

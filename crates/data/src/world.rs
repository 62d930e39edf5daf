//! The synthetic sensor world.
//!
//! [`SensorWorld`] combines, per sensor type, a spatial base field, a
//! diurnal cycle, a regional AR(1) drift, per-node local AR(1) processes
//! and white measurement noise, producing one reading per (node, type) per
//! epoch:
//!
//! ```text
//! reading(n, t, e) = spatial_t(pos_n) + diurnal_t(e) + regional_t(e)
//!                    + local_{n,t}(e) + noise
//! ```
//!
//! Readings of nodes without the sensor are `None`. The world is advanced
//! once per epoch by the scenario engine and is the ground truth the
//! accuracy metrics compare against.
//!
//! ## Split RNG streams and the parallel advance
//!
//! The shared components (diurnal cycle, regional AR(1)) run on one
//! seeded stream **per type**; every `(node, type)` local AR(1) process
//! and its measurement noise run on their own **counter-based stream**
//! ([`StreamRng`]), keyed by `(type, node)` and repositioned to a fixed
//! per-epoch counter offset. Three properties fall out:
//!
//! * **lazy per-carrier generation** — a node without the sensor never
//!   draws, and skipping it cannot shift any other stream;
//! * **stream isolation** — adding/removing a sensor (or churn) never
//!   perturbs another `(node, type)` sequence;
//! * **order-free parallelism** — the per-epoch advance shards by node
//!   range over scoped threads ([`runner::for_each_mut`]) and is
//!   **bit-identical at any worker count by construction**: each cell's
//!   value is a pure function of its own key, epoch and local AR(1) state,
//!   and each range writes its own slice of `readings[type]`.

use dirq_net::Topology;
use dirq_sim::rng::sample_std_normal_pair;
use dirq_sim::runner;
use dirq_sim::{split_key, RngFactory, SimRng, StreamRng};

use crate::field::SpatialField;
use crate::sensor::{SensorAssignment, SensorCatalog, SensorType};
use crate::temporal::{Ar1, Diurnal};

/// Spatial-structure style of a sensor type's base field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldStyle {
    /// Smooth sum of Gaussian bumps (gradual gradients).
    Smooth,
    /// Plateaued Voronoi microclimates (tightly clustered value levels) —
    /// the default: it matches the regime the paper's accuracy numbers
    /// imply, where query windows fall between well-separated clusters.
    Cellular,
}

/// Generator parameters for one sensor type.
#[derive(Clone, Debug)]
pub struct SensorTypeConfig {
    /// Baseline value (e.g. 20 °C).
    pub base: f64,
    /// Spatial structure style.
    pub field_style: FieldStyle,
    /// Spatial bump/cell amplitude.
    pub spatial_amplitude: f64,
    /// Spatial correlation length, metres (smooth fields only).
    pub correlation_len: f64,
    /// Number of spatial bumps / Voronoi cells.
    pub n_bumps: usize,
    /// Diurnal amplitude.
    pub diurnal_amplitude: f64,
    /// Diurnal period, epochs.
    pub diurnal_period: f64,
    /// Regional AR(1) persistence.
    pub regional_phi: f64,
    /// Regional AR(1) innovation σ.
    pub regional_sigma: f64,
    /// Node-local AR(1) persistence.
    pub local_phi: f64,
    /// Node-local AR(1) innovation σ.
    pub local_sigma: f64,
    /// White measurement-noise σ.
    pub noise_sigma: f64,
}

impl SensorTypeConfig {
    /// Temperature-like defaults (°C).
    ///
    /// The tuning philosophy for all four types: a **clustered** spatial
    /// field (few broad bumps → distinct microclimates whose value levels
    /// are well separated), **small node-local jitter** (so value clusters
    /// stay tight and δ-padding rarely crosses a cluster gap), and a
    /// pronounced **common drift** (diurnal + slow regional wander) that
    /// moves all nodes together — driving regular Range-Table escapes at
    /// any δ, which is what gives Fig. 6 its update traffic, without
    /// blurring the spatial structure that makes directed routing accurate.
    pub fn temperature() -> Self {
        SensorTypeConfig {
            field_style: FieldStyle::Cellular,
            base: 20.0,
            spatial_amplitude: 7.0,
            correlation_len: 35.0,
            n_bumps: 10,
            diurnal_amplitude: 6.0,
            diurnal_period: 1000.0,
            regional_phi: 0.99,
            regional_sigma: 0.05,
            local_phi: 0.9,
            local_sigma: 0.02,
            noise_sigma: 0.02,
        }
    }

    /// Relative-humidity-like defaults (%RH).
    pub fn humidity() -> Self {
        SensorTypeConfig {
            field_style: FieldStyle::Cellular,
            base: 60.0,
            spatial_amplitude: 12.0,
            correlation_len: 40.0,
            n_bumps: 10,
            diurnal_amplitude: -10.0, // anti-phase with temperature
            diurnal_period: 1000.0,
            regional_phi: 0.99,
            regional_sigma: 0.1,
            local_phi: 0.9,
            local_sigma: 0.05,
            noise_sigma: 0.04,
        }
    }

    /// Illuminance-like defaults (arbitrary lux scale).
    pub fn light() -> Self {
        SensorTypeConfig {
            field_style: FieldStyle::Cellular,
            base: 500.0,
            spatial_amplitude: 250.0,
            correlation_len: 30.0,
            n_bumps: 12,
            diurnal_amplitude: 200.0,
            diurnal_period: 1000.0,
            regional_phi: 0.99,
            regional_sigma: 2.0,
            local_phi: 0.85,
            local_sigma: 1.5,
            noise_sigma: 1.5,
        }
    }

    /// Expected *cross-sectional* span of readings under this config — the
    /// typical spread of simultaneous readings across nodes — used as the
    /// reference against which percentage thresholds (δ %) are defined.
    ///
    /// Shared components (diurnal cycle, regional drift) move every node
    /// together and therefore do not separate nodes from each other; the
    /// spread at any instant comes from the spatial field, the node-local
    /// AR(1) processes and measurement noise.
    pub fn expected_span(&self) -> f64 {
        let local_sd = self.local_sigma / (1.0 - self.local_phi * self.local_phi).sqrt();
        2.0 * self.spatial_amplitude.abs() + 4.0 * local_sd + 4.0 * self.noise_sigma
    }

    /// CO₂-like defaults (ppm).
    pub fn co2() -> Self {
        SensorTypeConfig {
            field_style: FieldStyle::Cellular,
            base: 420.0,
            spatial_amplitude: 60.0,
            correlation_len: 30.0,
            n_bumps: 10,
            diurnal_amplitude: 30.0,
            diurnal_period: 1000.0,
            regional_phi: 0.99,
            regional_sigma: 0.6,
            local_phi: 0.92,
            local_sigma: 0.3,
            noise_sigma: 0.3,
        }
    }
}

/// Whole-world generator configuration.
///
/// At most 64 sensor types: the split-stream generation loop tests
/// carriers through per-node `u64` bitmasks ([`SensorWorld::new`]
/// asserts this loudly). The paper's scenario uses 4.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// One config per sensor type, indexed by [`SensorType`].
    pub types: Vec<SensorTypeConfig>,
    /// Side of the deployment square (must match the topology placement).
    pub side: f64,
}

impl WorldConfig {
    /// Reference spans per type (see [`SensorTypeConfig::expected_span`]).
    pub fn reference_spans(&self) -> Vec<f64> {
        self.types.iter().map(SensorTypeConfig::expected_span).collect()
    }

    /// The paper's 4-type environmental scenario.
    pub fn environmental(side: f64) -> Self {
        WorldConfig {
            types: vec![
                SensorTypeConfig::temperature(),
                SensorTypeConfig::humidity(),
                SensorTypeConfig::light(),
                SensorTypeConfig::co2(),
            ],
            side,
        }
    }
}

/// Base-2 log of the per-epoch draw budget of one `(node, type)` stream.
/// A carrier consumes 2 `u64` draws per epoch (one Box–Muller transform
/// covering both the AR(1) innovation and the measurement noise); the
/// budget of 8 leaves headroom so new draw sites never overlap the next
/// epoch's window.
const DRAW_BUDGET_LOG2: u32 = 3;

/// Per-type dynamic state.
struct TypeState {
    /// `field.value(position(node))` — the field is static, so its
    /// per-node evaluation (a sum over every bump/cell) is hoisted out of
    /// the per-epoch loop and the field itself dropped after construction.
    field_at_node: Vec<f64>,
    diurnal: Diurnal,
    regional: Ar1,
    /// The type's shared stream, driving the regional AR(1) only.
    regional_rng: SimRng,
    /// Per-node local AR(1) processes; a process only steps on epochs
    /// where its node carries the type (lazy per-carrier generation).
    local: Vec<Ar1>,
    /// Per-node counter-stream keys (`split_key` of the type's base key
    /// by node index), hoisted out of the per-epoch loop.
    node_keys: Vec<u64>,
    noise_sigma: f64,
}

/// The synthetic environment: per-epoch readings for every (node, type).
pub struct SensorWorld {
    catalog: SensorCatalog,
    assignment: SensorAssignment,
    states: Vec<TypeState>,
    /// `readings[type][node]`, `NaN` = node lacks the sensor.
    readings: Vec<Vec<f64>>,
    epoch: u64,
    /// Flat per-node carried-type masks, rebuilt only when the assignment
    /// version moves — the generation loop reads one sequential `u64`
    /// array instead of chasing `Vec<Vec<bool>>` rows per node.
    mask_cache: Vec<u64>,
    /// Assignment version [`SensorAssignment::version`] the cache mirrors.
    mask_version: Option<u64>,
    /// Threads for the sharded advance, resolved by
    /// [`SensorWorld::set_workers`]; 1 runs the serial loop.
    workers: usize,
    /// Run the sharded advance even at one thread or in a small world
    /// (test hook; results are identical).
    force_sharded: bool,
}

/// One `(node, type)` reading: step the local AR(1) and draw the noise
/// from the cell's own counter stream, positioned at this epoch's window.
/// One Box–Muller transform supplies both standard normals (innovation +
/// noise). Pure in `(key, epoch, local state, shared components)` — the
/// property the parallel advance's bit-identity rests on.
#[inline]
fn generate_cell(
    local: &mut Ar1,
    key: u64,
    epoch: u64,
    field: f64,
    shared: f64,
    noise_sigma: f64,
) -> f64 {
    let mut rng = StreamRng::at(key, epoch << DRAW_BUDGET_LOG2);
    let (z_innovation, z_noise) = sample_std_normal_pair(&mut rng);
    let local_value = local.step_std(z_innovation);
    // Float addition is not associative: every path must evaluate exactly
    // this expression (the serial and sharded advance both call here) or
    // fixed-seed runs stop being bit-identical across worker counts.
    field + shared + local_value + noise_sigma * z_noise
}

/// One sensor type's cells over one node range: the unit the advance
/// generates, serially or on any thread.
struct CellRange<'a> {
    /// The range's carried-type masks.
    masks: &'a [u64],
    /// The type's bit in `masks`.
    bit: u64,
    readings: &'a mut [f64],
    local: &'a mut [Ar1],
    field: &'a [f64],
    node_keys: &'a [u64],
    /// The type's diurnal and regional components this epoch.
    shared: f64,
    noise_sigma: f64,
}

impl CellRange<'_> {
    /// Generate every cell of the range in node order.
    fn generate_chunk(&mut self, epoch: u64) {
        for (node, &mask) in self.masks.iter().enumerate() {
            self.readings[node] = if mask & self.bit != 0 {
                generate_cell(
                    &mut self.local[node],
                    self.node_keys[node],
                    epoch,
                    self.field[node],
                    self.shared,
                    self.noise_sigma,
                )
            } else {
                f64::NAN
            };
        }
    }
}

impl SensorWorld {
    /// Build a world over `topo` with the given catalog/assignment.
    pub fn new(
        config: &WorldConfig,
        catalog: SensorCatalog,
        assignment: SensorAssignment,
        topo: &Topology,
        rng_factory: &RngFactory,
    ) -> Self {
        assert_eq!(
            config.types.len(),
            catalog.len(),
            "one SensorTypeConfig per catalog type required"
        );
        assert_eq!(assignment.len(), topo.len(), "assignment size must match topology");
        assert!(config.types.len() <= 64, "carried-mask generation supports at most 64 types");
        let n = topo.len();
        let mut field_rng = rng_factory.stream("world-fields");
        let local_key = rng_factory.stream_key("world-local", 0);
        let states: Vec<TypeState> = config
            .types
            .iter()
            .enumerate()
            .map(|(t, c)| {
                let field = match c.field_style {
                    FieldStyle::Smooth => SpatialField::random(
                        c.base,
                        c.spatial_amplitude,
                        c.correlation_len,
                        c.n_bumps,
                        config.side,
                        &mut field_rng,
                    ),
                    FieldStyle::Cellular => SpatialField::cellular(
                        c.base,
                        c.spatial_amplitude,
                        c.n_bumps,
                        config.side,
                        &mut field_rng,
                    ),
                };
                let field_at_node =
                    (0..n).map(|i| field.value(&topo.position(node_id(i)))).collect();
                TypeState {
                    field_at_node,
                    diurnal: if c.diurnal_amplitude == 0.0 {
                        Diurnal::none()
                    } else {
                        Diurnal::new(c.diurnal_amplitude, c.diurnal_period, 0.0)
                    },
                    regional: Ar1::new(c.regional_phi, c.regional_sigma),
                    regional_rng: rng_factory.indexed_stream("world-regional", t as u64),
                    local: (0..n).map(|_| Ar1::new(c.local_phi, c.local_sigma)).collect(),
                    node_keys: {
                        let type_key = split_key(local_key, t as u64);
                        (0..n).map(|i| split_key(type_key, i as u64)).collect()
                    },
                    noise_sigma: c.noise_sigma,
                }
            })
            .collect();
        let mut world = SensorWorld {
            readings: vec![vec![f64::NAN; n]; states.len()],
            catalog,
            assignment,
            states,
            epoch: 0,
            mask_cache: Vec::new(),
            mask_version: None,
            workers: 1,
            force_sharded: false,
        };
        world.regenerate_readings();
        world
    }

    /// Configure the parallel advance: shard the per-epoch generation over
    /// `workers` threads (1 keeps the serial loop), resolved by
    /// [`runner::shard_workers`] — small worlds and 1-core hosts run
    /// serially. Worker counts only ever change speed, never results.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = runner::shard_workers(workers, self.assignment.len());
    }

    /// Run the sharded advance at `workers` threads (clamped to the
    /// host) even on 1-core hosts and below the small-world threshold.
    /// Differential-test hook; results are identical to the serial loop
    /// either way.
    #[doc(hidden)]
    pub fn force_sharded_advance(&mut self, workers: usize) {
        assert!(workers > 1, "sharded advance requires more than one worker");
        self.workers = workers.min(runner::host_threads());
        self.force_sharded = true;
    }

    /// Write the dynamic world state — epoch cursor, assignment, per-type
    /// AR(1) positions and RNG streams, and the current readings matrix —
    /// to `w`. Static structure (spatial fields, node keys, diurnal
    /// parameters) is rebuilt deterministically by [`SensorWorld::new`].
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter) {
        w.tag(b"WRLD");
        w.u64(self.epoch);
        self.assignment.snap(w);
        w.len_of(self.states.len());
        for s in &self.states {
            s.regional.snap(w);
            w.rng(&s.regional_rng);
            w.len_of(s.local.len());
            for a in &s.local {
                a.snap(w);
            }
        }
        w.len_of(self.readings.len());
        for row in &self.readings {
            w.f64s(row);
        }
    }

    /// Overlay state captured by [`SensorWorld::snap`] onto a freshly
    /// constructed world of the same configuration. Readings are restored
    /// verbatim — regenerating them would re-step the local AR(1)
    /// processes and break bit-identity. The carried-mask cache is
    /// invalidated.
    pub fn restore(&mut self, r: &mut dirq_sim::SnapReader<'_>) -> Result<(), dirq_sim::SnapError> {
        r.tag(b"WRLD")?;
        self.epoch = r.count()?;
        self.assignment.restore(r)?;
        let pos = r.position();
        let n_types = r.seq_len(8)?;
        if n_types != self.states.len() {
            return Err(dirq_sim::SnapError::Malformed { pos, what: "world type count mismatch" });
        }
        for s in &mut self.states {
            s.regional = Ar1::unsnap(r)?;
            s.regional_rng = r.rng()?;
            let pos = r.position();
            let n_local = r.seq_len(24)?;
            if n_local != s.local.len() {
                return Err(dirq_sim::SnapError::Malformed {
                    pos,
                    what: "world node count mismatch",
                });
            }
            for a in &mut s.local {
                *a = Ar1::unsnap(r)?;
            }
        }
        let pos = r.position();
        let n_rows = r.seq_len(8)?;
        if n_rows != self.readings.len() {
            return Err(dirq_sim::SnapError::Malformed {
                pos,
                what: "readings type count mismatch",
            });
        }
        for row in &mut self.readings {
            let pos = r.position();
            let restored = r.f64s()?;
            if restored.len() != row.len() {
                return Err(dirq_sim::SnapError::Malformed {
                    pos,
                    what: "readings node count mismatch",
                });
            }
            *row = restored;
        }
        self.mask_version = None;
        Ok(())
    }

    /// Sensor catalog in use.
    pub fn catalog(&self) -> &SensorCatalog {
        &self.catalog
    }

    /// Node-to-sensor assignment.
    pub fn assignment(&self) -> &SensorAssignment {
        &self.assignment
    }

    /// Mutable assignment (for runtime sensor addition experiments).
    pub fn assignment_mut(&mut self) -> &mut SensorAssignment {
        &mut self.assignment
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance to the next epoch: step the shared per-type components and
    /// regenerate every carrier's reading from its own counter stream.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
        for state in &mut self.states {
            state.regional.step(&mut state.regional_rng);
        }
        self.regenerate_readings();
    }

    /// Draw this epoch's readings. Carriers step their local AR(1) and
    /// noise on the cell's own stream; non-carriers never draw and their
    /// local process stays frozen. The serial and the sharded advance run
    /// the same chunk generator over different node ranges; each cell is
    /// independent, so the split is purely a speed decision.
    fn regenerate_readings(&mut self) {
        let n = self.assignment.len();
        let epoch = self.epoch;
        if self.mask_version != Some(self.assignment.version()) || self.mask_cache.len() != n {
            self.mask_cache = (0..n).map(|i| self.assignment.carried_mask(i)).collect();
            self.mask_version = Some(self.assignment.version());
        }
        // The serial advance is one range per type over every node. The
        // sharded one cuts chunks of at least 64 nodes, ~4 per worker for
        // balance.
        let chunk = if self.force_sharded || self.workers > 1 {
            n.div_ceil(self.workers * 4).max(64)
        } else {
            n.max(1)
        };
        let masks = &self.mask_cache;
        let mut ranges = Vec::new();
        for (t, (state, row)) in self.states.iter_mut().zip(&mut self.readings).enumerate() {
            let bit = 1u64 << t;
            let shared = state.diurnal.value(epoch) + state.regional.value();
            let noise_sigma = state.noise_sigma;
            let slices = row
                .chunks_mut(chunk)
                .zip(state.local.chunks_mut(chunk))
                .zip(state.field_at_node.chunks(chunk))
                .zip(state.node_keys.chunks(chunk))
                .zip(masks.chunks(chunk));
            ranges.extend(slices.map(|((((readings, local), field), node_keys), masks)| {
                CellRange { masks, bit, readings, local, field, node_keys, shared, noise_sigma }
            }));
        }
        runner::for_each_mut(&mut ranges, self.workers, |r| r.generate_chunk(epoch));
    }

    /// The reading node `node` acquired this epoch for `t`
    /// (`None` if it lacks the sensor).
    pub fn reading(&self, node: usize, t: SensorType) -> Option<f64> {
        let v = *self.readings.get(t.index())?.get(node)?;
        (!v.is_nan()).then_some(v)
    }

    /// All current readings for `t` (`NaN` where absent).
    pub fn readings(&self, t: SensorType) -> &[f64] {
        &self.readings[t.index()]
    }

    /// Observed min/max over nodes carrying `t` this epoch.
    pub fn value_range(&self, t: SensorType) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.readings[t.index()] {
            if !v.is_nan() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo <= hi).then_some((lo, hi))
    }
}

#[inline]
fn node_id(i: usize) -> dirq_net::NodeId {
    dirq_net::NodeId::from_index(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_net::placement::{Placement, SinkPlacement};
    use dirq_net::radio::UnitDisk;

    fn build_world(seed: u64) -> (SensorWorld, Topology) {
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
        let catalog = SensorCatalog::environmental();
        let assignment = SensorAssignment::heterogeneous(50, 4, 0.6, &mut f.stream("assign"));
        let world =
            SensorWorld::new(&WorldConfig::environmental(100.0), catalog, assignment, &topo, &f);
        (world, topo)
    }

    #[test]
    fn readings_follow_assignment() {
        let (world, topo) = build_world(31);
        let t = SensorType(0);
        for node in 0..topo.len() {
            let has = world.assignment().has(node, t);
            assert_eq!(world.reading(node, t).is_some(), has, "node {node}");
        }
        // Root has no sensors.
        for t in world.catalog().types() {
            assert!(world.reading(0, t).is_none());
        }
    }

    #[test]
    fn epoch_advances_and_readings_change() {
        let (mut world, _topo) = build_world(32);
        let t = SensorType(0);
        let carrier = world.assignment().carriers(t)[0];
        let before = world.reading(carrier, t).unwrap();
        world.advance_epoch();
        assert_eq!(world.epoch(), 1);
        let after = world.reading(carrier, t).unwrap();
        assert_ne!(before, after, "noise + AR(1) must move readings");
    }

    /// All readings of every type at the current epoch, for bit-equality.
    fn snapshot(world: &SensorWorld) -> Vec<Vec<u64>> {
        world
            .catalog()
            .types()
            .map(|t| world.readings(t).iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn sharded_advance_matches_serial() {
        let (mut serial, _) = build_world(40);
        let (mut sharded, _) = build_world(40);
        sharded.force_sharded_advance(4);
        assert_eq!(snapshot(&serial), snapshot(&sharded), "construction must agree");
        for epoch in 1..=20u64 {
            serial.advance_epoch();
            sharded.advance_epoch();
            assert_eq!(snapshot(&serial), snapshot(&sharded), "epoch {epoch} diverged");
        }
    }

    #[test]
    fn worker_count_never_changes_readings() {
        let (mut w2, _) = build_world(41);
        let (mut w4, _) = build_world(41);
        w2.force_sharded_advance(2);
        w4.force_sharded_advance(4);
        for _ in 0..10 {
            w2.advance_epoch();
            w4.advance_epoch();
        }
        assert_eq!(snapshot(&w2), snapshot(&w4));
    }

    #[test]
    fn streams_are_isolated_across_assignment_changes() {
        // Removing / adding sensors on one node must not perturb any other
        // (node, type) sequence — per-cell counter streams cannot shift.
        let (mut control, _) = build_world(42);
        let (mut mutated, _) = build_world(42);
        let t = SensorType(1);
        let victim = mutated.assignment().carriers(t)[2];
        mutated.assignment_mut().remove(victim, t);
        for epoch in 1..=10u64 {
            if epoch == 5 {
                // Restore mid-run: the victim rejoins its own stream; all
                // other streams never noticed.
                mutated.assignment_mut().add(victim, t);
            }
            control.advance_epoch();
            mutated.advance_epoch();
            for ty in control.catalog().types() {
                for node in 0..control.assignment().len() {
                    if node == victim && ty == t {
                        continue;
                    }
                    assert_eq!(
                        control.reading(node, ty).map(f64::to_bits),
                        mutated.reading(node, ty).map(f64::to_bits),
                        "epoch {epoch}: node {node} type {ty:?} perturbed by victim churn"
                    );
                }
            }
        }
    }

    #[test]
    fn non_carriers_stay_nan_and_frozen() {
        let (mut world, _) = build_world(43);
        let t = SensorType(2);
        let non_carrier =
            (0..world.assignment().len()).find(|&n| !world.assignment().has(n, t)).unwrap();
        for _ in 0..5 {
            world.advance_epoch();
            assert!(world.reading(non_carrier, t).is_none());
        }
        // Lazy generation: the local process of a non-carrier is frozen at
        // its initial state (no draws ever happened for the cell).
        assert_eq!(world.states[t.index()].local[non_carrier].value(), 0.0);
    }

    #[test]
    fn temporal_correlation_consecutive_epochs() {
        let (mut world, _topo) = build_world(33);
        let t = SensorType(0);
        let carriers = world.assignment().carriers(t);
        // Mean absolute per-epoch change must be far below the overall
        // spread of values across space — i.e. time series are smooth.
        let mut step_change = 0.0;
        let mut count = 0;
        let mut prev: Vec<Option<f64>> = carriers.iter().map(|&c| world.reading(c, t)).collect();
        for _ in 0..200 {
            world.advance_epoch();
            for (i, &c) in carriers.iter().enumerate() {
                let cur = world.reading(c, t).unwrap();
                if let Some(p) = prev[i] {
                    step_change += (cur - p).abs();
                    count += 1;
                }
                prev[i] = Some(cur);
            }
        }
        let mean_step = step_change / count as f64;
        let (lo, hi) = world.value_range(t).unwrap();
        assert!(
            mean_step < (hi - lo) * 0.5,
            "per-epoch change {mean_step:.3} too large vs spread {:.3}",
            hi - lo
        );
    }

    #[test]
    fn spatial_correlation_of_readings() {
        let (world, topo) = build_world(34);
        let t = SensorType(1);
        let carriers = world.assignment().carriers(t);
        // Compare mean |Δreading| between close pairs and far pairs.
        let mut near = (0.0, 0);
        let mut far = (0.0, 0);
        for (i, &a) in carriers.iter().enumerate() {
            for &b in &carriers[i + 1..] {
                let d = topo.position(node_id(a)).distance(&topo.position(node_id(b)));
                let dv = (world.reading(a, t).unwrap() - world.reading(b, t).unwrap()).abs();
                if d < 20.0 {
                    near = (near.0 + dv, near.1 + 1);
                } else if d > 60.0 {
                    far = (far.0 + dv, far.1 + 1);
                }
            }
        }
        assert!(near.1 > 0 && far.1 > 0, "need both near and far pairs");
        let near_mean = near.0 / near.1 as f64;
        let far_mean = far.0 / far.1 as f64;
        assert!(
            near_mean < far_mean,
            "near pairs ({near_mean:.3}) should differ less than far pairs ({far_mean:.3})"
        );
    }

    #[test]
    fn value_range_brackets_all_readings() {
        let (world, _) = build_world(35);
        for t in world.catalog().types() {
            let (lo, hi) = world.value_range(t).unwrap();
            for node in 0..world.assignment().len() {
                if let Some(v) = world.reading(node, t) {
                    assert!(v >= lo && v <= hi);
                }
            }
        }
    }

    #[test]
    fn diurnal_cycle_visible_in_long_run() {
        let (mut world, _topo) = build_world(36);
        let t = SensorType(0); // temperature
        let period = SensorTypeConfig::temperature().diurnal_period as u64;
        let carrier = world.assignment().carriers(t)[0];
        let mut quarter = 0.0;
        let mut three_quarter = 0.0;
        for e in 1..=period {
            world.advance_epoch();
            if e == period / 4 {
                quarter = world.reading(carrier, t).unwrap();
            }
            if e == 3 * period / 4 {
                three_quarter = world.reading(carrier, t).unwrap();
            }
        }
        // Peak vs trough differ by ~2×amplitude = 12; AR/noise is ≪ that.
        assert!(
            quarter - three_quarter > 4.0,
            "diurnal swing not visible: peak {quarter:.2} trough {three_quarter:.2}"
        );
    }
}

//! The engine's public types: the scenario configuration, the run result,
//! the phase timings and the completed-query record.

use dirq_analytic::TopologyCosts;
use dirq_data::WorldConfig;
use dirq_lmac::network::MacStats;
use dirq_lmac::{LmacConfig, MacFootprint};
use dirq_net::churn::ChurnPlan;
use dirq_net::placement::{Placement, SinkPlacement};

use crate::atc::DeltaPolicy;
use crate::metrics::{Metrics, QueryOutcome};
use crate::sampling::SamplingStrategy;

/// Which dissemination protocol a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Directed query dissemination (the paper's contribution).
    Dirq,
    /// The flooding baseline of Section 5.1.
    Flooding,
}

/// How the spanning tree is built at deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeKind {
    /// Shortest-hop BFS tree.
    Bfs,
    /// Randomised tree bounded by fan-out `k` and depth `d` (the paper's
    /// evaluation network: 50 nodes, k = 8, d = 10).
    BoundedRandom {
        /// Maximum fan-out.
        k: usize,
        /// Maximum depth.
        d: u32,
    },
    /// Exact complete k-ary tree with the tree edges as the radio graph
    /// (for validating the Section 5 analytic model). Overrides `n_nodes`.
    CompleteKary {
        /// Arity.
        k: usize,
        /// Depth.
        d: u32,
    },
}

/// Radio connectivity model of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RadioSpec {
    /// Binary unit disk at [`ScenarioConfig::radio_range`] metres (the
    /// paper's model).
    UnitDisk,
    /// Log-distance path loss with deterministic per-link shadowing
    /// ([`dirq_net::radio::LogDistance`]): fixed hardware link budget, so
    /// raising the exponent *shrinks* the usable range — the lossy-radio
    /// axis the unit disk cannot express. The shadowing seed derives from
    /// the scenario seed.
    LogDistance {
        /// Path-loss exponent γ (2 = free space, 3–4 = forest/urban).
        exponent: f64,
        /// Shadowing standard deviation σ, dB (0 disables shadowing).
        shadowing_sigma_db: f64,
        /// Link budget in dB over the 1 m reference: the mean range is
        /// `10^(budget / (10 γ))` metres.
        link_budget_db: f64,
    },
}

/// Scripted churn for a scenario.
#[derive(Clone, Debug)]
pub enum ChurnSpec {
    /// Fixed topology.
    None,
    /// Kill `deaths` random non-root nodes at uniform epochs in
    /// `[from_epoch, until_epoch)`.
    RandomDeaths {
        /// Number of victims.
        deaths: usize,
        /// Window start epoch.
        from_epoch: u64,
        /// Window end epoch (exclusive).
        until_epoch: u64,
    },
    /// An explicit plan.
    Explicit(ChurnPlan),
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Number of nodes (including the root). Ignored for
    /// [`TreeKind::CompleteKary`].
    pub n_nodes: usize,
    /// Deployment square side, metres.
    pub side: f64,
    /// Node layout. `None` = uniform random in the `side × side` square
    /// (the paper's deployment); scenario presets override this with
    /// grids, corridors or clustered layouts.
    pub placement: Option<Placement>,
    /// Where the sink (node 0) is pinned.
    pub sink: SinkPlacement,
    /// Secondary sinks (nodes `1..=extra_sinks`): repositioned onto
    /// deterministic spread sites and wired to the primary sink by
    /// backbone links (a sink backhaul). The spanning tree then attaches
    /// every node under its **nearest** sink, cutting route depth; the
    /// secondary sinks otherwise behave as ordinary sensing relays.
    /// `0` (the default) is the paper's single-sink deployment.
    pub extra_sinks: usize,
    /// Radio range, metres (unit-disk model; under
    /// [`RadioSpec::LogDistance`] the range follows from the link budget
    /// instead).
    pub radio_range: f64,
    /// Radio connectivity model.
    pub radio: RadioSpec,
    /// Run length in epochs (the paper: 20 000).
    pub epochs: u64,
    /// Queries fire every this many epochs (the paper: 20).
    pub query_period: u64,
    /// Target involved-node fraction (the paper: 0.2 / 0.4 / 0.6).
    pub target_fraction: f64,
    /// Fraction of sensing nodes carrying each sensor type.
    pub sensor_coverage: f64,
    /// Threshold policy.
    pub delta_policy: DeltaPolicy,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Epochs per "hour" (EHr period).
    pub hour_epochs: u64,
    /// Spanning-tree construction.
    pub tree: TreeKind,
    /// MAC parameters.
    pub lmac: LmacConfig,
    /// Topology churn.
    pub churn: ChurnSpec,
    /// Synthetic-world parameters (defaults to the 4-type environmental
    /// scenario when `None`).
    pub world: Option<WorldConfig>,
    /// Worker threads for the per-epoch world advance (split per-node RNG
    /// streams shard over node ranges, on scoped threads started for each
    /// advance). Resolved once at construction: 1 below 512 nodes,
    /// otherwise clamped to the host's available parallelism. Never
    /// affects results — the sharded advance is bit-identical at any
    /// count. The scenario sweep's one `workers` knob sets this field and
    /// `upkeep_workers` together; the MAC's slot loop is serial
    /// (`lmac.workers` is inert).
    pub world_workers: usize,
    /// Inert: nothing in the workspace reads or sets it. Indication
    /// dispatch between MAC slots is always serial. The field stays only
    /// because the benchmark under `perfbench/` assigns it by name; drop
    /// it once the benchmark stops setting it.
    pub dispatch_workers: usize,
    /// Worker threads for sensor sampling, the only sharded protocol-upkeep
    /// pass (node-range chunks run in place on scoped threads, with the MAC
    /// enqueues replayed in chunk order; tree repair is always serial).
    /// Resolved like `world_workers`, and like it never affects results —
    /// sharded sampling is bit-identical at any count.
    pub upkeep_workers: usize,
    /// Epochs to wait after injection before scoring a query.
    pub completion_window: u64,
    /// Warm-up epochs excluded from aggregate statistics.
    pub measure_from_epoch: u64,
    /// Sensor acquisition strategy (the paper assumes every epoch; the
    /// predictive variant implements its Section 8 future work).
    pub sampling: SamplingStrategy,
    /// Location extension: when true, nodes know their own positions and
    /// advertise subtree bounding boxes (the paper's optional *static
    /// location attribute*).
    pub location_enabled: bool,
    /// Fraction of generated queries that are spatially scoped (requires
    /// `location_enabled`).
    pub spatial_query_fraction: f64,
    /// Multiplier on δ for the Fig. 3 transmission test (1.0 = paper rule;
    /// 0.0 = transmit every aggregate change — see the `ablations` binary).
    pub tx_threshold_factor: f64,
}

impl ScenarioConfig {
    /// The paper's evaluation setup: 50 nodes, 20 000 epochs, queries every
    /// 20 epochs, 4 sensor types, bounded tree (k = 8, d = 10).
    pub fn paper(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            n_nodes: 50,
            side: 100.0,
            placement: None,
            sink: SinkPlacement::Corner,
            extra_sinks: 0,
            radio_range: 28.0,
            radio: RadioSpec::UnitDisk,
            epochs: 20_000,
            query_period: 20,
            target_fraction: 0.4,
            sensor_coverage: 0.8,
            delta_policy: DeltaPolicy::Fixed(5.0),
            protocol: Protocol::Dirq,
            hour_epochs: 400,
            tree: TreeKind::BoundedRandom { k: 8, d: 10 },
            lmac: LmacConfig::default(),
            churn: ChurnSpec::None,
            world: None,
            world_workers: 1,
            dispatch_workers: 1,
            upkeep_workers: 1,
            completion_window: 16,
            measure_from_epoch: 400,
            sampling: SamplingStrategy::EveryEpoch,
            location_enabled: false,
            spatial_query_fraction: 0.0,
            tx_threshold_factor: 1.0,
        }
    }

    /// A scaled-down variant for tests (2 000 epochs).
    pub fn paper_small(seed: u64) -> Self {
        ScenarioConfig { epochs: 2_000, measure_from_epoch: 200, ..ScenarioConfig::paper(seed) }
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// All collected metrics.
    pub metrics: Metrics,
    /// Nodes in the deployment.
    pub n_nodes: usize,
    /// Epochs simulated.
    pub epochs: u64,
    /// Analytic costs of the initial deployment.
    pub analytic: TopologyCosts,
    /// `Umax/hr` — the Fig. 6 reference line: `fMax × (N−1) × queries/hr`.
    pub u_max_per_hour: f64,
    /// Epochs per hour used in the run.
    pub hour_epochs: u64,
    /// Queries injected.
    pub queries_injected: usize,
    /// MAC-level statistics.
    pub mac_stats: MacStats,
    /// MAC data-ledger total (cross-check of the category tallies).
    pub mac_data_cost: f64,
    /// MAC control-ledger total (LMAC overhead, excluded from comparisons).
    pub mac_control_cost: f64,
    /// Final δ (percent) per node.
    pub final_delta_pcts: Vec<f64>,
    /// Mean δ (percent) over sensing nodes, sampled every 100 epochs.
    pub delta_trace: Vec<(u64, f64)>,
    /// Sensor acquisitions performed (Section 8 extension accounting).
    pub samples_taken: u64,
    /// Sensor acquisitions avoided by the predictive sampler.
    pub samples_skipped: u64,
    /// Ground-truth evaluations spent on query-window calibration (the
    /// warm-start optimisation drives this down; see `dirq_data::workload`).
    pub calibration_probes: u64,
}

impl RunResult {
    /// Measured DirQ cost per query over the measurement window.
    pub fn cost_per_query(&self) -> Option<f64> {
        let q = self.metrics.measured_queries();
        (q > 0).then(|| self.metrics.total_cost() / q as f64)
    }

    /// Analytic flooding cost per query on the initial deployment (Eq. 3).
    pub fn flooding_cost_per_query(&self) -> f64 {
        self.analytic.flooding
    }

    /// Measured cost relative to analytic flooding — the paper's headline
    /// "DirQ spends between 45 % and 55 % the cost of flooding".
    pub fn cost_ratio_vs_flooding(&self) -> Option<f64> {
        self.cost_per_query().map(|c| c / self.flooding_cost_per_query())
    }

    /// Mean overshoot over the measurement window (Fig. 7's average).
    pub fn mean_overshoot_pct(&self) -> f64 {
        self.metrics.overshoot.mean()
    }

    /// Order-sensitive fingerprint over every deterministic observable of
    /// the run: metrics, MAC statistics, energy ledgers and the δ traces.
    /// Equal seeds and equal code must yield equal fingerprints — the
    /// golden determinism test pins this across hot-path refactors.
    pub fn stable_fingerprint(&self) -> u64 {
        let mut h = crate::metrics::Fnv::new();
        h.u64(self.metrics.stable_fingerprint());
        h.u64(self.n_nodes as u64);
        h.u64(self.epochs);
        h.u64(self.queries_injected as u64);
        h.u64(self.mac_stats.delivered);
        h.u64(self.mac_stats.undeliverable);
        h.u64(self.mac_stats.collisions);
        h.u64(self.mac_stats.slots_surrendered);
        h.u64(self.mac_stats.slots_picked);
        h.u64(self.mac_stats.no_free_slot);
        h.u64(self.mac_stats.deaths_detected);
        h.u64(self.mac_stats.new_neighbors_detected);
        h.f64(self.mac_data_cost);
        h.f64(self.mac_control_cost);
        h.f64(self.u_max_per_hour);
        for &d in &self.final_delta_pcts {
            h.f64(d);
        }
        for &(e, d) in &self.delta_trace {
            h.u64(e);
            h.f64(d);
        }
        h.u64(self.samples_taken);
        h.u64(self.samples_skipped);
        h.u64(self.calibration_probes);
        h.finish()
    }
}

/// Wall-clock split of a run across the engine's per-epoch phases,
/// collected when
/// [`Engine::enable_phase_timing`](super::Engine::enable_phase_timing) is
/// on (a traced benchmark run, `perfbench/run.py --trace 1`, reports it as
/// per-phase `*_ms` metrics). Purely observational — timing never feeds
/// back into the simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Seconds advancing the synthetic world.
    pub world: f64,
    /// Seconds applying scripted churn events.
    pub churn: f64,
    /// Seconds in tree repair: attachment recompute, orphan adoption and
    /// the detach fallback. Always serial, and near zero while the tree is
    /// unchanged since a pass found every alive node attached (the pass is
    /// skipped; see `Engine::repair_orphans`).
    pub repair: f64,
    /// Seconds computing and flooding the hourly `EHr` budget.
    pub ehr: f64,
    /// Seconds in sensor sampling: the adaptive gate, world reads, the
    /// sensing-plane pass and the Update flow of the readings that escaped
    /// their own tuple. The only sharded upkeep pass.
    pub sampling: f64,
    /// Seconds generating, calibrating and injecting queries.
    pub injection: f64,
    /// Seconds advancing MAC slots.
    pub mac: f64,
    /// Seconds dispatching MAC indications to the protocol handlers.
    pub dispatch: f64,
    /// Seconds in end-of-epoch housekeeping: the per-node ATC step (under
    /// adaptive δ only), query finalisation and the δ trace.
    pub finalize: f64,
}

/// The heap bytes an engine holds in three of its parts, from the lengths
/// and capacities of their buffers
/// ([`Engine::footprint`](super::Engine::footprint)). The world, the
/// topology, the metrics and the pending queries are not counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineFootprint {
    /// The MAC, by part.
    pub mac: MacFootprint,
    /// The protocol nodes: their records, child-id slices, child-tuple
    /// lists, ATC and location boxes and seen-query lists (flooding's
    /// too).
    pub nodes: usize,
    /// The sensing plane: its cells, sent tuples and predictive samplers.
    pub sensing: usize,
}

impl EngineFootprint {
    /// Every part's bytes together.
    pub fn total(&self) -> usize {
        self.mac.total() + self.nodes + self.sensing
    }
}

/// A finalised query as reported to external consumers: the scored
/// outcome plus the measured dissemination cost attributed to it.
#[derive(Clone, Debug)]
pub struct CompletedQuery {
    /// The scored outcome (same record the metrics collector keeps).
    pub outcome: QueryOutcome,
    /// The epoch during which the query finalised (`outcome.epoch` is the
    /// injection epoch, so `answered_epoch - outcome.epoch` is the
    /// epochs-to-answer latency).
    pub answered_epoch: u64,
    /// Transmissions attributed to this query while it was in flight.
    pub tx: u64,
    /// Receptions attributed to this query while it was in flight.
    pub rx: u64,
}

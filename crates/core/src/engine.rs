//! The scenario engine.
//!
//! Wires every substrate together and runs the paper's experiment loop:
//! one epoch = one LMAC frame; each epoch the world advances, nodes sample
//! their sensors (DirQ), the root injects calibrated queries every
//! `query_period` epochs, the MAC carries the traffic, and the metrics
//! collector scores each query against its injection-time ground truth.
//!
//! The engine deliberately keeps two views apart:
//!
//! * **protocol state** — what nodes actually know (parents, children,
//!   range tables, MAC neighbour tables). All protocol behaviour, including
//!   tree repair after deaths, uses only this.
//! * **oracle state** — the generator's world readings and liveness flags,
//!   used solely for ground truth and measurement.

use std::sync::Arc;

use dirq_data::sensor::SensorAssignment;
use dirq_data::workload::{CalibratedQuery, GroundTruth};
use dirq_data::{QueryGenerator, QueryId, SensorCatalog, SensorWorld, WorldConfig};
use dirq_lmac::network::MacStats;
use dirq_lmac::{Destination, LmacConfig, LmacNetwork, MacIndication};
use dirq_net::churn::ChurnPlan;
use dirq_net::placement::{Placement, SinkPlacement};
use dirq_net::radio::{LogDistance, UnitDisk};
use dirq_net::{NodeId, SpanningTree, Topology};
use dirq_sim::runner;
use dirq_sim::stats::Ewma;
use dirq_sim::{RngFactory, SimRng, SnapError, SnapReader, SnapWriter};

use dirq_analytic::TopologyCosts;

use crate::atc::DeltaPolicy;
use crate::flooding::FloodingNode;
use crate::messages::{DirqMessage, EhrMessage, MessageCategory};
use crate::metrics::{Metrics, QueryOutcome};
use crate::node::{DirqNode, NodeConfig, Outgoing};
use crate::pending::{PendingQuery, PendingSet};
use crate::sampling::{Sampler, SamplingStrategy};
use crate::sensing::{self, SensingPlane, SensorCell};

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
    /// pass (carrier chunks run in place on scoped threads, with the MAC
    /// enqueues replayed in chunk order; tree repair is always serial).
    /// Resolved like `world_workers`, and like it never affects results —
    /// sharded sampling is bit-identical at any count.
    pub upkeep_workers: usize,
    /// Epochs to wait after injection before scoring a query.
    pub completion_window: u64,
    /// Warm-up epochs excluded from aggregate statistics.
    pub measure_from_epoch: u64,
    /// ATC cost target as a fraction of flooding cost (the paper's band is
    /// 45–55 %, centred at 0.5).
    pub atc_band_center: f64,
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
            atc_band_center: 0.5,
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
/// collected when [`Engine::enable_phase_timing`] is on (a traced
/// benchmark run, `perfbench/run.py --trace 1`, reports it as per-phase
/// `*_ms` metrics). Purely observational — timing never feeds back into
/// the simulation.
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

/// The simulation engine.
pub struct Engine {
    cfg: ScenarioConfig,
    topo: Topology,
    mac: LmacNetwork<DirqMessage>,
    world: SensorWorld,
    nodes: Vec<DirqNode>,
    /// The configuration every protocol node shares (births reuse it).
    node_cfg: Arc<NodeConfig>,
    /// Per-(node, type) sampling state; see [`crate::sensing`].
    plane: SensingPlane,
    flood: Vec<FloodingNode>,
    alive: Vec<bool>,
    qgen: QueryGenerator,
    churn: ChurnPlan,
    pending: PendingSet,
    metrics: Metrics,
    epoch: u64,
    mac_rng: SimRng,
    /// Root-side EWMA of measured per-query dissemination cost (drives the
    /// ATC budget).
    cqd_estimate: Ewma,
    /// Root-side integral correction on the disseminated budget: if the
    /// realized update traffic overshoots the desired level, hand out a
    /// tighter budget next hour (and vice versa).
    budget_multiplier: f64,
    /// Update transmissions counted at the previous EHr broadcast.
    updates_at_last_ehr: f64,
    /// Epoch at which each node lost its path to the root (`None` =
    /// currently attached); drives the repair fallback.
    detached_since: Vec<Option<u64>>,
    /// Bumped at every site that can change a parent pointer, a child list
    /// or liveness. Keys the repair gate (`repaired_version`) and the query
    /// parents (`attach_version`).
    tree_version: u64,
    /// `tree_version` as of the last repair pass that found every alive
    /// node attached; while it still matches, repair has nothing to do.
    repaired_version: Option<u64>,
    /// Predictive samplers per (node, sensor type); `None` under
    /// [`SamplingStrategy::EveryEpoch`].
    samplers: Option<Vec<Vec<Sampler>>>,
    /// Scratch: per-node depth in the protocol tree (`None` = detached),
    /// recomputed in place by [`Engine::compute_attachment`].
    attach_depth: Vec<Option<u32>>,
    /// Scratch: per-node parent in the protocol tree (`None` for the root
    /// and detached nodes), recomputed with `attach_depth`. Query
    /// calibration and ground truth read it (see [`Engine::query_parents`]).
    attach_parent: Vec<Option<NodeId>>,
    /// `tree_version` as of the last [`Engine::compute_attachment`]; while
    /// it still matches, the attachment scratch is current.
    attach_version: Option<u64>,
    /// Scratch: BFS worklist for [`Engine::compute_attachment`].
    attach_queue: Vec<NodeId>,
    /// Reusable MAC indication buffer for [`Engine::run_mac_frame`].
    ind_buf: Vec<MacIndication<DirqMessage>>,
    /// Reusable buffer every protocol handler appends to (see
    /// [`Engine::handle`]); empty between handler calls.
    outgoing: Vec<Outgoing>,
    /// Scratch: queries due for finalisation this epoch.
    finalize_buf: Vec<PendingQuery>,
    /// Scratch: true-source membership bits for [`Engine::finalize_query`]
    /// (set and cleared per query).
    source_mark: Vec<bool>,
    /// Per-chunk effect buffers for sensor sampling, the only sharded
    /// upkeep pass: one per upkeep worker, and one alone runs the serial
    /// pass. The `upkeep_workers` knob resolves to this count against the
    /// host parallelism and a node-count floor.
    upkeep_shards: Vec<UpkeepShard>,
    /// Scratch: `[start, end)` chunk bounds per upkeep worker.
    upkeep_chunks: Vec<(u32, u32)>,
    /// Test hook: shard sampling regardless of size thresholds.
    force_upkeep: bool,
    /// Test hook: at every [`Engine::query_parents`], the parents handed to
    /// calibration or ground truth, paired with the protocol tree at that
    /// moment.
    #[cfg(test)]
    query_parents_log: Vec<(Vec<Option<NodeId>>, SpanningTree)>,
    /// Scratch: churn events due this epoch (reused across epochs).
    churn_buf: Vec<dirq_net::churn::ChurnEvent>,
    /// Scratch: per-orphan `(gateway_dist, neighbour)` candidates for the
    /// repair pass (reused across orphans and epochs).
    repair_candidates: Vec<(u16, NodeId)>,
    /// Carrier index over the sensor assignment (see [`SampleIndex`]).
    sample_index: SampleIndex,
    /// Per-phase wall-clock accumulators (`None` = timing off).
    timing: Option<Box<PhaseTimings>>,
    u_max_per_hour: f64,
    analytic0: TopologyCosts,
    delta_trace: Vec<(u64, f64)>,
    queries_injected: usize,
    /// Queries finalised since the last [`Engine::drain_completed`], in
    /// finalisation order; `None` until [`Engine::enable_completed_log`].
    /// Transient — never snapshotted.
    completed: Option<Vec<CompletedQuery>>,
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

impl Engine {
    /// Build a fully initialised engine (topology deployed, tree built,
    /// MAC converged, world at epoch 0).
    pub fn new(cfg: ScenarioConfig) -> Self {
        let factory = RngFactory::new(cfg.seed);

        // --- topology + initial tree ---------------------------------------
        let (topo, mut tree_opt) = match cfg.tree {
            TreeKind::CompleteKary { k, d } => {
                assert_eq!(
                    cfg.extra_sinks, 0,
                    "CompleteKary trees ignore placement; extra sinks are unsupported"
                );
                let (topo, tree) = SpanningTree::complete_kary(k, d);
                (topo, Some(tree))
            }
            _ => {
                let mut rng = factory.stream("deploy");
                let placement =
                    cfg.placement.clone().unwrap_or(Placement::UniformRandom { side: cfg.side });
                // Single- and multi-sink deployments share the retry loop;
                // multi-sink pins nodes 1..=extra_sinks on spread sites and
                // wires them to the root (see `ScenarioConfig::extra_sinks`).
                fn deploy<R: dirq_net::radio::RadioModel>(
                    cfg: &ScenarioConfig,
                    placement: &Placement,
                    radio: &R,
                    rng: &mut SimRng,
                ) -> Option<Topology> {
                    if cfg.extra_sinks == 0 {
                        Topology::deploy_connected(
                            cfg.n_nodes,
                            placement,
                            cfg.sink,
                            radio,
                            rng,
                            500,
                        )
                    } else {
                        Topology::deploy_connected_multi_sink(
                            cfg.n_nodes,
                            placement,
                            cfg.sink,
                            radio,
                            rng,
                            500,
                            cfg.extra_sinks,
                        )
                    }
                }
                let topo = match cfg.radio {
                    RadioSpec::UnitDisk => {
                        deploy(&cfg, &placement, &UnitDisk::new(cfg.radio_range), &mut rng)
                    }
                    RadioSpec::LogDistance { exponent, shadowing_sigma_db, link_budget_db } => {
                        // A fixed budget over the 1 m reference: the mean
                        // range is 10^(budget/(10 γ)) m, shrinking as the
                        // environment's exponent grows.
                        let model = LogDistance {
                            tx_power_dbm: 0.0,
                            ref_loss_db: 0.0,
                            ref_distance: 1.0,
                            exponent,
                            sensitivity_dbm: -link_budget_db,
                            shadowing_sigma_db,
                            shadow_seed: cfg.seed,
                        };
                        deploy(&cfg, &placement, &model, &mut rng)
                    }
                }
                .expect("no connected deployment found; raise density or radio range");
                (topo, None)
            }
        };
        let n = topo.len();

        // --- churn ----------------------------------------------------------
        let churn = match &cfg.churn {
            ChurnSpec::None => ChurnPlan::none(),
            ChurnSpec::RandomDeaths { deaths, from_epoch, until_epoch } => {
                // Victim sets that sever the sink from the network are
                // rejected: a partitioned sink reaches no source under any
                // scheme, so there is nothing left to measure.
                ChurnPlan::random_deaths_connected(
                    n,
                    *deaths,
                    *from_epoch,
                    *until_epoch,
                    &mut factory.stream("churn"),
                    |victims| {
                        let mut dead = vec![false; n];
                        for &v in victims {
                            dead[v.index()] = true;
                        }
                        let reach = topo.reachable_from(NodeId::ROOT, |v| !dead[v.index()]);
                        topo.nodes().all(|v| dead[v.index()] || reach[v.index()])
                    },
                )
            }
            ChurnSpec::Explicit(plan) => plan.clone(),
        };
        let mut alive = vec![true; n];
        for node in churn.initially_offline() {
            alive[node.index()] = false;
        }

        // --- spanning tree over the initially alive nodes --------------------
        let tree = match (&mut tree_opt, cfg.tree) {
            (Some(t), _) => std::mem::replace(t, SpanningTree::new(1, NodeId::ROOT)),
            (None, TreeKind::Bfs) => {
                SpanningTree::bfs_filtered(&topo, NodeId::ROOT, |v| alive[v.index()])
            }
            (None, TreeKind::BoundedRandom { k, d }) => {
                let mut rng = factory.stream("tree");
                let mut built = None;
                for _ in 0..100 {
                    if let Some(t) =
                        SpanningTree::bounded_random(&topo, NodeId::ROOT, k, d, &mut rng)
                    {
                        built = Some(t);
                        break;
                    }
                }
                let mut t = built.unwrap_or_else(|| {
                    panic!("bounded_random(k={k}, d={d}) failed 100 times on this topology")
                });
                // Detach initially-offline nodes (and their subtrees — the
                // orphans re-attach through the repair path once alive
                // neighbours exist; for simplicity offline nodes are only
                // supported as leaves here).
                for node in churn.initially_offline() {
                    if t.is_attached(node) {
                        t.detach_subtree(node);
                    }
                }
                t
            }
            (None, TreeKind::CompleteKary { .. }) => unreachable!(),
        };

        // --- MAC --------------------------------------------------------------
        let mut mac = LmacNetwork::new(cfg.lmac, topo.clone());
        for (i, &node_alive) in alive.iter().enumerate() {
            if !node_alive {
                mac.set_alive(NodeId::from_index(i), false);
            }
        }
        mac.assign_slots_greedy();

        // --- world + workload --------------------------------------------------
        let world_cfg = cfg.world.clone().unwrap_or_else(|| WorldConfig::environmental(cfg.side));
        let catalog = SensorCatalog::environmental();
        assert_eq!(
            world_cfg.types.len(),
            catalog.len(),
            "custom WorldConfig must cover the 4 environmental types"
        );
        let assignment = SensorAssignment::heterogeneous(
            n,
            catalog.len(),
            cfg.sensor_coverage,
            &mut factory.stream("assignment"),
        );
        let mut world = SensorWorld::new(&world_cfg, catalog, assignment, &topo, &factory);
        world.set_workers(cfg.world_workers.max(1));
        assert!(
            cfg.spatial_query_fraction == 0.0 || cfg.location_enabled,
            "spatial queries require location_enabled"
        );
        let qgen =
            QueryGenerator::new(cfg.target_fraction, cfg.query_period, factory.stream("workload"))
                .with_spatial_fraction(cfg.spatial_query_fraction);

        // --- protocol nodes ------------------------------------------------------
        let node_cfg = Arc::new(NodeConfig {
            delta_policy: cfg.delta_policy,
            reference_spans: world_cfg.reference_spans(),
            variability_alpha: 0.2,
            tx_threshold_factor: cfg.tx_threshold_factor,
        });
        let mut nodes: Vec<DirqNode> =
            (0..n).map(|i| DirqNode::new(NodeId::from_index(i), Arc::clone(&node_cfg))).collect();
        // Quiet tree initialisation: both endpoints already agree, so the
        // Attach handshakes are skipped.
        let mut quiet = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let id = NodeId::from_index(i);
            if let Some(p) = tree.parent(id) {
                node.set_parent(Some(p), &mut quiet);
                quiet.clear();
            }
            for &c in tree.children(id) {
                node.add_child(c);
            }
        }

        let analytic0 = TopologyCosts::compute(&topo, &tree);
        let queries_per_hour = cfg.hour_epochs as f64 / cfg.query_period as f64;
        let u_max_per_hour = analytic0
            .f_max()
            .map(|f| f * (analytic0.n.saturating_sub(1)) as f64 * queries_per_hour)
            .unwrap_or(0.0);

        // Sharded sampling engages only when the knob asks for several
        // workers, the deployment is big enough to feed them and the host
        // actually has the cores — a 1-core box resolves to the serial
        // loop. The host is queried only when the first two hold.
        let upkeep_workers = if cfg.upkeep_workers > 1 && n >= UPKEEP_MIN_NODES {
            cfg.upkeep_workers.min(runner::host_threads())
        } else {
            1
        };
        let upkeep_shards = (0..upkeep_workers).map(|_| UpkeepShard::default()).collect();

        Engine {
            metrics: Metrics::new(cfg.measure_from_epoch),
            mac_rng: factory.stream("mac"),
            flood: (0..n).map(|_| FloodingNode::new()).collect(),
            cqd_estimate: Ewma::new(0.2),
            budget_multiplier: 1.0,
            updates_at_last_ehr: 0.0,
            detached_since: vec![None; n],
            tree_version: 0,
            repaired_version: None,
            plane: SensingPlane::new(n, world.catalog().len()),
            node_cfg,
            samplers: match cfg.sampling {
                SamplingStrategy::EveryEpoch => None,
                SamplingStrategy::Predictive(pc) => Some(
                    (0..n)
                        .map(|_| (0..world.catalog().len()).map(|_| Sampler::new(pc)).collect())
                        .collect(),
                ),
            },
            attach_depth: vec![None; n],
            attach_parent: vec![None; n],
            attach_version: None,
            attach_queue: Vec::with_capacity(n),
            ind_buf: Vec::with_capacity(64),
            outgoing: Vec::new(),
            finalize_buf: Vec::new(),
            source_mark: vec![false; n],
            upkeep_shards,
            upkeep_chunks: Vec::new(),
            force_upkeep: false,
            #[cfg(test)]
            query_parents_log: Vec::new(),
            churn_buf: Vec::new(),
            repair_candidates: Vec::new(),
            sample_index: SampleIndex::default(),
            timing: None,
            delta_trace: Vec::new(),
            pending: PendingSet::new(cfg.completion_window),
            queries_injected: 0,
            completed: None,
            epoch: 0,
            u_max_per_hour,
            analytic0,
            cfg,
            topo,
            mac,
            world,
            nodes,
            alive,
            qgen,
            churn,
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The deployment graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Protocol state of one node.
    pub fn node(&self, id: NodeId) -> &DirqNode {
        &self.nodes[id.index()]
    }

    /// Liveness oracle.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id.index()]
    }

    /// Collected metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The synthetic world (oracle state).
    pub fn world(&self) -> &SensorWorld {
        &self.world
    }

    /// Collect per-phase wall-clock timings from now on (see
    /// [`Engine::phase_timings`]). Observational only.
    pub fn enable_phase_timing(&mut self) {
        self.timing.get_or_insert_with(Default::default);
    }

    /// Accumulated per-phase timings, when enabled.
    pub fn phase_timings(&self) -> Option<PhaseTimings> {
        self.timing.as_deref().copied()
    }

    /// Test hook: shard sensor sampling, the only sharded upkeep pass,
    /// over `workers` shards and threads every epoch, bypassing the size
    /// thresholds and the host's core count (the upkeep differential suite
    /// pins this path bit-equal to the serial reference).
    #[doc(hidden)]
    pub fn force_sharded_upkeep(&mut self, workers: usize) {
        assert!(workers > 1, "forcing sharded upkeep requires at least two shards");
        self.upkeep_shards = (0..workers).map(|_| UpkeepShard::default()).collect();
        self.force_upkeep = true;
    }

    /// Test observability: per-node upkeep state — `(parent + 1, children
    /// fingerprint, detached_since + 1, samples taken, samples skipped)`
    /// tuples — so the upkeep differential suite can compare the repair
    /// and sampling outcomes epoch by epoch.
    #[doc(hidden)]
    pub fn upkeep_snapshot(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        (0..self.nodes.len())
            .map(|i| {
                let mut h = crate::metrics::Fnv::new();
                for &c in self.nodes[i].children() {
                    h.u64(c.index() as u64);
                }
                let (taken, skipped) = match &self.samplers {
                    Some(rows) => rows[i]
                        .iter()
                        .fold((0, 0), |(t, k), s| (t + s.samples_taken(), k + s.samples_skipped())),
                    None => (0, 0),
                };
                (
                    self.nodes[i].parent().map_or(0, |p| p.index() as u64 + 1),
                    h.finish(),
                    self.detached_since[i].map_or(0, |e| e + 1),
                    taken,
                    skipped,
                )
            })
            .collect()
    }

    /// Test observability: the in-flight query set in finalisation order as
    /// `(id, inject epoch, tx, rx, receivers marked)` tuples.
    #[doc(hidden)]
    pub fn pending_snapshot(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        self.pending
            .iter_in_order()
            .map(|p| {
                let marked = p.received.iter().filter(|&&r| r).count() as u64;
                (p.query.id.0, p.epoch, p.tx, p.rx, marked)
            })
            .collect()
    }

    /// Post-deployment extensibility (paper Section 4.1/Fig. 4): equip
    /// `node` with an additional sensor at runtime. From the next epoch the
    /// node samples the new type; the resulting Updates create the missing
    /// Range Tables up the tree without any global reconfiguration.
    pub fn add_sensor(&mut self, node: NodeId, stype: dirq_data::SensorType) {
        self.world.assignment_mut().add(node.index(), stype);
    }

    /// Remove a sensor from a node at runtime; the node retracts or shrinks
    /// its advertisement accordingly.
    pub fn remove_sensor(&mut self, node: NodeId, stype: dirq_data::SensorType) {
        self.world.assignment_mut().remove(node.index(), stype);
        self.handle(node, |n, out| n.drop_own_sensor(stype, out));
        if let Some(cell) = self.plane.row_mut(node.index()).get_mut(stype.index()) {
            cell.set_window(None);
        }
    }

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

    /// The scenario configuration this engine runs.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// Collect finalised queries for external consumers from now on.
    /// The log holds what was finalised since the last
    /// [`Engine::drain_completed`] and nothing else bounds it, so a
    /// consumer drains it after every step, as `dirqd` does. Purely
    /// observational — the log never feeds back into the simulation.
    pub fn enable_completed_log(&mut self) {
        self.completed.get_or_insert_with(Vec::new);
    }

    /// Hand out every query finalised since the last drain, in
    /// finalisation order, internal workload queries included; empty
    /// unless [`Engine::enable_completed_log`] was called. Like
    /// `Vec::drain`, dropping the iterator early discards the rest, and
    /// the log keeps its capacity, so draining after every step
    /// allocates nothing in the steady state.
    pub fn drain_completed(&mut self) -> impl Iterator<Item = CompletedQuery> + '_ {
        self.completed.as_mut().map(|log| log.drain(..)).into_iter().flatten()
    }

    /// Inject an externally supplied range query (the daemon's client
    /// path). The id comes from the generator's id space so scheduled and
    /// external queries never collide; ground truth is evaluated against
    /// the current world exactly as for generated queries, and the query
    /// disseminates during the next [`Engine::step_epoch`]. Returns the
    /// assigned id; the outcome surfaces through
    /// [`Engine::drain_completed`] once the completion window elapses.
    ///
    /// # Panics
    /// Panics when `region` is given but the scenario has
    /// `location_enabled = false` (nodes hold no positions to scope by),
    /// and when `stype` is not in the world's sensor catalog (it indexes
    /// the per-type readings).
    pub fn submit_external_query(
        &mut self,
        stype: dirq_data::SensorType,
        lo: f64,
        hi: f64,
        region: Option<dirq_net::Rect>,
    ) -> QueryId {
        assert!(
            region.is_none() || self.cfg.location_enabled,
            "spatial queries require location_enabled"
        );
        let mut query = dirq_data::RangeQuery::value(QueryId(self.qgen.alloc_id()), stype, lo, hi);
        if let Some(r) = region {
            query = query.with_region(r);
        }
        self.query_parents();
        let alive = &self.alive;
        let truth = dirq_data::workload::ground_truth_for_query(
            self.world.readings(stype),
            self.topo.positions(),
            &self.attach_parent,
            &query,
            |n: NodeId| alive[n.index()],
        );
        self.disseminate(query, truth);
        query.id
    }

    // --- snapshot / restore -----------------------------------------------------

    /// Serialize the engine's full dynamic state to a snapshot body.
    ///
    /// Static structure — topology, tree construction, churn plan, world
    /// fields, node configuration, worker counts — is rebuilt
    /// deterministically by [`Engine::new`] from the same
    /// [`ScenarioConfig`], so only the state that evolves per epoch is
    /// captured: the MAC (with in-flight frames), the world's stochastic
    /// processes and readings, per-node protocol state, the pending query
    /// set, metrics, RNG positions and the root-side control loop.
    /// [`Engine::restore`] overlays it onto a freshly built engine;
    /// resuming must be bit-identical to never having stopped.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.tag(b"ENGN");
        w.u64(self.epoch);
        self.mac.snap(&mut w, |w, p: &DirqMessage| p.snap(w));
        self.world.snap(&mut w);
        w.len_of(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            node.snap(&mut w, self.plane.row(i));
        }
        for f in &self.flood {
            f.snap(&mut w);
        }
        w.bools(&self.alive);
        self.qgen.snap(&mut w);
        self.pending.snap(&mut w);
        self.metrics.snap(&mut w);
        w.rng(&self.mac_rng);
        self.cqd_estimate.snap(&mut w);
        w.f64(self.budget_multiplier);
        w.f64(self.updates_at_last_ehr);
        for &d in &self.detached_since {
            w.opt_u64(d);
        }
        w.bool(self.samplers.is_some());
        if let Some(samplers) = &self.samplers {
            for row in samplers {
                w.len_of(row.len());
                for s in row {
                    s.snap(&mut w);
                }
            }
        }
        w.f64(self.u_max_per_hour);
        w.len_of(self.delta_trace.len());
        for &(e, d) in &self.delta_trace {
            w.u64(e);
            w.f64(d);
        }
        w.len_of(self.queries_injected);
        w.finish()
    }

    /// Overlay a snapshot body captured by [`Engine::snapshot`] onto this
    /// engine, which must be freshly built from the **same**
    /// [`ScenarioConfig`] (same seed, preset and scheme — the snapshot
    /// carries no static structure to check against, only counts).
    /// On success the engine continues from the captured epoch exactly as
    /// the snapshotted one would have.
    pub fn restore(&mut self, body: &[u8]) -> Result<(), SnapError> {
        let n = self.topo.len();
        self.tree_version += 1;
        let mut r = SnapReader::new(body);
        r.tag(b"ENGN")?;
        self.epoch = r.u64()?;
        self.mac.restore(&mut r, DirqMessage::unsnap)?;
        self.world.restore(&mut r)?;
        let pos = r.position();
        if r.seq_len(1)? != n {
            return Err(SnapError::Malformed { pos, what: "engine node count mismatch" });
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.restore(&mut r, self.plane.row_mut(i), n)?;
        }
        for f in &mut self.flood {
            f.restore(&mut r)?;
        }
        let pos = r.position();
        let alive = r.bools()?;
        if alive.len() != n {
            return Err(SnapError::Malformed { pos, what: "alive bitmap length mismatch" });
        }
        self.alive = alive;
        self.qgen.restore(&mut r)?;
        self.pending.restore(&mut r, n, self.qgen.next_id())?;
        let pos = r.position();
        let metrics = Metrics::unsnap(&mut r)?;
        if metrics.measure_from_epoch != self.cfg.measure_from_epoch {
            return Err(SnapError::Malformed { pos, what: "measurement window mismatch" });
        }
        self.metrics = metrics;
        self.mac_rng = r.rng()?;
        self.cqd_estimate = Ewma::unsnap(&mut r)?;
        self.budget_multiplier = r.f64()?;
        self.updates_at_last_ehr = r.f64()?;
        for d in &mut self.detached_since {
            *d = r.opt_u64()?;
        }
        let pos = r.position();
        if r.bool()? != self.samplers.is_some() {
            return Err(SnapError::Malformed {
                pos,
                what: "sampler presence disagrees with the sampling strategy",
            });
        }
        if let Some(samplers) = &mut self.samplers {
            for row in samplers {
                let pos = r.position();
                if r.seq_len(1)? != row.len() {
                    return Err(SnapError::Malformed { pos, what: "sampler row length mismatch" });
                }
                for s in row {
                    s.restore(&mut r)?;
                }
            }
        }
        self.u_max_per_hour = r.f64()?;
        let traces = r.seq_len(16)?;
        self.delta_trace =
            (0..traces).map(|_| Ok((r.u64()?, r.f64()?))).collect::<Result<_, SnapError>>()?;
        self.queries_injected = r.u64()? as usize;
        // The restored assignment may differ from the one the carrier
        // index was built against; force a rebuild on the next sample.
        self.sample_index.version = None;
        r.expect_eof()
    }

    /// Order-sensitive FNV-1a fingerprint over the full snapshot body —
    /// the daemon's cheap state-equality check (two engines with equal
    /// fingerprints are byte-for-byte the same dynamic state).
    pub fn state_fingerprint(&self) -> u64 {
        Engine::body_fingerprint(&self.snapshot())
    }

    /// [`Engine::state_fingerprint`] of the engine that wrote `body` with
    /// [`Engine::snapshot`], for a caller that already holds the body.
    pub fn body_fingerprint(body: &[u8]) -> u64 {
        let mut h = crate::metrics::Fnv::new();
        h.u64(body.len() as u64);
        let mut words = body.chunks_exact(8);
        for c in &mut words {
            h.u64(u64::from_le_bytes(c.try_into().expect("exact 8-byte chunk")));
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        h.u64(u64::from_le_bytes(last));
        h.finish()
    }

    /// Run to the configured epoch budget and return the results. A
    /// freshly built engine runs all `cfg.epochs`; a restored one runs
    /// only the remaining epochs, so snapshot-resume completes the exact
    /// run it interrupted.
    pub fn run(mut self) -> RunResult {
        while self.epoch < self.cfg.epochs {
            self.step_epoch();
        }
        // Score whatever is still in flight.
        for p in self.pending.take_all_in_order() {
            self.finalize_query(p);
        }
        let final_delta_pcts = self.nodes.iter().map(|n| n.delta_pct()).collect();
        let (samples_taken, samples_skipped) = match &self.samplers {
            None => {
                // Every alive sensing (node, type) pair samples each epoch;
                // exact bookkeeping is only kept for the predictive mode.
                (0, 0)
            }
            Some(samplers) => samplers.iter().flatten().fold((0u64, 0u64), |(t, s), sm| {
                (t + sm.samples_taken(), s + sm.samples_skipped())
            }),
        };
        RunResult {
            metrics: self.metrics,
            n_nodes: self.topo.len(),
            epochs: self.cfg.epochs,
            analytic: self.analytic0,
            u_max_per_hour: self.u_max_per_hour,
            hour_epochs: self.cfg.hour_epochs,
            queries_injected: self.queries_injected,
            mac_stats: *self.mac.stats(),
            mac_data_cost: self.mac.data_ledger().total_cost(),
            mac_control_cost: self.mac.control_ledger().total_cost(),
            final_delta_pcts,
            delta_trace: self.delta_trace,
            samples_taken,
            samples_skipped,
            calibration_probes: self.qgen.ground_truth_probes(),
        }
    }

    /// Advance exactly one epoch (public for fine-grained tests).
    pub fn step_epoch(&mut self) {
        let t0 = self.phase_start();
        if self.epoch > 0 {
            self.world.advance_epoch();
        }
        self.phase_lap(t0, |t| &mut t.world);

        let t0 = self.phase_start();
        self.apply_churn();
        self.phase_lap(t0, |t| &mut t.churn);
        if self.cfg.protocol == Protocol::Dirq {
            let t0 = self.phase_start();
            if self.epoch == 0 && self.cfg.location_enabled {
                // Localisation bootstrap: every node learns its position and
                // the bounding-box adverts converge through the first frames.
                for i in 1..self.nodes.len() {
                    let node = NodeId::from_index(i);
                    if self.alive[i] {
                        let pos = self.topo.position(node);
                        self.handle(node, |n, out| n.set_position(pos, out));
                    }
                }
            }
            self.repair_orphans();
            self.phase_lap(t0, |t| &mut t.repair);
            if self.epoch.is_multiple_of(self.cfg.hour_epochs) {
                let t0 = self.phase_start();
                self.broadcast_ehr();
                self.phase_lap(t0, |t| &mut t.ehr);
            }
            let t0 = self.phase_start();
            self.sample_sensors();
            self.phase_lap(t0, |t| &mut t.sampling);
        }
        if self.qgen.should_fire(self.epoch) {
            let t0 = self.phase_start();
            self.inject_query();
            self.phase_lap(t0, |t| &mut t.injection);
        }
        self.run_mac_frame();
        let t0 = self.phase_start();
        self.end_epoch_housekeeping();
        self.phase_lap(t0, |t| &mut t.finalize);
        self.epoch += 1;
    }

    /// Start a phase lap — `None` (no clock read at all) when timing is
    /// off, so the hot path stays untouched.
    fn phase_start(&self) -> Option<std::time::Instant> {
        self.timing.is_some().then(std::time::Instant::now)
    }

    /// Close a phase lap into the accumulator `pick` selects.
    fn phase_lap(
        &mut self,
        started: Option<std::time::Instant>,
        pick: fn(&mut PhaseTimings) -> &mut f64,
    ) {
        if let (Some(t0), Some(t)) = (started, self.timing.as_deref_mut()) {
            *pick(t) += t0.elapsed().as_secs_f64();
        }
    }

    // --- epoch phases -----------------------------------------------------------

    fn apply_churn(&mut self) {
        // Fast path: churn-free scenarios (most presets) pay one branch.
        if self.churn.is_empty() {
            return;
        }
        // The events are staged through an engine-owned scratch buffer so
        // the plan's borrow ends before the mutations below (and quiet
        // epochs allocate nothing).
        let mut events = std::mem::take(&mut self.churn_buf);
        events.clear();
        events.extend(self.churn.at_epoch(self.epoch));
        if !events.is_empty() {
            self.tree_version += 1;
        }
        for ev in events.drain(..) {
            match ev {
                dirq_net::churn::ChurnEvent::Death(node) => {
                    self.alive[node.index()] = false;
                    self.mac.set_alive(node, false);
                    self.detached_since[node.index()] = None;
                }
                dirq_net::churn::ChurnEvent::Birth(node) => {
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
        self.churn_buf = events;
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
    fn repair_orphans(&mut self) {
        if self.repaired_version == Some(self.tree_version) {
            #[cfg(debug_assertions)]
            {
                self.compute_attachment();
                debug_assert!(
                    (1..self.nodes.len()).all(|i| !self.alive[i] || self.attach_depth[i].is_some()),
                    "repair skipped with a detached node at epoch {}",
                    self.epoch
                );
            }
            return;
        }
        self.compute_attachment();

        // Track how long each alive node has been detached from the root.
        let mut all_attached = true;
        for i in 1..self.nodes.len() {
            if !self.alive[i] || self.attach_depth[i].is_some() {
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
        let mut candidates = std::mem::take(&mut self.repair_candidates);
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
        self.repair_candidates = candidates;

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
            let attach_depth = &self.attach_depth;
            let new_parent = self
                .mac
                .neighbor_table(node)
                .nodes()
                .filter(|&nb| attach_depth[nb.index()].is_some())
                .min_by_key(|&nb| (attach_depth[nb.index()].unwrap_or(u32::MAX), nb));
            let Some(new_parent) = new_parent else { continue };
            if self.nodes[i].parent() == Some(new_parent) {
                continue;
            }
            // Tell the old parent (if any, still alive) to drop us.
            if let Some(old) = self.nodes[i].parent() {
                if self.alive[old.index()]
                    && self.mac.enqueue(node, Destination::unicast(old), DirqMessage::Detach)
                {
                    self.record_tx(&DirqMessage::Detach);
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
    fn repair_gate_open(&self) -> bool {
        self.repaired_version == Some(self.tree_version)
    }

    /// Recompute the protocol tree's attachment depths and parents into the
    /// scratch buffers — the same traversal as [`Engine::protocol_tree`]
    /// (children lists + matching parent pointers) without building a tree
    /// or allocating — and record the `tree_version` they reflect. Runs for
    /// every repair pass that is not gated off, and for a query injection
    /// when the tree has changed since ([`Engine::query_parents`]).
    fn compute_attachment(&mut self) {
        self.attach_depth.fill(None);
        self.attach_parent.fill(None);
        self.attach_version = Some(self.tree_version);
        self.attach_queue.clear();
        self.attach_depth[NodeId::ROOT.index()] = Some(0);
        self.attach_queue.push(NodeId::ROOT);
        let mut head = 0;
        while head < self.attach_queue.len() {
            let u = self.attach_queue[head];
            head += 1;
            let du = self.attach_depth[u.index()].expect("queued nodes are attached");
            for &c in self.nodes[u.index()].children() {
                if self.alive[c.index()]
                    && self.attach_depth[c.index()].is_none()
                    && self.nodes[c.index()].parent() == Some(u)
                {
                    self.attach_depth[c.index()] = Some(du + 1);
                    self.attach_parent[c.index()] = Some(u);
                    self.attach_queue.push(c);
                }
            }
        }
    }

    /// Bring `attach_parent` up to date for query calibration and ground
    /// truth: recompute the attachment only when `tree_version` has moved
    /// since the last [`Engine::compute_attachment`]. Debug builds check
    /// the scratch against [`Engine::protocol_tree`] at every use.
    fn query_parents(&mut self) {
        if self.attach_version != Some(self.tree_version) {
            self.compute_attachment();
        }
        debug_assert!(
            self.attach_parent == self.protocol_tree().parents(),
            "stale attachment scratch at epoch {}",
            self.epoch
        );
        #[cfg(test)]
        self.query_parents_log.push((self.attach_parent.clone(), self.protocol_tree()));
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

    /// Root-side hourly control: compute the per-node update budget from
    /// the analytic model + measured query cost, and flood it down the
    /// tree (the paper's `EHr` message).
    fn broadcast_ehr(&mut self) {
        let tree = self.protocol_tree();
        let costs = TopologyCosts::compute(&self.topo, &tree);
        let n_sensing = costs.n.saturating_sub(1).max(1) as f64;
        let queries_per_hour = self.cfg.hour_epochs as f64 / self.cfg.query_period as f64;
        self.u_max_per_hour =
            costs.f_max().map(|f| f * n_sensing * queries_per_hour).unwrap_or(self.u_max_per_hour);

        // Target: total cost per query = band_center × CF.
        // Prior for CQD before any measurement: half the worst case.
        let cqd = self.cqd_estimate.value_or(costs.cqd_max * 0.5);
        let control_overhead_per_query = 2.0; // EHr amortised: ~2N msgs/hour ÷ (hour/period) queries
        let budget_cost =
            (self.cfg.atc_band_center * costs.flooding - cqd - control_overhead_per_query).max(0.0);
        // Each update message costs 2 (tx + rx).
        let updates_per_query = budget_cost / 2.0;

        // Outer loop: compare the realized update traffic since the last
        // EHr against the desired level and correct the handed-out budget.
        // (The gateway sees the converged update stream; the simulator uses
        // the exact network-wide count.)
        let total_updates = self.metrics.updates_per_bucket.total();
        let realized_last_hour = total_updates - self.updates_at_last_ehr;
        self.updates_at_last_ehr = total_updates;
        if self.epoch > 0 && updates_per_query > 0.0 {
            let realized_per_query = realized_last_hour / queries_per_hour.max(1.0);
            let err = (realized_per_query / updates_per_query).max(0.05);
            self.budget_multiplier = (self.budget_multiplier * err.powf(-0.7)).clamp(0.05, 10.0);
        }
        let per_node_budget_per_epoch =
            self.budget_multiplier * updates_per_query / (self.cfg.query_period as f64 * n_sensing);

        let msg = EhrMessage { queries_per_hour, per_node_budget_per_epoch };
        self.handle(NodeId::ROOT, |n, out| n.on_ehr(msg, out));
    }

    fn sample_sensors(&mut self) {
        // The carrier masks cover the first 64 type ids, which is enough:
        // `Engine::new` pins the catalog to the 4 environmental types.
        self.refresh_sample_index();
        if self.upkeep_shards.len() > 1
            && (self.force_upkeep || self.sample_index.carriers.len() >= UPKEEP_MIN_ITEMS)
        {
            self.sample_sensors_sharded();
        } else {
            self.sample_sensors_serial();
        }
    }

    /// Rebuild the carrier index when the sensor assignment has changed
    /// (runtime `add_sensor`/`remove_sensor`; one version probe otherwise).
    /// Only types the world has readings for — the plane's width — count.
    fn refresh_sample_index(&mut self) {
        let version = self.world.assignment().version();
        if self.sample_index.version == Some(version) {
            return;
        }
        let n = self.nodes.len();
        let sampled = u64::MAX >> (64 - self.plane.width().clamp(1, 64));
        self.sample_index.masks.clear();
        self.sample_index.masks.resize(n, 0);
        self.sample_index.carriers.clear();
        for i in 1..n {
            let mask = self.world.assignment().carried_mask(i) & sampled;
            self.sample_index.masks[i] = mask;
            if mask != 0 {
                self.sample_index.carriers.push(i as u32);
            }
        }
        self.sample_index.version = Some(version);
    }

    /// The serial sampling pass: every carrier in index order, each one's
    /// MAC enqueues replayed right after it. Visits exactly the
    /// `(node, type)` pairs a full `1..n` × catalog scan would, in the
    /// same order.
    fn sample_sensors_serial(&mut self) {
        let rows = reading_rows(&self.world);
        let inputs = SampleInputs {
            alive: &self.alive,
            masks: &self.sample_index.masks,
            rows: &rows,
            spans: &self.node_cfg.reference_spans,
            alpha: self.node_cfg.variability_alpha,
        };
        let shard = &mut self.upkeep_shards[0];
        for &ci in &self.sample_index.carriers {
            let i = ci as usize;
            let samplers = self.samplers.as_mut().map(|rows| rows[i].as_mut_slice());
            inputs.sample_carrier(i, &mut self.nodes[i], self.plane.row_mut(i), samplers, shard);
            for e in shard.effects.drain(..) {
                e.apply(&mut self.mac, &mut self.metrics, &mut self.pending, self.epoch);
            }
        }
    }

    /// Sharded sampling: carrier chunks run the same per-carrier path as
    /// the serial pass, in place — chunk k owns the nodes, plane rows and
    /// samplers up to the next chunk's first carrier — each deferring its
    /// MAC enqueues into its own shard, replayed in chunk order: the serial
    /// order. Sampling reads no MAC, metrics or pending state, so deferring
    /// changes nothing.
    fn sample_sensors_sharded(&mut self) {
        let carriers = &self.sample_index.carriers;
        let threads = self.upkeep_shards.len();
        fill_chunks(&mut self.upkeep_chunks, carriers.len(), threads);
        let rows = reading_rows(&self.world);
        let inputs = SampleInputs {
            alive: &self.alive,
            masks: &self.sample_index.masks,
            rows: &rows,
            spans: &self.node_cfg.reference_spans,
            alpha: self.node_cfg.variability_alpha,
        };
        let n = self.nodes.len();
        let width = self.plane.width();
        let mut nodes = &mut self.nodes[..];
        let mut cells = self.plane.cells_mut();
        let mut samplers = self.samplers.as_deref_mut();
        let mut chunks = Vec::with_capacity(self.upkeep_chunks.len());
        let mut first = 0;
        for (k, (&(start, end), shard)) in
            self.upkeep_chunks.iter().zip(&mut self.upkeep_shards).enumerate()
        {
            let next = self
                .upkeep_chunks
                .get(k + 1)
                .map_or(n, |&(next_start, _)| carriers[next_start as usize] as usize);
            let len = next - first;
            chunks.push(SampleChunk {
                first,
                width,
                carriers: &carriers[start as usize..end as usize],
                nodes: split_front(&mut nodes, len),
                cells: split_front(&mut cells, len * width),
                samplers: samplers.as_mut().map(|rows| split_front(rows, len)),
                shard,
            });
            first = next;
        }
        runner::for_each_mut(&mut chunks, threads, |chunk| chunk.sample(&inputs));
        for shard in &mut self.upkeep_shards[..self.upkeep_chunks.len()] {
            for e in shard.effects.drain(..) {
                e.apply(&mut self.mac, &mut self.metrics, &mut self.pending, self.epoch);
            }
        }
    }

    fn inject_query(&mut self) {
        self.query_parents();
        let alive = &self.alive;
        let positions: &[dirq_net::Position] =
            if self.cfg.location_enabled { self.topo.positions() } else { &[] };
        let Some(CalibratedQuery { query, truth }) =
            self.qgen.generate(&self.world, positions, &self.attach_parent, |n: NodeId| {
                alive[n.index()]
            })
        else {
            return;
        };
        self.disseminate(query, truth);
    }

    /// Count `query`, track it for scoring against `truth`, and hand it
    /// to the root: DirQ's `on_query`, or a flooding broadcast.
    fn disseminate(&mut self, query: dirq_data::RangeQuery, truth: GroundTruth) {
        self.queries_injected += 1;
        self.pending.insert(PendingQuery {
            query,
            epoch: self.epoch,
            truth,
            received: vec![false; self.topo.len()],
            tx: 0,
            rx: 0,
        });
        match self.cfg.protocol {
            Protocol::Dirq => self.handle(NodeId::ROOT, |n, out| n.on_query(&query, out)),
            Protocol::Flooding => {
                self.flood[0].should_rebroadcast(query.id);
                if self.mac.enqueue(
                    NodeId::ROOT,
                    Destination::Broadcast,
                    DirqMessage::FloodQuery(query),
                ) {
                    self.record_tx_parts(MessageCategory::Query, Some(query.id));
                }
            }
        }
    }

    fn run_mac_frame(&mut self) {
        let slots = self.cfg.lmac.slots_per_frame;
        // The buffer is moved out for the frame so dispatching (which may
        // re-enter the MAC, e.g. flooding rebroadcasts) can borrow `self`.
        let mut buf = std::mem::take(&mut self.ind_buf);
        for _ in 0..slots {
            buf.clear();
            let t0 = self.phase_start();
            self.mac.advance_slot_into(&mut self.mac_rng, &mut buf);
            self.phase_lap(t0, |t| &mut t.mac);
            let t0 = self.phase_start();
            for ind in buf.drain(..) {
                self.dispatch_indication(ind);
            }
            self.phase_lap(t0, |t| &mut t.dispatch);
        }
        self.ind_buf = buf;
    }

    fn end_epoch_housekeeping(&mut self) {
        // Only ATC has per-node epoch-end work; under fixed δ the node
        // pass would compute σ̂ and discard it.
        if self.cfg.protocol == Protocol::Dirq
            && matches!(self.cfg.delta_policy, DeltaPolicy::Adaptive(_))
        {
            for i in 1..self.nodes.len() {
                if self.alive[i] {
                    self.nodes[i].end_epoch(self.plane.sigma_hat_pct(i));
                }
            }
        }
        // Finalise queries whose completion window elapsed (one sweep of
        // the short in-flight vec per epoch; see `crate::pending`).
        let mut due = std::mem::take(&mut self.finalize_buf);
        due.clear();
        self.pending.expire_due(self.epoch, &mut due);
        for p in due.drain(..) {
            self.finalize_query(p);
        }
        self.finalize_buf = due;
        // δ trace every 100 epochs.
        if self.epoch.is_multiple_of(100) {
            let (sum, count) = self
                .nodes
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(i, _)| self.alive[*i])
                .fold((0.0, 0u32), |(s, c), (_, n)| (s + n.delta_pct(), c + 1));
            if count > 0 {
                self.delta_trace.push((self.epoch, sum / f64::from(count)));
            }
        }
    }

    // --- message plumbing -----------------------------------------------------

    fn record_tx(&mut self, msg: &DirqMessage) {
        self.record_tx_parts(msg.category(), query_id_of(msg));
    }

    /// Like [`Engine::record_tx`] with the message parts pre-extracted, so
    /// callers can hand the message itself to the MAC without cloning it.
    fn record_tx_parts(&mut self, category: MessageCategory, query: Option<QueryId>) {
        self.metrics.on_tx(category, self.epoch);
        if let Some(id) = query {
            if let Some(p) = self.pending.get_mut(id) {
                p.tx += 1;
            }
        }
    }

    fn record_rx(&mut self, msg: &DirqMessage) {
        self.metrics.on_rx(msg.category(), self.epoch);
        if let Some(id) = query_id_of(msg) {
            if let Some(p) = self.pending.get_mut(id) {
                p.rx += 1;
            }
        }
    }

    /// Run one protocol handler on node `at` over the engine's reused
    /// outgoing buffer, then dispatch what it appended.
    fn handle(&mut self, at: NodeId, handler: impl FnOnce(&mut DirqNode, &mut Vec<Outgoing>)) {
        let mut outs = std::mem::take(&mut self.outgoing);
        handler(&mut self.nodes[at.index()], &mut outs);
        self.dispatch_outgoing(at, &mut outs);
        self.outgoing = outs;
    }

    /// Drain `outs`, node `from`'s handler output, into the MAC.
    fn dispatch_outgoing(&mut self, from: NodeId, outs: &mut Vec<Outgoing>) {
        for out in outs.drain(..) {
            match out {
                Outgoing::ToParent(msg) => {
                    let Some(parent) = self.nodes[from.index()].parent() else {
                        continue;
                    };
                    let (category, query) = (msg.category(), query_id_of(&msg));
                    if self.mac.enqueue(from, Destination::unicast(parent), msg) {
                        self.record_tx_parts(category, query);
                    }
                }
                Outgoing::ToChildren(dests, msg) => {
                    if dests.is_empty() {
                        continue;
                    }
                    let (category, query) = (msg.category(), query_id_of(&msg));
                    if self.mac.enqueue(from, Destination::Multicast(dests), msg) {
                        self.record_tx_parts(category, query);
                    }
                }
                Outgoing::DeliverLocal(_query) => {
                    // The node believes it is a source. Reception has
                    // already been recorded; true-source accounting happens
                    // at finalisation against ground truth.
                }
            }
        }
    }

    fn dispatch_indication(&mut self, ind: MacIndication<DirqMessage>) {
        match ind {
            MacIndication::Delivered { to, from, payload } => {
                self.record_rx(&payload);
                match &*payload {
                    DirqMessage::Update { stype, min, max } => {
                        let children = self.nodes[to.index()].children().len();
                        self.handle(to, |n, out| n.on_update(from, *stype, *min, *max, out));
                        if self.nodes[to.index()].children().len() != children {
                            self.tree_version += 1;
                        }
                    }
                    DirqMessage::Retract { stype } => {
                        self.handle(to, |n, out| n.on_retract(from, *stype, out));
                    }
                    DirqMessage::Attach => {
                        self.tree_version += 1;
                        if self.nodes[to.index()].parent() != Some(from) {
                            self.nodes[to.index()].on_attach(from);
                        }
                    }
                    DirqMessage::Detach => {
                        self.tree_version += 1;
                        self.handle(to, |n, out| n.on_child_lost(from, out));
                    }
                    DirqMessage::GeoAdvert(rect) => {
                        self.tree_version += 1;
                        self.handle(to, |n, out| n.on_geo_advert(from, *rect, out));
                    }
                    DirqMessage::Ehr(msg) => {
                        self.handle(to, |n, out| n.on_ehr(*msg, out));
                    }
                    DirqMessage::Query(q) => {
                        if !to.is_root() {
                            if let Some(p) = self.pending.get_mut(q.id) {
                                p.received[to.index()] = true;
                            }
                        }
                        self.handle(to, |n, out| n.on_query(q, out));
                    }
                    DirqMessage::FloodQuery(q) => {
                        // The root hears rebroadcasts too (that reception is
                        // part of flooding's 2·links cost) but does not
                        // count as a *reached* node — it injected the query.
                        let qid = q.id;
                        if !to.is_root() {
                            if let Some(p) = self.pending.get_mut(qid) {
                                p.received[to.index()] = true;
                            }
                        }
                        // Zero-copy rebroadcast: forward the interned
                        // payload handle instead of rebuilding the message.
                        if self.flood[to.index()].should_rebroadcast(qid)
                            && self.mac.enqueue_shared(to, Destination::Broadcast, payload.clone())
                        {
                            self.record_tx_parts(MessageCategory::Query, Some(qid));
                        }
                    }
                }
            }
            MacIndication::NeighborDied { observer, dead } => {
                if self.cfg.protocol != Protocol::Dirq {
                    return;
                }
                self.tree_version += 1;
                if self.nodes[observer.index()].parent() == Some(dead) {
                    self.handle(observer, |n, out| n.set_parent(None, out));
                } else if self.nodes[observer.index()].children().contains(&dead) {
                    self.handle(observer, |n, out| n.on_child_lost(dead, out));
                }
            }
            MacIndication::NeighborNew { .. } => {
                // Attachment is initiated by the joining node via the
                // repair loop; nothing to do on the observer side.
            }
            MacIndication::Undeliverable { .. } => {
                // Lost messages heal through the liveness upcalls and the
                // re-advertisement on re-attachment.
            }
        }
    }

    fn finalize_query(&mut self, p: PendingQuery) {
        let received = p.received.iter().filter(|&&r| r).count();
        // Mark the true sources once, so per-node membership is a bit probe
        // instead of a scan of the source list (O(n) per query, not
        // O(n × sources)).
        for &s in &p.truth.sources {
            self.source_mark[s.index()] = true;
        }
        let mut received_should = 0;
        let mut sources_reached = 0;
        for (i, &r) in p.received.iter().enumerate() {
            if r && p.truth.involved[i] {
                received_should += 1;
            }
            if r && self.source_mark[i] {
                sources_reached += 1;
            }
        }
        for &s in &p.truth.sources {
            self.source_mark[s.index()] = false;
        }
        self.cqd_estimate.observe((p.tx + p.rx) as f64);
        let outcome = QueryOutcome {
            id: p.query.id,
            epoch: p.epoch,
            stype: p.query.stype,
            should_receive: p.truth.involved_count,
            true_sources: p.truth.sources.len(),
            received,
            received_should,
            received_should_not: received - received_should,
            sources_reached,
            n_nodes: self.topo.len(),
        };
        if let Some(log) = &mut self.completed {
            log.push(CompletedQuery {
                outcome: outcome.clone(),
                answered_epoch: self.epoch,
                tx: p.tx,
                rx: p.rx,
            });
        }
        self.metrics.on_query_done(outcome);
    }
}

fn query_id_of(msg: &DirqMessage) -> Option<QueryId> {
    match msg {
        DirqMessage::Query(q) | DirqMessage::FloodQuery(q) => Some(q.id),
        _ => None,
    }
}

// --- sensor sampling and the sharded upkeep ---------------------------------
//
// Sensor sampling is the one sharded upkeep pass. It is per-node-disjoint
// exactly like the world advance: each carrier's decisions read shared
// state (the world readings) but mutate only its own plane row, protocol
// node and samplers. Every pass — the serial one and each shard — runs
// [`SampleInputs::sample_carrier`] in place and defers the MAC enqueues
// as [`Effect`]s replayed in chunk order; `tests/upkeep_differential.rs`
// pins the sharded split against the serial pass. Tree repair is always
// serial (see [`Engine::repair_orphans`]).

/// Epochs a node stays detached before the repair fallback adopts an
/// attached MAC neighbour directly.
const DETACH_FALLBACK_EPOCHS: u64 = 25;

/// Deployments below this node count never have a sampling pass dense
/// enough to shard; their upkeep worker count resolves to 1.
const UPKEEP_MIN_NODES: usize = 512;

/// Below this many carrier nodes to sample the fan-out costs more than
/// the work; the serial loop runs at any upkeep worker count.
const UPKEEP_MIN_ITEMS: usize = 256;

/// A MAC enqueue deferred by a sampling pass: [`Engine::dispatch_outgoing`]'s
/// enqueue + tx record, replayed on the engine in chunk order.
struct Effect {
    from: NodeId,
    dest: Destination,
    msg: DirqMessage,
    category: MessageCategory,
    query: Option<QueryId>,
}

impl Effect {
    /// Enqueue the message and, if the MAC takes it, record the
    /// transmission as [`Engine::record_tx_parts`] does — on the engine
    /// parts it touches, so a pass can replay while it holds the rest.
    fn apply(
        self,
        mac: &mut LmacNetwork<DirqMessage>,
        metrics: &mut Metrics,
        pending: &mut PendingSet,
        epoch: u64,
    ) {
        if mac.enqueue(self.from, self.dest, self.msg) {
            metrics.on_tx(self.category, epoch);
            if let Some(p) = self.query.and_then(|id| pending.get_mut(id)) {
                p.tx += 1;
            }
        }
    }
}

/// The sampling pass's replica of [`Engine::dispatch_outgoing`]: drain
/// `outs`, resolving addressing against the sampling node's own state (no
/// other handler runs on it inside the pass), and defer each enqueue as an
/// effect.
fn queue_outgoing(
    node: &DirqNode,
    from: NodeId,
    outs: &mut Vec<Outgoing>,
    effects: &mut Vec<Effect>,
) {
    for out in outs.drain(..) {
        match out {
            Outgoing::ToParent(msg) => {
                let Some(parent) = node.parent() else {
                    continue;
                };
                let (category, query) = (msg.category(), query_id_of(&msg));
                effects.push(Effect {
                    from,
                    dest: Destination::unicast(parent),
                    msg,
                    category,
                    query,
                });
            }
            Outgoing::ToChildren(dests, msg) => {
                if dests.is_empty() {
                    continue;
                }
                let (category, query) = (msg.category(), query_id_of(&msg));
                effects.push(Effect {
                    from,
                    dest: Destination::Multicast(dests),
                    msg,
                    category,
                    query,
                });
            }
            Outgoing::DeliverLocal(_query) => {
                // Same as the serial arm: source accounting happens at
                // finalisation against ground truth.
            }
        }
    }
}

/// One sampling chunk's buffers, reused across epochs.
#[derive(Default)]
struct UpkeepShard {
    /// Shared-state mutations to replay in chunk order.
    effects: Vec<Effect>,
    /// What the escape handler appends; drained into `effects` after each
    /// reading.
    outgoing: Vec<Outgoing>,
}

/// Carrier index over the sensor assignment: the ascending list of nodes
/// carrying at least one sensor plus their carried-type masks, rebuilt
/// only when the assignment version changes. Iterating carriers node-outer
/// with mask bits ascending visits exactly the `(node, type)` pairs a
/// full `1..n` × catalog scan visits, in the same order — so the indexed
/// paths stay bit-identical to that scan while skipping non-carriers
/// entirely.
#[derive(Default)]
struct SampleIndex {
    /// Assignment version the index was built against.
    version: Option<u64>,
    /// Carried-type mask per node (bit `t.index()`; the environmental
    /// catalog `Engine::new` pins has 4 types).
    masks: Vec<u64>,
    /// Ascending node indices with a non-zero mask (the root excluded).
    carriers: Vec<u32>,
}

/// What every carrier of one sampling pass reads.
struct SampleInputs<'a> {
    alive: &'a [bool],
    /// Carried-type mask per node (see [`SampleIndex`]).
    masks: &'a [u64],
    /// Current readings per type id (`NaN` = no reading), mirroring
    /// `SensorWorld::reading`.
    rows: &'a [&'a [f64]],
    /// Reference span per type id (δ and the variability are relative to
    /// it).
    spans: &'a [f64],
    /// The variability EWMA's smoothing factor.
    alpha: f64,
}

impl SampleInputs<'_> {
    /// Sample carrier `i`'s sensors in type order: the predictive gate,
    /// the world read, the plane step — entering `node` only for a reading
    /// that escapes its own tuple — and the sampler's update from the
    /// cell's window. MAC enqueues are deferred into the shard's effects.
    fn sample_carrier(
        &self,
        i: usize,
        node: &mut DirqNode,
        row: &mut [SensorCell],
        mut samplers: Option<&mut [Sampler]>,
        shard: &mut UpkeepShard,
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
            let stype = dirq_data::SensorType(idx as u8);
            let cell = &mut row[idx];
            let outs = &mut shard.outgoing;
            sensing::sample(node, cell, stype, reading, self.spans[idx], self.alpha, outs);
            if !outs.is_empty() {
                queue_outgoing(node, NodeId::from_index(i), outs, &mut shard.effects);
            }
            if let Some(s) = samplers.as_deref_mut() {
                s[idx].on_sampled(reading, cell.window());
            }
        }
    }
}

/// One sampling chunk's share of the engine: the state of nodes
/// `first..first + nodes.len()` (`width` plane cells per node), the
/// chunk's carriers among them, and its shard's buffers.
struct SampleChunk<'a> {
    first: usize,
    width: usize,
    carriers: &'a [u32],
    nodes: &'a mut [DirqNode],
    cells: &'a mut [SensorCell],
    /// Per-node sampler rows; `None` under [`SamplingStrategy::EveryEpoch`].
    samplers: Option<&'a mut [Vec<Sampler>]>,
    shard: &'a mut UpkeepShard,
}

impl SampleChunk<'_> {
    /// Run the chunk's carriers through [`SampleInputs::sample_carrier`],
    /// deferring shared-state mutations into the chunk's effects.
    fn sample(&mut self, inputs: &SampleInputs<'_>) {
        self.shard.effects.clear();
        for &ci in self.carriers {
            let i = ci as usize;
            let j = i - self.first;
            let row = &mut self.cells[j * self.width..(j + 1) * self.width];
            let samplers = self.samplers.as_deref_mut().map(|rows| rows[j].as_mut_slice());
            inputs.sample_carrier(i, &mut self.nodes[j], row, samplers, self.shard);
        }
    }
}

/// Split the first `len` elements off `rest`, leaving the remainder there.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// `world`'s current readings per type id (`NaN` = no reading).
fn reading_rows(world: &SensorWorld) -> Vec<&[f64]> {
    world.catalog().types().map(|t| world.readings(t)).collect()
}

/// Split `items` work items into at most `nshards` contiguous non-empty
/// `[start, end)` chunks of near-equal size.
fn fill_chunks(chunks: &mut Vec<(u32, u32)>, items: usize, nshards: usize) {
    chunks.clear();
    let mut start = 0usize;
    for k in 0..nshards {
        let end = items * (k + 1) / nshards;
        if end > start {
            chunks.push((start as u32, end as u32));
            start = end;
        }
    }
}

/// Convenience: build and run a scenario in one call.
pub fn run_scenario(cfg: ScenarioConfig) -> RunResult {
    Engine::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> ScenarioConfig {
        ScenarioConfig { epochs: 500, measure_from_epoch: 100, ..ScenarioConfig::paper(seed) }
    }

    #[test]
    fn dirq_run_completes_and_injects_queries() {
        let r = run_scenario(small(1));
        assert_eq!(r.epochs, 500);
        // Queries at epochs 20, 40, …, 480 → 24 of them.
        assert_eq!(r.queries_injected, 24);
        assert_eq!(r.metrics.outcomes.len(), 24);
        assert!(r.metrics.update_cost.tx > 0, "updates must flow");
    }

    #[test]
    fn queries_reach_most_relevant_nodes() {
        let r = run_scenario(small(2));
        let mean_recall =
            r.metrics.mean_over_queries(|o| o.source_recall()).expect("measured queries exist");
        assert!(mean_recall > 0.9, "DirQ should reach >90% of true sources, got {mean_recall:.3}");
    }

    #[test]
    fn dirq_cheaper_than_flooding() {
        let dirq = run_scenario(small(3));
        let flood = run_scenario(ScenarioConfig { protocol: Protocol::Flooding, ..small(3) });
        let dc = dirq.cost_per_query().unwrap();
        let fc = flood.cost_per_query().unwrap();
        assert!(dc < fc, "DirQ per-query cost {dc:.1} should undercut flooding {fc:.1}");
    }

    #[test]
    fn flooding_cost_matches_analytic() {
        let r = run_scenario(ScenarioConfig { protocol: Protocol::Flooding, ..small(4) });
        let measured = r.cost_per_query().unwrap();
        let analytic = r.flooding_cost_per_query();
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel < 0.02,
            "flooding measured {measured:.1} vs analytic {analytic:.1} (rel {rel:.3})"
        );
    }

    #[test]
    fn flooding_reaches_everyone() {
        let r = run_scenario(ScenarioConfig { protocol: Protocol::Flooding, ..small(5) });
        let mean_received = r.metrics.mean_over_queries(|o| o.received as f64).unwrap();
        // All nodes except the root receive every flooded query.
        assert!(
            (mean_received - (r.n_nodes - 1) as f64).abs() < 0.5,
            "flooding reached {mean_received:.1} of {} nodes",
            r.n_nodes - 1
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run_scenario(small(7));
        let b = run_scenario(small(7));
        assert_eq!(a.metrics.update_cost.tx, b.metrics.update_cost.tx);
        assert_eq!(a.metrics.outcomes.len(), b.metrics.outcomes.len());
        for (x, y) in a.metrics.outcomes.iter().zip(&b.metrics.outcomes) {
            assert_eq!(x.received, y.received);
            assert_eq!(x.should_receive, y.should_receive);
        }
        assert_eq!(a.mac_data_cost, b.mac_data_cost);
    }

    #[test]
    fn larger_delta_sends_fewer_updates() {
        let lo = run_scenario(ScenarioConfig { delta_policy: DeltaPolicy::Fixed(3.0), ..small(8) });
        let hi = run_scenario(ScenarioConfig { delta_policy: DeltaPolicy::Fixed(9.0), ..small(8) });
        assert!(
            hi.metrics.update_cost.tx < lo.metrics.update_cost.tx,
            "δ=9% ({}) should send fewer updates than δ=3% ({})",
            hi.metrics.update_cost.tx,
            lo.metrics.update_cost.tx
        );
    }

    #[test]
    fn category_costs_cover_mac_ledger() {
        let r = run_scenario(small(9));
        // The MAC data ledger counts every data message over the whole run;
        // category tallies skip the warm-up, so ledger >= categories.
        let categories = r.metrics.total_cost();
        assert!(r.mac_data_cost >= categories);
        assert!(categories > 0.0);
    }

    #[test]
    fn multi_sink_shortens_routes_and_still_answers_queries() {
        let base = ScenarioConfig { tree: TreeKind::Bfs, ..small(21) };
        let multi = run_scenario(ScenarioConfig { extra_sinks: 2, ..base.clone() });
        let single = run_scenario(base);
        // Nearest-sink attachment must not hurt reachability.
        let recall = multi.metrics.mean_over_queries(|o| o.source_recall()).unwrap();
        assert!(recall > 0.9, "multi-sink recall degraded: {recall:.3}");
        // And the deployment keeps all nodes.
        assert_eq!(multi.n_nodes, single.n_nodes);
    }

    #[test]
    fn kary_tree_scenario_runs() {
        let r = run_scenario(ScenarioConfig {
            tree: TreeKind::CompleteKary { k: 2, d: 4 },
            epochs: 300,
            measure_from_epoch: 100,
            ..ScenarioConfig::paper(10)
        });
        assert_eq!(r.n_nodes, 31);
        assert_eq!(r.analytic.flooding, 91.0);
        assert!(r.queries_injected > 0);
    }

    #[test]
    fn churn_deaths_recovered_by_repair() {
        let r = run_scenario(ScenarioConfig {
            churn: ChurnSpec::RandomDeaths { deaths: 5, from_epoch: 100, until_epoch: 200 },
            epochs: 600,
            measure_from_epoch: 50,
            ..ScenarioConfig::paper(11)
        });
        assert!(r.mac_stats.deaths_detected > 0, "LMAC must notice the deaths");
        // Queries injected well after the churn window must still find
        // their sources.
        let late: Vec<f64> = r
            .metrics
            .outcomes
            .iter()
            .filter(|o| o.epoch >= 300)
            .map(|o| o.source_recall())
            .collect();
        assert!(!late.is_empty());
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(mean > 0.85, "post-churn recall {mean:.3} too low");
    }

    #[test]
    fn repair_runs_only_after_the_tree_changes() {
        use dirq_net::churn::ChurnEvent;
        let base = ScenarioConfig { tree: TreeKind::Bfs, ..small(31) };
        // A relay whose death orphans its children, and a leaf that is
        // offline until its birth; without both the deployment stays
        // connected, so every alive node can reattach.
        let probe = Engine::new(base.clone());
        let topo = probe.topology();
        let connected_without = |a: NodeId, b: NodeId| {
            let reach = topo.reachable_from(NodeId::ROOT, |u| u != a && u != b);
            topo.nodes().all(|u| u == a || u == b || reach[u.index()])
        };
        let (victim, newborn) = topo
            .nodes()
            .skip(1)
            .filter(|&v| !probe.node(v).children().is_empty())
            .flat_map(|v| topo.nodes().skip(1).map(move |l| (v, l)))
            .find(|&(v, l)| {
                l != v && probe.node(l).children().is_empty() && connected_without(v, l)
            })
            .expect("a relay and a leaf that leave the deployment connected");
        let cfg = ScenarioConfig {
            churn: ChurnSpec::Explicit(ChurnPlan::new(vec![
                (30, ChurnEvent::Death(victim)),
                (150, ChurnEvent::Birth(newborn)),
            ])),
            ..base
        };
        // Step until the gate opens, then check that open means attached.
        fn settle(e: &mut Engine) {
            let start = e.epoch();
            while !e.repair_gate_open() {
                assert!(e.epoch() < start + 80, "the repair gate never reopened");
                e.step_epoch();
            }
            let tree = e.protocol_tree();
            for i in 1..e.nodes.len() {
                assert!(!e.alive[i] || tree.is_attached(NodeId::from_index(i)));
            }
        }

        let mut e = Engine::new(cfg.clone());
        assert!(!e.repair_gate_open(), "a fresh engine has not repaired yet");
        e.step_epoch();
        assert!(e.repair_gate_open(), "the first quiet pass opens the gate");
        while e.epoch() < 30 {
            e.step_epoch();
            assert!(e.repair_gate_open(), "quiet epoch {} closed the gate", e.epoch());
        }
        e.step_epoch();
        assert!(!e.repair_gate_open(), "a death closes the gate");
        settle(&mut e);

        // A re-parenting: a node hears its (alive) parent die, orphans
        // itself and adopts a parent again through the repair pass.
        let child = (1..e.nodes.len())
            .map(NodeId::from_index)
            .find(|c| {
                e.alive[c.index()] && e.nodes[c.index()].parent().is_some_and(|p| !p.is_root())
            })
            .expect("a node below a relay");
        let parent = e.nodes[child.index()].parent().unwrap();
        e.dispatch_indication(MacIndication::NeighborDied { observer: child, dead: parent });
        assert_eq!(e.nodes[child.index()].parent(), None);
        assert!(!e.repair_gate_open(), "an orphaned node closes the gate");
        settle(&mut e);
        assert!(e.nodes[child.index()].parent().is_some(), "the orphan re-parented");

        while e.epoch() < 150 {
            e.step_epoch();
        }
        e.step_epoch();
        assert!(!e.repair_gate_open(), "a birth closes the gate");
        settle(&mut e);

        // Restore closes the gate of an engine that had it open; the first
        // pass after it reopens it.
        let body = e.snapshot();
        let mut restored = Engine::new(cfg);
        restored.step_epoch();
        assert!(restored.repair_gate_open());
        restored.restore(&body).expect("a fresh snapshot restores");
        assert!(!restored.repair_gate_open(), "restore closes the gate");
        restored.step_epoch();
        assert!(restored.repair_gate_open());
    }

    /// Across deaths and births, the parents that every query injection and
    /// every external query calibrate against equal the protocol tree's at
    /// that moment, whether the attachment scratch was reused or recomputed:
    /// under DirQ, where the repair pass also refreshes it and the MAC
    /// frame's attaches and detaches move the tree after it, and under
    /// flooding, where no repair pass runs.
    #[test]
    fn query_parents_match_the_protocol_tree_under_churn() {
        use dirq_net::churn::ChurnEvent;
        for protocol in [Protocol::Dirq, Protocol::Flooding] {
            let base = ScenarioConfig { tree: TreeKind::Bfs, protocol, ..small(33) };
            let probe = Engine::new(base.clone());
            let (relays, leaves): (Vec<NodeId>, Vec<NodeId>) = probe
                .topology()
                .nodes()
                .skip(1)
                .partition(|&v| !probe.node(v).children().is_empty());
            // Relays die at 25, 65 and 105; offline leaves are born 20
            // epochs later. Queries fire every 20 epochs, external ones
            // after every step.
            let plan = (0..3)
                .flat_map(|k| {
                    let at = 25 + 40 * k as u64;
                    [(at, ChurnEvent::Death(relays[k])), (at + 20, ChurnEvent::Birth(leaves[k]))]
                })
                .collect();
            let cfg = ScenarioConfig { churn: ChurnSpec::Explicit(ChurnPlan::new(plan)), ..base };
            let mut e = Engine::new(cfg);
            while e.epoch() < 160 {
                e.step_epoch();
                e.submit_external_query(dirq_data::SensorType(0), 15.0, 25.0, None);
            }
            let log = &e.query_parents_log;
            assert!(log.len() >= 7 + 160, "{protocol:?}: only {} parent reads", log.len());
            for (i, (used, tree)) in log.iter().enumerate() {
                assert_eq!(used, tree.parents(), "{protocol:?}: parent read {i} was stale");
            }
            assert!(log.windows(2).any(|w| w[0].0 != w[1].0), "{protocol:?}: no parent moved");
        }
    }

    /// The completed log hands out every finalised query exactly once, in
    /// the order the metrics record them, and nothing while it is off.
    #[test]
    fn drained_completions_match_the_outcome_log() {
        let cfg = ScenarioConfig {
            churn: ChurnSpec::RandomDeaths { deaths: 5, from_epoch: 30, until_epoch: 90 },
            ..small(21)
        };
        let mut logged = Engine::new(cfg.clone());
        logged.enable_completed_log();
        let mut silent = Engine::new(cfg);
        let mut drained = Vec::new();
        while logged.epoch() < 150 {
            for e in [&mut logged, &mut silent] {
                e.step_epoch();
                e.submit_external_query(dirq_data::SensorType(0), 15.0, 25.0, None);
            }
            drained.extend(logged.drain_completed().map(|c| c.outcome.id));
            assert_eq!(logged.drain_completed().count(), 0, "a second drain must be empty");
            assert_eq!(silent.drain_completed().count(), 0, "the log is off until enabled");
        }
        let outcomes: Vec<QueryId> = logged.metrics().outcomes.iter().map(|o| o.id).collect();
        assert!(outcomes.len() > 100, "only {} queries finalised", outcomes.len());
        assert_eq!(drained, outcomes);
    }

    #[test]
    fn predictive_sampling_cuts_acquisitions() {
        use crate::sampling::{PredictiveConfig, SamplingStrategy};
        let baseline = run_scenario(small(14));
        let predictive = run_scenario(ScenarioConfig {
            sampling: SamplingStrategy::Predictive(PredictiveConfig::default()),
            ..small(14)
        });
        assert!(predictive.samples_skipped > 0, "predictive mode must skip something");
        let skip_ratio = predictive.samples_skipped as f64
            / (predictive.samples_taken + predictive.samples_skipped) as f64;
        assert!(skip_ratio > 0.2, "expected a meaningful sampling saving, got {skip_ratio:.3}");
        // Accuracy cost must stay bounded: recall within a few points.
        let base_recall = baseline.metrics.mean_over_queries(|o| o.source_recall()).unwrap();
        let pred_recall = predictive.metrics.mean_over_queries(|o| o.source_recall()).unwrap();
        assert!(
            pred_recall > base_recall - 0.1,
            "predictive sampling degraded recall too much: {base_recall:.3} -> {pred_recall:.3}"
        );
    }

    #[test]
    fn atc_policy_runs_and_adapts() {
        let r = run_scenario(ScenarioConfig {
            delta_policy: DeltaPolicy::Adaptive(crate::atc::AtcConfig::default()),
            epochs: 1500,
            measure_from_epoch: 500,
            ..ScenarioConfig::paper(12)
        });
        // δ must have moved away from the initial value on most nodes.
        let moved = r.final_delta_pcts.iter().skip(1).filter(|&&d| (d - 5.0).abs() > 0.5).count();
        assert!(moved > r.n_nodes / 2, "ATC should have adjusted most nodes' δ (moved: {moved})");
        assert!(!r.delta_trace.is_empty());
    }
}

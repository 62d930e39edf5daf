//! Construction, accessors and the epoch loop.

use std::sync::Arc;

use dirq_analytic::TopologyCosts;
use dirq_data::sensor::SensorAssignment;
use dirq_data::{QueryGenerator, SensorCatalog, SensorWorld, WorldConfig};
use dirq_lmac::LmacNetwork;
use dirq_net::churn::ChurnPlan;
use dirq_net::placement::Placement;
use dirq_net::radio::{LogDistance, RadioModel, UnitDisk};
use dirq_net::{NodeId, SpanningTree, Topology};
use dirq_sim::runner;
use dirq_sim::stats::Ewma;
use dirq_sim::{RngFactory, SimRng};

use crate::flooding::FloodingNode;
use crate::metrics::Metrics;
use crate::node::{DirqNode, NodeConfig};
use crate::pending::PendingSet;
use crate::sampling::{Sampler, SamplingStrategy};

use super::dispatch::DispatchScratch;
use super::sensing::{SampleScratch, SensingPlane};
use super::tree::TreeScratch;
use super::{
    ChurnSpec, CompletedQuery, Engine, PhaseTimings, Protocol, RadioSpec, RunResult,
    ScenarioConfig, TreeKind,
};

impl Engine {
    /// Build a fully initialised engine (topology deployed, tree built,
    /// MAC converged, world at epoch 0).
    pub fn new(cfg: ScenarioConfig) -> Self {
        let factory = RngFactory::new(cfg.seed);

        // --- topology + initial tree ---------------------------------------
        let (topo, tree_opt) = match cfg.tree {
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
        let tree = match (tree_opt, cfg.tree) {
            (Some(t), _) => t,
            (None, TreeKind::Bfs) => {
                SpanningTree::bfs_filtered(&topo, NodeId::ROOT, |v| alive[v.index()])
            }
            (None, TreeKind::BoundedRandom { k, d }) => {
                let mut rng = factory.stream("tree");
                let mut t = (0..100)
                    .find_map(|_| SpanningTree::bounded_random(&topo, NodeId::ROOT, k, d, &mut rng))
                    .unwrap_or_else(|| {
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

        let upkeep_workers = runner::shard_workers(cfg.upkeep_workers, n);

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
            tree_scratch: TreeScratch::new(n),
            dispatch_scratch: DispatchScratch::new(n),
            sample_scratch: SampleScratch::new(upkeep_workers),
            #[cfg(test)]
            query_parents_log: Vec::new(),
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
        self.sample_scratch.force_sharded(workers);
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
                let (taken, skipped) = sample_counts(self.samplers.iter().flat_map(|r| &r[i]));
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
        // Exact bookkeeping is kept only in the predictive mode; otherwise
        // every alive sensing (node, type) pair samples each epoch.
        let (samples_taken, samples_skipped) =
            sample_counts(self.samplers.iter().flatten().flatten());
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
        self.timed(
            |t| &mut t.world,
            |e| {
                if e.epoch > 0 {
                    e.world.advance_epoch();
                }
            },
        );
        self.timed(|t| &mut t.churn, Engine::apply_churn);
        if self.cfg.protocol == Protocol::Dirq {
            self.timed(
                |t| &mut t.repair,
                |e| {
                    if e.epoch == 0 && e.cfg.location_enabled {
                        // Localisation bootstrap: every node learns its position
                        // and the bounding-box adverts converge through the
                        // first frames.
                        for i in 1..e.nodes.len() {
                            let node = NodeId::from_index(i);
                            if e.alive[i] {
                                let pos = e.topo.position(node);
                                e.handle(node, |n, out| n.set_position(pos, out));
                            }
                        }
                    }
                    e.repair_orphans();
                },
            );
            if self.epoch.is_multiple_of(self.cfg.hour_epochs) {
                self.timed(|t| &mut t.ehr, Engine::broadcast_ehr);
            }
            self.timed(|t| &mut t.sampling, Engine::sample_sensors);
        }
        if self.qgen.should_fire(self.epoch) {
            self.timed(|t| &mut t.injection, Engine::inject_query);
        }
        self.run_mac_frame();
        self.timed(|t| &mut t.finalize, Engine::end_epoch_housekeeping);
        self.epoch += 1;
    }

    /// Run `phase` and add its wall-clock time to the accumulator `pick`
    /// selects. With timing off no clock is read at all, so the hot path
    /// stays untouched.
    pub(super) fn timed(
        &mut self,
        pick: fn(&mut PhaseTimings) -> &mut f64,
        phase: impl FnOnce(&mut Self),
    ) {
        let t0 = self.timing.is_some().then(std::time::Instant::now);
        phase(self);
        if let (Some(t0), Some(t)) = (t0, self.timing.as_deref_mut()) {
            *pick(t) += t0.elapsed().as_secs_f64();
        }
    }
}

/// Deploy `cfg`'s nodes until the graph over `radio` is connected, within
/// 500 placements. Single- and multi-sink deployments share the retry
/// loop; multi-sink pins nodes 1..=extra_sinks on spread sites and wires
/// them to the root (see `ScenarioConfig::extra_sinks`).
fn deploy<R: RadioModel>(
    cfg: &ScenarioConfig,
    placement: &Placement,
    radio: &R,
    rng: &mut SimRng,
) -> Option<Topology> {
    let (n, sink, sinks) = (cfg.n_nodes, cfg.sink, cfg.extra_sinks);
    if sinks == 0 {
        Topology::deploy_connected(n, placement, sink, radio, rng, 500)
    } else {
        Topology::deploy_connected_multi_sink(n, placement, sink, radio, rng, 500, sinks)
    }
}

/// Samples taken and skipped over `samplers`.
fn sample_counts<'a>(samplers: impl Iterator<Item = &'a Sampler>) -> (u64, u64) {
    samplers.fold((0, 0), |(t, k), s| (t + s.samples_taken(), k + s.samples_skipped()))
}

/// Convenience: build and run a scenario in one call.
pub fn run_scenario(cfg: ScenarioConfig) -> RunResult {
    Engine::new(cfg).run()
}

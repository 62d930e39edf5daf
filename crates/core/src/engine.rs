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

use dirq_analytic::TopologyCosts;
use dirq_data::{QueryGenerator, SensorWorld};
use dirq_lmac::LmacNetwork;
use dirq_net::churn::ChurnPlan;
use dirq_net::Topology;
use dirq_sim::stats::Ewma;
use dirq_sim::SimRng;

use crate::flooding::FloodingNode;
use crate::messages::DirqMessage;
use crate::metrics::Metrics;
use crate::node::{DirqNode, NodeConfig};
use crate::pending::PendingSet;
use crate::sampling::Sampler;

mod config;
mod dispatch;
mod run;
pub(crate) mod sensing;
mod snapshot;
mod tree;

pub use config::{
    ChurnSpec, CompletedQuery, PhaseTimings, Protocol, RadioSpec, RunResult, ScenarioConfig,
    TreeKind,
};
pub use run::run_scenario;

use dispatch::DispatchScratch;
use sensing::{SampleScratch, SensingPlane};
use tree::TreeScratch;

/// The simulation engine.
pub struct Engine {
    cfg: ScenarioConfig,
    topo: Topology,
    mac: LmacNetwork<DirqMessage>,
    world: SensorWorld,
    nodes: Vec<DirqNode>,
    /// The configuration every protocol node shares (births reuse it).
    node_cfg: Arc<NodeConfig>,
    /// Per-(node, type) sampling state; see [`sensing`].
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
    /// or liveness. Keys the repair gate (`repaired_version`) and the
    /// attachment scratch (see [`TreeScratch`]).
    tree_version: u64,
    /// `tree_version` as of the last repair pass that found every alive
    /// node attached; while it still matches, repair has nothing to do.
    repaired_version: Option<u64>,
    /// Predictive samplers per (node, sensor type); `None` under
    /// `SamplingStrategy::EveryEpoch`.
    samplers: Option<Vec<Vec<Sampler>>>,
    /// The tree plane's attachment, churn and repair buffers.
    tree_scratch: TreeScratch,
    /// The dispatch plane's indication, handler-output and finalisation
    /// buffers.
    dispatch_scratch: DispatchScratch,
    /// The sampling pass's carrier index and per-chunk buffers.
    sample_scratch: SampleScratch,
    /// Test hook: at every [`Engine::query_parents`], the parents handed to
    /// calibration or ground truth, paired with the protocol tree at that
    /// moment.
    #[cfg(test)]
    query_parents_log: Vec<(Vec<Option<dirq_net::NodeId>>, dirq_net::SpanningTree)>,
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

#[cfg(test)]
mod tests {
    use dirq_data::QueryId;
    use dirq_lmac::MacIndication;
    use dirq_net::NodeId;

    use super::*;
    use crate::atc::DeltaPolicy;

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

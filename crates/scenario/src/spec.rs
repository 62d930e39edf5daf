//! Declarative scenario descriptions.
//!
//! A [`ScenarioSpec`] names one experiment setup — topology family and
//! size, churn schedule, workload mix, sensor-type profile, the schemes
//! under test and an epoch budget — in units that stay meaningful when the
//! run is scaled (churn windows are fractions of the run, not absolute
//! epochs). [`ScenarioSpec::config`] lowers a spec to the engine's
//! [`ScenarioConfig`] for one concrete `(scheme, seed)` pair.

use dirq_core::{ChurnSpec, DeltaPolicy, Protocol, RadioSpec, ScenarioConfig, TreeKind};
use dirq_lmac::LmacConfig;
use dirq_net::churn::{ChurnEvent, ChurnPlan};
use dirq_net::placement::{Placement, SinkPlacement};
use dirq_net::NodeId;

/// A dissemination scheme under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scheme {
    /// DirQ with a fixed threshold δ (percent).
    DirqFixed(f64),
    /// DirQ with Adaptive Threshold Control (default band).
    DirqAtc,
    /// The flooding baseline.
    Flooding,
}

impl Scheme {
    /// Stable label used in reports and JSON artifacts.
    pub fn label(&self) -> String {
        match self {
            // f64 Display keeps fractional deltas distinct (5.0 → "5",
            // 2.4 → "2.4") — labels are row identity in reports.
            Scheme::DirqFixed(d) => format!("dirq-delta{d}"),
            Scheme::DirqAtc => "dirq-atc".to_string(),
            Scheme::Flooding => "flooding".to_string(),
        }
    }

    /// Invert [`Scheme::label`] — the daemon wire protocol and the
    /// `BENCH_3.json` recipes both name schemes by label.
    pub fn parse(label: &str) -> Option<Scheme> {
        match label {
            "dirq-atc" => Some(Scheme::DirqAtc),
            "flooding" => Some(Scheme::Flooding),
            other => {
                let delta: f64 = other.strip_prefix("dirq-delta")?.parse().ok()?;
                (delta.is_finite() && delta > 0.0).then_some(Scheme::DirqFixed(delta))
            }
        }
    }

    fn apply(&self, cfg: &mut ScenarioConfig) {
        match *self {
            Scheme::DirqFixed(d) => {
                cfg.protocol = Protocol::Dirq;
                cfg.delta_policy = DeltaPolicy::Fixed(d);
            }
            Scheme::DirqAtc => {
                cfg.protocol = Protocol::Dirq;
                cfg.delta_policy = DeltaPolicy::Adaptive;
            }
            Scheme::Flooding => {
                cfg.protocol = Protocol::Flooding;
                cfg.delta_policy = DeltaPolicy::Fixed(5.0);
            }
        }
    }
}

/// Churn expressed in run-relative units so epoch rescaling preserves the
/// experiment's shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnProfile {
    /// Fixed topology.
    None,
    /// Kill `fraction` of the nodes at uniform epochs inside
    /// `[from · epochs, until · epochs)`, rejecting victim sets that would
    /// sever any still-alive node from the sink.
    RandomDeaths {
        /// Fraction of nodes that die over the run.
        fraction: f64,
        /// Window start as a fraction of the run.
        from: f64,
        /// Window end (exclusive) as a fraction of the run.
        until: f64,
    },
    /// Staged redeployment: the `fraction` of nodes with the **highest
    /// ids** start offline and are *born* at epochs spread evenly across
    /// `[from · epochs, until · epochs)` — the paper's "addition of new
    /// nodes" topology dynamic. Deterministic (no RNG draw), so the
    /// schedule is stable under epoch rescaling.
    LateBirths {
        /// Fraction of nodes that join after deployment.
        fraction: f64,
        /// Window start as a fraction of the run.
        from: f64,
        /// Window end (exclusive) as a fraction of the run.
        until: f64,
    },
}

/// One named experiment setup: [`ScenarioSpec::new`]'s defaults, with the
/// fields a preset changes set in a struct literal over them.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Registry name (stable identifier in reports).
    pub name: String,
    /// Deployment size including the sink.
    pub n_nodes: usize,
    /// Node layout (topology family).
    pub placement: Placement,
    /// Sink position.
    pub sink: SinkPlacement,
    /// Secondary sinks wired to the primary by a backhaul; nodes attach to
    /// their nearest sink (see [`ScenarioConfig::extra_sinks`]). 0 =
    /// single-sink.
    pub extra_sinks: usize,
    /// Radio range, metres (unit-disk model; ignored under a
    /// [`RadioSpec::LogDistance`] radio, whose range follows from its link
    /// budget).
    pub radio_range: f64,
    /// Radio connectivity model.
    pub radio: RadioSpec,
    /// Run length in epochs at scale 1.0.
    pub epochs: u64,
    /// Queries fire every this many epochs.
    pub query_period: u64,
    /// Involvement target of the calibrated workload.
    pub target_fraction: f64,
    /// Share of queries that are spatially scoped (enables the location
    /// extension when > 0).
    pub spatial_query_fraction: f64,
    /// Heterogeneous sensor profile: fraction of sensing nodes carrying
    /// each of the four environmental types.
    pub sensor_coverage: f64,
    /// Schemes to run (every scheme sees the identical world/topology).
    pub schemes: Vec<Scheme>,
    /// Churn schedule in run-relative units.
    pub churn: ChurnProfile,
    /// Spanning-tree construction.
    pub tree: TreeKind,
    /// LMAC slots per frame (must exceed the densest 2-hop neighbourhood).
    pub slots_per_frame: u16,
    /// Epochs a query waits before scoring (scale with tree depth).
    pub completion_window: u64,
    /// The seed every sweep run of this spec uses.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A spec with the registry defaults.
    pub fn new(name: &str, n_nodes: usize) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            n_nodes,
            placement: Placement::UniformRandom { side: 100.0 },
            sink: SinkPlacement::Corner,
            extra_sinks: 0,
            radio_range: 28.0,
            radio: RadioSpec::UnitDisk,
            epochs: 2_000,
            query_period: 20,
            target_fraction: 0.4,
            spatial_query_fraction: 0.0,
            sensor_coverage: 0.8,
            schemes: vec![Scheme::DirqFixed(5.0)],
            churn: ChurnProfile::None,
            tree: TreeKind::Bfs,
            slots_per_frame: 64,
            completion_window: 24,
            seed: 42,
        }
    }

    /// Warm-up epochs excluded from aggregates for this run length.
    pub fn measure_from(&self) -> u64 {
        (self.epochs / 5).min(2_000)
    }

    /// A copy with the epoch budget scaled by `factor` (floored at four
    /// query periods so every run still scores queries). Churn windows and
    /// the measurement window scale along automatically.
    pub fn scaled(&self, factor: f64) -> ScenarioSpec {
        assert!(factor > 0.0, "epoch scale must be positive");
        let mut spec = self.clone();
        spec.epochs = ((self.epochs as f64 * factor) as u64).max(4 * self.query_period);
        spec
    }

    /// Lower to an engine configuration for one `(scheme, seed)` pair.
    ///
    /// # Panics
    /// Panics on a structurally invalid spec (no schemes, bad fractions,
    /// too few nodes or epochs) — specs are authored, not parsed, so a
    /// loud failure before any engine is built is the useful behaviour.
    pub fn config(&self, scheme: Scheme, seed: u64) -> ScenarioConfig {
        let name = &self.name;
        assert!(self.n_nodes >= 2, "{name}: need at least the sink and one node");
        assert!(!self.schemes.is_empty(), "{name}: at least one scheme required");
        assert!(
            [self.target_fraction, self.sensor_coverage, self.spatial_query_fraction]
                .iter()
                .all(|f| (0.0..=1.0).contains(f)),
            "{name}: fractions must be in [0, 1]"
        );
        assert!(self.epochs >= 4 * self.query_period, "{name}: too few epochs to score queries");
        assert!(self.extra_sinks + 1 < self.n_nodes, "{name}: too many extra sinks");
        if let ChurnProfile::RandomDeaths { fraction, from, until }
        | ChurnProfile::LateBirths { fraction, from, until } = self.churn
        {
            assert!((0.0..1.0).contains(&fraction), "{name}: churn fraction out of range");
            assert!(0.0 <= from && from < until && until <= 1.0, "{name}: bad churn window");
        }
        let churn = match self.churn {
            ChurnProfile::None => ChurnSpec::None,
            ChurnProfile::RandomDeaths { fraction, from, until } => {
                let deaths = ((self.n_nodes as f64 * fraction).round() as usize)
                    .clamp(1, self.n_nodes.saturating_sub(2));
                let from_epoch = (self.epochs as f64 * from) as u64;
                let until_epoch = ((self.epochs as f64 * until) as u64).max(from_epoch + 1);
                ChurnSpec::RandomDeaths { deaths, from_epoch, until_epoch }
            }
            ChurnProfile::LateBirths { fraction, from, until } => {
                let count = ((self.n_nodes as f64 * fraction).round() as usize)
                    .clamp(1, self.n_nodes.saturating_sub(2));
                let from_epoch = ((self.epochs as f64 * from) as u64).max(1);
                let until_epoch = ((self.epochs as f64 * until) as u64).max(from_epoch + 1);
                let events = (0..count)
                    .map(|i| {
                        let node = NodeId::from_index(self.n_nodes - 1 - i);
                        let epoch =
                            from_epoch + ((until_epoch - from_epoch) * i as u64) / count as u64;
                        (epoch, ChurnEvent::Birth(node))
                    })
                    .collect();
                ChurnSpec::Explicit(ChurnPlan::new(events))
            }
        };
        let mut cfg = ScenarioConfig {
            n_nodes: self.n_nodes,
            side: self.placement.side(),
            placement: Some(self.placement.clone()),
            sink: self.sink,
            extra_sinks: self.extra_sinks,
            radio_range: self.radio_range,
            radio: self.radio,
            epochs: self.epochs,
            query_period: self.query_period,
            target_fraction: self.target_fraction,
            sensor_coverage: self.sensor_coverage,
            tree: self.tree,
            lmac: LmacConfig { slots_per_frame: self.slots_per_frame, ..LmacConfig::default() },
            churn,
            completion_window: self.completion_window,
            measure_from_epoch: self.measure_from(),
            location_enabled: self.spatial_query_fraction > 0.0,
            spatial_query_fraction: self.spatial_query_fraction,
            ..ScenarioConfig::paper(seed)
        };
        scheme.apply(&mut cfg);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ScenarioSpec {
        ScenarioSpec {
            placement: Placement::UniformRandom { side: 250.0 },
            sink: SinkPlacement::Center,
            radio_range: 40.0,
            epochs: 1_000,
            query_period: 25,
            target_fraction: 0.3,
            sensor_coverage: 0.5,
            schemes: vec![Scheme::DirqAtc, Scheme::Flooding],
            churn: ChurnProfile::RandomDeaths { fraction: 0.1, from: 0.2, until: 0.6 },
            completion_window: 40,
            seed: 7,
            ..ScenarioSpec::new("demo", 120)
        }
    }

    #[test]
    fn a_literal_over_new_sets_every_field() {
        let s = demo();
        assert_eq!(s.n_nodes, 120);
        assert_eq!(s.sink, SinkPlacement::Center);
        assert_eq!(s.schemes.len(), 2);
        assert_eq!(s.measure_from(), 200);
    }

    #[test]
    fn config_lowers_run_relative_churn() {
        let s = demo();
        let cfg = s.config(Scheme::DirqAtc, 7);
        match cfg.churn {
            ChurnSpec::RandomDeaths { deaths, from_epoch, until_epoch } => {
                assert_eq!(deaths, 12);
                assert_eq!(from_epoch, 200);
                assert_eq!(until_epoch, 600);
            }
            other => panic!("wrong churn lowering: {other:?}"),
        }
        assert_eq!(cfg.n_nodes, 120);
        assert_eq!(cfg.side, 250.0);
        assert_eq!(cfg.delta_policy, DeltaPolicy::Adaptive);
        assert_eq!(cfg.protocol, Protocol::Dirq);
        let flood = s.config(Scheme::Flooding, 7);
        assert_eq!(flood.protocol, Protocol::Flooding);
    }

    #[test]
    fn scaling_preserves_churn_shape() {
        let s = demo().scaled(0.5);
        assert_eq!(s.epochs, 500);
        let cfg = s.config(Scheme::DirqAtc, 7);
        match cfg.churn {
            ChurnSpec::RandomDeaths { from_epoch, until_epoch, .. } => {
                assert_eq!(from_epoch, 100);
                assert_eq!(until_epoch, 300);
            }
            other => panic!("wrong churn lowering: {other:?}"),
        }
        // Scaling floors at four query periods.
        assert_eq!(demo().scaled(0.001).epochs, 100);
    }

    #[test]
    fn extra_sinks_lower_into_the_engine_config() {
        let s = ScenarioSpec { extra_sinks: 3, ..ScenarioSpec::new("multi", 60) };
        let cfg = s.config(Scheme::DirqFixed(5.0), 1);
        assert_eq!(cfg.extra_sinks, 3);
        assert_eq!(demo().config(Scheme::Flooding, 7).extra_sinks, 0);
    }

    #[test]
    fn late_births_lower_to_a_deterministic_explicit_plan() {
        let s = ScenarioSpec {
            epochs: 1_000,
            churn: ChurnProfile::LateBirths { fraction: 0.1, from: 0.3, until: 0.5 },
            ..ScenarioSpec::new("births", 100)
        };
        let cfg = s.config(Scheme::DirqFixed(5.0), 1);
        let ChurnSpec::Explicit(plan) = cfg.churn else {
            panic!("births must lower to an explicit plan");
        };
        assert_eq!(plan.len(), 10);
        // Highest ids, born at evenly spread epochs inside the window.
        let nodes: Vec<NodeId> = plan.events().iter().map(|&(_, ev)| ev.node()).collect();
        for id in 90..100u32 {
            assert!(nodes.contains(&NodeId(id)), "node {id} missing from the births");
        }
        assert!(plan
            .events()
            .iter()
            .all(|&(e, ev)| { (300..500).contains(&e) && matches!(ev, ChurnEvent::Birth(_)) }));
        assert_eq!(plan.initially_offline().len(), 10);
        // Same plan on every lowering (no RNG involved).
        let again = s.config(Scheme::DirqFixed(5.0), 99);
        let ChurnSpec::Explicit(plan2) = again.churn else { unreachable!() };
        assert_eq!(plan.events(), plan2.events());
    }

    #[test]
    #[should_panic(expected = "too many extra sinks")]
    fn oversubscribed_extra_sinks_rejected() {
        let _ = ScenarioSpec { extra_sinks: 3, ..ScenarioSpec::new("bad", 4) }
            .config(Scheme::DirqFixed(5.0), 1);
    }

    #[test]
    fn spatial_workload_enables_location() {
        let s = ScenarioSpec { spatial_query_fraction: 0.5, ..ScenarioSpec::new("spatial", 50) };
        let cfg = s.config(Scheme::DirqFixed(5.0), 1);
        assert!(cfg.location_enabled);
        assert_eq!(cfg.spatial_query_fraction, 0.5);
    }

    #[test]
    fn scheme_labels_are_stable() {
        assert_eq!(Scheme::DirqFixed(5.0).label(), "dirq-delta5");
        assert_eq!(Scheme::DirqAtc.label(), "dirq-atc");
        assert_eq!(Scheme::Flooding.label(), "flooding");
    }

    #[test]
    #[should_panic(expected = "at least one scheme")]
    fn empty_schemes_rejected() {
        let _ = ScenarioSpec { schemes: vec![], ..ScenarioSpec::new("bad", 50) }
            .config(Scheme::DirqFixed(5.0), 1);
    }

    #[test]
    #[should_panic(expected = "bad churn window")]
    fn inverted_churn_window_rejected() {
        let _ = ScenarioSpec {
            churn: ChurnProfile::RandomDeaths { fraction: 0.1, from: 0.8, until: 0.2 },
            ..ScenarioSpec::new("bad", 50)
        }
        .config(Scheme::DirqFixed(5.0), 1);
    }
}

//! The named preset registry: ready-made large-scale scenarios spanning
//! 100 to 50 000 nodes across the topology families, churn regimes and
//! workload mixes the survey literature asks dissemination schemes to be
//! compared over.
//!
//! Densities are tuned so the mean radio degree stays near the paper's
//! ~12 (2-hop neighbourhoods comfortably inside the LMAC frame), and
//! completion windows scale with expected tree depth so deep deployments
//! still score their queries.

use dirq_core::RadioSpec;
use dirq_net::placement::{Placement, SinkPlacement};

use crate::spec::{ChurnProfile, ScenarioSpec, Scheme};

/// 100 nodes on a jittered grid at high density — the regular-deployment
/// baseline every other preset is judged against.
pub fn dense_grid_100() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::JitteredGrid { side: 180.0, jitter: 4.0 },
        radio_range: 35.0,
        epochs: 4_000,
        seed: 1_001,
        ..ScenarioSpec::new("dense_grid_100", 100)
    }
}

/// 250 nodes uniformly random at low density — deep irregular trees and
/// long routes.
pub fn sparse_random_250() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 400.0 },
        radio_range: 45.0,
        epochs: 2_400,
        completion_window: 40,
        seed: 1_002,
        ..ScenarioSpec::new("sparse_random_250", 250)
    }
}

/// 400 nodes along a 2 km corridor (pipeline/road monitoring): ~50-hop
/// routes, the deepest trees of any preset.
pub fn corridor_400() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::Corridor { length: 2_000.0, width: 60.0 },
        radio_range: 40.0,
        epochs: 2_000,
        completion_window: 96,
        seed: 1_003,
        ..ScenarioSpec::new("corridor_400", 400)
    }
}

/// 200 nodes in clustered blobs with a spatially scoped (hotspot)
/// workload: 80 % of queries target a region around a random carrier.
pub fn hotspot_workload_200() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::Clustered { side: 300.0, clusters: 8, spread: 55.0 },
        sink: SinkPlacement::Center,
        radio_range: 35.0,
        epochs: 2_400,
        target_fraction: 0.3,
        spatial_query_fraction: 0.8,
        slots_per_frame: 96,
        completion_window: 32,
        seed: 1_004,
        ..ScenarioSpec::new("hotspot_workload_200", 200)
    }
}

/// 150 nodes with 20 % of the network dying mid-run — the repair path
/// under sustained pressure.
pub fn heavy_churn_150() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 220.0 },
        radio_range: 35.0,
        epochs: 3_000,
        churn: ChurnProfile::RandomDeaths { fraction: 0.2, from: 0.25, until: 0.6 },
        completion_window: 32,
        seed: 1_005,
        ..ScenarioSpec::new("heavy_churn_150", 150)
    }
}

/// 300 nodes where each sensor type is carried by only 30 % of the nodes —
/// the heterogeneous-deployment stress the paper contrasts with TinyDB.
pub fn hetero_types_300() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 380.0 },
        radio_range: 42.0,
        epochs: 2_400,
        target_fraction: 0.3,
        sensor_coverage: 0.3,
        schemes: vec![Scheme::DirqAtc],
        completion_window: 40,
        seed: 1_006,
        ..ScenarioSpec::new("hetero_types_300", 300)
    }
}

/// 300 nodes under log-distance path loss with 4 dB shadowing — the lossy
/// irregular neighbourhoods real deployments show, instead of the unit
/// disk. The 46 dB link budget gives a ~35 m mean range at γ = 3.0;
/// raising γ shrinks it (see the exponent-sweep registry test).
pub fn lossy_log_distance_300() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 310.0 },
        radio: RadioSpec::LogDistance {
            exponent: 3.0,
            shadowing_sigma_db: 4.0,
            link_budget_db: 46.0,
        },
        epochs: 2_000,
        slots_per_frame: 96,
        completion_window: 48,
        seed: 1_010,
        ..ScenarioSpec::new("lossy_log_distance_300", 300)
    }
}

/// 150 nodes deployed in two waves: 15 % of the network (the highest ids)
/// starts offline and is *born* mid-run — the paper's "addition of new
/// nodes" dynamic, exercising LMAC joins, tree attachment and range-table
/// growth on a live network.
pub fn redeploy_150() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 220.0 },
        radio_range: 35.0,
        epochs: 2_400,
        churn: ChurnProfile::LateBirths { fraction: 0.15, from: 0.3, until: 0.5 },
        completion_window: 32,
        seed: 1_012,
        ..ScenarioSpec::new("redeploy_150", 150)
    }
}

/// 250 nodes under shadowed log-distance path loss **and** run-relative
/// churn — the lossy-radio × churn cross the unit-disk presets cannot
/// express: repair decisions made over irregular, shadowed neighbourhoods
/// while 12 % of the network dies.
pub fn churn_lossy_250() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 280.0 },
        radio: RadioSpec::LogDistance {
            exponent: 3.0,
            shadowing_sigma_db: 4.0,
            link_budget_db: 46.0,
        },
        epochs: 1_600,
        churn: ChurnProfile::RandomDeaths { fraction: 0.12, from: 0.3, until: 0.6 },
        slots_per_frame: 96,
        completion_window: 48,
        seed: 1_013,
        ..ScenarioSpec::new("churn_lossy_250", 250)
    }
}

/// 400 nodes on a jittered grid drained by the corner sink plus three
/// wired secondary sinks on the remaining corners: every node attaches to
/// its nearest sink, cutting route depth versus the single-sink variant
/// (pinned by the registry's depth test).
pub fn multi_sink_grid_400() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::JitteredGrid { side: 400.0, jitter: 4.0 },
        radio_range: 35.0,
        extra_sinks: 3,
        epochs: 1_200,
        completion_window: 48,
        seed: 1_014,
        ..ScenarioSpec::new("multi_sink_grid_400", 400)
    }
}

/// 500 nodes running DirQ (ATC) and flooding over the identical
/// deployment — the head-to-head the report's comparisons are built from.
pub fn head_to_head_500() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 500.0 },
        radio_range: 42.0,
        epochs: 1_600,
        schemes: vec![Scheme::DirqAtc, Scheme::Flooding],
        completion_window: 48,
        seed: 1_007,
        ..ScenarioSpec::new("head_to_head_500", 500)
    }
}

/// 2 000 nodes on a jittered grid — the first production-scale point of
/// the trajectory (and the ≥2 000-node deployment the bench matrix pins).
pub fn grid_2000() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::JitteredGrid { side: 800.0, jitter: 4.0 },
        radio_range: 30.0,
        epochs: 400,
        completion_window: 80,
        seed: 1_008,
        ..ScenarioSpec::new("grid_2000", 2_000)
    }
}

/// 5 000 nodes uniformly random: the smallest stress deployment, run end
/// to end inside tier-1 `cargo test`.
pub fn stress_5000() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 1_000.0 },
        radio_range: 28.0,
        epochs: 240,
        slots_per_frame: 96,
        completion_window: 96,
        seed: 1_009,
        ..ScenarioSpec::new("stress_5000", 5_000)
    }
}

/// 20 000 nodes uniformly random at the stress_5000 density (mean degree
/// ≈ 12) — the first point past the protocol-plane serial wall, and the
/// deployment the CI perf-trajectory gate runs.
pub fn stress_20000() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 2_000.0 },
        radio_range: 28.0,
        epochs: 200,
        slots_per_frame: 96,
        completion_window: 192,
        seed: 1_015,
        ..ScenarioSpec::new("stress_20000", 20_000)
    }
}

/// 50 000 nodes uniformly random, same density — the registry's scale
/// ceiling, now at a steady-state budget: 600 epochs spans the warm-up,
/// several full query generations *and* their ~100-hop completion
/// windows, so the preset scores queries instead of merely deploying.
pub fn stress_50000() -> ScenarioSpec {
    ScenarioSpec {
        placement: Placement::UniformRandom { side: 3_162.0 },
        radio_range: 28.0,
        epochs: 600,
        slots_per_frame: 96,
        completion_window: 96,
        seed: 1_016,
        ..ScenarioSpec::new("stress_50000", 50_000)
    }
}

/// The pre-steady-state budget [`stress_50000`] shipped with (120
/// epochs): deployment + first query generation only. Kept as a named
/// preset so quick scale smoke runs and the perf trajectory retain a
/// cheap 50 000-node point.
pub fn stress_50000_short() -> ScenarioSpec {
    ScenarioSpec { name: "stress_50000_short".into(), epochs: 120, ..stress_50000() }
}

/// Every preset, smallest first — the matrix `record_goldens` runs and
/// `BENCH_2.json` records.
pub fn registry() -> Vec<ScenarioSpec> {
    vec![
        dense_grid_100(),
        heavy_churn_150(),
        redeploy_150(),
        hotspot_workload_200(),
        sparse_random_250(),
        churn_lossy_250(),
        hetero_types_300(),
        lossy_log_distance_300(),
        corridor_400(),
        multi_sink_grid_400(),
        head_to_head_500(),
        grid_2000(),
        stress_5000(),
        stress_20000(),
        stress_50000_short(),
        stress_50000(),
    ]
}

/// Look a preset up by name.
pub fn preset(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

/// The smoke scenario: the 100-node grid preset at a tenth of its
/// epoch budget — small enough for debug-mode tests, large enough to
/// exercise deployment, calibration, MAC and scoring end to end.
pub fn smoke() -> ScenarioSpec {
    dense_grid_100().scaled(0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_spans_the_advertised_scale() {
        let all = registry();
        assert!(all.len() >= 8, "at least eight presets required");
        let sizes: Vec<usize> = all.iter().map(|s| s.n_nodes).collect();
        assert_eq!(*sizes.iter().min().unwrap(), 100);
        assert_eq!(*sizes.iter().max().unwrap(), 50_000);
        assert!(sizes.iter().any(|&n| n >= 20_000), "need a ≥20000-node deployment");
        // Names are unique and looked up correctly.
        for s in &all {
            assert_eq!(preset(&s.name).unwrap().n_nodes, s.n_nodes);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate preset names");
        assert!(preset("no_such_preset").is_none());
    }

    #[test]
    fn presets_cover_the_comparison_axes() {
        let all = registry();
        assert!(all.iter().any(|s| matches!(s.placement, Placement::JitteredGrid { .. })));
        assert!(all.iter().any(|s| matches!(s.placement, Placement::Corridor { .. })));
        assert!(all.iter().any(|s| matches!(s.placement, Placement::Clustered { .. })));
        assert!(all.iter().any(|s| matches!(s.churn, ChurnProfile::RandomDeaths { .. })));
        assert!(all.iter().any(|s| s.spatial_query_fraction > 0.0));
        assert!(all.iter().any(|s| s.sensor_coverage <= 0.3));
        assert!(
            all.iter().any(|s| s.schemes.contains(&Scheme::Flooding) && s.schemes.len() >= 2),
            "need a flooding head-to-head"
        );
        // The axes added with the arena/parallel PR: node births, a
        // lossy-radio × churn cross, and a multi-sink layout.
        assert!(all.iter().any(|s| matches!(s.churn, ChurnProfile::LateBirths { .. })));
        assert!(
            all.iter().any(|s| matches!(s.radio, RadioSpec::LogDistance { .. })
                && !matches!(s.churn, ChurnProfile::None)),
            "need the lossy-radio x churn cross"
        );
        assert!(all.iter().any(|s| s.extra_sinks > 0), "need a multi-sink layout");
    }

    #[test]
    fn multi_sink_attachment_cuts_mean_hop_count() {
        // Nearest-sink attachment over the wired backbone must produce a
        // strictly shallower tree than the identical single-sink grid.
        let spec = multi_sink_grid_400();
        let scheme = spec.schemes[0];
        let mut single = spec.clone();
        single.extra_sinks = 0;
        let mean_depth = |cfg: dirq_core::ScenarioConfig| {
            let engine = dirq_core::Engine::new(cfg);
            let tree = engine.protocol_tree();
            let (sum, count) = (0..tree.len())
                .map(dirq_net::NodeId::from_index)
                .filter_map(|n| tree.depth(n))
                .fold((0u64, 0u64), |(s, c), d| (s + u64::from(d), c + 1));
            assert_eq!(count, 400, "every node must attach at deployment");
            sum as f64 / count as f64
        };
        let multi = mean_depth(spec.config(scheme, spec.seed));
        let single = mean_depth(single.config(scheme, spec.seed));
        assert!(
            multi <= single,
            "multi-sink mean hop count {multi:.2} exceeds single-sink {single:.2}"
        );
        assert!(
            multi < 0.75 * single,
            "three extra sinks should cut depth substantially: {multi:.2} vs {single:.2}"
        );
    }

    #[test]
    fn redeploy_births_attach_and_answer_queries() {
        let spec = redeploy_150().scaled(0.25);
        let scheme = spec.schemes[0];
        let cfg = spec.config(scheme, spec.seed);
        let dirq_core::ChurnSpec::Explicit(plan) = cfg.churn.clone() else {
            panic!("redeploy preset must lower to an explicit birth plan");
        };
        let born = plan.initially_offline();
        assert!(born.len() >= 10, "expected a meaningful redeployment wave");
        let last_birth = plan.events().iter().map(|&(e, _)| e).max().expect("plan has events");
        let epochs = cfg.epochs;
        let mut engine = dirq_core::Engine::new(cfg);
        for _ in 0..epochs {
            engine.step_epoch();
        }
        // Every born node is alive, MAC-scheduled and attached to the tree.
        let tree = engine.protocol_tree();
        for &b in &born {
            assert!(engine.is_alive(b), "{b} should be alive after its birth");
            assert!(tree.is_attached(b), "{b} never attached after its birth");
        }
        // Queries injected after the wave settled still reach their
        // sources — the born nodes are answering.
        let late: Vec<f64> = engine
            .metrics()
            .outcomes
            .iter()
            .filter(|o| o.epoch >= last_birth + 50)
            .map(|o| o.source_recall())
            .collect();
        assert!(!late.is_empty(), "no scored queries after the birth wave");
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(mean > 0.8, "post-birth recall {mean:.3} too low");
    }

    #[test]
    fn hotspot_calibration_is_warm_started() {
        // Before the spatial warm start the hotspot preset paid a flat
        // ~200 ground-truth probes per query (~166 measured over the full
        // budget). Warm queries now cost ~33–35; at a quarter budget the
        // per-type cold starts still amortise to well under half the old
        // cost.
        let spec = hotspot_workload_200().scaled(0.25);
        let scheme = spec.schemes[0];
        let r = dirq_core::run_scenario(spec.config(scheme, spec.seed));
        let per_query = r.calibration_probes as f64 / r.queries_injected as f64;
        assert!(
            per_query < 100.0,
            "spatial calibration probes/query regressed: {per_query:.0} (pre-warm-start ~200)"
        );
    }

    #[test]
    fn lossy_preset_uses_log_distance_radio() {
        let s = lossy_log_distance_300();
        assert!(
            matches!(s.radio, RadioSpec::LogDistance { shadowing_sigma_db, .. }
                if shadowing_sigma_db > 0.0),
            "preset must exercise the shadowed log-distance model"
        );
        assert_eq!(preset("lossy_log_distance_300").unwrap().n_nodes, 300);
    }

    #[test]
    fn lossy_delivery_degrades_with_path_loss_exponent() {
        // Same deployment recipe, rising path-loss exponent γ under the
        // fixed 46 dB budget: the mean range shrinks (~50 m → ~25 m), the
        // tree deepens, and with a tight scoring deadline the delivery
        // ratio must fall monotonically. Fixed seed — the sweep is
        // deterministic, so the ordering is a stable regression pin.
        let mut deliveries = Vec::new();
        for exponent in [2.7, 3.0, 3.3] {
            let mut spec = lossy_log_distance_300().scaled(0.1);
            spec.completion_window = 3;
            spec.radio =
                RadioSpec::LogDistance { exponent, shadowing_sigma_db: 4.0, link_budget_db: 46.0 };
            let scheme = spec.schemes[0];
            let r = dirq_core::run_scenario(spec.config(scheme, spec.seed));
            let delivery =
                r.metrics.mean_over_queries(|o| o.source_recall()).expect("measured queries");
            deliveries.push((exponent, delivery));
        }
        for pair in deliveries.windows(2) {
            assert!(
                pair[0].1 > pair[1].1,
                "delivery must degrade with the exponent: {deliveries:?}"
            );
        }
    }

    #[test]
    fn smoke_is_a_scaled_grid_preset() {
        let s = smoke();
        assert_eq!(s.name, "dense_grid_100");
        assert_eq!(s.epochs, 400);
        assert_eq!(s.measure_from(), 80);
    }
}

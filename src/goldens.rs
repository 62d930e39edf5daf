//! The golden-pin manifest: every recorded fingerprint in one place.
//!
//! A *golden pin* is a fixed-seed fingerprint of an observable —
//! a complete [`RunResult`](crate::core::RunResult) or a sweep
//! [`ScenarioReport`](crate::scenario::ScenarioReport) — recorded once
//! and asserted on every test run, so behaviour drift fails loudly. The
//! scenario constructors and the pinned constants both live here; the
//! workspace golden tests
//! (`tests/determinism_golden.rs`, `tests/scenario_golden.rs`) assert
//! against this manifest, and the `record_goldens` bench binary
//! regenerates it (plus `crates/scenario/src/registry.rs` and
//! `BENCH_2.json`) in one pass:
//!
//! ```text
//! cargo run --release -p dirq-bench --bin record_goldens            # re-record
//! cargo run --release -p dirq-bench --bin record_goldens -- --check # CI gate
//! ```
//!
//! Intentional behaviour breaks (protocol changes, RNG stream changes)
//! re-record everything in a single commit via the tool; the `--check`
//! mode recomputes every pin fresh and fails CI when a stale golden (or a
//! stale `BENCH_2.json`) was left behind.

use dirq_core::{run_scenario, AtcConfig, ChurnSpec, DeltaPolicy, ScenarioConfig};
use dirq_scenario::registry;
use dirq_scenario::{run_matrix_report, ScenarioSpec, SweepConfig};

// --- engine-level pins (tests/determinism_golden.rs) ---------------------

/// 64-node fixed-δ scenario exercising the steady-state hot path.
pub fn fixed_delta_scenario() -> ScenarioConfig {
    ScenarioConfig {
        n_nodes: 64,
        epochs: 1_200,
        measure_from_epoch: 200,
        delta_policy: DeltaPolicy::Fixed(5.0),
        ..ScenarioConfig::paper(64_001)
    }
}

/// 64-node ATC scenario with churn, exercising repair, retracts and the
/// EHr/budget loop on top of the same hot path.
pub fn atc_churn_scenario() -> ScenarioConfig {
    ScenarioConfig {
        n_nodes: 64,
        epochs: 1_200,
        measure_from_epoch: 200,
        delta_policy: DeltaPolicy::Adaptive(AtcConfig::default()),
        churn: ChurnSpec::RandomDeaths { deaths: 4, from_epoch: 300, until_epoch: 600 },
        ..ScenarioConfig::paper(64_002)
    }
}

/// Short-epoch engine-level pin of a registry preset: the preset's exact
/// deployment/workload at a reduced epoch budget, so the large-topology
/// code paths sit inside tier-1 `cargo test` at debug-mode speed.
fn preset_scenario(name: &str, epochs: u64) -> ScenarioConfig {
    let spec = dirq_scenario::preset(name).expect("registry preset");
    let scheme = spec.schemes[0];
    ScenarioConfig { epochs, measure_from_epoch: epochs / 5, ..spec.config(scheme, spec.seed) }
}

/// 2 000-node jittered grid, 40 epochs.
pub fn grid_2000_scenario() -> ScenarioConfig {
    preset_scenario("grid_2000", 40)
}

/// 5 000-node uniform deployment, 24 epochs — the largest deployment a
/// debug-tier test pins at engine level.
pub fn stress_5000_scenario() -> ScenarioConfig {
    preset_scenario("stress_5000", 24)
}

/// 20 000-node uniform deployment, 24 epochs — the first point past the
/// protocol-plane sharding floor, pinned in release mode only (the
/// `record_goldens` manifest; no debug-tier test asserts it).
pub fn stress_20000_scenario() -> ScenarioConfig {
    preset_scenario("stress_20000", 24)
}

/// 50 000-node uniform deployment, 24 epochs — the registry's scale
/// ceiling, pinned in release mode only (the `record_goldens` manifest;
/// no debug-tier test asserts it).
pub fn stress_50000_scenario() -> ScenarioConfig {
    preset_scenario("stress_50000", 24)
}

/// Scenario under the snapshot-codec pin: ATC + churn over the small
/// paper deployment, stepped 90 epochs — deep enough that the MAC, the
/// pending-query set, the repair timers and the EHr loop all carry
/// non-trivial state into the snapshot.
pub fn snapshot_scenario() -> ScenarioConfig {
    ScenarioConfig {
        n_nodes: 50,
        epochs: 240,
        measure_from_epoch: 48,
        delta_policy: DeltaPolicy::Adaptive(AtcConfig::default()),
        churn: ChurnSpec::RandomDeaths { deaths: 3, from_epoch: 40, until_epoch: 120 },
        ..ScenarioConfig::paper_small(50_001)
    }
}

/// Fresh [`Engine::state_fingerprint`](crate::core::Engine) of
/// [`snapshot_scenario`] at epoch 90 — the recording convention behind
/// [`GOLDEN_SNAPSHOT_STATE`]. Any change to the snapshot byte layout (or
/// to engine behaviour feeding it) moves this value.
pub fn snapshot_state_fingerprint() -> u64 {
    let mut engine = dirq_core::Engine::new(snapshot_scenario());
    for _ in 0..90 {
        engine.step_epoch();
    }
    engine.state_fingerprint()
}

// --- report-level pins (tests/scenario_golden.rs) ------------------------

/// Small: the CI smoke preset — 100-node jittered grid, 400 epochs.
/// Pinned by [`registry::SMOKE_GOLDEN_FINGERPRINT`].
pub fn small_spec() -> ScenarioSpec {
    registry::smoke()
}

/// Medium: 300 nodes at 30 % sensor coverage under ATC, 300 epochs.
pub fn medium_spec() -> ScenarioSpec {
    registry::hetero_types_300().scaled(0.125)
}

/// Large: the 2 000-node grid deployment, 40 epochs.
pub fn large_spec() -> ScenarioSpec {
    registry::grid_2000().scaled(0.1)
}

/// Extra-large: the 5 000-node stress deployment at the scaling floor
/// (80 epochs) — the full report pipeline over a 5 000-node topology,
/// inside tier-1 `cargo test`.
pub fn xlarge_spec() -> ScenarioSpec {
    registry::stress_5000().scaled(0.1)
}

/// Multi-sink: the 400-node nearest-sink-attachment grid, 300 epochs.
pub fn multi_sink_spec() -> ScenarioSpec {
    registry::multi_sink_grid_400().scaled(0.25)
}

/// Lossy × churn: shadowed log-distance radio with mid-run deaths,
/// 400 epochs.
pub fn churn_lossy_spec() -> ScenarioSpec {
    registry::churn_lossy_250().scaled(0.25)
}

/// Redeployment: the staged-births preset, 600 epochs (the birth window
/// scales with the run, so the wave still lands mid-run).
pub fn redeploy_spec() -> ScenarioSpec {
    registry::redeploy_150().scaled(0.25)
}

/// Single-replicate, single-thread sweep fingerprint of one spec — the
/// recording convention every report-level pin uses.
pub fn report_fingerprint(spec: ScenarioSpec) -> u64 {
    run_matrix_report(&[spec], &SweepConfig { threads: 1, ..SweepConfig::default() })
        .stable_fingerprint()
}

// --- the recorded constants ----------------------------------------------
// Every constant below is rewritten in place by `record_goldens`; keep the
// `pub const NAME: u64 = 0x...;` shape machine-editable.

/// Golden fingerprint of [`fixed_delta_scenario`].
pub const GOLDEN_FIXED: u64 = 0x5A2824B6634C0AD8;

/// Golden fingerprint of [`atc_churn_scenario`].
pub const GOLDEN_ATC_CHURN: u64 = 0x7B0B79719F5C46E1;

/// Golden fingerprint of [`grid_2000_scenario`].
pub const GOLDEN_GRID_2000: u64 = 0xC6B4B398470A2A93;

/// Golden fingerprint of [`stress_5000_scenario`].
pub const GOLDEN_STRESS_5000: u64 = 0x32968FB41C468CD8;

/// Golden fingerprint of [`stress_20000_scenario`].
pub const GOLDEN_STRESS_20000: u64 = 0x6AD73625527CF480;

/// Golden fingerprint of [`stress_50000_scenario`].
pub const GOLDEN_STRESS_50000: u64 = 0x9551369E79F990A7;

/// Golden fingerprint of [`snapshot_state_fingerprint`] — the snapshot
/// codec pin (`tests/snapshot_differential.rs`).
pub const GOLDEN_SNAPSHOT_STATE: u64 = 0x5778F391E49DF93C;

/// Golden fingerprint of the [`medium_spec`] sweep report.
pub const GOLDEN_MEDIUM: u64 = 0x889291EC21F8E973;

/// Golden fingerprint of the [`large_spec`] sweep report.
pub const GOLDEN_LARGE: u64 = 0xB28B9992AACAF68D;

/// Golden fingerprint of the [`xlarge_spec`] sweep report.
pub const GOLDEN_XLARGE: u64 = 0x5857C4BEF3A17639;

/// Golden fingerprint of the [`multi_sink_spec`] sweep report.
pub const GOLDEN_MULTI_SINK: u64 = 0x24113167AA12BE1C;

/// Golden fingerprint of the [`churn_lossy_spec`] sweep report.
pub const GOLDEN_CHURN_LOSSY: u64 = 0xA147495BE99F3500;

/// Golden fingerprint of the [`redeploy_spec`] sweep report.
pub const GOLDEN_REDEPLOY: u64 = 0x21E9433A6A9A391D;

// --- the manifest ---------------------------------------------------------

/// Repo-relative path of this file (the target `record_goldens` patches).
pub const GOLDENS_FILE: &str = "src/goldens.rs";

/// Repo-relative path of the registry constants file.
pub const REGISTRY_FILE: &str = "crates/scenario/src/registry.rs";

/// One recorded fingerprint: where it lives, what it currently says and
/// how to recompute it from scratch.
pub struct GoldenPin {
    /// Constant name as it appears in [`GoldenPin::file`].
    pub name: &'static str,
    /// Repo-relative path of the file declaring the constant.
    pub file: &'static str,
    /// The checked-in value.
    pub recorded: u64,
    /// Recompute the fingerprint from scratch (full deterministic run).
    pub compute: fn() -> u64,
}

/// Every pinned fingerprint except the full-budget registry golden
/// ([`registry::REGISTRY_GOLDEN_FINGERPRINT`]), which `record_goldens`
/// recomputes from the same full matrix run that rewrites `BENCH_2.json`.
/// Ordered cheapest-first so a sequential pass fails fast.
pub fn pins() -> Vec<GoldenPin> {
    vec![
        GoldenPin {
            name: "GOLDEN_FIXED",
            file: GOLDENS_FILE,
            recorded: GOLDEN_FIXED,
            compute: || run_scenario(fixed_delta_scenario()).stable_fingerprint(),
        },
        GoldenPin {
            name: "GOLDEN_ATC_CHURN",
            file: GOLDENS_FILE,
            recorded: GOLDEN_ATC_CHURN,
            compute: || run_scenario(atc_churn_scenario()).stable_fingerprint(),
        },
        GoldenPin {
            name: "GOLDEN_SNAPSHOT_STATE",
            file: GOLDENS_FILE,
            recorded: GOLDEN_SNAPSHOT_STATE,
            compute: snapshot_state_fingerprint,
        },
        GoldenPin {
            name: "SMOKE_GOLDEN_FINGERPRINT",
            file: REGISTRY_FILE,
            recorded: registry::SMOKE_GOLDEN_FINGERPRINT,
            compute: || report_fingerprint(small_spec()),
        },
        GoldenPin {
            name: "GOLDEN_MEDIUM",
            file: GOLDENS_FILE,
            recorded: GOLDEN_MEDIUM,
            compute: || report_fingerprint(medium_spec()),
        },
        GoldenPin {
            name: "GOLDEN_MULTI_SINK",
            file: GOLDENS_FILE,
            recorded: GOLDEN_MULTI_SINK,
            compute: || report_fingerprint(multi_sink_spec()),
        },
        GoldenPin {
            name: "GOLDEN_CHURN_LOSSY",
            file: GOLDENS_FILE,
            recorded: GOLDEN_CHURN_LOSSY,
            compute: || report_fingerprint(churn_lossy_spec()),
        },
        GoldenPin {
            name: "GOLDEN_REDEPLOY",
            file: GOLDENS_FILE,
            recorded: GOLDEN_REDEPLOY,
            compute: || report_fingerprint(redeploy_spec()),
        },
        GoldenPin {
            name: "GOLDEN_GRID_2000",
            file: GOLDENS_FILE,
            recorded: GOLDEN_GRID_2000,
            compute: || run_scenario(grid_2000_scenario()).stable_fingerprint(),
        },
        GoldenPin {
            name: "GOLDEN_STRESS_5000",
            file: GOLDENS_FILE,
            recorded: GOLDEN_STRESS_5000,
            compute: || run_scenario(stress_5000_scenario()).stable_fingerprint(),
        },
        GoldenPin {
            name: "GOLDEN_LARGE",
            file: GOLDENS_FILE,
            recorded: GOLDEN_LARGE,
            compute: || report_fingerprint(large_spec()),
        },
        GoldenPin {
            name: "GOLDEN_XLARGE",
            file: GOLDENS_FILE,
            recorded: GOLDEN_XLARGE,
            compute: || report_fingerprint(xlarge_spec()),
        },
        GoldenPin {
            name: "GOLDEN_STRESS_20000",
            file: GOLDENS_FILE,
            recorded: GOLDEN_STRESS_20000,
            compute: || run_scenario(stress_20000_scenario()).stable_fingerprint(),
        },
        GoldenPin {
            name: "GOLDEN_STRESS_50000",
            file: GOLDENS_FILE,
            recorded: GOLDEN_STRESS_50000,
            compute: || run_scenario(stress_50000_scenario()).stable_fingerprint(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_are_unique_and_files_known() {
        let all = pins();
        let mut names: Vec<&str> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate pin names");
        for p in &all {
            assert!(
                p.file == GOLDENS_FILE || p.file == REGISTRY_FILE,
                "{}: unknown golden file {}",
                p.name,
                p.file
            );
        }
    }
}

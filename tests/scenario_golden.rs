//! Golden fingerprints for the scenario subsystem (report-level pins).
//!
//! Pins small through extra-large presets so the whole stack —
//! deployment, calibration (warm-started), MAC, churn, world generation,
//! sweep executor and report assembly — is bit-deterministic for a fixed
//! seed, across runs and thread counts. The spec constructors and the
//! recorded fingerprints live in the [`dirq::goldens`] manifest; the
//! full-budget 5 000-node registry run is pinned by the release-mode
//! `scenario_matrix` bench via `BENCH_2.json`.
//!
//! If a PR changes behaviour *intentionally* (protocol feature, RNG
//! stream change, calibration tweak), re-record every pin in one pass:
//! `cargo run --release -p dirq-bench --bin record_goldens`

use dirq::goldens::{
    churn_lossy_spec, large_spec, medium_spec, multi_sink_spec, redeploy_spec, small_spec,
    xlarge_spec, GOLDEN_CHURN_LOSSY, GOLDEN_LARGE, GOLDEN_MEDIUM, GOLDEN_MULTI_SINK,
    GOLDEN_REDEPLOY, GOLDEN_XLARGE,
};
use dirq::prelude::*;
use dirq::scenario::registry::SMOKE_GOLDEN_FINGERPRINT;

fn report_for(spec: ScenarioSpec, threads: usize) -> ScenarioReport {
    run_matrix_report(&[spec], &SweepConfig { threads, ..SweepConfig::default() })
}

#[test]
fn small_scenario_matches_golden() {
    assert_eq!(
        report_for(small_spec(), 1).stable_fingerprint(),
        SMOKE_GOLDEN_FINGERPRINT,
        "small scenario drifted from the recorded golden"
    );
}

#[test]
fn medium_scenario_matches_golden() {
    assert_eq!(
        report_for(medium_spec(), 1).stable_fingerprint(),
        GOLDEN_MEDIUM,
        "medium scenario drifted from the recorded golden"
    );
}

#[test]
fn large_scenario_matches_golden() {
    assert_eq!(
        report_for(large_spec(), 1).stable_fingerprint(),
        GOLDEN_LARGE,
        "large (2000-node grid) scenario drifted from the recorded golden"
    );
}

#[test]
fn xlarge_scenario_matches_golden() {
    assert_eq!(
        report_for(xlarge_spec(), 1).stable_fingerprint(),
        GOLDEN_XLARGE,
        "xlarge (5000-node, CSR has_link fallback) scenario drifted from the recorded golden"
    );
}

#[test]
fn multi_sink_scenario_matches_golden() {
    assert_eq!(
        report_for(multi_sink_spec(), 1).stable_fingerprint(),
        GOLDEN_MULTI_SINK,
        "multi-sink scenario drifted from the recorded golden"
    );
}

#[test]
fn churn_lossy_scenario_matches_golden() {
    assert_eq!(
        report_for(churn_lossy_spec(), 1).stable_fingerprint(),
        GOLDEN_CHURN_LOSSY,
        "lossy x churn scenario drifted from the recorded golden"
    );
}

#[test]
fn redeploy_scenario_matches_golden() {
    assert_eq!(
        report_for(redeploy_spec(), 1).stable_fingerprint(),
        GOLDEN_REDEPLOY,
        "redeployment (births) scenario drifted from the recorded golden"
    );
}

#[test]
fn report_identical_across_thread_counts() {
    let sequential = report_for(small_spec(), 1);
    let parallel = report_for(small_spec(), 4);
    assert_eq!(
        sequential.stable_fingerprint(),
        parallel.stable_fingerprint(),
        "sweep parallelism changed the report"
    );
    // And the JSON artifact is byte-identical too.
    assert_eq!(sequential.to_json().render_pretty(), parallel.to_json().render_pretty());
}

#[test]
fn report_identical_across_intra_run_workers() {
    // World-generation workers and protocol-upkeep workers shard inside
    // one simulation; neither may move the report fingerprint. (At this
    // preset's 100 nodes both pools resolve to the serial loops — the
    // sharded paths themselves are pinned by world_differential.rs,
    // upkeep_differential.rs and the grid_2000 golden at two workers; the
    // smoke-scaled registry gate in `scenario_matrix --smoke` covers the
    // ≥2 000-node presets where the shard paths really engage.)
    let serial = report_for(small_spec(), 1);
    let sharded = run_matrix_report(
        &[small_spec()],
        &SweepConfig { threads: 1, workers: 4, ..SweepConfig::default() },
    );
    assert_eq!(
        serial.stable_fingerprint(),
        sharded.stable_fingerprint(),
        "intra-run worker knobs changed the report"
    );
}

//! Golden determinism tests (engine-level pins).
//!
//! The hot-path refactors (zero-copy MAC payloads, CSR topology, scratch
//! buffers, SoA state, split-stream world generation) must not change
//! observable behaviour: for a fixed seed the complete metrics of a run
//! are bit-identical. The scenario constructors and recorded fingerprints
//! live in the [`dirq::goldens`] manifest; these tests assert the
//! engine-level pins and that the parallel sweep executor returns
//! byte-identical output to sequential execution.
//!
//! If a PR changes behaviour *intentionally* (new protocol feature, RNG
//! stream change), re-record every pin in one pass:
//! `cargo run --release -p dirq-bench --bin record_goldens`

use dirq::goldens::{
    atc_churn_scenario, fixed_delta_scenario, grid_2000_scenario, predictive_scenario,
    stress_5000_scenario, GOLDEN_ATC_CHURN, GOLDEN_FIXED, GOLDEN_GRID_2000, GOLDEN_PREDICTIVE,
    GOLDEN_STRESS_5000,
};
use dirq::prelude::*;

#[test]
fn fixed_delta_metrics_match_golden() {
    let r = run_scenario(fixed_delta_scenario());
    assert_eq!(
        r.stable_fingerprint(),
        GOLDEN_FIXED,
        "fixed-seed metrics drifted from the recorded golden run"
    );
}

#[test]
fn atc_churn_metrics_match_golden() {
    let r = run_scenario(atc_churn_scenario());
    assert_eq!(
        r.stable_fingerprint(),
        GOLDEN_ATC_CHURN,
        "fixed-seed ATC/churn metrics drifted from the recorded golden run"
    );
}

#[test]
fn predictive_sampling_metrics_match_golden() {
    // The predictive sampler reads each carried sensor's escape window
    // after every acquisition; deaths exercise repair around skipping
    // nodes.
    let r = run_scenario(predictive_scenario());
    assert!(r.samples_skipped > 0, "the predictive sampler must skip some acquisitions");
    assert_eq!(
        r.stable_fingerprint(),
        GOLDEN_PREDICTIVE,
        "fixed-seed predictive-sampling metrics drifted from the recorded golden run"
    );
}

#[test]
fn grid_2000_metrics_match_golden() {
    // At 2 000 nodes every intra-run pool is past its sharding floor, so
    // two workers engage the sharded world advance and sharded sensor
    // sampling on their own (no test hook) on a multi-core host; a 1-core
    // host clamps each pool to the serial path. Either way the fingerprint
    // is the serial golden.
    for workers in [1, 2] {
        let mut cfg = grid_2000_scenario();
        cfg.world_workers = workers;
        cfg.upkeep_workers = workers;
        let r = run_scenario(cfg);
        assert_eq!(
            r.stable_fingerprint(),
            GOLDEN_GRID_2000,
            "fixed-seed 2000-node metrics at {workers} workers drifted from the recorded golden run"
        );
    }
}

#[test]
fn stress_5000_metrics_match_golden() {
    let r = run_scenario(stress_5000_scenario());
    assert_eq!(
        r.stable_fingerprint(),
        GOLDEN_STRESS_5000,
        "fixed-seed 5000-node (CSR has_link fallback) metrics drifted from the recorded golden run"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    let a = run_scenario(fixed_delta_scenario());
    let b = run_scenario(fixed_delta_scenario());
    assert_eq!(a.stable_fingerprint(), b.stable_fingerprint());
}

#[test]
fn world_workers_do_not_change_metrics() {
    // The world_workers knob must never move an engine fingerprint. At
    // this size (64 nodes, below the world's sharding threshold) the
    // knob resolves to the serial loop — this pins that resolution; the
    // sharded advance itself is pinned bit-equal to serial by the
    // forced-hook cases in tests/world_differential.rs.
    let r = run_scenario(ScenarioConfig { world_workers: 4, ..fixed_delta_scenario() });
    assert_eq!(r.stable_fingerprint(), GOLDEN_FIXED, "world_workers changed observable metrics");
}

#[test]
fn parallel_sweep_output_matches_sequential() {
    // One simulation per parameter point; sequential and 4-way parallel
    // execution must produce byte-identical result vectors.
    let seeds: Vec<u64> = (0..6).collect();
    let run = |&seed: &u64| {
        run_scenario(ScenarioConfig {
            epochs: 400,
            measure_from_epoch: 100,
            ..ScenarioConfig::paper(seed)
        })
        .stable_fingerprint()
    };
    let sequential = dirq::sim::runner::run_sweep(&seeds, 1, run);
    let parallel = dirq::sim::runner::run_sweep(&seeds, 4, run);
    assert_eq!(sequential, parallel, "sweep parallelism changed observable output");
}

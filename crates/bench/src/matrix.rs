//! The large-preset throughput measurement and the baseline it is gated
//! against. `record_goldens` records each preset's run-loop epochs/s in
//! the `throughput` rows of `BENCH_2.json`, and `scenario_matrix` runs
//! the perf floor against those rows.

use std::time::Instant;

use dirq_core::Engine;
use dirq_scenario::ScenarioSpec;
use dirq_sim::json::Json;

/// The presets whose run-loop throughput `BENCH_2.json` records and the
/// perf floor reads.
pub const THROUGHPUT_PRESETS: [&str; 3] = ["grid_2000", "stress_5000", "stress_20000"];

/// Run-loop epochs/s of one preset at `threads` intra-run workers
/// (world-generation shards and sensor-sampling shards; the MAC is
/// serial), best of `repeats`.
/// Returns `(epochs_per_sec, epochs, fingerprint)`.
pub fn measure_throughput(spec: &ScenarioSpec, threads: usize, repeats: usize) -> (f64, u64, u64) {
    let scheme = spec.schemes[0];
    let mut eps = 0f64;
    let mut fp = 0u64;
    let mut epochs = 0u64;
    for _ in 0..repeats.max(1) {
        let mut run_cfg = spec.config(scheme, spec.seed);
        run_cfg.world_workers = threads;
        run_cfg.upkeep_workers = threads;
        let engine = Engine::new(run_cfg);
        let t = Instant::now();
        let r = engine.run();
        eps = eps.max(r.epochs as f64 / t.elapsed().as_secs_f64());
        fp = r.stable_fingerprint();
        epochs = r.epochs;
    }
    (eps, epochs, fp)
}

/// The baseline in `doc`'s throughput section for `scenario` run at
/// `workers` resolved workers: the row recorded at that count, else the
/// row at the largest recorded count below it. Returns `(threads,
/// epochs_per_sec)` of that row.
pub fn baseline_throughput(doc: &Json, scenario: &str, workers: usize) -> Option<(usize, f64)> {
    let row = |o: &Json| {
        let threads = o.get("threads")?.as_f64()? as usize;
        let matches = o.get("scenario")?.as_str()? == scenario && threads <= workers;
        matches.then_some((threads, o.get("epochs_per_sec")?.as_f64()?))
    };
    doc.get("throughput")?.as_array()?.iter().filter_map(row).max_by_key(|&(threads, _)| threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_falls_back_to_the_largest_count_below() {
        let doc = Json::parse(
            r#"{"throughput": [
                {"scenario": "a", "threads": 1, "epochs_per_sec": 10},
                {"scenario": "a", "threads": 2, "epochs_per_sec": 20},
                {"scenario": "b", "threads": 4, "epochs_per_sec": 40}
            ]}"#,
        )
        .unwrap();
        assert_eq!(baseline_throughput(&doc, "a", 1), Some((1, 10.0)));
        assert_eq!(baseline_throughput(&doc, "a", 2), Some((2, 20.0)));
        assert_eq!(baseline_throughput(&doc, "a", 4), Some((2, 20.0)));
        assert_eq!(baseline_throughput(&doc, "b", 2), None);
        assert_eq!(baseline_throughput(&doc, "c", 4), None);
    }
}

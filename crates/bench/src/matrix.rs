//! Shared machinery for recording the scenario-matrix artifact
//! (`BENCH_2.json`): the artifact envelope, the history trail and the
//! large-preset throughput measurement. Used by the `scenario_matrix`
//! bench (default mode) and by `record_goldens` (the one-pass golden
//! re-record tool), so both write byte-compatible artifacts.

use std::time::Instant;

use dirq_core::Engine;
use dirq_scenario::{registry, run_matrix_report, ScenarioReport, ScenarioSpec, SweepConfig};
use dirq_sim::json::Json;
use dirq_sim::runner;

/// The intra-run worker counts the throughput axis asks for.
const THROUGHPUT_WORKERS: [usize; 3] = [1, 2, 4];

/// The distinct worker counts `requested` resolve to on this host, as the
/// engine resolves them for a deployment of `nodes` nodes
/// ([`runner::shard_workers`]), ascending. A request past the host's
/// threads runs at a smaller count, so it is measured once, under that
/// count.
pub fn resolved_workers(requested: &[usize], nodes: usize) -> Vec<usize> {
    let mut counts: Vec<usize> =
        requested.iter().map(|&w| runner::shard_workers(w, nodes)).collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Wrap the report in the artifact envelope.
pub fn artifact(report: &ScenarioReport, cfg: &SweepConfig, wall: f64) -> Json {
    let mut doc = Json::object();
    doc.set("schema", Json::Str("dirq-scenario-matrix-v1".to_string()));
    doc.set("epoch_scale", Json::Num(cfg.epoch_scale));
    doc.set("replicates", Json::Num(cfg.replicates as f64));
    doc.set("wall_seconds", Json::Num((wall * 100.0).round() / 100.0));
    doc.set("report", report.to_json());
    doc.set("tool", Json::Str("crates/bench/src/bin/scenario_matrix.rs".to_string()));
    doc
}

/// The history array of the existing artifact at `path` (if any), with
/// this run's (wall-seconds, fingerprint, rows) appended.
pub fn history_with(path: &str, report: &ScenarioReport, wall: f64) -> Json {
    let mut entries: Vec<Json> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("history").and_then(Json::as_array).map(<[Json]>::to_vec))
        .unwrap_or_default();
    let mut entry = Json::object();
    entry.set("wall_seconds", Json::Num((wall * 100.0).round() / 100.0));
    entry.set("report_fingerprint", Json::Str(format!("{:#018X}", report.stable_fingerprint())));
    entry.set("rows", Json::Num(report.rows.len() as f64));
    entries.push(entry);
    Json::Arr(entries)
}

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

/// Run the full matrix over `specs`, measure the large-preset throughput
/// axis, and write the artifact (with carried-forward history) to `out`.
/// Returns the assembled report.
///
/// The throughput axis runs each large preset at 1, 2 and 4 intra-run
/// workers, each row labelled with the count the engine resolves (see
/// [`resolved_workers`]); the run fingerprint must be identical across the
/// axis — worker counts may only change speed, and this asserts it.
pub fn run_and_record(specs: &[ScenarioSpec], cfg: &SweepConfig, out: &str) -> ScenarioReport {
    let t0 = Instant::now();
    let report = run_matrix_report(specs, cfg);
    let wall = t0.elapsed().as_secs_f64();

    print!("{}", report.summary_table().to_ascii());
    if !report.comparisons.is_empty() {
        println!("comparisons (scheme / flooding, same scenario):");
        for c in &report.comparisons {
            println!("  {:<18} {:<22} {:>7.3}", c.scenario, c.metric, c.ratio);
        }
    }
    println!(
        "report fingerprint: {:#018X}  ({} rows, {:.1}s wall)",
        report.stable_fingerprint(),
        report.rows.len(),
        wall
    );

    let mut doc = artifact(&report, cfg, wall);
    // Per-epoch throughput of the largest presets, measured on the run
    // loop only (setup excluded) — the trajectory the ROADMAP perf work is
    // gated on, and the baseline of the CI perf-floor tripwire.
    let mut throughput = Vec::new();
    for name in ["grid_2000", "stress_5000", "stress_20000"] {
        if !specs.iter().any(|s| s.name == name) {
            continue;
        }
        let spec = registry::preset(name).expect("registry preset").scaled(cfg.epoch_scale);
        let mut serial_fp = None;
        for threads in resolved_workers(&THROUGHPUT_WORKERS, spec.n_nodes) {
            // Best of two runs: the run loop is deterministic, so repeats
            // only differ by scheduling noise — keep the cleaner sample.
            let (eps, epochs, fp) = measure_throughput(&spec, threads, 2);
            match serial_fp {
                None => serial_fp = Some(fp),
                Some(want) => {
                    assert_eq!(fp, want, "{name}: {threads} workers changed the run fingerprint")
                }
            }
            println!(
                "{name}: {eps:.0} epochs/s ({epochs} epochs, run loop only, {threads} threads)"
            );
            let mut o = Json::object();
            o.set("scenario", Json::Str(name.to_string()));
            o.set("threads", Json::Num(threads as f64));
            o.set("epochs", Json::Num(epochs as f64));
            o.set("epochs_per_sec", Json::Num(eps.round()));
            o.set("fingerprint", Json::Str(format!("{:#018X}", fp)));
            throughput.push(o);
        }
    }
    if !throughput.is_empty() {
        doc.set("throughput", Json::Arr(throughput));
    }
    // Carry the recorded trajectory forward: previous (wall, fingerprint)
    // pairs stay in the artifact as its scale history.
    doc.set("history", history_with(out, &report, wall));
    std::fs::write(out, doc.render_pretty()).expect("write scenario matrix json");
    println!("wrote {out}");
    report
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
    fn throughput_rows_are_the_distinct_resolved_counts() {
        let host = runner::host_threads();
        let counts = resolved_workers(&THROUGHPUT_WORKERS, 2_000);
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?} not distinct");
        assert!(counts.iter().all(|&w| 1 <= w && w <= host), "{counts:?} past {host} threads");
        assert_eq!(counts.first(), Some(&1));
        assert_eq!(counts.last(), Some(&host.min(4)), "the largest request runs at its clamp");
        assert_eq!(resolved_workers(&THROUGHPUT_WORKERS, 100), [1], "small runs are serial");
    }

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

//! The scenario-matrix smoke: the two checks of the sharded engine that no
//! other gate makes. It reads `BENCH_2.json` and writes nothing; the
//! artifact's one writer is `record_goldens`.
//!
//! * At `--workers W` > 1, the whole registry at smoke budgets (a tenth of
//!   each epoch budget) runs serially and with W intra-run workers, and
//!   the two report fingerprints must be equal. The sharded world advance
//!   and sensor sampling engage only from 512 nodes, so only the registry's
//!   large presets run them.
//! * At every W, the perf floor: fresh short runs of `grid_2000`,
//!   `stress_5000` and `stress_20000` must clear `floor × recorded`
//!   epochs/s, the recorded figure being `BENCH_2.json`'s throughput row
//!   at the worker count the engine resolves W to (else the largest
//!   recorded count below it). The floor defaults to 0.35 (CI runners are
//!   slower and noisier than the recording box); the `DIRQ_PERF_FLOOR`
//!   environment variable overrides it, and `0` disables it.
//!
//! Exits non-zero on any failure. `BENCH_2.json` resolves against the
//! workspace root, so the tool runs from any directory.
//!
//! Usage: `scenario_matrix [--workers W]`

use dirq_bench::{matrix, repo_root};
use dirq_scenario::{registry, run_matrix_report, SweepConfig};
use dirq_sim::json::Json;
use dirq_sim::runner;

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: scenario_matrix [--workers W]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The perf-trajectory floor: `DIRQ_PERF_FLOOR`, else the default of
/// 0.35. `0` disables the tripwire (documented escape hatch for noisy or
/// heavily shared runners). An unparseable value is a hard error —
/// silently falling back to the default would defeat the override
/// exactly when an operator reaches for it.
fn perf_floor() -> f64 {
    match std::env::var("DIRQ_PERF_FLOOR") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!(
                "FAIL: DIRQ_PERF_FLOOR={v:?} is not a number (use e.g. 0.2, or 0 to disable)"
            );
            std::process::exit(2);
        }),
        Err(_) => 0.35,
    }
}

fn main() {
    let mut workers = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a number"))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workers = workers.max(1);
    let floor = perf_floor();
    if workers > 1 {
        check_worker_invariance(workers);
    } else {
        println!("registry worker-invariance skipped (serial leg; run with --workers > 1)");
    }
    check_perf_floor(workers, floor);
}

/// The smoke-scaled registry serially and with `workers` intra-run
/// workers over four sweep threads: the report fingerprints must be
/// identical.
fn check_worker_invariance(workers: usize) {
    let registry_scale = 0.1;
    let serial = run_matrix_report(
        &registry::registry(),
        &SweepConfig { threads: 1, epoch_scale: registry_scale, ..SweepConfig::default() },
    );
    let sharded = run_matrix_report(
        &registry::registry(),
        &SweepConfig { threads: 4, epoch_scale: registry_scale, workers },
    );
    if serial.stable_fingerprint() != sharded.stable_fingerprint() {
        eprintln!(
            "FAIL: registry diverges across worker counts: {:#018X} (serial) vs \
             {:#018X} (4 sweep threads x {workers} intra-run workers)",
            serial.stable_fingerprint(),
            sharded.stable_fingerprint(),
        );
        std::process::exit(1);
    }
    println!(
        "registry worker-invariance OK at scale {registry_scale}: {:#018X}",
        serial.stable_fingerprint()
    );
}

/// Perf-trajectory tripwire: fresh short runs of the large presets must
/// clear `floor × recorded epochs/s` (BENCH_2 throughput, at the worker
/// count the engine resolves). Catches perf regressions that land without
/// re-recording the trajectory.
fn check_perf_floor(workers: usize, floor: f64) {
    if floor <= 0.0 {
        println!("perf floor disabled (floor = 0)");
        return;
    }
    let Some(doc) = std::fs::read_to_string(repo_root().join("BENCH_2.json"))
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        eprintln!("FAIL: BENCH_2.json missing or unparseable; re-run record_goldens");
        std::process::exit(1);
    };
    for name in matrix::THROUGHPUT_PRESETS {
        // Short-budget spec: enough run-loop epochs for a stable epochs/s
        // estimate without full-budget wall time.
        let spec = registry::preset(name).expect("registry preset").scaled(0.05);
        // Baseline at the worker count the engine runs, else the largest
        // recorded count below it.
        let resolved = runner::shard_workers(workers, spec.n_nodes);
        let Some((threads, recorded)) = matrix::baseline_throughput(&doc, name, resolved) else {
            eprintln!("FAIL: BENCH_2.json has no recorded throughput for {name}");
            std::process::exit(1);
        };
        let (eps, epochs, _) = matrix::measure_throughput(&spec, workers, 2);
        let threshold = recorded * floor;
        println!(
            "perf floor {name}: fresh {eps:.0} eps ({epochs} epochs, {workers} workers \
             resolved to {resolved}) vs recorded {recorded:.0} at {threads} × floor {floor} \
             = {threshold:.0}"
        );
        if eps < threshold {
            eprintln!(
                "FAIL: {name} throughput {eps:.0} epochs/s fell below {threshold:.0} \
                 ({floor} × recorded {recorded:.0}).\n\
                 Perf regression — or a noisy runner: override with DIRQ_PERF_FLOOR=F \
                 (0 disables)."
            );
            std::process::exit(1);
        }
    }
}

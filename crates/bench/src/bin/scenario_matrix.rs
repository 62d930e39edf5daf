//! The scenario-matrix bench: run the preset registry through the
//! deterministic sweep executor and record `BENCH_2.json`.
//!
//! Modes:
//!
//! * default — the full registry (100–50 000 nodes, including the ≥2 000
//!   node deployments) at its recorded epoch budgets; writes the artifact
//!   with a per-large-preset epochs/s throughput section and a history
//!   trail of earlier recorded (wall-seconds, fingerprint) pairs.
//! * `--preset NAME` — one preset only.
//! * `--epoch-scale F` / `--quick` — scale every epoch budget (quick ≈ 0.1).
//! * `--smoke` — CI mode: the small smoke preset at two thread counts,
//!   asserting the fingerprints are identical, match the recorded golden,
//!   that the emitted JSON parses back, that the checked-in `BENCH_2.json`
//!   still carries the recorded full-registry fingerprint
//!   ([`registry::REGISTRY_GOLDEN_FINGERPRINT`]), and that short
//!   large-preset runs still clear the perf-trajectory floor (see
//!   `--perf-floor`). Exits non-zero on any mismatch.
//! * `--list` — print the registry and exit.
//!
//! The smoke perf tripwire compares fresh short-run epochs/s of
//! `grid_2000`/`stress_5000`/`stress_20000` against the throughput
//! recorded in `BENCH_2.json` and fails below `floor × recorded`. The
//! floor defaults to 0.35 (CI runners are slower and noisier than the
//! recording box) and can be overridden with `--perf-floor F` or the
//! `DIRQ_PERF_FLOOR` environment variable; `0` disables the tripwire
//! entirely.
//!
//! Usage: `scenario_matrix [--preset NAME] [--epoch-scale F] [--quick]
//! [--threads T] [--workers W] [--replicates R] [--perf-floor F]
//! [--out PATH] [--smoke] [--list]`

use dirq_bench::matrix;
use dirq_scenario::{registry, run_matrix_report, ScenarioSpec, SweepConfig};
use dirq_sim::json::Json;

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: scenario_matrix [--preset NAME] [--epoch-scale F] [--quick] \
         [--threads T] [--workers W] [--replicates R] [--perf-floor F] [--out PATH] \
         [--smoke] [--list]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The perf-trajectory floor: `--perf-floor` wins, then `DIRQ_PERF_FLOOR`,
/// then the default of 0.35. `0` disables the tripwire (documented escape
/// hatch for noisy or heavily shared runners). An unparseable environment
/// value is a hard error — silently falling back to the default would
/// defeat the override exactly when an operator reaches for it.
fn perf_floor(flag: Option<f64>) -> f64 {
    if let Some(f) = flag {
        return f;
    }
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
    let mut cfg = SweepConfig::default();
    let mut out = String::from("BENCH_2.json");
    let mut only: Option<String> = None;
    let mut smoke = false;
    let mut list = false;
    let mut floor_flag: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                cfg.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"))
            }
            "--workers" => {
                cfg.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a number"))
            }
            "--replicates" => {
                cfg.replicates = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--replicates needs a number"))
            }
            "--epoch-scale" => {
                cfg.epoch_scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--epoch-scale needs a number"))
            }
            "--quick" => cfg.epoch_scale = 0.1,
            "--preset" => {
                only = Some(args.next().unwrap_or_else(|| usage("--preset needs a name")))
            }
            "--perf-floor" => {
                floor_flag = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--perf-floor needs a fraction")),
                )
            }
            "--out" => out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--smoke" => smoke = true,
            "--list" => list = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    if list {
        println!("{:<22} {:>6} {:>7}  schemes", "preset", "nodes", "epochs");
        for s in registry::registry() {
            let schemes: Vec<String> = s.schemes.iter().map(|k| k.label()).collect();
            println!("{:<22} {:>6} {:>7}  {}", s.name, s.n_nodes, s.epochs, schemes.join(", "));
        }
        return;
    }

    if smoke {
        run_smoke(&out, &cfg, perf_floor(floor_flag));
        return;
    }

    let specs: Vec<ScenarioSpec> = match &only {
        Some(name) => {
            vec![dirq_scenario::preset(name)
                .unwrap_or_else(|| usage(&format!("unknown preset {name:?} (try --list)")))]
        }
        None => registry::registry(),
    };
    matrix::run_and_record(&specs, &cfg, &out);
}

/// CI smoke: one small preset at two thread counts, the smoke-scaled
/// registry at two worker configurations, golden fingerprints, JSON
/// round-trip, a staleness check of the checked-in `BENCH_2.json`, and
/// the perf-trajectory tripwire. Any failure exits non-zero.
///
/// Only the worker knob (`--workers`) flows in from the command line —
/// the CI worker matrix exercises the parallel world-generation and
/// sensor-sampling paths, and neither may move a fingerprint. Budget knobs
/// (`--epoch-scale`, `--quick`, `--replicates`) are deliberately
/// ignored: the smoke goldens are recorded at fixed budgets.
fn run_smoke(out: &str, cli_cfg: &SweepConfig, floor: f64) {
    let workers = cli_cfg.workers.max(1);
    let base_cfg = &SweepConfig { workers, ..SweepConfig::default() };
    // The recorded artifact must match the registry golden — catching PRs
    // that change behaviour (or the registry) without re-running the
    // matrix and re-recording BENCH_2.json.
    let bench2 = std::fs::read_to_string("BENCH_2.json").ok().and_then(|t| Json::parse(&t).ok());
    match &bench2 {
        Some(doc) => {
            let recorded = doc
                .get("report")
                .and_then(|r| r.get("report_fingerprint"))
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let expected = format!("{:#018X}", registry::REGISTRY_GOLDEN_FINGERPRINT);
            if recorded != expected {
                eprintln!(
                    "FAIL: BENCH_2.json records {recorded}, expected {expected}\n\
                     (behaviour or registry changed? re-record via record_goldens)"
                );
                std::process::exit(1);
            }
        }
        None => {
            eprintln!("FAIL: BENCH_2.json missing or unparseable; re-run record_goldens");
            std::process::exit(1);
        }
    }
    let spec = registry::smoke();
    let single =
        run_matrix_report(std::slice::from_ref(&spec), &SweepConfig { threads: 1, ..*base_cfg });
    let parallel =
        run_matrix_report(std::slice::from_ref(&spec), &SweepConfig { threads: 0, ..*base_cfg });
    let fp = single.stable_fingerprint();
    if fp != parallel.stable_fingerprint() {
        eprintln!(
            "FAIL: thread count changed the report: {:#018X} (1 thread) vs {:#018X} (all cores)",
            fp,
            parallel.stable_fingerprint()
        );
        std::process::exit(1);
    }
    if fp != registry::SMOKE_GOLDEN_FINGERPRINT {
        eprintln!(
            "FAIL: smoke fingerprint {fp:#018X} != recorded golden {:#018X}\n\
             (intentional behaviour change? re-record via record_goldens)",
            registry::SMOKE_GOLDEN_FINGERPRINT
        );
        std::process::exit(1);
    }
    // Golden worker-invariance gate for the parallel world and
    // sensor-sampling paths: the whole registry (scaled to smoke budgets)
    // serial vs with the requested intra-run workers engaged — identical
    // report fingerprints. Only meaningful at more than one worker, so
    // the serial CI matrix leg skips the two extra registry sweeps.
    if workers > 1 {
        let registry_scale = 0.1;
        let reg1 = run_matrix_report(
            &registry::registry(),
            &SweepConfig { threads: 1, epoch_scale: registry_scale, ..SweepConfig::default() },
        );
        let reg_sharded = run_matrix_report(
            &registry::registry(),
            &SweepConfig { threads: 4, epoch_scale: registry_scale, ..*base_cfg },
        );
        if reg1.stable_fingerprint() != reg_sharded.stable_fingerprint() {
            eprintln!(
                "FAIL: registry diverges across worker counts: {:#018X} (serial) vs \
                 {:#018X} (4 sweep threads x {workers} intra-run workers)",
                reg1.stable_fingerprint(),
                reg_sharded.stable_fingerprint(),
            );
            std::process::exit(1);
        }
        println!(
            "registry worker-invariance OK at scale {registry_scale}: {:#018X}",
            reg1.stable_fingerprint()
        );
    } else {
        println!("registry worker-invariance skipped (serial leg; run with --workers > 1)");
    }

    // Perf-trajectory tripwire: fresh short runs of the large presets
    // must clear `floor × recorded epochs/s` (BENCH_2 throughput,
    // matching worker count). Catches perf regressions that land without
    // re-recording the trajectory.
    if floor > 0.0 {
        let doc = bench2.expect("BENCH_2.json verified above");
        for name in ["grid_2000", "stress_5000", "stress_20000"] {
            // Short-budget spec: enough run-loop epochs for a stable
            // epochs/s estimate without full-budget wall time.
            let spec = registry::preset(name).expect("registry preset").scaled(0.05);
            // Baseline at the matching worker count, else the serial one.
            let Some(recorded) = matrix::recorded_throughput(&doc, name, workers)
                .or_else(|| matrix::recorded_throughput(&doc, name, 1))
            else {
                eprintln!("FAIL: BENCH_2.json has no recorded throughput for {name}");
                std::process::exit(1);
            };
            let (eps, epochs, _) = matrix::measure_throughput(&spec, workers, 2);
            let threshold = recorded * floor;
            println!(
                "perf floor {name}: fresh {eps:.0} eps ({epochs} epochs, {workers} workers) \
                 vs recorded {recorded:.0} × floor {floor} = {threshold:.0}"
            );
            if eps < threshold {
                eprintln!(
                    "FAIL: {name} throughput {eps:.0} epochs/s fell below {threshold:.0} \
                     ({floor} × recorded {recorded:.0}).\n\
                     Perf regression — or a noisy runner: override with --perf-floor F or \
                     DIRQ_PERF_FLOOR=F (0 disables)."
                );
                std::process::exit(1);
            }
        }
    } else {
        println!("perf floor disabled (floor = 0)");
    }

    let doc = matrix::artifact(&single, &SweepConfig::default(), 0.0);
    let text = doc.render_pretty();
    std::fs::write(out, &text).expect("write smoke json");
    let parsed = match Json::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("FAIL: emitted smoke JSON does not parse: {e}");
            std::process::exit(1);
        }
    };
    let recorded = parsed
        .get("report")
        .and_then(|r| r.get("report_fingerprint"))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    if recorded != format!("{fp:#018X}") {
        eprintln!("FAIL: JSON round-trip lost the fingerprint: {recorded:?}");
        std::process::exit(1);
    }
    println!("smoke OK: fingerprint {fp:#018X} stable across thread counts, JSON parses");
    println!("wrote {out}");
}

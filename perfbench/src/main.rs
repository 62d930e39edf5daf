//! The DirQ benchmark: engine construction, the run loop and `dirqd`
//! serving, measured end to end and per layer from outside the program.
//!
//! ```text
//! dirq-perfbench --workload run_20k|serve_mixed
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in its own process (so the peak RSS
//! it reports is that workload's alone), checks every output against its
//! correctness gates, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! time every layer call separately and report the per-layer metrics. A
//! failed gate exits non-zero without printing a result. See
//! `perfbench/README.md` for the metric definitions.

mod engine;
mod refspeed;
mod serve;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with allocation counting (the
/// `perf_baseline` pattern), so runs can report allocations per epoch.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(calls, bytes)` allocated so far by the whole process.
pub fn alloc_counters() -> (u64, u64) {
    (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// Process high-water RSS (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, mask_bytes: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run. Time the host took the CPU
/// away (steal) and time spent waiting for a core do not count.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds every thread of the process has run, on the same terms.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Worker threads the host offers; every "= nproc" knob uses this. Read
/// once, before [`pin_to_one_cpu`] can narrow what the process sees.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Keep every thread of the process, and every thread it starts later,
/// on the CPU it runs on now. Hand-offs between threads then cost the
/// same in every run instead of depending on whether the scheduler put
/// the two threads on one CPU or on two, and no thread migrates away
/// from its warm cache mid-measurement.
fn pin_to_one_cpu() -> Result<usize, String> {
    // SAFETY: plain libc call.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU index beyond the affinity mask")? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid 1024-bit CPU set for the whole call.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// What one workload run produced: named metrics plus the operation
/// tally the result line carries.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// End-to-end metrics every untraced run reports, with units, in
/// `BENCHMARK.json` order. The two times are CPU time at the reference
/// speed ([`refspeed`]), which the rest of a shared host moves far less
/// than wall time.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("cpu_ms_per_op", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics every traced run reports, with units; a layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // set-up replay
    ("net.deploy_s", "s"),
    ("net.deploy_attempts", "count"),
    ("net.tree_s", "s"),
    ("net.coloring_s", "s"),
    ("lmac.build_s", "s"),
    ("lmac.assign_slots_s", "s"),
    ("data.world_init_s", "s"),
    ("analytic.costs_s", "s"),
    ("core.setup_other_s", "s"),
    ("core.setup_s", "s"),
    // run loop at nproc workers
    ("data.world_ms", "ms"),
    ("lmac.mac_ms", "ms"),
    ("core.dispatch_ms", "ms"),
    ("core.sampling_ms", "ms"),
    ("core.repair_ms", "ms"),
    ("core.injection_ms", "ms"),
    ("core.ehr_ms", "ms"),
    ("core.churn_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    // run loop at one worker
    ("data.world_ms_1w", "ms"),
    ("lmac.mac_ms_1w", "ms"),
    ("core.dispatch_ms_1w", "ms"),
    ("core.sampling_ms_1w", "ms"),
    ("core.repair_ms_1w", "ms"),
    ("core.injection_ms_1w", "ms"),
    ("core.ehr_ms_1w", "ms"),
    ("core.churn_ms_1w", "ms"),
    ("core.finalize_ms_1w", "ms"),
    ("core.unattributed_ms_1w", "ms"),
    ("core.step_ms_p50", "ms"),
    ("core.step_ms_tail", "ms"),
    ("data.world_alone_ms", "ms"),
    ("data.world_alone_ms_1w", "ms"),
    ("core.epochs_per_s", "epochs/s"),
    ("core.epochs_per_s_1w", "epochs/s"),
    ("sim.shard_speedup", "ratio"),
    ("bench.allocs_per_epoch", "count"),
    ("bench.alloc_kib_per_epoch", "KiB"),
    ("lmac.delivered", "count"),
    ("lmac.undeliverable", "count"),
    ("core.queries_injected", "count"),
    ("data.calibration_probes", "count"),
    ("core.cost_per_query", "tx"),
    // serving
    ("dirqd.deploy_ms", "ms"),
    ("dirqd.submit_ms_p50", "ms"),
    ("dirqd.submit_ms_tail", "ms"),
    ("dirqd.drain_ms_p50", "ms"),
    ("dirqd.drain_ms_tail", "ms"),
    ("dirqd.drain_yield", "count"),
    ("dirqd.queue_full_ratio", "ratio"),
    ("dirqd.turn_eps", "epochs/s"),
    ("dirqd.queries_per_epoch", "count"),
    ("dirqd.epochs_to_answer_p50", "count"),
    ("dirqd.serve_qps_sat", "q/s"),
    ("dirqd.serve_p50_ms", "ms"),
    ("dirqd.serve_p99_ms", "ms"),
    ("dirqd.serve_slo_ratio", "ratio"),
    ("sim.json_parse_us", "us"),
    ("sim.json_render_us", "us"),
    ("sim.snapshot_ms", "ms"),
    ("sim.restore_ms", "ms"),
    ("sim.image_bytes", "bytes"),
    ("bench.gen_late_ms_tail", "ms"),
    ("bench.fail_ratio", "ratio"),
    // self time per layer, from the spans
    ("net.self_s", "s"),
    ("lmac.self_s", "s"),
    ("data.self_s", "s"),
    ("analytic.self_s", "s"),
    ("core.self_s", "s"),
    ("sim.self_s", "s"),
    ("dirqd.self_s", "s"),
    ("bench.self_s", "s"),
];

/// Directory (inside the checkout) for scratch files and span dumps.
pub const OUT_DIR: &str = ".bench_out";

fn run(args: &Args) -> Result<Report, String> {
    let mut tracer = trace::Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "run_20k" => engine::run_20k(args, &mut tracer)?,
        "serve_mixed" => serve::serve_mixed(args, &mut tracer)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    report.put("bench.fail_ratio", report.failed as f64 / report.attempted.max(1) as f64, "ratio");
    if args.trace {
        for (layer, self_s) in tracer.self_time_by_layer() {
            report.put(&format!("{layer}.self_s"), self_s, "s");
        }
        let path = format!("{OUT_DIR}/trace-{}-seed{}.jsonl", args.workload, args.seed);
        tracer.write(&path).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("perfbench: {} spans written to {path}", tracer.len());
    }
    Ok(report)
}

/// Render the result line: the metric set the mode promises, each with
/// its unit, in declaration order.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in if trace { PER_LAYER } else { END_TO_END } {
        let value = match report.metrics.iter().find(|(n, ..)| n == name) {
            Some(&(_, v, _)) => v,
            // A layer this workload does not exercise.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        parts.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: dirq-perfbench --workload run_20k|serve_mixed --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    eprintln!("perfbench: nproc {}", nproc());
    // Untraced runs measure CPU time on one CPU; traced runs keep every
    // CPU, since their wall-clock figures at nproc workers need them.
    if !args.trace {
        match pin_to_one_cpu() {
            Ok(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let line = run(&args).and_then(|report| {
        for (name, value, unit) in &report.metrics {
            println!("{:<32} {value:>16.6} {unit}", name);
        }
        result_line(&report, args.trace)
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq::sim::json::Json;

    /// The result line's metric sets are the ones `BENCHMARK.json` lists.
    #[test]
    fn metric_sets_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("parse BENCHMARK.json");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }
}

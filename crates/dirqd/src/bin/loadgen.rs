//! The dirqd load-generator harness.
//!
//! ```text
//! loadgen [--smoke] [--addr HOST:PORT] [--out BENCH_3.json]
//!         [--clients N] [--duration-s F] [--warmup EPOCHS]
//! ```
//!
//! Default mode spins up an in-process daemon (or targets `--addr`),
//! deploys two registry presets, and for each one:
//!
//! 1. steps a deterministic warm-up and records the engine's
//!    `state_fingerprint` (the reproducible half of the artifact —
//!    `record_goldens --check` re-derives it),
//! 2. measures snapshot and restore round trips (image size + latency)
//!    and asserts the restored deployment fingerprints equal,
//! 3. runs the barriered latency-histogram phase ([`dirqd::loadmodel`]):
//!    per-query wall-ms percentiles plus the deterministic
//!    epochs-to-answer histogram, verified against the engine-level
//!    reference replay,
//! 4. drives `--clients` concurrent connections of blocking queries for
//!    `--duration-s` and records sustained queries/sec,
//! 5. repeats the throughput phase in non-blocking mode (async submit +
//!    a drain loop) and asserts the sustained rate is no worse than the
//!    blocking baseline,
//!
//! then writes `BENCH_3.json`. `--smoke` is the CI mode: shorter
//! warm-up, barriered blocking *and* async query sequences against both
//! the original and the restored deployment (trajectories must stay
//! fingerprint-identical regardless of poll timing), a pipelined
//! drain-completeness check (every submitted id drained exactly once),
//! a deterministic `queue_full` probe, a many-deployments fleet probe
//! (64 deployments multiplexed over a 4-thread serving pool, each
//! drain returning only its own completions), a clean shutdown, and no
//! artifact write — any violated invariant exits non-zero.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dirq_sim::json::Json;
use dirq_sim::snap::SNAP_FORMAT_VERSION;
use dirqd::loadmodel::{
    hist_query, histogram_counts, percentile, reference_epochs_histogram, HIST_QUERIES,
};
use dirqd::protocol::fingerprint_hex;
use dirqd::{Client, Daemon, DaemonOptions, DeployOptions};

/// The benchmarked deployments: `(preset, epoch-budget scale)`. Scaled
/// to ~10 % so a full loadgen pass stays in CI seconds while the
/// engines still cross their measurement windows.
const DEPLOYMENTS: &[(&str, f64)] = &[("dense_grid_100", 0.1), ("hotspot_workload_200", 0.1)];

/// Ids submitted by the smoke mode's pipelined drain-completeness check.
const SMOKE_PIPELINE_QUERIES: usize = 16;

/// Deployments in the smoke mode's many-deployments fleet probe.
const FLEET_SIZE: usize = 64;

/// Serving-pool size the fleet probe multiplexes the fleet over.
const FLEET_THREADS: usize = 4;

struct Args {
    smoke: bool,
    addr: Option<String>,
    out: String,
    clients: usize,
    duration_s: f64,
    warmup: u64,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        addr: None,
        out: String::from("BENCH_3.json"),
        clients: 4,
        duration_s: 2.0,
        warmup: 60,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match a.as_str() {
            "--smoke" => {
                parsed.smoke = true;
                parsed.warmup = 20;
            }
            "--addr" => parsed.addr = Some(value("--addr")),
            "--out" => parsed.out = value("--out"),
            "--clients" => parsed.clients = value("--clients").parse().expect("--clients: usize"),
            "--duration-s" => {
                parsed.duration_s = value("--duration-s").parse().expect("--duration-s: f64");
            }
            "--warmup" => parsed.warmup = value("--warmup").parse().expect("--warmup: u64"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: loadgen [--smoke] [--addr HOST:PORT] [--out PATH] \
                     [--clients N] [--duration-s F] [--warmup EPOCHS]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    parsed
}

/// Deterministic query content for the `k`-th query of client `c` —
/// windows sweep the sensor-0 value range so batches vary without RNG.
fn query_window(c: usize, k: usize) -> (f64, f64) {
    let lo = 12.0 + ((c * 5 + k) % 9) as f64;
    (lo, lo + 6.0 + (k % 4) as f64)
}

/// Submit one async query, retrying while the admission queue is full —
/// the throughput loops treat `queue_full` as backpressure.
fn submit_with_backpressure(
    client: &mut Client,
    deployment: &str,
    stype: u8,
    lo: f64,
    hi: f64,
    tag: &str,
) -> u64 {
    loop {
        match client.query_async(deployment, stype, lo, hi, None, Some(tag)) {
            Ok((id, _)) => return id,
            Err(e) if e.kind() == Some("queue_full") => {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => panic!("async submit: {e}"),
        }
    }
}

/// The smoke mode's per-preset checks beyond the snapshot/restore
/// equality: blocking and async barriered sequences must keep the
/// original and restored deployments on identical trajectories (the
/// restored side resolves through `drain`, the original through `poll`,
/// pinning poll-timing invariance), and a pipelined burst must drain
/// back exactly once per id.
fn run_smoke_checks(control: &mut Client, preset: &str, restored_name: &str) {
    // Identical barriered blocking sequences.
    for k in 0..3 {
        let (lo, hi) = query_window(0, k);
        let a = control.query(preset, 0, lo, hi, None).expect("query original");
        let b = control.query(restored_name, 0, lo, hi, None).expect("query restored");
        assert_eq!(a.id, b.id, "id allocation diverged");
        assert_eq!(a.answered_epoch, b.answered_epoch, "batch resolution diverged");
        assert_eq!(a.sources_reached, b.sources_reached, "outcomes diverged");
        assert!(a.answered_epoch > a.epoch, "a batch must advance epochs");
        assert_eq!(a.epochs_to_answer, a.answered_epoch - a.epoch);
    }

    // Identical barriered async sequences: original resolves via poll,
    // restored via drain — the trajectories must not care.
    let mut drain_cursor = control.drain(restored_name, u64::MAX).expect("drain head").cursor;
    for k in 0..3 {
        let (stype, lo, hi) = hist_query(k);
        let (id_a, submitted_a) =
            control.query_async(preset, stype, lo, hi, None, None).expect("async original");
        let a = loop {
            match control.poll(preset, id_a).expect("poll original") {
                Some(report) => break report,
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        };
        let (id_b, submitted_b) =
            control.query_async(restored_name, stype, lo, hi, None, None).expect("async restored");
        let b = loop {
            let drained = control.drain(restored_name, drain_cursor).expect("drain restored");
            assert!(drained.cursor >= drain_cursor, "drain cursor must be monotone");
            drain_cursor = drained.cursor;
            if let Some((_, report)) = drained.results.iter().find(|(_, r)| r.id == id_b) {
                break *report;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(id_a, id_b, "async id allocation diverged");
        assert_eq!(submitted_a, submitted_b, "async injection epochs diverged");
        assert_eq!(a.answered_epoch, b.answered_epoch, "async resolution diverged");
        assert_eq!(a.sources_reached, b.sources_reached, "async outcomes diverged");
        // A completed id stays pollable (idempotent reads).
        let again = control.poll(preset, id_a).expect("re-poll").expect("still done");
        assert_eq!(again.answered_epoch, a.answered_epoch);
    }
    let (_, fp_a) = control.fingerprint(preset).expect("fingerprint");
    let (_, fp_b) = control.fingerprint(restored_name).expect("fingerprint");
    assert_eq!(fp_a, fp_b, "{preset}: trajectories diverged across blocking/async sequences");

    // Pipelined drain-completeness: a burst of async submissions, no
    // barrier, must come back from the drain loop exactly once each.
    let head = control.drain(preset, u64::MAX).expect("drain head").cursor;
    let mut submitted = Vec::new();
    for k in 0..SMOKE_PIPELINE_QUERIES {
        let (stype, lo, hi) = hist_query(k);
        let (id, _) =
            control.query_async(preset, stype, lo, hi, None, Some("pipeline")).expect("submit");
        submitted.push(id);
    }
    let mut seen = std::collections::HashMap::new();
    let mut cursor = head;
    while seen.len() < submitted.len() {
        let drained = control.drain(preset, cursor).expect("drain");
        assert!(drained.cursor >= cursor, "drain cursor must be monotone");
        cursor = drained.cursor;
        for (_, report) in &drained.results {
            *seen.entry(report.id).or_insert(0u64) += 1;
        }
        if drained.results.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    for id in &submitted {
        assert_eq!(seen.get(id), Some(&1), "id {id} must drain exactly once");
    }
    assert_eq!(seen.len(), submitted.len(), "drain returned ids that were never submitted");
    eprintln!(
        "loadgen: {preset} smoke ok ({SMOKE_PIPELINE_QUERIES} pipelined ids drained exactly \
         once, post-batch fingerprint {})",
        fingerprint_hex(fp_a)
    );
}

/// The smoke mode's many-deployments probe: a dedicated in-process
/// daemon with a [`FLEET_THREADS`]-worker serving pool hosting
/// [`FLEET_SIZE`] scaled-down deployments (distinct seeds). `status`
/// must list the whole fleet, and an async query submitted to each
/// deployment must come back from *that deployment's* drain exactly
/// once — no cross-deployment bleed through the shared pool.
fn run_fleet_probe() {
    let (addr, handle) = Daemon::spawn_with(
        "127.0.0.1:0",
        DaemonOptions { serving_threads: FLEET_THREADS, recover: None },
    )
    .expect("spawn fleet daemon");
    let addr = addr.to_string();
    let mut control = Client::connect(&addr).expect("connect fleet control");
    let names: Vec<String> = (0..FLEET_SIZE).map(|i| format!("fleet-{i:02}")).collect();
    for (i, name) in names.iter().enumerate() {
        control
            .deploy(
                name,
                DEPLOYMENTS[0].0,
                &DeployOptions {
                    scale: Some(0.05),
                    seed: Some(1000 + i as u64),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("deploy {name}: {e}"));
    }
    let status = control.status_full().expect("fleet status");
    assert_eq!(status.serving_threads, FLEET_THREADS as u64, "pool size must be reported");
    assert_eq!(status.deployments.len(), FLEET_SIZE, "status must list the whole fleet");
    for (row, name) in status.deployments.iter().zip(&names) {
        assert_eq!(&row.name, name, "status rows must be name-ascending");
    }

    // One async query per deployment, all pipelined before any drain so
    // the pool is saturated with concurrent turns, then drain each
    // deployment and require exactly its own submission back.
    let mut submitted = Vec::with_capacity(FLEET_SIZE);
    for (i, name) in names.iter().enumerate() {
        let (lo, hi) = query_window(i, 0);
        let (id, _) =
            control.query_async(name, 0, lo, hi, None, Some("fleet")).expect("fleet submit");
        submitted.push(id);
    }
    for (name, &expect_id) in names.iter().zip(&submitted) {
        let mut cursor = 0;
        let mut got = Vec::new();
        loop {
            let drained = control.drain(name, cursor).expect("fleet drain");
            cursor = drained.cursor;
            got.extend(drained.results.iter().map(|(_, r)| r.id));
            if drained.pending == 0 && drained.results.is_empty() {
                break;
            }
            if drained.results.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        assert_eq!(
            got,
            vec![expect_id],
            "{name}: drain must return exactly its own completion, exactly once"
        );
    }
    control.shutdown().expect("fleet shutdown");
    handle.join().expect("fleet daemon thread").expect("fleet daemon serve");
    eprintln!(
        "loadgen: fleet probe ok ({FLEET_SIZE} deployments over {FLEET_THREADS} serving threads, \
         no cross-deployment bleed)"
    );
}

/// The barriered latency-histogram phase: submit → wait → next, through
/// the async path end to end. Returns (wall-ms samples, epochs-to-answer
/// samples), the latter verified against the engine-level reference.
fn run_histogram_phase(
    control: &mut Client,
    preset: &str,
    scale: f64,
    warmup: u64,
) -> (Vec<f64>, Vec<u64>) {
    let mut wall_ms = Vec::with_capacity(HIST_QUERIES);
    let mut epochs = Vec::with_capacity(HIST_QUERIES);
    for k in 0..HIST_QUERIES {
        let (stype, lo, hi) = hist_query(k);
        let t0 = Instant::now();
        let (id, _) = control.query_async(preset, stype, lo, hi, None, None).expect("hist submit");
        let report = loop {
            match control.poll(preset, id).expect("hist poll") {
                Some(r) => break r,
                None => std::thread::yield_now(),
            }
        };
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        epochs.push(report.epochs_to_answer);
    }
    let reference = reference_epochs_histogram(preset, scale, warmup);
    assert_eq!(
        epochs, reference,
        "{preset}: daemon epochs-to-answer diverged from the engine-level replay"
    );
    (wall_ms, epochs)
}

/// One throughput phase: `clients` threads submitting for `duration_s`.
/// Blocking mode waits per query; async mode pipelines submissions and
/// a dedicated drainer collects completions until every submitted id
/// has come back. Returns `(completed, elapsed_s)`.
fn run_throughput_phase(
    addr: &str,
    control: &mut Client,
    preset: &str,
    clients: usize,
    duration_s: f64,
    non_blocking: bool,
) -> (u64, f64) {
    let completed = Arc::new(AtomicU64::new(0));
    let submitting = Arc::new(AtomicBool::new(true));
    let submitted = Arc::new(AtomicU64::new(0));
    let head = control.drain(preset, u64::MAX).expect("drain head").cursor;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(duration_s);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..clients)
            .map(|c| {
                let completed = Arc::clone(&completed);
                let submitted = Arc::clone(&submitted);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect load client");
                    let tag = format!("client-{c}");
                    let mut k = 0usize;
                    while Instant::now() < deadline {
                        let (lo, hi) = query_window(c, k);
                        if non_blocking {
                            submit_with_backpressure(
                                &mut client,
                                preset,
                                (k % 2) as u8,
                                lo,
                                hi,
                                &tag,
                            );
                            submitted.fetch_add(1, Ordering::Relaxed);
                        } else {
                            client.query(preset, (k % 2) as u8, lo, hi, None).expect("load query");
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        k += 1;
                    }
                })
            })
            .collect();
        if non_blocking {
            // Drain concurrently with submission, then keep draining
            // until every submitted id has come back. The flag flips
            // only after every submitter has joined, so `submitted` is
            // final by the time the drainer can observe `false`.
            let completed = Arc::clone(&completed);
            let submitting_r = Arc::clone(&submitting);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect drain client");
                let mut cursor = head;
                loop {
                    let drained = client.drain(preset, cursor).expect("drain");
                    cursor = drained.cursor;
                    completed.fetch_add(drained.results.len() as u64, Ordering::Relaxed);
                    let done = !submitting_r.load(Ordering::Acquire)
                        && completed.load(Ordering::Relaxed) >= submitted.load(Ordering::Relaxed);
                    if done {
                        break;
                    }
                    if drained.results.is_empty() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            });
            let submitting_w = Arc::clone(&submitting);
            scope.spawn(move || {
                for s in submitters {
                    s.join().expect("submitter thread");
                }
                submitting_w.store(false, Ordering::Release);
            });
        }
    });
    (completed.load(Ordering::Relaxed), t0.elapsed().as_secs_f64())
}

fn main() {
    let args = parse_args();
    let (addr, daemon_thread) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let (local, handle) = Daemon::spawn("127.0.0.1:0").expect("spawn in-process daemon");
            (local.to_string(), Some(handle))
        }
    };
    eprintln!("loadgen: daemon at {addr}");
    let mut control = Client::connect(&addr).expect("connect control client");

    let mut rows: Vec<Json> = Vec::new();
    for &(preset, scale) in DEPLOYMENTS {
        let summary = control
            .deploy(preset, preset, &DeployOptions { scale: Some(scale), ..Default::default() })
            .unwrap_or_else(|e| panic!("deploy {preset}: {e}"));
        eprintln!(
            "loadgen: deployed {preset} ({} nodes, scheme {}, seed {})",
            summary.nodes, summary.scheme, summary.seed
        );

        let epoch = control.step(preset, args.warmup).expect("warm-up step");
        assert_eq!(epoch, args.warmup, "warm-up must land on the requested epoch");
        let (fp_epoch, fp) = control.fingerprint(preset).expect("fingerprint");
        assert_eq!(fp_epoch, epoch);

        // Snapshot → restore round trip, timed from the client side.
        let image_path = std::env::temp_dir()
            .join(format!("dirqd-loadgen-{preset}.{}", dirqd::protocol::IMAGE_EXTENSION))
            .to_string_lossy()
            .into_owned();
        let t0 = Instant::now();
        let snap = control.snapshot(preset, &image_path).expect("snapshot");
        let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(snap.fingerprint, fp, "snapshot must capture the fingerprinted state");

        let restored_name = format!("{preset}@restored");
        let t0 = Instant::now();
        let restored = control
            .restore(&restored_name, &image_path, &DeployOptions::default())
            .expect("restore");
        let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(restored.epoch, epoch, "restore must resume at the captured epoch");
        let (_, restored_fp) = control.fingerprint(&restored_name).expect("fingerprint");
        assert_eq!(
            restored_fp, fp,
            "{preset}: restored state fingerprint diverged from the live engine"
        );
        eprintln!(
            "loadgen: {preset} snapshot {} bytes ({snapshot_ms:.1} ms), \
             restore {restore_ms:.1} ms, fingerprint {}",
            snap.bytes,
            fingerprint_hex(fp)
        );

        if args.smoke {
            run_smoke_checks(&mut control, preset, &restored_name);
            continue;
        }

        // Barriered latency histogram (async end to end, verified
        // against the engine-level reference).
        let (wall_ms, epochs_hist) = run_histogram_phase(&mut control, preset, scale, args.warmup);
        eprintln!(
            "loadgen: {preset} histogram p50 {:.2} ms / p99 {:.2} ms wall, epochs-to-answer {:?}",
            percentile(&wall_ms, 50.0),
            percentile(&wall_ms, 99.0),
            histogram_counts(&epochs_hist)
        );

        // Sustained throughput, blocking then non-blocking.
        let (total, elapsed) =
            run_throughput_phase(&addr, &mut control, preset, args.clients, args.duration_s, false);
        let qps = total as f64 / elapsed;
        eprintln!("loadgen: {preset} blocking {total} queries in {elapsed:.2} s → {qps:.1} q/s");

        let (async_total, async_elapsed) =
            run_throughput_phase(&addr, &mut control, preset, args.clients, args.duration_s, true);
        let async_qps = async_total as f64 / async_elapsed;
        eprintln!(
            "loadgen: {preset} async {async_total} queries in {async_elapsed:.2} s \
             → {async_qps:.1} q/s"
        );
        assert!(
            async_qps >= qps,
            "{preset}: non-blocking throughput ({async_qps:.1} q/s) fell below the blocking \
             baseline ({qps:.1} q/s)"
        );

        let mut row = Json::object();
        row.set("name", Json::Str(preset.to_string()));
        row.set("preset", Json::Str(preset.to_string()));
        row.set("scale", Json::Num(scale));
        row.set("scheme", Json::Str(summary.scheme.clone()));
        row.set("seed", Json::from_u64(summary.seed));
        row.set("nodes", Json::from_u64(summary.nodes as u64));
        row.set("warmup_epochs", Json::from_u64(args.warmup));
        row.set("state_fingerprint", Json::Str(fingerprint_hex(fp)));
        row.set("snapshot_bytes", Json::from_u64(snap.bytes));
        row.set("snapshot_ms", Json::Num(snapshot_ms));
        row.set("restore_ms", Json::Num(restore_ms));
        row.set("hist_queries", Json::from_u64(HIST_QUERIES as u64));
        row.set(
            "epochs_to_answer",
            Json::Arr(
                histogram_counts(&epochs_hist)
                    .into_iter()
                    .map(|(l, n)| Json::Arr(vec![Json::from_u64(l), Json::from_u64(n)]))
                    .collect(),
            ),
        );
        row.set("latency_ms_p50", Json::Num(percentile(&wall_ms, 50.0)));
        row.set("latency_ms_p90", Json::Num(percentile(&wall_ms, 90.0)));
        row.set("latency_ms_p99", Json::Num(percentile(&wall_ms, 99.0)));
        row.set("queries_completed", Json::from_u64(total));
        row.set("elapsed_s", Json::Num(elapsed));
        row.set("qps", Json::Num(qps));
        row.set("async_queries_completed", Json::from_u64(async_total));
        row.set("async_elapsed_s", Json::Num(async_elapsed));
        row.set("async_qps", Json::Num(async_qps));
        rows.push(row);
    }

    if args.smoke {
        // Deterministic queue_full: a zero-capacity queue rejects every
        // submission with the typed error.
        let queue0 = "queue0";
        control
            .deploy(
                queue0,
                DEPLOYMENTS[0].0,
                &DeployOptions {
                    scale: Some(DEPLOYMENTS[0].1),
                    queue_cap: Some(0),
                    ..Default::default()
                },
            )
            .expect("deploy queue0");
        let err = control
            .query_async(queue0, 0, 12.0, 20.0, None, None)
            .expect_err("zero-capacity queue must reject");
        assert_eq!(err.kind(), Some("queue_full"), "wrong rejection: {err}");
        eprintln!("loadgen: queue_full probe ok");
    }

    let deployments = control.status().expect("status");
    let expected = 2 * DEPLOYMENTS.len() + usize::from(args.smoke);
    assert_eq!(deployments.len(), expected, "originals and restores should both be listed");
    control.shutdown().expect("shutdown");
    if let Some(handle) = daemon_thread {
        handle.join().expect("daemon thread").expect("daemon serve");
        eprintln!("loadgen: daemon shut down cleanly");
    }

    if args.smoke {
        run_fleet_probe();
        println!("loadgen --smoke: all invariants held");
        return;
    }

    let mut doc = Json::object();
    doc.set("schema", Json::Str("dirqd-loadgen/2".into()));
    doc.set("image_format_version", Json::Num(f64::from(SNAP_FORMAT_VERSION)));
    doc.set("clients", Json::from_u64(args.clients as u64));
    doc.set("duration_s", Json::Num(args.duration_s));
    doc.set("deployments", Json::Arr(rows));
    std::fs::write(&args.out, doc.render_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("loadgen: wrote {}", args.out);
}

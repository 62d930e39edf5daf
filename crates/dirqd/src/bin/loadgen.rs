//! The dirqd smoke check.
//!
//! ```text
//! loadgen
//! ```
//!
//! Spins up an in-process daemon, deploys two registry presets, and for
//! each one:
//!
//! 1. steps a deterministic warm-up and records the engine's
//!    `state_fingerprint`,
//! 2. snapshots the deployment, restores the image under a second name
//!    and asserts the two fingerprints equal,
//! 3. submits the [`HIST_QUERIES`] barriered async queries of
//!    [`dirqd::loadmodel`] to both deployments, resolved through `poll`,
//!    and asserts each one's epochs-to-answer equal the engine-level
//!    replay ([`reference_epochs_histogram`]),
//! 4. runs identical barriered blocking and async sequences against
//!    the original and the restored deployment (resolved through `poll`
//!    on one side and `drain` on the other; the trajectories must stay
//!    fingerprint-identical regardless of poll timing), then a
//!    pipelined drain-completeness check (every submitted id drained
//!    exactly once),
//!
//! then a deterministic `queue_full` probe, a clean shutdown, and a
//! many-deployments fleet probe (64 deployments multiplexed over a
//! 4-thread serving pool, each drain returning only its own
//! completions). It takes no flags and writes nothing; any violated
//! invariant exits non-zero. The daemon's throughput and latency are
//! measured by the benchmark's `serve_mixed` workload.

use dirqd::loadmodel::{hist_query, histogram_counts, reference_epochs_histogram, HIST_QUERIES};
use dirqd::protocol::fingerprint_hex;
use dirqd::{Client, Daemon, DaemonOptions, DeployOptions, QueryReport};

/// The checked deployments: `(preset, epoch-budget scale)`. Scaled to
/// ~10 % so a pass stays in CI seconds while the engines still cross
/// their measurement windows.
const DEPLOYMENTS: &[(&str, f64)] = &[("dense_grid_100", 0.1), ("hotspot_workload_200", 0.1)];

/// Epochs stepped before the snapshot.
const WARMUP: u64 = 20;

/// Ids submitted by the pipelined drain-completeness check.
const SMOKE_PIPELINE_QUERIES: usize = 16;

/// Deployments in the many-deployments fleet probe.
const FLEET_SIZE: usize = 64;

/// Serving-pool size the fleet probe multiplexes the fleet over.
const FLEET_THREADS: usize = 4;

/// Deterministic query content for the `k`-th query of client `c` —
/// windows sweep the sensor-0 value range so batches vary without RNG.
fn query_window(c: usize, k: usize) -> (f64, f64) {
    let lo = 12.0 + ((c * 5 + k) % 9) as f64;
    (lo, lo + 6.0 + (k % 4) as f64)
}

/// Poll `id` on `deployment` until it has finalised.
fn await_poll(control: &mut Client, deployment: &str, id: u64) -> QueryReport {
    loop {
        match control.poll(deployment, id).expect("poll") {
            Some(report) => return report,
            None => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }
}

/// Submit the [`HIST_QUERIES`] barriered async queries to `deployment`,
/// each resolved through `poll` before the next, and return their
/// epochs-to-answer in submission order.
fn hist_epochs(control: &mut Client, deployment: &str) -> Vec<u64> {
    (0..HIST_QUERIES)
        .map(|k| {
            let (stype, lo, hi) = hist_query(k);
            let (id, _) =
                control.query_async(deployment, stype, lo, hi, None, None).expect("hist submit");
            await_poll(control, deployment, id).epochs_to_answer
        })
        .collect()
}

/// The per-preset checks after the snapshot/restore equality and the
/// epochs-to-answer replay: blocking and async barriered sequences must
/// keep the original and restored deployments on identical trajectories
/// (the restored side resolves through `drain`, the original through
/// `poll`, pinning poll-timing invariance), and a pipelined burst must
/// drain back exactly once per id.
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
        let a = await_poll(control, preset, id_a);
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

/// The many-deployments probe: a dedicated in-process
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

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: loadgen (takes no arguments)");
        std::process::exit(2);
    }
    let (addr, daemon_thread) = Daemon::spawn("127.0.0.1:0").expect("spawn in-process daemon");
    eprintln!("loadgen: daemon at {addr}");
    let mut control = Client::connect(addr).expect("connect control client");

    for &(preset, scale) in DEPLOYMENTS {
        let summary = control
            .deploy(preset, preset, &DeployOptions { scale: Some(scale), ..Default::default() })
            .unwrap_or_else(|e| panic!("deploy {preset}: {e}"));
        eprintln!(
            "loadgen: deployed {preset} ({} nodes, scheme {}, seed {})",
            summary.nodes, summary.scheme, summary.seed
        );

        let epoch = control.step(preset, WARMUP).expect("warm-up step");
        assert_eq!(epoch, WARMUP, "warm-up must land on the requested epoch");
        let (fp_epoch, fp) = control.fingerprint(preset).expect("fingerprint");
        assert_eq!(fp_epoch, epoch);

        // Snapshot → restore round trip.
        let image_path = std::env::temp_dir()
            .join(format!("dirqd-loadgen-{preset}.{}", dirqd::protocol::IMAGE_EXTENSION))
            .to_string_lossy()
            .into_owned();
        let snap = control.snapshot(preset, &image_path).expect("snapshot");
        assert_eq!(snap.fingerprint, fp, "snapshot must capture the fingerprinted state");
        let restored_name = format!("{preset}@restored");
        let restored = control
            .restore(&restored_name, &image_path, &DeployOptions::default())
            .expect("restore");
        assert_eq!(restored.epoch, epoch, "restore must resume at the captured epoch");
        let (_, restored_fp) = control.fingerprint(&restored_name).expect("fingerprint");
        assert_eq!(
            restored_fp, fp,
            "{preset}: restored state fingerprint diverged from the live engine"
        );
        eprintln!(
            "loadgen: {preset} snapshot {} bytes, fingerprint {}",
            snap.bytes,
            fingerprint_hex(fp)
        );

        // The same histogram sequence on both sides keeps them in step.
        let reference = reference_epochs_histogram(preset, scale, WARMUP);
        for name in [preset, restored_name.as_str()] {
            assert_eq!(
                hist_epochs(&mut control, name),
                reference,
                "{name}: daemon epochs-to-answer diverged from the engine-level replay"
            );
        }
        eprintln!(
            "loadgen: {preset} epochs-to-answer {:?} match the replay on both deployments",
            histogram_counts(&reference)
        );

        run_smoke_checks(&mut control, preset, &restored_name);
    }

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

    let deployments = control.status().expect("status");
    let expected = 2 * DEPLOYMENTS.len() + 1;
    assert_eq!(deployments.len(), expected, "originals and restores should both be listed");
    control.shutdown().expect("shutdown");
    daemon_thread.join().expect("daemon thread").expect("daemon serve");
    eprintln!("loadgen: daemon shut down cleanly");

    run_fleet_probe();
    println!("loadgen: all invariants held");
}

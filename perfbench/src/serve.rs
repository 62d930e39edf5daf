//! The serving workload `serve_mixed`: an in-process `dirqd` with a
//! serving pool of nproc threads hosting four small deployments (more
//! than it has threads), one of which auto-checkpoints. Every engine is
//! below the 512-node sharding floors, so the load falls on wire parse,
//! admission, turns, reply and the snapshot codec.
//!
//! Phases, in order:
//! 1. a barriered prefix whose epochs-to-answer must equal
//!    `loadmodel::reference_epochs_histogram`;
//! 2. the CPU phase: rounds of blocking queries, one at a time, drawn
//!    from `--seed`. Each query is its deployment's only work, so the
//!    epochs it costs do not depend on timing, and the process CPU time
//!    per query at the reference speed (`cpu_ms_per_op`, see
//!    [`crate::refspeed`]) is the daemon's serving cost;
//! 3. (traced runs) an open loop of async queries at [`OPEN_RATE_QPS`]
//!    on a schedule drawn from `--seed` (one connection submits on
//!    schedule, one drains), latency measured from each query's due time;
//! 4. (traced runs) a closed-loop saturation phase (one submitter backing
//!    off on `queue_full`, one drainer), reported as completions per
//!    second;
//! 5. a snapshot of one deployment and its restore, which must
//!    fingerprint equal.
//!
//! Set-up (spawn, deploys, warm-up), snapshot, restore and status
//! requests run outside the timed phases. The generator never uses more
//! than two threads or two connections at once: in a loaded phase the
//! control connection drains. The wall-clock phases 3 and 4 depend on
//! how busy the rest of the host is, so their figures are per-layer
//! metrics and untraced runs skip them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dirq::sim::json::Json;
use dirq::sim::rng::splitmix64;
use dirqd::daemon::scan_checkpoint_dir;
use dirqd::loadmodel::{hist_query, reference_epochs_histogram, HIST_QUERIES};
use dirqd::protocol::{read_line, write_line, IMAGE_EXTENSION};
use dirqd::{Client, ClientError, Daemon, DaemonOptions, DeployOptions};

use crate::refspeed::{around, kernel_s, scale};
use crate::stats::{median, percentile, tail};
use crate::trace::Tracer;
use crate::{nproc, process_cpu_s, Args, Report, OUT_DIR};

/// One hosted deployment.
struct Dep {
    name: &'static str,
    preset: &'static str,
    /// Added to the preset's seed; 0 keeps the registered seed, which
    /// the barriered prefix's reference replay needs.
    seed_offset: u64,
    checkpoint: bool,
}

const DEPLOYMENTS: [Dep; 4] = [
    Dep { name: "dense-a", preset: "dense_grid_100", seed_offset: 0, checkpoint: false },
    Dep { name: "dense-b", preset: "dense_grid_100", seed_offset: 1, checkpoint: false },
    Dep { name: "hot-a", preset: "hotspot_workload_200", seed_offset: 0, checkpoint: false },
    Dep { name: "hot-b", preset: "hotspot_workload_200", seed_offset: 1, checkpoint: true },
];

/// Epoch-budget scale of every deployment (as the loadgen uses).
const SCALE: f64 = 0.1;
/// Epochs every deployment steps before the timed phases.
const WARMUP: u64 = 20;
/// Auto-checkpoint period of the checkpointing deployment.
const CHECKPOINT_EVERY: u64 = 20;
/// Offered rate of the open loop, queries per second.
pub const OPEN_RATE_QPS: f64 = 400.0;
/// Fewest open-loop queries per run: a thousand puts ten beyond p99.
const OPEN_MIN_QUERIES: usize = 1_000;
/// Latency limit of the open loop (due time to drained).
pub const SLO_MS: f64 = 50.0;
/// Generator lateness (tail) beyond which the run is invalid: five
/// times the latency limit.
const LATE_LIMIT_MS: f64 = 5.0 * SLO_MS;
/// Equal slices of the saturation window; `serve_qps_sat` is the median
/// slice's completion rate.
const SAT_SLICES: usize = 6;
/// Set-ups per run; `setup_s` is the median of their CPU times at the
/// reference speed.
const SETUP_REPEATS: usize = 31;
/// Rounds of the CPU phase per second of `--seconds` (a round takes
/// about 45 ms on the recording box), at least [`CPU_MIN_ROUNDS`];
/// `cpu_ms_per_op` is the median round's CPU time per query at the
/// reference speed.
const CPU_ROUNDS_PER_S: f64 = 12.0;
const CPU_MIN_ROUNDS: usize = 20;
/// Blocking queries per round of the CPU phase: one pass over
/// [`ROTATION`].
const CPU_ROUND_QUERIES: usize = ROTATION.len();

/// Pause of the drainer between sweeps over every deployment.
const DRAIN_PAUSE: Duration = Duration::from_millis(1);
/// Longest a phase may wait for its last completions.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);
/// Lines timed by the wire parse/render measurement, per pass.
const JSON_SAMPLE_QUERIES: usize = 64;

fn client_err(what: &str) -> impl Fn(ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Deployments queries go to, in rotation: a quarter to the
/// `dense_grid_100` pair (24 epochs to answer), three quarters to the
/// `hotspot_workload_200` pair (32), so the latency median sits inside
/// one cluster rather than on the edge between the two.
const ROTATION: [usize; 8] = [0, 2, 3, 2, 1, 3, 2, 3];

/// One query: `(deployment index, stype, lo, hi)`.
type Query = (usize, u8, f64, f64);

/// `(stype, lo, hi)` of the queries: each pass over [`ROTATION`] sends
/// every template once, in an order drawn from the seed, so every pass
/// asks for the same amount of work.
const TEMPLATES: [(u8, f64, f64); 8] = [
    (0, 12.0, 18.0),
    (1, 13.0, 20.5),
    (0, 14.5, 21.0),
    (1, 15.0, 23.0),
    (0, 16.5, 23.5),
    (1, 17.0, 24.5),
    (0, 18.5, 25.0),
    (1, 19.5, 27.0),
];

/// Deterministic draws from the benchmark seed.
struct Draws {
    state: u64,
    sent: usize,
    /// Template order of the current pass.
    order: [usize; 8],
}

impl Draws {
    fn new(seed: u64) -> Draws {
        Draws { state: seed ^ 0x5EED_D1A9_0000_0001, sent: 0, order: [0, 1, 2, 3, 4, 5, 6, 7] }
    }

    /// Uniform in `[0, 1)`.
    fn next(&mut self) -> f64 {
        (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn query(&mut self) -> Query {
        let k = self.sent % ROTATION.len();
        if k == 0 {
            // Fisher–Yates over the templates.
            for i in (1..self.order.len()).rev() {
                let j = (self.next() * (i + 1) as f64) as usize;
                self.order.swap(i, j.min(i));
            }
        }
        self.sent += 1;
        let (stype, lo, hi) = TEMPLATES[self.order[k]];
        (ROTATION[k], stype, lo, hi)
    }
}

/// The open-loop schedule: `(due seconds after start, query)` at
/// [`OPEN_RATE_QPS`], each gap drawn uniformly from half to one and a
/// half times the mean gap.
fn open_schedule(draws: &mut Draws, n: usize) -> Vec<(f64, Query)> {
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            at += (0.5 + draws.next()) / OPEN_RATE_QPS;
            (at, draws.query())
        })
        .collect()
}

/// A running in-process daemon and its control connection.
struct Served {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
    control: Client,
}

impl Served {
    fn shutdown(mut self) -> Result<(), String> {
        self.control.shutdown().map_err(client_err("shutdown"))?;
        match self.handle.join() {
            Ok(r) => r.map_err(|e| format!("daemon serve: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// Spawn the daemon, deploy every deployment and warm each up. Returns
/// the daemon and the deploy round trips in ms.
fn set_up(ckpt_dir: &str, tracer: &mut Tracer) -> Result<(Served, Vec<f64>), String> {
    let span = tracer.begin("dirqd.Daemon::spawn_with");
    let (addr, handle) = Daemon::spawn_with(
        "127.0.0.1:0",
        DaemonOptions { serving_threads: nproc(), recover: None },
    )
    .map_err(|e| format!("spawn daemon: {e}"))?;
    tracer.end(span);
    let addr = addr.to_string();
    let mut control = Client::connect(&addr).map_err(client_err("connect"))?;
    let mut deploy_ms = Vec::new();
    for dep in &DEPLOYMENTS {
        let seed = dirq::scenario::preset(dep.preset).expect("registry preset").seed;
        let options = DeployOptions {
            scale: Some(SCALE),
            seed: Some(seed + dep.seed_offset),
            checkpoint_every_epochs: dep.checkpoint.then_some(CHECKPOINT_EVERY),
            checkpoint_dir: dep.checkpoint.then(|| ckpt_dir.to_string()),
            ..Default::default()
        };
        let span = tracer.begin("dirqd.Client::deploy");
        let t = Instant::now();
        control.deploy(dep.name, dep.preset, &options).map_err(client_err("deploy"))?;
        deploy_ms.push(since(t) * 1e3);
        tracer.end(span);
        let span = tracer.begin("dirqd.Client::step");
        let epoch = control.step(dep.name, WARMUP).map_err(client_err("warm-up step"))?;
        tracer.end(span);
        if epoch != WARMUP {
            return Err(format!("{}: warm-up landed on epoch {epoch}", dep.name));
        }
    }
    Ok((Served { addr, handle, control }, deploy_ms))
}

/// Phase 1: barriered queries (submit, wait, next) on the deployments
/// that run their preset's registered seed. Returns epochs-to-answer.
fn barriered_prefix(control: &mut Client, tracer: &mut Tracer) -> Result<Vec<u64>, String> {
    let mut all = Vec::new();
    for dep in DEPLOYMENTS.iter().filter(|d| d.seed_offset == 0) {
        let mut epochs = Vec::with_capacity(HIST_QUERIES);
        for k in 0..HIST_QUERIES {
            let (stype, lo, hi) = hist_query(k);
            let span = tracer.begin("dirqd.Client::query_async");
            let (id, _) = control
                .query_async(dep.name, stype, lo, hi, None, None)
                .map_err(client_err("barriered submit"))?;
            tracer.set_request(span, id);
            tracer.end(span);
            let span = tracer.begin("dirqd.Client::poll");
            tracer.set_request(span, id);
            let report = loop {
                match control.poll(dep.name, id).map_err(client_err("barriered poll"))? {
                    Some(r) => break r,
                    None => std::thread::yield_now(),
                }
            };
            tracer.end(span);
            epochs.push(report.epochs_to_answer);
        }
        let reference = reference_epochs_histogram(dep.preset, SCALE, WARMUP);
        if epochs != reference {
            return Err(format!(
                "{}: barriered epochs-to-answer {epochs:?} differ from the engine-level \
                 reference {reference:?}",
                dep.name
            ));
        }
        all.extend(epochs);
    }
    Ok(all)
}

/// Phase 2: `rounds` rounds of [`CPU_ROUND_QUERIES`] blocking queries
/// on the control connection, each followed by the reference kernel.
/// Returns the process CPU ms per query of each round at the reference
/// speed and the epochs-to-answer of every query.
fn cpu_rounds(
    control: &mut Client,
    draws: &mut Draws,
    rounds: usize,
    tracer: &mut Tracer,
) -> Result<(Vec<f64>, Vec<u64>), String> {
    let mut per_query_ms = Vec::with_capacity(rounds);
    let mut epochs = Vec::with_capacity(rounds * CPU_ROUND_QUERIES);
    for _ in 0..rounds {
        let queries: Vec<Query> = (0..CPU_ROUND_QUERIES).map(|_| draws.query()).collect();
        let c = process_cpu_s();
        for (d, stype, lo, hi) in queries {
            let span = tracer.begin("dirqd.Client::query");
            let report = control
                .query(DEPLOYMENTS[d].name, stype, lo, hi, None)
                .map_err(client_err("blocking query"))?;
            tracer.set_request(span, report.id);
            tracer.end(span);
            epochs.push(report.epochs_to_answer);
        }
        let ms = (process_cpu_s() - c) * 1e3 / CPU_ROUND_QUERIES as f64;
        per_query_ms.push(scale(ms, kernel_s()));
    }
    Ok((per_query_ms, epochs))
}

/// What one loaded phase recorded.
#[derive(Default)]
struct Phase {
    /// `(deployment, id, due or sent seconds)` per accepted submission.
    submitted: Vec<(usize, u64, f64)>,
    /// Due (or sent) seconds of every submission refused or failed.
    refused: Vec<f64>,
    /// Submit attempts, and those refused with `queue_full`.
    attempts: u64,
    queue_full: u64,
    /// Other failed calls (typed errors, timeouts).
    errors: u64,
    submit_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// `(deployment, id, drained seconds, epochs to answer)`.
    drained: Vec<(usize, u64, f64, u64)>,
    drain_ms: Vec<f64>,
    drain_calls: u64,
    /// Seconds (from the phase clock) when the last result drained.
    finished: f64,
}

impl Phase {
    /// Every accepted id must drain exactly once, and nothing else.
    fn check_exactly_once(&self) -> Result<(), String> {
        let mut seen: HashMap<(usize, u64), u32> = HashMap::new();
        for &(d, id, ..) in &self.drained {
            *seen.entry((d, id)).or_insert(0) += 1;
        }
        for &(d, id, _) in &self.submitted {
            match seen.remove(&(d, id)) {
                Some(1) => {}
                n => {
                    return Err(format!(
                        "{} id {id} drained {} times",
                        DEPLOYMENTS[d].name,
                        n.unwrap_or(0)
                    ))
                }
            }
        }
        match seen.into_keys().next() {
            Some((d, id)) => Err(format!("{} drained unsubmitted id {id}", DEPLOYMENTS[d].name)),
            None => Ok(()),
        }
    }

    fn ops(&self) -> u64 {
        self.attempts + self.drain_calls
    }

    fn failed(&self) -> u64 {
        self.queue_full + self.errors
    }
}

/// How the submitter of a loaded phase picks its next query.
enum Load<'a> {
    /// Open loop: send each query at its due time.
    Open(&'a [(f64, Query)]),
    /// Closed loop: send back to back until the window closes.
    Closed { window: f64, draws: &'a mut Draws },
}

/// Drive one loaded phase over two connections: a new one that submits,
/// and `control`, which drains every deployment from `heads` until all
/// accepted submissions came back.
fn loaded_phase(
    addr: &str,
    control: &mut Client,
    heads: &[u64],
    load: Load<'_>,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let done = AtomicBool::new(false);
    let accepted = AtomicU64::new(0);
    let span = tracer.begin(match load {
        Load::Open(_) => "bench.open_loop",
        Load::Closed { .. } => "bench.saturation",
    });
    let t0 = Instant::now() + Duration::from_millis(5);
    let (mut sub_tr, mut drain_tr) = (tracer.fork(1), tracer.fork(2));
    let (submitter, drainer) = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| -> Result<Phase, String> {
            let mut phase = Phase::default();
            let result = submit(addr, load, t0, &mut phase, &accepted, &mut sub_tr);
            done.store(true, Ordering::SeqCst);
            result.map(|()| phase)
        });
        let drainer = scope.spawn(|| -> Result<Phase, String> {
            let mut phase = Phase::default();
            drain_until_done(control, heads, t0, &done, &accepted, &mut phase, &mut drain_tr)?;
            Ok(phase)
        });
        (submitter.join(), drainer.join())
    });
    tracer.absorb(sub_tr, span);
    tracer.absorb(drain_tr, span);
    tracer.end(span);
    let mut phase = submitter.map_err(|_| "submitter thread panicked")??;
    let drained = drainer.map_err(|_| "drainer thread panicked")??;
    phase.drained = drained.drained;
    phase.drain_ms = drained.drain_ms;
    phase.drain_calls = drained.drain_calls;
    phase.errors += drained.errors;
    phase.finished = drained.finished;
    phase.check_exactly_once()?;
    Ok(phase)
}

fn submit(
    addr: &str,
    load: Load<'_>,
    t0: Instant,
    phase: &mut Phase,
    accepted: &AtomicU64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(client_err("connect submitter"))?;
    let mut send = |phase: &mut Phase, due: f64, (d, stype, lo, hi): Query| {
        let sent = since(t0);
        phase.late_ms.push((sent - due).max(0.0) * 1e3);
        phase.attempts += 1;
        let span = tracer.begin("dirqd.Client::query_async");
        let result = client.query_async(DEPLOYMENTS[d].name, stype, lo, hi, None, None);
        phase.submit_ms.push((since(t0) - sent) * 1e3);
        match result {
            Ok((id, _)) => {
                tracer.set_request(span, id);
                phase.submitted.push((d, id, due));
                accepted.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => {
                phase.refused.push(due);
                if e.kind() == Some("queue_full") {
                    phase.queue_full += 1;
                } else {
                    eprintln!("perfbench: submit failed: {e}");
                    phase.errors += 1;
                }
            }
        }
        tracer.end(span);
    };
    match load {
        Load::Open(schedule) => {
            for &(due, query) in schedule {
                let wait = due - since(t0);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                send(phase, due, query);
            }
        }
        Load::Closed { window, draws } => {
            while since(t0) < window {
                let before = phase.queue_full;
                send(phase, since(t0), draws.query());
                if phase.queue_full > before {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
    Ok(())
}

fn drain_until_done(
    client: &mut Client,
    heads: &[u64],
    t0: Instant,
    done: &AtomicBool,
    accepted: &AtomicU64,
    phase: &mut Phase,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut cursors = heads.to_vec();
    let mut deadline = None;
    loop {
        // Read the flag before the count: once the submitter is done,
        // the count is final.
        let finished = done.load(Ordering::SeqCst);
        if finished && phase.drained.len() as u64 >= accepted.load(Ordering::SeqCst) {
            phase.finished = since(t0);
            return Ok(());
        }
        if finished {
            let at = *deadline.get_or_insert_with(|| Instant::now() + DRAIN_DEADLINE);
            if Instant::now() > at {
                return Err("results still missing at the drain deadline".into());
            }
        }
        for (d, cursor) in cursors.iter_mut().enumerate() {
            let span = tracer.begin("dirqd.Client::drain");
            let t = Instant::now();
            let result = client.drain(DEPLOYMENTS[d].name, *cursor);
            phase.drain_ms.push(since(t) * 1e3);
            tracer.end(span);
            phase.drain_calls += 1;
            match result {
                Ok(report) => {
                    let now = since(t0);
                    *cursor = report.cursor;
                    for (_, r) in report.results {
                        phase.drained.push((d, r.id, now, r.epochs_to_answer));
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: drain failed: {e}");
                    phase.errors += 1;
                }
            }
        }
        std::thread::sleep(DRAIN_PAUSE);
    }
}

/// The drain cursor each deployment's log head is at.
fn heads(control: &mut Client) -> Result<Vec<u64>, String> {
    DEPLOYMENTS
        .iter()
        .map(|d| {
            control.drain(d.name, u64::MAX).map(|r| r.cursor).map_err(client_err("drain head"))
        })
        .collect()
}

/// Sum of every deployment's epoch, from `status`.
fn total_epochs(control: &mut Client) -> Result<u64, String> {
    let status = control.status().map_err(client_err("status"))?;
    Ok(status
        .iter()
        .filter(|s| DEPLOYMENTS.iter().any(|d| d.name == s.name))
        .map(|s| s.epoch)
        .sum())
}

/// Time `dirqd::protocol::write_line` and `read_line` over a sample of
/// this run's own request and response lines. Returns µs per line.
fn wire_codec_us(
    control: &mut Client,
    heads: &[u64],
    schedule: &[(f64, Query)],
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let mut docs = Vec::new();
    for &(_, (d, stype, lo, hi)) in schedule.iter().take(JSON_SAMPLE_QUERIES) {
        let mut req = Json::object();
        req.set("cmd", Json::Str("query".into()));
        req.set("deployment", Json::Str(DEPLOYMENTS[d].name.into()));
        req.set("stype", Json::Num(f64::from(stype)));
        req.set("lo", Json::Num(lo));
        req.set("hi", Json::Num(hi));
        req.set("async", Json::Bool(true));
        docs.push(req);
    }
    for (dep, &head) in DEPLOYMENTS.iter().zip(heads) {
        let mut req = Json::object();
        req.set("cmd", Json::Str("drain".into()));
        req.set("deployment", Json::Str(dep.name.into()));
        req.set("cursor", Json::from_u64(head));
        let response = control.call(&req).map_err(client_err("sample drain"))?;
        docs.push(req);
        docs.push(response);
    }
    let mut buf = Vec::new();
    let passes = 200;
    let span = tracer.begin("sim.write_line");
    let t = Instant::now();
    for _ in 0..passes {
        buf.clear();
        for doc in &docs {
            write_line(&mut buf, doc).map_err(|e| format!("render: {e}"))?;
        }
    }
    let render_us = since(t) * 1e6 / (passes * docs.len()) as f64;
    tracer.end(span);
    let span = tracer.begin("sim.read_line");
    let t = Instant::now();
    let mut lines = 0usize;
    for _ in 0..passes {
        let mut reader = std::io::Cursor::new(&buf[..]);
        while read_line(&mut reader).map_err(|e| format!("parse: {e}"))?.is_some() {
            lines += 1;
        }
    }
    let parse_us = since(t) * 1e6 / lines as f64;
    tracer.end(span);
    if lines != passes * docs.len() {
        return Err(format!("parsed {lines} lines, rendered {}", passes * docs.len()));
    }
    Ok((parse_us, render_us))
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn serve_mixed(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let scratch = ScratchDir(
        std::path::Path::new(OUT_DIR)
            .canonicalize()
            .map_err(|e| format!("{OUT_DIR}: {e}"))?
            .join(format!("serve-{}", std::process::id())),
    );
    let ckpt_dir = scratch.0.join("checkpoints");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("create {ckpt_dir:?}: {e}"))?;
    let ckpt = ckpt_dir.to_string_lossy().into_owned();
    let mut report = Report::default();

    // Set-up, several times; the last daemon serves the phases.
    let mut setup_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut deploy_ms = Vec::new();
    let mut served = None;
    for i in 0..SETUP_REPEATS {
        let span = tracer.begin("bench.setup");
        let (result, _, cpu_ref) = around(process_cpu_s, || {
            let t = Instant::now();
            set_up(&ckpt, tracer).map(|up| (up, since(t)))
        });
        let ((s, ms), wall_s) = result?;
        setup_s.push(cpu_ref);
        setup_wall_s.push(wall_s);
        tracer.end(span);
        deploy_ms.extend(ms);
        if i + 1 < SETUP_REPEATS {
            s.shutdown()?;
        } else {
            served = Some(s);
        }
    }
    let mut served = served.expect("at least one set-up");
    report.attempted += (SETUP_REPEATS * (1 + 2 * DEPLOYMENTS.len())) as u64;

    let span = tracer.begin("bench.barriered_prefix");
    let prefix = barriered_prefix(&mut served.control, tracer)?;
    tracer.end(span);
    report.attempted += 2 * prefix.len() as u64;

    let mut draws = Draws::new(args.seed);
    let span = tracer.begin("bench.cpu_rounds");
    let rounds = CPU_MIN_ROUNDS.max((args.seconds * CPU_ROUNDS_PER_S) as usize);
    let (cpu_ms, cpu_epochs) = cpu_rounds(&mut served.control, &mut draws, rounds, tracer)?;
    tracer.end(span);
    report.attempted += cpu_epochs.len() as u64;
    eprintln!(
        "perfbench: CPU phase: {rounds} rounds of {CPU_ROUND_QUERIES} queries, CPU ms per query \
         from {:.3} to {:.3} at the reference speed",
        percentile(&cpu_ms, 0.0),
        percentile(&cpu_ms, 100.0)
    );

    report.put("setup_s", median(&setup_s), "s");
    report.put("cpu_ms_per_op", median(&cpu_ms), "ms");
    report.put("setup_wall_s", median(&setup_wall_s), "s");
    report.put("dirqd.deploy_ms", median(&deploy_ms), "ms");
    let mut answered: Vec<f64> = cpu_epochs.iter().map(|&e| e as f64).collect();
    let mut codec_sample = None;
    if args.trace {
        codec_sample =
            Some(loaded_phases(&mut served, &mut draws, args, &mut report, &mut answered, tracer)?);
    }

    // Snapshot one deployment and restore it.
    let image = scratch.0.join(format!("dense-b.{IMAGE_EXTENSION}")).to_string_lossy().into_owned();
    let control = &mut served.control;
    let span = tracer.begin("sim.Client::snapshot");
    let t = Instant::now();
    let snap = control.snapshot("dense-b", &image).map_err(client_err("snapshot"))?;
    let snapshot_ms = since(t) * 1e3;
    tracer.end(span);
    let span = tracer.begin("sim.Client::restore");
    let t = Instant::now();
    control
        .restore("dense-b@restored", &image, &DeployOptions::default())
        .map_err(client_err("restore"))?;
    let restore_ms = since(t) * 1e3;
    tracer.end(span);
    let (_, restored_fp) =
        control.fingerprint("dense-b@restored").map_err(client_err("fingerprint"))?;
    if restored_fp != snap.fingerprint {
        return Err(format!(
            "restored fingerprint {restored_fp:#018X} differs from the snapshot's {:#018X}",
            snap.fingerprint
        ));
    }
    let checkpoints = scan_checkpoint_dir(&ckpt_dir).map_err(|e| format!("scan {ckpt}: {e}"))?;
    if checkpoints.is_empty() {
        return Err("the checkpointing deployment wrote no checkpoint".into());
    }
    report.attempted += 3;

    if let Some((open_heads, schedule)) = codec_sample {
        let (parse_us, render_us) = wire_codec_us(control, &open_heads, &schedule, tracer)?;
        report.put("sim.json_parse_us", parse_us, "us");
        report.put("sim.json_render_us", render_us, "us");
    }
    served.shutdown()?;

    report.put("dirqd.epochs_to_answer_p50", median(&answered), "count");
    report.put("sim.snapshot_ms", snapshot_ms, "ms");
    report.put("sim.restore_ms", restore_ms, "ms");
    report.put("sim.image_bytes", snap.bytes as f64, "bytes");
    Ok(report)
}

/// Phases 3 and 4, the wall-clock ones: the open loop at the fixed
/// offered rate, then closed-loop saturation. Puts their metrics into
/// `report`, adds every drained query's epochs-to-answer to `answered`,
/// and returns the open loop's log heads and schedule for the wire codec
/// sample.
fn loaded_phases(
    served: &mut Served,
    draws: &mut Draws,
    args: &Args,
    report: &mut Report,
    answered: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> Result<(Vec<u64>, Vec<(f64, Query)>), String> {
    // Open loop at the fixed offered rate.
    let n_open = OPEN_MIN_QUERIES.max((OPEN_RATE_QPS * args.seconds * 0.6) as usize);
    let schedule = open_schedule(draws, n_open);
    let open_heads = heads(&mut served.control)?;
    let open = loaded_phase(
        &served.addr,
        &mut served.control,
        &open_heads,
        Load::Open(&schedule),
        tracer,
    )?;
    let due: HashMap<(usize, u64), f64> =
        open.submitted.iter().map(|&(d, id, due)| ((d, id), due)).collect();
    let mut latency_ms: Vec<f64> =
        open.drained.iter().map(|&(d, id, at, _)| (at - due[&(d, id)]) * 1e3).collect();
    let within = latency_ms.iter().filter(|&&l| l <= SLO_MS).count() as f64;
    // A refused or failed query is a miss: it counts against the SLO
    // share, and in the percentiles as if answered when the phase ended.
    latency_ms.extend(open.refused.iter().map(|due| (open.finished - due) * 1e3));
    let late_tail = tail(&open.late_ms);
    if late_tail > LATE_LIMIT_MS {
        return Err(format!(
            "the open-loop generator fell behind its schedule (tail lateness {late_tail:.1} ms \
             > {LATE_LIMIT_MS} ms); the run is invalid"
        ));
    }

    // Closed-loop saturation.
    let sat_heads = heads(&mut served.control)?;
    let epochs_before = total_epochs(&mut served.control)?;
    let window = args.seconds * 0.3;
    let sat = loaded_phase(
        &served.addr,
        &mut served.control,
        &sat_heads,
        Load::Closed { window, draws },
        tracer,
    )?;
    let epochs_after = total_epochs(&mut served.control)?;
    // Completions per second in each slice of the window; the median
    // slice drops a stall from elsewhere on the host.
    let slice = window / SAT_SLICES as f64;
    let mut per_slice = vec![0.0; SAT_SLICES];
    for &(_, _, at, _) in &sat.drained {
        if let Some(rate) = per_slice.get_mut((at / slice) as usize) {
            *rate += 1.0 / slice;
        }
    }
    let qps_sat = median(&per_slice);
    let epochs_advanced = (epochs_after - epochs_before) as f64;

    report.attempted += open.ops() + sat.ops();
    report.failed += open.failed() + sat.failed();
    answered.extend(open.drained.iter().chain(&sat.drained).map(|r| r.3 as f64));
    let yields = (open.drained.len() + sat.drained.len()) as f64
        / (open.drain_calls + sat.drain_calls) as f64;

    report.put("dirqd.serve_qps_sat", qps_sat, "q/s");
    report.put("dirqd.serve_p50_ms", median(&latency_ms), "ms");
    report.put("dirqd.serve_p99_ms", percentile(&latency_ms, 99.0), "ms");
    report.put("dirqd.serve_slo_ratio", within / n_open as f64, "ratio");
    report.put("dirqd.submit_ms_p50", median(&open.submit_ms), "ms");
    report.put("dirqd.submit_ms_tail", tail(&open.submit_ms), "ms");
    report.put("dirqd.drain_ms_p50", median(&open.drain_ms), "ms");
    report.put("dirqd.drain_ms_tail", tail(&open.drain_ms), "ms");
    report.put("dirqd.drain_yield", yields, "count");
    report.put(
        "dirqd.queue_full_ratio",
        (open.queue_full + sat.queue_full) as f64 / (open.attempts + sat.attempts) as f64,
        "ratio",
    );
    report.put(
        "dirqd.turn_eps",
        epochs_advanced / DEPLOYMENTS.len() as f64 / sat.finished,
        "epochs/s",
    );
    report.put("dirqd.queries_per_epoch", sat.drained.len() as f64 / epochs_advanced, "count");
    report.put("bench.gen_late_ms_tail", late_tail, "ms");
    report.put("bench.open_queries", n_open as f64, "count");
    report.put("bench.open_misses", open.refused.len() as f64, "count");
    report.put("bench.sat_completions", sat.drained.len() as f64, "count");
    Ok((open_heads, schedule))
}

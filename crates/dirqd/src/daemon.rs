//! The daemon: named live deployments behind a TCP protocol endpoint.
//!
//! Deployments are passive `Slot` state objects multiplexed over a
//! fixed-size **serving pool** (`--serving-threads N`, default one
//! worker per available hardware thread), so thousands of deployments
//! cost thousands of structs, not thousands of OS threads. Connection
//! handlers never touch an engine directly — they push commands into a
//! slot's mailbox, schedule the slot onto the pool, and wait (with a
//! deadline) for the reply, so every deployment still processes exactly
//! one command stream in a deterministic order and a wedged deployment
//! costs its caller a typed `timeout` error, not a hung connection.
//!
//! ## Scheduled turns
//!
//! A pool worker runs one deployment **turn** at a time: drain the
//! mailbox in arrival order, process every command, and — while any
//! query is queued or in flight — admit a scheduling round, inject it
//! ordered **by content** (sensor type, window bounds, region, client
//! tag) rather than arrival time, step one epoch, and sweep
//! completions. A slot reschedules itself while it has backlog and goes
//! idle otherwise; a tiny CAS state machine (idle → queued → running →
//! dirty) guarantees a slot occupies at most one worker at a time and
//! that a command arriving mid-turn re-queues it. Because a turn is the
//! old engine-thread loop iteration verbatim, per-deployment
//! trajectories are bit-identical to the thread-per-deployment daemon
//! at **any** `--serving-threads` count — the property the differential
//! tests pin against [`crate::loadmodel::replay_serving`].
//!
//! ## The serving loop
//!
//! External queries pass through a per-deployment **admission queue**
//! (bounded at [`ServingOptions::queue_cap`]; beyond it submissions are
//! rejected with `queue_full`), and each turn admits everything queued.
//! Blocking queries reply at completion; `async` queries reply with
//! their id at injection and resolve later through `poll`/`drain`.
//! Because every admission round is injected content-ordered, a fixed
//! sequence of barriered rounds drives the engine along a reproducible
//! trajectory regardless of socket scheduling or when results are
//! polled.
//!
//! ## Crash recovery
//!
//! `--recover <dir>` scans the rotating auto-checkpoint slots
//! (`<name>.<slot>.dirqsnap`) at startup, validates every frame, and
//! resumes each deployment from its newest valid image — a torn or
//! truncated newest slot (the expected wreckage of `kill -9` mid-write)
//! falls back to the older slot. Deployments whose slots are all
//! unreadable are reported under `unrecoverable` in `status` instead of
//! aborting startup; recovered ones carry a `recovered` object naming
//! the slot and epoch they resumed from.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dirq_core::{CompletedQuery, Engine};
use dirq_data::SensorType;
use dirq_net::{Position, Rect};
use dirq_scenario::Scheme;
use dirq_sim::json::Json;
use dirq_sim::snap::{check_image, frame_image, parse_image};

use crate::protocol::{
    err_response, fingerprint_hex, kind, ok_response, read_line, request_timeout,
    resolve_deployment, write_line, ImageHeader, IMAGE_EXTENSION,
};

pub use crate::protocol::{ServingOptions, DEFAULT_QUEUE_CAP};

/// Most results one `drain` response returns (the client loops).
pub const DRAIN_MAX_RESULTS: usize = 512;

/// Completed external results retained for `poll`/`drain` before the
/// oldest are evicted.
pub const RESULTS_LOG_CAP: usize = 65_536;

/// Rotating auto-checkpoint slots per deployment.
pub const CHECKPOINT_SLOTS: u64 = 2;

/// One query waiting in the admission queue.
struct Submission {
    stype: u8,
    lo: f64,
    hi: f64,
    region: Option<[f64; 4]>,
    /// Client tag, the content-order tie-break (empty when the request
    /// carried none).
    client: String,
    /// Async submissions get their id at injection; blocking ones get
    /// the full outcome at completion.
    is_async: bool,
    reply: Sender<Json>,
}

impl Submission {
    /// Content ordering key — injection order within an admission round
    /// must not depend on socket arrival time.
    fn key(&self) -> (u8, u64, u64, u8, [u64; 4]) {
        let region_bits = self.region.map_or([0; 4], |r| r.map(f64::to_bits));
        (
            self.stype,
            self.lo.to_bits(),
            self.hi.to_bits(),
            u8::from(self.region.is_some()),
            region_bits,
        )
    }
}

/// Commands a connection handler can push into a slot's mailbox.
enum EngineCmd {
    Submit(Submission),
    Poll {
        id: u64,
        reply: Sender<Json>,
    },
    Drain {
        cursor: u64,
        reply: Sender<Json>,
    },
    Step {
        epochs: u64,
        reply: Sender<Json>,
    },
    Fingerprint {
        reply: Sender<Json>,
    },
    SnapshotTo {
        path: String,
        reply: Sender<Json>,
    },
    /// Diagnostics: occupy the slot's turn for `ms` (bounded) — the
    /// deterministic wedge the timeout tests use.
    Stall {
        ms: u64,
        reply: Sender<Json>,
    },
}

/// Where a recovered deployment resumed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveredFrom {
    /// Rotation slot index of the image used.
    pub slot: u64,
    /// Epoch the image was captured at.
    pub epoch: u64,
}

/// Static facts about a deployment, shared with `status` handlers.
#[derive(Clone)]
pub struct DeploymentInfo {
    /// Deployment name (the protocol handle).
    pub name: String,
    /// Registry preset it was built from.
    pub preset: String,
    /// Epoch-budget scale applied to the preset.
    pub scale: f64,
    /// Scheme label.
    pub scheme: String,
    /// Engine seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// The preset's epoch budget (the daemon may step past it).
    pub epochs: u64,
    /// Whether nodes carry positions (spatially scoped queries allowed).
    pub location_enabled: bool,
    /// Sensor types in the engine's catalog; a query's `stype` must be
    /// below it.
    pub sensor_types: usize,
    /// Serving knobs this deployment was installed with.
    pub serving: ServingOptions,
    /// Set when this deployment was resumed by `--recover`.
    pub recovered: Option<RecoveredFrom>,
}

impl DeploymentInfo {
    fn to_json(&self, epoch: u64) -> Json {
        let mut obj = Json::object();
        obj.set("name", Json::Str(self.name.clone()));
        obj.set("preset", Json::Str(self.preset.clone()));
        obj.set("scale", Json::Num(self.scale));
        obj.set("scheme", Json::Str(self.scheme.clone()));
        obj.set("seed", Json::from_u64(self.seed));
        obj.set("nodes", Json::from_u64(self.nodes as u64));
        obj.set("epochs", Json::from_u64(self.epochs));
        obj.set("epoch", Json::from_u64(epoch));
        obj.set("queue_cap", Json::from_u64(self.serving.queue_cap as u64));
        obj.set("checkpoint_every_epochs", Json::from_u64(self.serving.checkpoint_every_epochs));
        if let Some(r) = &self.recovered {
            let mut rec = Json::object();
            rec.set("slot", Json::from_u64(r.slot));
            rec.set("epoch", Json::from_u64(r.epoch));
            obj.set("recovered", rec);
        }
        obj
    }
}

// Slot scheduling states: a slot occupies at most one pool worker, and
// a command arriving mid-turn marks it dirty so the finishing worker
// re-queues it instead of dropping the wakeup.
const SCHED_IDLE: u8 = 0;
const SCHED_QUEUED: u8 = 1;
const SCHED_RUNNING: u8 = 2;
const SCHED_DIRTY: u8 = 3;

/// One deployment: passive state scheduled onto pool workers in turns.
struct Slot {
    info: DeploymentInfo,
    /// Last epoch boundary a turn published (lock-free `status` reads).
    epoch: Arc<AtomicU64>,
    /// Commands pushed by connection handlers, drained at turn start in
    /// arrival order.
    mailbox: Mutex<VecDeque<EngineCmd>>,
    /// Engine + admission queue + results log; locked only by the one
    /// worker running this slot's turn.
    serving: Mutex<Serving>,
    /// [`SCHED_IDLE`]/[`SCHED_QUEUED`]/[`SCHED_RUNNING`]/[`SCHED_DIRTY`].
    sched: AtomicU8,
}

/// A deployment with all its checkpoint slots unreadable at `--recover`.
#[derive(Clone, Debug)]
pub struct Unrecoverable {
    /// Deployment name parsed from the image filenames.
    pub name: String,
    /// Per-slot failure detail, newest candidate first.
    pub error: String,
}

struct Shared {
    deployments: Mutex<HashMap<String, Arc<Slot>>>,
    /// Deployments `--recover` found but could not resume.
    unrecoverable: Mutex<Vec<Unrecoverable>>,
    /// Slots with work, awaiting a pool worker.
    ready: Mutex<VecDeque<Arc<Slot>>>,
    /// Wakes pool workers when `ready` gains a slot or at shutdown.
    work: Condvar,
    /// Serving-pool size (surfaced via `status`).
    serving_threads: usize,
    /// Tells pool workers to exit; set at shutdown.
    stopping: AtomicBool,
    shutting_down: AtomicBool,
}

/// Daemon-wide construction options ([`Daemon::bind_with`]).
#[derive(Clone, Debug, Default)]
pub struct DaemonOptions {
    /// Serving-pool worker threads; `0` means one per available
    /// hardware thread.
    pub serving_threads: usize,
    /// Checkpoint directory to scan at startup: every deployment with a
    /// valid rotating image is resumed before the daemon accepts
    /// connections.
    pub recover: Option<String>,
}

/// A running daemon bound to a local TCP port.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Bind to `addr` with default options (use port 0 for an ephemeral
    /// port; see [`Daemon::local_addr`]).
    pub fn bind(addr: &str) -> io::Result<Daemon> {
        Daemon::bind_with(addr, DaemonOptions::default())
    }

    /// Bind to `addr`, size the serving pool, and run the `--recover`
    /// scan (if any) before any connection is accepted.
    pub fn bind_with(addr: &str, options: DaemonOptions) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let threads = match options.serving_threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        let shared = Arc::new(Shared {
            deployments: Mutex::new(HashMap::new()),
            unrecoverable: Mutex::new(Vec::new()),
            ready: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            serving_threads: threads,
            stopping: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
        });
        if let Some(dir) = &options.recover {
            recover_from_dir(&shared, dir)?;
        }
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dirqd-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Ok(Daemon { listener, shared, workers })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Bind and serve on a background thread — the in-process form the
    /// load generator and the integration tests use. Returns the bound
    /// address and the serving thread's handle (joins after `shutdown`).
    pub fn spawn(addr: &str) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
        Daemon::spawn_with(addr, DaemonOptions::default())
    }

    /// [`Daemon::spawn`] with explicit [`DaemonOptions`].
    pub fn spawn_with(
        addr: &str,
        options: DaemonOptions,
    ) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
        let daemon = Daemon::bind_with(addr, options)?;
        let local = daemon.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("dirqd-accept".into())
            .spawn(move || daemon.serve())
            .expect("spawn daemon thread");
        Ok((local, handle))
    }

    /// Serve until a client issues `shutdown`. Blocks; run on its own
    /// thread for in-process use (see the loadgen and the tests).
    pub fn serve(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        for conn in self.listener.incoming() {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &shared, addr);
            });
        }
        // Stop the pool (under the ready lock so no worker misses the
        // flag between checking it and blocking on the condvar), join
        // every worker, and drop the slots so serve() returning means
        // the daemon's state is fully torn down.
        {
            let _ready = self.shared.ready.lock().expect("ready queue");
            self.shared.stopping.store(true, Ordering::SeqCst);
            self.shared.work.notify_all();
        }
        for w in self.workers {
            let _ = w.join();
        }
        self.shared.deployments.lock().expect("deployment map").clear();
        Ok(())
    }
}

// --- the serving pool -----------------------------------------------------

/// A pool worker: pop a ready slot, run one turn, re-queue it if it
/// still wants the CPU (backlog, or commands that arrived mid-turn).
fn worker_loop(shared: &Shared) {
    loop {
        let slot = {
            let mut ready = shared.ready.lock().expect("ready queue");
            loop {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(s) = ready.pop_front() {
                    break s;
                }
                ready = shared.work.wait(ready).expect("ready queue");
            }
        };
        slot.sched.store(SCHED_RUNNING, Ordering::SeqCst);
        let wants_more = run_turn(&slot);
        finish_turn(shared, slot, wants_more);
    }
}

/// One scheduled turn — exactly one iteration of the old
/// thread-per-deployment serving loop: drain the mailbox in arrival
/// order, process every command, then (with backlog) admit + inject a
/// content-ordered round, step one epoch, and sweep completions.
/// Returns whether the slot still has backlog and wants rescheduling.
fn run_turn(slot: &Slot) -> bool {
    let mut serving = slot.serving.lock().expect("slot serving state");
    let cmds: Vec<EngineCmd> = {
        let mut mailbox = slot.mailbox.lock().expect("slot mailbox");
        mailbox.drain(..).collect()
    };
    for cmd in cmds {
        serving.process(cmd);
    }
    if serving.backlog() > 0 {
        serving.admit_and_inject();
        serving.engine.step_epoch();
        serving.post_step();
    }
    serving.backlog() > 0
}

/// Post-turn state transition. The running worker owns the RUNNING /
/// DIRTY state; enqueuers can only flip RUNNING → DIRTY, so the CAS
/// loop here terminates after at most one retry.
fn finish_turn(shared: &Shared, slot: Arc<Slot>, wants_more: bool) {
    loop {
        let seen = slot.sched.load(Ordering::SeqCst);
        let requeue = wants_more || seen == SCHED_DIRTY;
        let target = if requeue { SCHED_QUEUED } else { SCHED_IDLE };
        if slot.sched.compare_exchange(seen, target, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            if requeue {
                if shared.stopping.load(Ordering::SeqCst) {
                    // Shutdown: park the slot instead of spinning the
                    // pool forever on leftover backlog.
                    slot.sched.store(SCHED_IDLE, Ordering::SeqCst);
                    return;
                }
                let mut ready = shared.ready.lock().expect("ready queue");
                ready.push_back(slot);
                shared.work.notify_one();
            }
            return;
        }
    }
}

/// Make sure `slot` is (or will be) scheduled: idle slots are pushed
/// onto the ready queue; a slot mid-turn is marked dirty so the worker
/// re-queues it. Safe against lost wakeups because callers push into
/// the mailbox *before* calling this, and `run_turn` drains the mailbox
/// after the worker publishes RUNNING.
fn schedule(shared: &Shared, slot: &Arc<Slot>) {
    loop {
        match slot.sched.load(Ordering::SeqCst) {
            SCHED_QUEUED | SCHED_DIRTY => return,
            SCHED_IDLE => {
                if slot
                    .sched
                    .compare_exchange(SCHED_IDLE, SCHED_QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    let mut ready = shared.ready.lock().expect("ready queue");
                    ready.push_back(Arc::clone(slot));
                    shared.work.notify_one();
                    return;
                }
            }
            _ => {
                if slot
                    .sched
                    .compare_exchange(
                        SCHED_RUNNING,
                        SCHED_DIRTY,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    return;
                }
            }
        }
    }
}

/// Push `cmd` into the slot's mailbox and schedule it.
fn enqueue(shared: &Shared, slot: &Arc<Slot>, cmd: EngineCmd) {
    slot.mailbox.lock().expect("slot mailbox").push_back(cmd);
    schedule(shared, slot);
}

// --- connection handling --------------------------------------------------

/// One client connection: a request/response loop over protocol lines.
fn handle_connection(
    stream: TcpStream,
    shared: &Shared,
    daemon_addr: SocketAddr,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let request = match read_line(&mut reader) {
            Ok(Some(doc)) => doc,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Report the broken line and drop the connection — the
                // stream may be desynchronised.
                let _ = write_line(&mut writer, &err_response(kind::BAD_LINE, &e.to_string()));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or_default().to_string();
        let response = match cmd.as_str() {
            "deploy" => handle_deploy(&request, shared),
            "query" => handle_query(&request, shared),
            "poll" => handle_poll(&request, shared),
            "drain" => handle_drain(&request, shared),
            "step" => handle_step(&request, shared),
            "status" => handle_status(shared),
            "fingerprint" => handle_fingerprint(&request, shared),
            "snapshot" => handle_snapshot(&request, shared),
            "restore" => handle_restore(&request, shared),
            "debug_stall" => handle_stall(&request, shared),
            "shutdown" => {
                write_line(&mut writer, &ok_response())?;
                initiate_shutdown(shared, daemon_addr);
                return Ok(());
            }
            "" => err_response(kind::BAD_REQUEST, "missing \"cmd\" field"),
            other => err_response(kind::BAD_REQUEST, &format!("unknown command {other:?}")),
        };
        write_line(&mut writer, &response)?;
    }
}

/// Flag the daemon as stopping and wake the accept loop with a
/// throwaway connection so `serve` observes the flag.
fn initiate_shutdown(shared: &Shared, daemon_addr: SocketAddr) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    if let Ok(s) = TcpStream::connect(daemon_addr) {
        drop(s);
    }
}

fn bad(msg: &str) -> Json {
    err_response(kind::BAD_REQUEST, msg)
}

fn str_field(doc: &Json, key: &str) -> Result<String, Json> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(&format!("missing string field {key:?}")))
}

fn num_field(doc: &Json, key: &str) -> Result<f64, Json> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(&format!("missing numeric field {key:?}")))
}

/// An optional field that must be the right type *when present* —
/// absent and `null` mean "default", anything else mistyped is a typed
/// error rather than a silent fallback.
fn opt_field<T>(
    doc: &Json,
    key: &str,
    expect: &str,
    get: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, Json> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => get(v).map(Some).ok_or_else(|| bad(&format!("{key} must be {expect}"))),
    }
}

fn opt_u64_field(doc: &Json, key: &str) -> Result<Option<u64>, Json> {
    opt_field(doc, key, "a non-negative integer", Json::as_u64)
}

fn opt_str_field(doc: &Json, key: &str) -> Result<Option<String>, Json> {
    opt_field(doc, key, "a string", |v| v.as_str().map(str::to_string))
}

/// Parse the serving knobs a `deploy`/`restore` request may carry.
fn serving_options(request: &Json) -> Result<ServingOptions, Json> {
    let mut opts = ServingOptions::default();
    if let Some(cap) = opt_u64_field(request, "queue_cap")? {
        opts.queue_cap = usize::try_from(cap).map_err(|_| bad("queue_cap out of range"))?;
    }
    if let Some(every) = opt_u64_field(request, "checkpoint_every_epochs")? {
        opts.checkpoint_every_epochs = every;
    }
    opts.checkpoint_dir = opt_str_field(request, "checkpoint_dir")?;
    if opts.checkpoint_every_epochs > 0 && opts.checkpoint_dir.is_none() {
        return Err(bad("checkpoint_every_epochs requires checkpoint_dir"));
    }
    Ok(opts)
}

/// Clone a deployment's slot handle under the map lock.
fn lookup(shared: &Shared, name: &str) -> Result<Arc<Slot>, Json> {
    let deployments = shared.deployments.lock().expect("deployment map");
    deployments
        .get(name)
        .map(Arc::clone)
        .ok_or_else(|| err_response(kind::NOT_FOUND, &format!("no deployment named {name:?}")))
}

/// Enqueue `cmd` and wait for the slot's reply, bounded by `timeout` —
/// a wedged deployment yields a typed `timeout` error instead of
/// hanging the connection handler.
fn round_trip(
    shared: &Shared,
    slot: &Arc<Slot>,
    cmd: EngineCmd,
    rx: Receiver<Json>,
    timeout: Duration,
) -> Json {
    if shared.stopping.load(Ordering::SeqCst) {
        return err_response(kind::SHUTDOWN, "deployment is shutting down");
    }
    enqueue(shared, slot, cmd);
    match rx.recv_timeout(timeout) {
        Ok(doc) => doc,
        Err(RecvTimeoutError::Timeout) => err_response(
            kind::TIMEOUT,
            &format!("deployment did not answer within {}ms", timeout.as_millis()),
        ),
        Err(RecvTimeoutError::Disconnected) => {
            err_response(kind::SHUTDOWN, "deployment engine stopped")
        }
    }
}

fn handle_deploy(request: &Json, shared: &Shared) -> Json {
    let name = match str_field(request, "name") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let preset = match str_field(request, "preset") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let scale = match opt_field(request, "scale", "a number", Json::as_f64) {
        Ok(v) => v.unwrap_or(1.0),
        Err(e) => return e,
    };
    let scheme_label = match opt_str_field(request, "scheme") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let (spec, scheme) = match resolve_deployment(&preset, scale, scheme_label.as_deref()) {
        Ok(v) => v,
        Err(msg) => return deployment_resolution_error(&msg),
    };
    // Seeds are u64s: parse losslessly, and reject (rather than round)
    // negative or fractional values.
    let seed = match opt_u64_field(request, "seed") {
        Ok(v) => v.unwrap_or(spec.seed),
        Err(e) => return e,
    };
    let serving = match serving_options(request) {
        Ok(v) => v,
        Err(e) => return e,
    };
    install(shared, &name, &preset, scale, spec, scheme, seed, serving, None, None)
}

/// [`resolve_deployment`] reports both lookup misses and bad parameters
/// as strings; map the lookup misses to `not_found`.
fn deployment_resolution_error(msg: &str) -> Json {
    if msg.starts_with("unknown") {
        err_response(kind::NOT_FOUND, msg)
    } else {
        bad(msg)
    }
}

fn handle_restore(request: &Json, shared: &Shared) -> Json {
    let name = match str_field(request, "name") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let path = match str_field(request, "path") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let serving = match serving_options(request) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => return err_response(kind::IO, &format!("read {path:?}: {e}")),
    };
    let (header_json, body) = match parse_image(&bytes) {
        Ok(v) => v,
        Err(e) => return err_response(kind::BAD_IMAGE, &format!("parse {path:?}: {e}")),
    };
    let header = match ImageHeader::from_json(&header_json) {
        Ok(h) => h,
        Err(msg) => return err_response(kind::BAD_IMAGE, &msg),
    };
    let (spec, scheme) = match header.resolve() {
        Ok(v) => v,
        Err(msg) => return err_response(kind::BAD_IMAGE, &msg),
    };
    if spec.n_nodes != header.nodes {
        return err_response(
            kind::BAD_IMAGE,
            &format!(
                "image header claims {} nodes but preset {:?} deploys {}",
                header.nodes, header.preset, spec.n_nodes
            ),
        );
    }
    install(
        shared,
        &name,
        &header.preset,
        header.scale,
        spec,
        scheme,
        header.seed,
        serving,
        Some(body),
        None,
    )
}

/// Build the engine (outside the map lock — deployment can take a
/// while), optionally overlay a snapshot body, and register the slot
/// under `name`.
#[allow(clippy::too_many_arguments)]
fn install(
    shared: &Shared,
    name: &str,
    preset: &str,
    scale: f64,
    spec: dirq_scenario::ScenarioSpec,
    scheme: Scheme,
    seed: u64,
    serving: ServingOptions,
    body: Option<&[u8]>,
    recovered: Option<RecoveredFrom>,
) -> Json {
    {
        let deployments = shared.deployments.lock().expect("deployment map");
        if deployments.contains_key(name) {
            return err_response(kind::EXISTS, &format!("deployment {name:?} already exists"));
        }
    }
    let cfg = spec.config(scheme, seed);
    let (nodes, epochs, location_enabled) = (cfg.n_nodes, cfg.epochs, cfg.location_enabled);
    let mut engine = Engine::new(cfg);
    if let Some(body) = body {
        if let Err(e) = engine.restore(body) {
            return err_response(kind::BAD_IMAGE, &format!("restore: {e}"));
        }
    }
    let info = DeploymentInfo {
        name: name.to_string(),
        preset: preset.to_string(),
        scale,
        scheme: scheme.label(),
        seed,
        nodes,
        epochs,
        location_enabled,
        sensor_types: engine.world().catalog().len(),
        serving,
        recovered,
    };
    engine.enable_completed_log();
    let epoch = Arc::new(AtomicU64::new(engine.epoch()));
    let current = epoch.load(Ordering::SeqCst);
    let slot = Arc::new(Slot {
        serving: Mutex::new(Serving {
            sweep_cursor: engine.completed_next_seq(),
            engine,
            info: info.clone(),
            epoch: Arc::clone(&epoch),
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            results: VecDeque::new(),
            next_result_seq: 0,
        }),
        info: info.clone(),
        epoch,
        mailbox: Mutex::new(VecDeque::new()),
        sched: AtomicU8::new(SCHED_IDLE),
    });
    let mut deployments = shared.deployments.lock().expect("deployment map");
    if deployments.contains_key(name) {
        // Raced another deploy of the same name; ours simply drops.
        return err_response(kind::EXISTS, &format!("deployment {name:?} already exists"));
    }
    deployments.insert(name.to_string(), slot);
    let mut ok = ok_response();
    merge_fields(&mut ok, &info.to_json(current));
    ok
}

fn handle_query(request: &Json, shared: &Shared) -> Json {
    let deployment = match str_field(request, "deployment") {
        Ok(v) => v,
        Err(e) => return e,
    };
    // Sensor types are u8s on the engine side: reject out-of-range
    // values instead of silently wrapping them.
    let stype = match num_field(request, "stype") {
        Ok(v) if v.fract() == 0.0 && (0.0..=255.0).contains(&v) => v as u8,
        Ok(v) => return bad(&format!("stype must be an integer in 0..=255, got {v}")),
        Err(e) => return e,
    };
    let (lo, hi) = match (num_field(request, "lo"), num_field(request, "hi")) {
        (Ok(lo), Ok(hi)) => (lo, hi),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let region = match request.get("region") {
        None | Some(Json::Null) => None,
        Some(doc) => match doc.as_array() {
            Some(v) if v.len() == 4 => {
                let mut corners = [0.0; 4];
                for (slot, item) in corners.iter_mut().zip(v) {
                    match item.as_f64() {
                        Some(x) if x.is_finite() => *slot = x,
                        _ => return bad("region must be [x0, y0, x1, y1] (finite numbers)"),
                    }
                }
                Some(corners)
            }
            _ => return bad("region must be [x0, y0, x1, y1] (finite numbers)"),
        },
    };
    let is_async = match opt_field(request, "async", "a boolean", Json::as_bool) {
        Ok(v) => v.unwrap_or(false),
        Err(e) => return e,
    };
    let client = match opt_str_field(request, "client") {
        Ok(v) => v.unwrap_or_default(),
        Err(e) => return e,
    };
    let timeout = match request_timeout(request) {
        Ok(v) => v,
        Err(msg) => return bad(&msg),
    };
    let slot = match lookup(shared, &deployment) {
        Ok(v) => v,
        Err(e) => return e,
    };
    if region.is_some() && !slot.info.location_enabled {
        return err_response(
            kind::UNSUPPORTED,
            &format!(
                "deployment {deployment:?} has no location extension; spatial queries unsupported"
            ),
        );
    }
    if usize::from(stype) >= slot.info.sensor_types {
        return bad(&format!(
            "stype {stype} is not in deployment {deployment:?}'s catalog of {} sensor types",
            slot.info.sensor_types
        ));
    }
    if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
        return bad("query window must satisfy lo <= hi (finite)");
    }
    let (reply_tx, reply_rx) = channel();
    round_trip(
        shared,
        &slot,
        EngineCmd::Submit(Submission { stype, lo, hi, region, client, is_async, reply: reply_tx }),
        reply_rx,
        timeout,
    )
}

fn handle_poll(request: &Json, shared: &Shared) -> Json {
    let deployment = match str_field(request, "deployment") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let id = match opt_u64_field(request, "id") {
        Ok(Some(v)) => v,
        Ok(None) => return bad("missing integer field \"id\""),
        Err(e) => return e,
    };
    let timeout = match request_timeout(request) {
        Ok(v) => v,
        Err(msg) => return bad(&msg),
    };
    let slot = match lookup(shared, &deployment) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let (reply_tx, reply_rx) = channel();
    round_trip(shared, &slot, EngineCmd::Poll { id, reply: reply_tx }, reply_rx, timeout)
}

fn handle_drain(request: &Json, shared: &Shared) -> Json {
    let deployment = match str_field(request, "deployment") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let cursor = match opt_u64_field(request, "cursor") {
        Ok(v) => v.unwrap_or(0),
        Err(e) => return e,
    };
    let timeout = match request_timeout(request) {
        Ok(v) => v,
        Err(msg) => return bad(&msg),
    };
    let slot = match lookup(shared, &deployment) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let (reply_tx, reply_rx) = channel();
    round_trip(shared, &slot, EngineCmd::Drain { cursor, reply: reply_tx }, reply_rx, timeout)
}

fn handle_step(request: &Json, shared: &Shared) -> Json {
    let deployment = match str_field(request, "deployment") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let epochs = match opt_u64_field(request, "epochs") {
        Ok(Some(v)) => v,
        Ok(None) => return bad("missing integer field \"epochs\""),
        Err(e) => return e,
    };
    let timeout = match request_timeout(request) {
        Ok(v) => v,
        Err(msg) => return bad(&msg),
    };
    let slot = match lookup(shared, &deployment) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let (reply_tx, reply_rx) = channel();
    round_trip(shared, &slot, EngineCmd::Step { epochs, reply: reply_tx }, reply_rx, timeout)
}

fn handle_status(shared: &Shared) -> Json {
    let rows: Vec<Json> = {
        let deployments = shared.deployments.lock().expect("deployment map");
        let mut rows: Vec<(String, Json)> = deployments
            .values()
            .map(|d| (d.info.name.clone(), d.info.to_json(d.epoch.load(Ordering::SeqCst))))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.into_iter().map(|(_, j)| j).collect()
    };
    let unrecoverable: Vec<Json> = {
        let failed = shared.unrecoverable.lock().expect("unrecoverable list");
        failed
            .iter()
            .map(|u| {
                let mut obj = Json::object();
                obj.set("name", Json::Str(u.name.clone()));
                obj.set("error", Json::Str(u.error.clone()));
                obj
            })
            .collect()
    };
    let mut ok = ok_response();
    ok.set("serving_threads", Json::from_u64(shared.serving_threads as u64));
    ok.set("deployments", Json::Arr(rows));
    ok.set("unrecoverable", Json::Arr(unrecoverable));
    ok
}

fn handle_fingerprint(request: &Json, shared: &Shared) -> Json {
    let deployment = match str_field(request, "deployment") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let timeout = match request_timeout(request) {
        Ok(v) => v,
        Err(msg) => return bad(&msg),
    };
    let slot = match lookup(shared, &deployment) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let (reply_tx, reply_rx) = channel();
    round_trip(shared, &slot, EngineCmd::Fingerprint { reply: reply_tx }, reply_rx, timeout)
}

fn handle_snapshot(request: &Json, shared: &Shared) -> Json {
    let deployment = match str_field(request, "deployment") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let path = match str_field(request, "path") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let timeout = match request_timeout(request) {
        Ok(v) => v,
        Err(msg) => return bad(&msg),
    };
    let slot = match lookup(shared, &deployment) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let (reply_tx, reply_rx) = channel();
    round_trip(shared, &slot, EngineCmd::SnapshotTo { path, reply: reply_tx }, reply_rx, timeout)
}

fn handle_stall(request: &Json, shared: &Shared) -> Json {
    let deployment = match str_field(request, "deployment") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let ms = match opt_u64_field(request, "ms") {
        Ok(Some(v)) => v.min(10_000),
        Ok(None) => return bad("missing integer field \"ms\""),
        Err(e) => return e,
    };
    let timeout = match request_timeout(request) {
        Ok(v) => v,
        Err(msg) => return bad(&msg),
    };
    let slot = match lookup(shared, &deployment) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let (reply_tx, reply_rx) = channel();
    round_trip(shared, &slot, EngineCmd::Stall { ms, reply: reply_tx }, reply_rx, timeout)
}

// --- crash recovery -------------------------------------------------------

/// One rotating checkpoint image found by [`scan_checkpoint_dir`].
#[derive(Clone, Debug)]
pub struct CheckpointSlot {
    /// Deployment name encoded in the filename.
    pub name: String,
    /// Rotation slot index encoded in the filename.
    pub slot: u64,
    /// Full path of the image file.
    pub path: PathBuf,
    /// Parsed image header, or why this slot is unusable (torn write,
    /// bad magic, wrong format version, broken header).
    pub header: Result<ImageHeader, String>,
}

/// Parse `<name>.<slot>.dirqsnap`, splitting the slot off the *right*
/// so deployment names may themselves contain dots.
fn parse_checkpoint_filename(file: &str) -> Option<(String, u64)> {
    let stem = file.strip_suffix(IMAGE_EXTENSION)?.strip_suffix('.')?;
    let (name, slot) = stem.rsplit_once('.')?;
    if name.is_empty() {
        return None;
    }
    Some((name.to_string(), slot.parse().ok()?))
}

/// Scan `dir` for rotating checkpoint images and validate each frame.
/// Files not matching `<name>.<slot>.dirqsnap` are ignored. The result
/// is ordered name-ascending, and within a name best-candidate first:
/// valid slots by epoch (then slot index) descending, unreadable slots
/// last — so recovery tries the newest valid image and falls back in
/// order.
pub fn scan_checkpoint_dir(dir: &Path) -> io::Result<Vec<CheckpointSlot>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let file_name = entry.file_name();
        let Some((name, slot)) = parse_checkpoint_filename(&file_name.to_string_lossy()) else {
            continue;
        };
        let header = std::fs::read(entry.path())
            .map_err(|e| format!("read: {e}"))
            .and_then(|bytes| check_image(&bytes).map_err(|e| e.to_string()))
            .and_then(|doc| ImageHeader::from_json(&doc));
        found.push(CheckpointSlot { name, slot, path: entry.path(), header });
    }
    // Rank: valid beats invalid, then epoch, then slot index. Reverse
    // within a name so the best candidate sorts first.
    let rank = |s: &CheckpointSlot| match &s.header {
        Ok(h) => (1u8, h.epoch, s.slot),
        Err(_) => (0, 0, s.slot),
    };
    found.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| rank(b).cmp(&rank(a))));
    Ok(found)
}

/// The `--recover` pass: resume every deployment in `dir` from its
/// newest valid checkpoint image, falling back slot-by-slot on torn or
/// stale frames. Runs before the daemon accepts connections; a
/// deployment with no usable slot lands in `unrecoverable` (surfaced
/// via `status`) instead of failing startup. Only scan-level I/O errors
/// (e.g. the directory is missing) abort.
fn recover_from_dir(shared: &Shared, dir: &str) -> io::Result<()> {
    let mut by_name: BTreeMap<String, Vec<CheckpointSlot>> = BTreeMap::new();
    for slot in scan_checkpoint_dir(Path::new(dir))? {
        by_name.entry(slot.name.clone()).or_default().push(slot);
    }
    for (name, candidates) in by_name {
        let mut failures: Vec<String> = Vec::new();
        let mut resumed = false;
        for candidate in candidates {
            match try_resume(shared, &name, &candidate, dir) {
                Ok(()) => {
                    resumed = true;
                    break;
                }
                Err(msg) => failures.push(format!("slot {}: {msg}", candidate.slot)),
            }
        }
        if !resumed {
            shared
                .unrecoverable
                .lock()
                .expect("unrecoverable list")
                .push(Unrecoverable { name, error: failures.join("; ") });
        }
    }
    Ok(())
}

/// Resume one deployment from one checkpoint candidate. The serving
/// recipe embedded in the image header is resumed verbatim except for
/// `checkpoint_dir`, which is re-pointed at the recovery directory so
/// the resumed deployment keeps rotating its checkpoints in place.
fn try_resume(
    shared: &Shared,
    name: &str,
    candidate: &CheckpointSlot,
    dir: &str,
) -> Result<(), String> {
    let header = candidate.header.as_ref().map_err(String::clone)?;
    let (spec, scheme) = header.resolve()?;
    if spec.n_nodes != header.nodes {
        return Err(format!(
            "image header claims {} nodes but preset {:?} deploys {}",
            header.nodes, header.preset, spec.n_nodes
        ));
    }
    let mut serving = header.serving.clone().unwrap_or_default();
    if serving.checkpoint_every_epochs > 0 {
        serving.checkpoint_dir = Some(dir.to_string());
    }
    // Re-read: the scan only validated and kept the header.
    let bytes = std::fs::read(&candidate.path).map_err(|e| format!("read: {e}"))?;
    let (_, body) = parse_image(&bytes).map_err(|e| e.to_string())?;
    let recovered = RecoveredFrom { slot: candidate.slot, epoch: header.epoch };
    let response = install(
        shared,
        name,
        &header.preset,
        header.scale,
        spec,
        scheme,
        header.seed,
        serving,
        Some(body),
        Some(recovered),
    );
    if response.get("ok") == Some(&Json::Bool(true)) {
        Ok(())
    } else {
        Err(response.get("error").and_then(Json::as_str).unwrap_or("install failed").to_string())
    }
}

// --- per-deployment serving state -----------------------------------------

/// A query injected into the engine and not yet finalised. `Some` holds
/// the blocking caller's reply channel; async callers were answered at
/// injection and resolve through the results log.
type Inflight = Option<Sender<Json>>;

/// A slot's serving state: engine, admission queue, in-flight set, and
/// the bounded results log `poll`/`drain` read.
struct Serving {
    engine: Engine,
    info: DeploymentInfo,
    /// Published epoch-boundary mirror for lock-free `status` reads.
    epoch: Arc<AtomicU64>,
    /// Bounded admission queue, arrival order.
    queue: VecDeque<Submission>,
    /// Injected, not yet finalised, by query id.
    inflight: HashMap<u64, Inflight>,
    /// Cursor into the engine's completed log (internal workload
    /// completions are swept past; external ones land in `results`).
    sweep_cursor: u64,
    /// Completed external queries: `(seq, query id, outcome fields)`.
    results: VecDeque<(u64, u64, Json)>,
    /// Sequence number the next completed result will receive.
    next_result_seq: u64,
}

impl Serving {
    /// Queued + in-flight work; the slot keeps rescheduling itself
    /// while non-zero.
    fn backlog(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// Handle one command.
    fn process(&mut self, cmd: EngineCmd) {
        match cmd {
            EngineCmd::Submit(s) => {
                if self.queue.len() >= self.info.serving.queue_cap {
                    let _ = s.reply.send(err_response(
                        kind::QUEUE_FULL,
                        &format!(
                            "admission queue at capacity ({}); resubmit later",
                            self.info.serving.queue_cap
                        ),
                    ));
                } else {
                    self.queue.push_back(s);
                }
            }
            EngineCmd::Poll { id, reply } => {
                let _ = reply.send(self.poll(id));
            }
            EngineCmd::Drain { cursor, reply } => {
                let _ = reply.send(self.drain(cursor));
            }
            EngineCmd::Step { epochs, reply } => {
                // An explicit step never admits queued submissions —
                // they inject after it, whenever they arrived.
                for _ in 0..epochs {
                    self.engine.step_epoch();
                    self.post_step();
                }
                let mut ok = ok_response();
                ok.set("epoch", Json::from_u64(self.engine.epoch()));
                let _ = reply.send(ok);
            }
            EngineCmd::Fingerprint { reply } => {
                let mut ok = ok_response();
                ok.set("epoch", Json::from_u64(self.engine.epoch()));
                ok.set("fingerprint", Json::Str(fingerprint_hex(self.engine.state_fingerprint())));
                let _ = reply.send(ok);
            }
            EngineCmd::SnapshotTo { path, reply } => {
                let _ = reply.send(write_snapshot(&self.engine, &self.info, &path));
            }
            EngineCmd::Stall { ms, reply } => {
                std::thread::sleep(Duration::from_millis(ms));
                let mut ok = ok_response();
                ok.set("epoch", Json::from_u64(self.engine.epoch()));
                let _ = reply.send(ok);
            }
        }
    }

    /// Admit every queued submission and inject them ordered by content
    /// (client tag as tiebreak) so the trajectory is
    /// arrival-order-invariant. Async submissions are answered here with
    /// their assigned id.
    fn admit_and_inject(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let mut admitted: Vec<Submission> = self.queue.drain(..).collect();
        admitted.sort_by(|a, b| a.key().cmp(&b.key()).then_with(|| a.client.cmp(&b.client)));
        let boundary = self.engine.epoch();
        for s in admitted {
            let region = s.region.map(|[x0, y0, x1, y1]| {
                Rect::new(Position { x: x0, y: y0 }, Position { x: x1, y: y1 })
            });
            let id = self.engine.submit_external_query(SensorType(s.stype), s.lo, s.hi, region);
            if s.is_async {
                let mut ok = ok_response();
                ok.set("id", Json::from_u64(id.0));
                ok.set("epoch", Json::from_u64(boundary));
                let _ = s.reply.send(ok);
                self.inflight.insert(id.0, None);
            } else {
                self.inflight.insert(id.0, Some(s.reply));
            }
        }
    }

    /// After every `step_epoch`, wherever it happens: publish the epoch,
    /// sweep newly finalised queries out of the engine's completed log
    /// (blocking callers are answered, everything external lands in the
    /// results log), and maybe write an auto-checkpoint.
    fn post_step(&mut self) {
        let now = self.engine.epoch();
        self.epoch.store(now, Ordering::SeqCst);
        let mut finished: Vec<(u64, Json)> = Vec::new();
        for (seq, done) in self.engine.completed_since(self.sweep_cursor) {
            self.sweep_cursor = seq + 1;
            // The engine also finalises its own workload queries; only
            // externally submitted ids leave the sweep.
            if self.inflight.contains_key(&done.outcome.id.0) {
                finished.push((done.outcome.id.0, outcome_fields(done)));
            }
        }
        for (id, fields) in finished {
            if let Some(Some(reply)) = self.inflight.remove(&id) {
                let mut ok = ok_response();
                merge_fields(&mut ok, &fields);
                let _ = reply.send(ok);
            }
            if self.results.len() == RESULTS_LOG_CAP {
                self.results.pop_front();
            }
            self.results.push_back((self.next_result_seq, id, fields));
            self.next_result_seq += 1;
        }
        let every = self.info.serving.checkpoint_every_epochs;
        if every > 0 && now.is_multiple_of(every) {
            self.write_checkpoint(now / every % CHECKPOINT_SLOTS);
        }
    }

    /// Write one rotating checkpoint image. Failures are logged, never
    /// fatal — checkpointing is a recovery aid, not a serving dependency.
    fn write_checkpoint(&self, slot: u64) {
        let dir = self.info.serving.checkpoint_dir.as_deref().unwrap_or(".");
        let path = format!("{dir}/{name}.{slot}.{IMAGE_EXTENSION}", name = self.info.name);
        let result = write_snapshot(&self.engine, &self.info, &path);
        if result.get("ok") != Some(&Json::Bool(true)) {
            let why = result.get("error").and_then(Json::as_str).unwrap_or("unknown error");
            eprintln!("dirqd: checkpoint {path:?} failed: {why}");
        }
    }

    fn poll(&self, id: u64) -> Json {
        if let Some((_, _, fields)) = self.results.iter().rev().find(|(_, rid, _)| *rid == id) {
            let mut ok = ok_response();
            ok.set("done", Json::Bool(true));
            merge_fields(&mut ok, fields);
            return ok;
        }
        if self.inflight.contains_key(&id) {
            let mut ok = ok_response();
            ok.set("done", Json::Bool(false));
            ok.set("epoch", Json::from_u64(self.engine.epoch()));
            return ok;
        }
        err_response(kind::NOT_FOUND, &format!("unknown or expired query id {id}"))
    }

    fn drain(&self, cursor: u64) -> Json {
        let first_seq = self.next_result_seq - self.results.len() as u64;
        let skip = cursor.saturating_sub(first_seq).min(self.results.len() as u64) as usize;
        let mut out = Vec::new();
        let mut next_cursor = cursor.max(first_seq).min(self.next_result_seq);
        for (seq, _, fields) in self.results.iter().skip(skip).take(DRAIN_MAX_RESULTS) {
            let mut item = fields.clone();
            item.set("seq", Json::from_u64(*seq));
            out.push(item);
            next_cursor = seq + 1;
        }
        let mut ok = ok_response();
        ok.set("results", Json::Arr(out));
        ok.set("cursor", Json::from_u64(next_cursor));
        ok.set("pending", Json::from_u64(self.backlog() as u64));
        ok.set("epoch", Json::from_u64(self.engine.epoch()));
        ok
    }
}

/// Serialize, frame and persist a snapshot image. The header embeds the
/// deployment's serving recipe so `--recover` resumes it under the
/// knobs it was running with.
fn write_snapshot(engine: &Engine, info: &DeploymentInfo, path: &str) -> Json {
    let header = ImageHeader {
        preset: info.preset.clone(),
        scale: info.scale,
        scheme: info.scheme.clone(),
        seed: info.seed,
        epoch: engine.epoch(),
        nodes: info.nodes,
        serving: Some(info.serving.clone()),
    };
    let image = frame_image(&header.to_json(), &engine.snapshot());
    if let Err(e) = std::fs::write(path, &image) {
        return err_response(kind::IO, &format!("write {path:?}: {e}"));
    }
    let mut ok = ok_response();
    ok.set("path", Json::Str(path.to_string()));
    ok.set("bytes", Json::from_u64(image.len() as u64));
    ok.set("epoch", Json::from_u64(engine.epoch()));
    ok.set("fingerprint", Json::Str(fingerprint_hex(engine.state_fingerprint())));
    ok
}

/// Render one completed query's result fields (no `ok` envelope — the
/// caller wraps for `query`/`poll` replies or embeds for `drain`).
fn outcome_fields(done: &CompletedQuery) -> Json {
    let o = &done.outcome;
    let mut fields = Json::object();
    fields.set("id", Json::from_u64(o.id.0));
    fields.set("epoch", Json::from_u64(o.epoch));
    fields.set("answered_epoch", Json::from_u64(done.answered_epoch));
    fields.set("epochs_to_answer", Json::from_u64(done.answered_epoch.saturating_sub(o.epoch)));
    fields.set("true_sources", Json::from_u64(o.true_sources as u64));
    fields.set("sources_reached", Json::from_u64(o.sources_reached as u64));
    fields.set("should_receive", Json::from_u64(o.should_receive as u64));
    fields.set("received_should", Json::from_u64(o.received_should as u64));
    fields.set("received_should_not", Json::from_u64(o.received_should_not as u64));
    fields.set("recall", Json::Num(o.source_recall()));
    fields.set("tx", Json::from_u64(done.tx));
    fields.set("rx", Json::from_u64(done.rx));
    fields
}

/// Copy every field of `src` (an object) onto `dst`.
fn merge_fields(dst: &mut Json, src: &Json) {
    if let Json::Obj(fields) = src {
        for (k, v) in fields {
            dst.set(k, v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(name: &str, slot: u64, epoch: u64, dir: &Path) -> PathBuf {
        let header = ImageHeader {
            preset: "p".into(),
            scale: 1.0,
            scheme: "s".into(),
            seed: 7,
            epoch,
            nodes: 3,
            serving: None,
        };
        let path = dir.join(format!("{name}.{slot}.{IMAGE_EXTENSION}"));
        std::fs::write(&path, frame_image(&header.to_json(), b"body")).expect("write image");
        path
    }

    #[test]
    fn checkpoint_filenames_split_slot_off_the_right() {
        assert_eq!(parse_checkpoint_filename("a.0.dirqsnap"), Some(("a".into(), 0)));
        assert_eq!(parse_checkpoint_filename("a.b.12.dirqsnap"), Some(("a.b".into(), 12)));
        assert_eq!(parse_checkpoint_filename("a.dirqsnap"), None, "no slot component");
        assert_eq!(parse_checkpoint_filename(".0.dirqsnap"), None, "empty name");
        assert_eq!(parse_checkpoint_filename("a.x.dirqsnap"), None, "non-numeric slot");
        assert_eq!(parse_checkpoint_filename("a.0.snap"), None, "wrong extension");
    }

    #[test]
    fn scan_orders_candidates_newest_valid_first() {
        let dir = std::env::temp_dir().join(format!("dirqd-scan-{:x}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        // "a": slot 0 newer than slot 1 (rotation wrapped).
        image("a", 0, 40, &dir);
        image("a", 1, 20, &dir);
        // "b": newest slot torn mid-write; older slot intact.
        let torn = image("b", 1, 60, &dir);
        let bytes = std::fs::read(&torn).expect("read image");
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("truncate image");
        image("b", 0, 30, &dir);
        std::fs::write(dir.join("notes.txt"), b"ignored").expect("write stray file");

        let slots = scan_checkpoint_dir(&dir).expect("scan");
        let order: Vec<(String, u64, bool)> =
            slots.iter().map(|s| (s.name.clone(), s.slot, s.header.is_ok())).collect();
        assert_eq!(
            order,
            vec![
                ("a".into(), 0, true),
                ("a".into(), 1, true),
                ("b".into(), 0, true),
                ("b".into(), 1, false),
            ],
            "valid slots epoch-descending, torn slot last"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

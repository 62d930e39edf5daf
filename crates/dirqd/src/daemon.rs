//! The daemon: named live deployments behind a TCP protocol endpoint.
//!
//! Deployments are passive `Slot` state objects multiplexed over a
//! fixed-size **serving pool** (`--serving-threads N`, default one
//! worker per available hardware thread), so thousands of deployments
//! cost thousands of structs, not thousands of OS threads. Connection
//! handlers never touch an engine directly: every deployment command
//! takes one path, `call` — read its fields, look the slot up, push the
//! command into the slot's mailbox, schedule the slot onto the pool, and
//! wait (with a deadline) for the reply — so every deployment still
//! processes exactly one command stream in a deterministic order and a
//! wedged deployment costs its caller a typed `timeout` error, not a
//! hung connection.
//!
//! ## Scheduled turns
//!
//! A pool worker runs one deployment **turn** at a time: drain the
//! mailbox in arrival order, process every command, and — while any
//! query is queued or in flight — admit a scheduling round, inject it
//! ordered **by content** (sensor type, window bounds, region, client
//! tag) rather than arrival time, step one epoch, and sweep
//! completions. A slot is scheduled under the mailbox lock that already
//! orders its commands: a `scheduled` flag is set when a command reaches
//! an unscheduled slot, which then joins the ready queue, and cleared
//! only when a turn ends with no backlog and an empty mailbox — else the
//! finishing worker re-queues the slot. So a slot occupies at most one
//! worker at a time and a command arriving mid-turn is never dropped.
//! Locks nest in one order: a slot's serving state, its mailbox, the
//! ready queue. Because a turn is the old engine-thread loop iteration
//! verbatim, per-deployment trajectories are bit-identical to the
//! thread-per-deployment daemon at **any** `--serving-threads` count —
//! the property the differential tests pin against
//! [`crate::loadmodel::replay_serving`].
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
//! the slot and epoch they resumed from. `restore` and `--recover`
//! install an image through the same function.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dirq_core::{CompletedQuery, Engine};
use dirq_data::SensorType;
use dirq_net::{Position, Rect};
use dirq_scenario::Scheme;
use dirq_sim::json::Json;
use dirq_sim::snap::{check_image, encode_image, parse_image};

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
}

impl Submission {
    /// Read a `query` request's own fields.
    fn parse(request: &Json) -> Result<Submission, Json> {
        // Sensor types are u8s on the engine side: reject out-of-range
        // values instead of silently wrapping them.
        let stype = match num_field(request, "stype")? {
            v if v.fract() == 0.0 && (0.0..=255.0).contains(&v) => v as u8,
            v => return Err(bad(&format!("stype must be an integer in 0..=255, got {v}"))),
        };
        let lo = num_field(request, "lo")?;
        let hi = num_field(request, "hi")?;
        let region = match request.get("region") {
            None | Some(Json::Null) => None,
            Some(doc) => {
                let corners: Option<Vec<f64>> = doc
                    .as_array()
                    .and_then(|v| v.iter().map(|c| c.as_f64().filter(|x| x.is_finite())).collect());
                match corners.map(<[f64; 4]>::try_from) {
                    Some(Ok(corners)) => Some(corners),
                    _ => return Err(bad("region must be [x0, y0, x1, y1] (finite numbers)")),
                }
            }
        };
        Ok(Submission {
            stype,
            lo,
            hi,
            region,
            is_async: opt_field(request, "async", "a boolean", Json::as_bool)?.unwrap_or(false),
            client: opt_str_field(request, "client")?.unwrap_or_default(),
        })
    }

    /// The checks that need the deployment: a region only where nodes
    /// carry positions, a sensor type in its catalog, a finite window.
    fn check(&self, info: &DeploymentInfo) -> Result<(), Json> {
        let name = &info.name;
        if self.region.is_some() && !info.location_enabled {
            return Err(err_response(
                kind::UNSUPPORTED,
                &format!(
                    "deployment {name:?} has no location extension; spatial queries unsupported"
                ),
            ));
        }
        if usize::from(self.stype) >= info.sensor_types {
            return Err(bad(&format!(
                "stype {} is not in deployment {name:?}'s catalog of {} sensor types",
                self.stype, info.sensor_types
            )));
        }
        if !(self.lo.is_finite() && self.hi.is_finite() && self.lo <= self.hi) {
            return Err(bad("query window must satisfy lo <= hi (finite)"));
        }
        Ok(())
    }

    /// Content ordering key — injection order within an admission round
    /// must not depend on socket arrival time; the client tag breaks
    /// ties.
    fn key(&self) -> (u8, u64, u64, u8, [u64; 4], &str) {
        let region_bits = self.region.map_or([0; 4], |r| r.map(f64::to_bits));
        (
            self.stype,
            self.lo.to_bits(),
            self.hi.to_bits(),
            u8::from(self.region.is_some()),
            region_bits,
            &self.client,
        )
    }
}

/// Commands a connection handler can push into a slot's mailbox, which
/// pairs each with the channel its reply goes to.
enum EngineCmd {
    Submit(Submission),
    Poll(u64),
    Drain(u64),
    Step(u64),
    Fingerprint,
    SnapshotTo(String),
    /// Diagnostics: occupy the slot's turn for this many ms (bounded) —
    /// the deterministic wedge the timeout tests use.
    Stall(u64),
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

/// One deployment: passive state scheduled onto pool workers in turns.
struct Slot {
    info: DeploymentInfo,
    /// Last epoch boundary a turn published (lock-free `status` reads).
    epoch: AtomicU64,
    /// Commands pushed by connection handlers, and whether the slot is
    /// scheduled.
    mailbox: Mutex<Mailbox>,
    /// Engine + admission queue + results log; locked only by the one
    /// worker running this slot's turn.
    serving: Mutex<Serving>,
}

/// A slot's commands, each with its reply channel, drained at turn start
/// in arrival order.
#[derive(Default)]
struct Mailbox {
    cmds: VecDeque<(EngineCmd, Sender<Json>)>,
    /// Set while the slot is on the ready queue or running a turn, so it
    /// occupies at most one worker; a command arriving mid-turn leaves
    /// the re-queue to the worker that ends the turn.
    scheduled: bool,
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
        // every worker, and drop the slots — queued ones too — so
        // serve() returning means the daemon's state is fully torn down.
        {
            let _ready = self.shared.ready.lock().expect("ready queue");
            self.shared.stopping.store(true, Ordering::SeqCst);
            self.shared.work.notify_all();
        }
        for w in self.workers {
            let _ = w.join();
        }
        self.shared.ready.lock().expect("ready queue").clear();
        self.shared.deployments.lock().expect("deployment map").clear();
        Ok(())
    }
}

// --- the serving pool -----------------------------------------------------

/// A pool worker: pop a ready slot and run one turn of it.
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
        run_turn(shared, &slot);
    }
}

/// One scheduled turn — exactly one iteration of the old
/// thread-per-deployment serving loop: drain the mailbox in arrival
/// order, process every command, then (with backlog) admit + inject a
/// content-ordered round, step one epoch, and sweep completions. The
/// slot stays scheduled, and goes back on the ready queue, while it has
/// backlog or commands arrived during the turn.
fn run_turn(shared: &Shared, slot: &Arc<Slot>) {
    let mut serving = slot.serving.lock().expect("slot serving state");
    let cmds = std::mem::take(&mut slot.mailbox.lock().expect("slot mailbox").cmds);
    for (cmd, reply) in cmds {
        serving.process(slot, cmd, reply);
    }
    if serving.backlog() > 0 {
        serving.admit_and_inject();
        serving.engine.step_epoch();
        serving.post_step(slot);
    }
    let mut mailbox = slot.mailbox.lock().expect("slot mailbox");
    mailbox.scheduled = serving.backlog() > 0 || !mailbox.cmds.is_empty();
    if mailbox.scheduled {
        make_ready(shared, slot);
    }
}

/// Put `slot` on the ready queue and wake one pool worker.
fn make_ready(shared: &Shared, slot: &Arc<Slot>) {
    shared.ready.lock().expect("ready queue").push_back(Arc::clone(slot));
    shared.work.notify_one();
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
        let req = &request;
        let response = match cmd.as_str() {
            "deploy" => handle_deploy(req, shared),
            "restore" => handle_restore(req, shared),
            "status" => Ok(handle_status(shared)),
            "query" => call(req, shared, |r| Submission::parse(r).map(EngineCmd::Submit)),
            "poll" => call(req, shared, |r| Ok(EngineCmd::Poll(required_u64(r, "id")?))),
            "drain" => call(req, shared, |r| {
                Ok(EngineCmd::Drain(opt_u64_field(r, "cursor")?.unwrap_or(0)))
            }),
            "step" => call(req, shared, |r| Ok(EngineCmd::Step(required_u64(r, "epochs")?))),
            "fingerprint" => call(req, shared, |_| Ok(EngineCmd::Fingerprint)),
            "snapshot" => call(req, shared, |r| Ok(EngineCmd::SnapshotTo(str_field(r, "path")?))),
            "debug_stall" => {
                call(req, shared, |r| Ok(EngineCmd::Stall(required_u64(r, "ms")?.min(10_000))))
            }
            "shutdown" => {
                write_line(&mut writer, &ok_response())?;
                initiate_shutdown(shared, daemon_addr);
                return Ok(());
            }
            "" => Err(bad("missing \"cmd\" field")),
            other => Err(bad(&format!("unknown command {other:?}"))),
        };
        write_line(&mut writer, &response.unwrap_or_else(|e| e))?;
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

fn bad_image(msg: &str) -> Json {
    err_response(kind::BAD_IMAGE, msg)
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

/// A required integer field: absent is its own error, mistyped is
/// [`opt_u64_field`]'s.
fn required_u64(doc: &Json, key: &str) -> Result<u64, Json> {
    opt_u64_field(doc, key)?.ok_or_else(|| bad(&format!("missing integer field {key:?}")))
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

/// The one path every deployment command takes: read `deployment`, then
/// the command's own fields (`fields`), then `timeout_ms` — so a bad
/// field wins over an unknown deployment — look the slot up, check a
/// query against the deployment, and round-trip the command.
fn call(
    request: &Json,
    shared: &Shared,
    fields: impl FnOnce(&Json) -> Result<EngineCmd, Json>,
) -> Result<Json, Json> {
    let deployment = str_field(request, "deployment")?;
    let cmd = fields(request)?;
    let timeout = request_timeout(request).map_err(|msg| bad(&msg))?;
    let slot = lookup(shared, &deployment)?;
    if let EngineCmd::Submit(submission) = &cmd {
        submission.check(&slot.info)?;
    }
    Ok(round_trip(shared, &slot, cmd, timeout))
}

/// Clone a deployment's slot handle under the map lock.
fn lookup(shared: &Shared, name: &str) -> Result<Arc<Slot>, Json> {
    let deployments = shared.deployments.lock().expect("deployment map");
    deployments
        .get(name)
        .map(Arc::clone)
        .ok_or_else(|| err_response(kind::NOT_FOUND, &format!("no deployment named {name:?}")))
}

/// Push `cmd` into the slot's mailbox, schedule the slot if it is not
/// already, and wait for the reply, bounded by `timeout` — a wedged
/// deployment yields a typed `timeout` error instead of hanging the
/// connection handler.
fn round_trip(shared: &Shared, slot: &Arc<Slot>, cmd: EngineCmd, timeout: Duration) -> Json {
    if shared.stopping.load(Ordering::SeqCst) {
        return err_response(kind::SHUTDOWN, "deployment is shutting down");
    }
    let (reply, rx) = channel();
    {
        let mut mailbox = slot.mailbox.lock().expect("slot mailbox");
        mailbox.cmds.push_back((cmd, reply));
        if !mailbox.scheduled {
            mailbox.scheduled = true;
            make_ready(shared, slot);
        }
    }
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

/// Longest deployment name, in bytes. A name is part of its checkpoint
/// file names (`{name}.{slot}.dirqsnap`), which must fit a file name.
const MAX_NAME_BYTES: usize = 200;

/// Read `deploy`'s or `restore`'s `name`: one that can name a checkpoint
/// file — not empty (recovery could not find it), at most
/// [`MAX_NAME_BYTES`] bytes, and without `/` or NUL (every write would
/// fail).
fn deployment_name(request: &Json) -> Result<String, Json> {
    let name = str_field(request, "name")?;
    if name.is_empty() || name.len() > MAX_NAME_BYTES || name.contains(['/', '\0']) {
        return Err(bad(&format!("name must be 1 to {MAX_NAME_BYTES} bytes, without '/' or NUL")));
    }
    Ok(name)
}

fn handle_deploy(request: &Json, shared: &Shared) -> Result<Json, Json> {
    let name = deployment_name(request)?;
    let preset = str_field(request, "preset")?;
    let scale = opt_field(request, "scale", "a number", Json::as_f64)?.unwrap_or(1.0);
    let scheme = opt_str_field(request, "scheme")?;
    let (spec, scheme) = resolve_deployment(&preset, scale, scheme.as_deref())
        .map_err(|msg| deployment_resolution_error(&msg))?;
    // Seeds are u64s: parse losslessly, and reject (rather than round)
    // negative or fractional values.
    let seed = opt_u64_field(request, "seed")?.unwrap_or(spec.seed);
    let serving = serving_options(request)?;
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

fn handle_restore(request: &Json, shared: &Shared) -> Result<Json, Json> {
    let name = deployment_name(request)?;
    let path = str_field(request, "path")?;
    let serving = serving_options(request)?;
    let bytes =
        std::fs::read(&path).map_err(|e| err_response(kind::IO, &format!("read {path:?}: {e}")))?;
    let (header, body) =
        parse_image(&bytes).map_err(|e| bad_image(&format!("parse {path:?}: {e}")))?;
    let header = ImageHeader::from_json(&header).map_err(|msg| bad_image(&msg))?;
    install_image(shared, &name, &header, body, serving, None)
}

/// Install a deployment from a snapshot image, for `restore` and
/// `--recover` alike: resolve the header's recipe, check its node count
/// against the preset, and overlay the body.
fn install_image(
    shared: &Shared,
    name: &str,
    header: &ImageHeader,
    body: &[u8],
    serving: ServingOptions,
    recovered: Option<RecoveredFrom>,
) -> Result<Json, Json> {
    let (spec, scheme) = header.resolve().map_err(|msg| bad_image(&msg))?;
    if spec.n_nodes != header.nodes {
        return Err(bad_image(&format!(
            "image header claims {} nodes but preset {:?} deploys {}",
            header.nodes, header.preset, spec.n_nodes
        )));
    }
    let (preset, scale, seed) = (&header.preset, header.scale, header.seed);
    install(shared, name, preset, scale, spec, scheme, seed, serving, Some(body), recovered)
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
) -> Result<Json, Json> {
    let exists = || err_response(kind::EXISTS, &format!("deployment {name:?} already exists"));
    if shared.deployments.lock().expect("deployment map").contains_key(name) {
        return Err(exists());
    }
    let cfg = spec.config(scheme, seed);
    let (nodes, epochs, location_enabled) = (cfg.n_nodes, cfg.epochs, cfg.location_enabled);
    let mut engine = Engine::new(cfg);
    if let Some(body) = body {
        engine.restore(body).map_err(|e| bad_image(&format!("restore: {e}")))?;
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
    let mut ok = ok_response();
    merge_fields(&mut ok, &info.to_json(engine.epoch()));
    let slot = Slot {
        info,
        epoch: AtomicU64::new(engine.epoch()),
        mailbox: Mutex::default(),
        serving: Mutex::new(Serving {
            engine,
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            results: VecDeque::new(),
            next_result_seq: 0,
            last_body: 0,
        }),
    };
    let mut deployments = shared.deployments.lock().expect("deployment map");
    if deployments.contains_key(name) {
        // Raced another deploy of the same name; ours simply drops.
        return Err(exists());
    }
    deployments.insert(name.to_string(), Arc::new(slot));
    Ok(ok)
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
    let mut serving = header.serving.clone().unwrap_or_default();
    if serving.checkpoint_every_epochs > 0 {
        serving.checkpoint_dir = Some(dir.to_string());
    }
    // Re-read: the scan only validated and kept the header.
    let bytes = std::fs::read(&candidate.path).map_err(|e| format!("read: {e}"))?;
    let (_, body) = parse_image(&bytes).map_err(|e| e.to_string())?;
    let recovered = RecoveredFrom { slot: candidate.slot, epoch: header.epoch };
    match install_image(shared, name, header, body, serving, Some(recovered)) {
        Ok(_) => Ok(()),
        Err(e) => Err(e.get("error").and_then(Json::as_str).unwrap_or_default().to_string()),
    }
}

// --- per-deployment serving state -----------------------------------------

/// A query injected into the engine and not yet finalised. `Some` holds
/// the blocking caller's reply channel; async callers were answered at
/// injection and resolve through the results log.
type Inflight = Option<Sender<Json>>;

/// A slot's serving state: engine, admission queue, in-flight set, and
/// the bounded results log `poll`/`drain` read. The slot's static facts
/// and published epoch stay on the [`Slot`] the turn hands in.
struct Serving {
    engine: Engine,
    /// Bounded admission queue, arrival order, each submission with its
    /// reply channel.
    queue: VecDeque<(Submission, Sender<Json>)>,
    /// Injected, not yet finalised, by query id.
    inflight: HashMap<u64, Inflight>,
    /// Completed external queries: `(seq, query id, outcome fields)`.
    results: VecDeque<(u64, u64, Json)>,
    /// Sequence number the next completed result will receive.
    next_result_seq: u64,
    /// Body length of the last image written, checkpoint or snapshot; the
    /// next image's buffer is sized from it.
    last_body: usize,
}

impl Serving {
    /// Queued + in-flight work; the slot keeps rescheduling itself
    /// while non-zero.
    fn backlog(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// Handle one command: queue a submission (it replies later) or
    /// answer on `reply` now.
    fn process(&mut self, slot: &Slot, cmd: EngineCmd, reply: Sender<Json>) {
        let cap = slot.info.serving.queue_cap;
        let response = match cmd {
            EngineCmd::Submit(s) if self.queue.len() < cap => {
                self.queue.push_back((s, reply));
                return;
            }
            EngineCmd::Submit(_) => err_response(
                kind::QUEUE_FULL,
                &format!("admission queue at capacity ({cap}); resubmit later"),
            ),
            EngineCmd::Poll(id) => self.poll(id),
            EngineCmd::Drain(cursor) => self.drain(cursor),
            EngineCmd::Step(epochs) => {
                // An explicit step never admits queued submissions —
                // they inject after it, whenever they arrived.
                for _ in 0..epochs {
                    self.engine.step_epoch();
                    self.post_step(slot);
                }
                self.epoch_reply()
            }
            EngineCmd::Fingerprint => {
                let mut ok = self.epoch_reply();
                ok.set("fingerprint", Json::Str(fingerprint_hex(self.engine.state_fingerprint())));
                ok
            }
            EngineCmd::SnapshotTo(path) => self.write_snapshot(&slot.info, &path),
            EngineCmd::Stall(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.epoch_reply()
            }
        };
        let _ = reply.send(response);
    }

    /// `{ok, epoch}` at the engine's current epoch.
    fn epoch_reply(&self) -> Json {
        let mut ok = ok_response();
        ok.set("epoch", Json::from_u64(self.engine.epoch()));
        ok
    }

    /// Admit every queued submission and inject them ordered by content
    /// so the trajectory is arrival-order-invariant. Async submissions
    /// are answered here with their assigned id.
    fn admit_and_inject(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let mut admitted: Vec<(Submission, Sender<Json>)> = self.queue.drain(..).collect();
        admitted.sort_by(|a, b| a.0.key().cmp(&b.0.key()));
        let boundary = self.engine.epoch();
        for (s, reply) in admitted {
            let region = s.region.map(|[x0, y0, x1, y1]| {
                Rect::new(Position { x: x0, y: y0 }, Position { x: x1, y: y1 })
            });
            let id = self.engine.submit_external_query(SensorType(s.stype), s.lo, s.hi, region);
            if s.is_async {
                let mut ok = ok_response();
                ok.set("id", Json::from_u64(id.0));
                ok.set("epoch", Json::from_u64(boundary));
                let _ = reply.send(ok);
                self.inflight.insert(id.0, None);
            } else {
                self.inflight.insert(id.0, Some(reply));
            }
        }
    }

    /// After every `step_epoch`, wherever it happens: publish the epoch,
    /// drain the queries the engine finalised (blocking callers are
    /// answered, everything external lands in the results log), and
    /// maybe write an auto-checkpoint.
    fn post_step(&mut self, slot: &Slot) {
        let now = self.engine.epoch();
        slot.epoch.store(now, Ordering::SeqCst);
        for done in self.engine.drain_completed() {
            // The engine also finalises its own workload queries; only
            // externally submitted ids reach the results log.
            let id = done.outcome.id.0;
            let Some(inflight) = self.inflight.remove(&id) else {
                continue;
            };
            let fields = outcome_fields(&done);
            if let Some(reply) = inflight {
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
        let every = slot.info.serving.checkpoint_every_epochs;
        if every > 0 && now.is_multiple_of(every) {
            self.write_checkpoint(&slot.info, now / every % CHECKPOINT_SLOTS);
        }
    }

    /// Write rotating checkpoint image `rotation`: encode and write, with
    /// no fingerprint, since nothing reads one. Failures are logged,
    /// never fatal — checkpointing is a recovery aid, not a serving
    /// dependency.
    fn write_checkpoint(&mut self, info: &DeploymentInfo, rotation: u64) {
        let dir = info.serving.checkpoint_dir.as_deref().unwrap_or(".");
        let path = format!("{dir}/{name}.{rotation}.{IMAGE_EXTENSION}", name = info.name);
        if let Err(why) = self.write_image(info, &path) {
            eprintln!("dirqd: checkpoint {path:?} failed: {why}");
        }
    }

    /// Encode the engine into one framed image buffer and persist it. The
    /// header embeds the deployment's serving recipe so `--recover`
    /// resumes it under the knobs it was running with. The buffer is sized
    /// from the last image's body with an eighth to spare, as an image
    /// grows with the deployment's age. Returns the image and the offset
    /// of its body, or what failed.
    fn write_image(
        &mut self,
        info: &DeploymentInfo,
        path: &str,
    ) -> Result<(Vec<u8>, usize), String> {
        let header = ImageHeader {
            preset: info.preset.clone(),
            scale: info.scale,
            scheme: info.scheme.clone(),
            seed: info.seed,
            epoch: self.engine.epoch(),
            nodes: info.nodes,
            serving: Some(info.serving.clone()),
        };
        let hint = self.last_body + self.last_body / 8;
        let (image, body) = encode_image(&header.to_json(), hint, |w| self.engine.snapshot_into(w));
        self.last_body = image.len() - body;
        std::fs::write(path, &image).map_err(|e| format!("write {path:?}: {e}"))?;
        Ok((image, body))
    }

    /// The `snapshot` command: write the image and reply with its path,
    /// size, epoch and fingerprint — the hash of the body just written,
    /// equal to [`Engine::state_fingerprint`] without encoding the engine
    /// again.
    fn write_snapshot(&mut self, info: &DeploymentInfo, path: &str) -> Json {
        let (image, body) = match self.write_image(info, path) {
            Ok(written) => written,
            Err(why) => return err_response(kind::IO, &why),
        };
        let mut ok = ok_response();
        ok.set("path", Json::Str(path.to_string()));
        ok.set("bytes", Json::from_u64(image.len() as u64));
        ok.set("epoch", Json::from_u64(self.engine.epoch()));
        ok.set("fingerprint", Json::Str(fingerprint_hex(Engine::body_fingerprint(&image[body..]))));
        ok
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
    use dirq_sim::snap::frame_image;

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

    /// Images are encoded in one buffer, whatever its size hint, byte-equal
    /// to framing a separately encoded snapshot body.
    #[test]
    fn one_buffer_images_equal_framed_snapshots() {
        let (spec, scheme) = resolve_deployment("dense_grid_100", 0.1, None).expect("preset");
        let cfg = spec.config(scheme, 3);
        let info = DeploymentInfo {
            name: "one".into(),
            preset: "dense_grid_100".into(),
            scale: 0.1,
            scheme: scheme.label(),
            seed: 3,
            nodes: cfg.n_nodes,
            epochs: cfg.epochs,
            location_enabled: cfg.location_enabled,
            sensor_types: 4,
            serving: ServingOptions::default(),
            recovered: None,
        };
        let mut serving = Serving {
            engine: Engine::new(cfg),
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            results: VecDeque::new(),
            next_result_seq: 0,
            last_body: 0,
        };
        let dir = std::env::temp_dir().join(format!("dirqd-image-{:x}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("one.dirqsnap").to_string_lossy().into_owned();
        // No previous image, then the last one, then a far too short one.
        for (epochs, last_body) in [(0, None), (5, None), (5, Some(1))] {
            for _ in 0..epochs {
                serving.engine.step_epoch();
            }
            if let Some(len) = last_body {
                serving.last_body = len;
            }
            let (image, body) = serving.write_image(&info, &path).expect("write image");
            let header = ImageHeader {
                preset: info.preset.clone(),
                scale: info.scale,
                scheme: info.scheme.clone(),
                seed: info.seed,
                epoch: serving.engine.epoch(),
                nodes: info.nodes,
                serving: Some(info.serving.clone()),
            };
            let snapshot = serving.engine.snapshot();
            assert!(image == frame_image(&header.to_json(), &snapshot), "epoch {epochs}");
            assert!(image[body..] == snapshot[..], "body offset");
            assert_eq!(serving.last_body, snapshot.len());
            assert!(std::fs::read(&path).expect("read image") == image, "file bytes");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
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

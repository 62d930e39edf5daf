//! Blocking client for the dirqd protocol.
//!
//! One [`Client`] wraps one TCP connection; calls are synchronous
//! request/response pairs. Open several clients to drive concurrent
//! query load. Blocking queries ([`Client::query`]) wait for the
//! outcome; non-blocking ones ([`Client::query_async`]) return the
//! assigned id at injection and resolve later through [`Client::poll`]
//! or [`Client::drain`].
//!
//! Every reply read carries a socket deadline ([`DEFAULT_READ_TIMEOUT`]
//! unless [`Client::set_timeout`] changes it) so a dead daemon yields
//! [`ClientError::Timeout`] instead of blocking forever. The daemon
//! bounds its own engine round trips more tightly (see
//! [`crate::protocol::DEFAULT_TIMEOUT_MS`]), so under the defaults a
//! wedged *deployment* still produces an orderly remote `timeout` error
//! while the connection stays usable; a client-side timeout means the
//! daemon itself is gone and the connection must be abandoned (the
//! stream may hold a half-delivered reply).

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use dirq_sim::json::Json;

use crate::protocol::{parse_fingerprint, read_line, write_line};

/// Default socket read deadline. Longer than the daemon's own default
/// engine deadline, so daemon-side timeouts win when both are left at
/// their defaults.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// A failed daemon call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connection refused, broken pipe, framing).
    Io(io::Error),
    /// No reply within the read deadline. The connection is no longer
    /// safe to reuse — the reply may arrive later and desynchronise the
    /// request/response pairing.
    Timeout,
    /// The daemon answered with `ok: false`.
    Remote {
        /// Machine-matchable error kind (see [`crate::protocol::kind`]).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// The daemon's answer was missing an expected field.
    Protocol(String),
}

impl ClientError {
    /// The remote error kind, when this is a remote error.
    pub fn kind(&self) -> Option<&str> {
        match self {
            ClientError::Remote { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for the daemon's reply"),
            ClientError::Remote { kind, message } => write!(f, "daemon: [{kind}] {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // A socket read deadline surfaces as WouldBlock (unix) or
        // TimedOut depending on platform.
        if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
            ClientError::Timeout
        } else {
            ClientError::Io(e)
        }
    }
}

/// Shorthand for daemon-call results.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Optional `deploy`/`restore` parameters (see the protocol reference
/// in [`crate::protocol`]); `None` everywhere means the daemon's
/// defaults.
#[derive(Clone, Debug, Default)]
pub struct DeployOptions {
    /// Epoch-budget scale.
    pub scale: Option<f64>,
    /// Scheme label.
    pub scheme: Option<String>,
    /// Engine seed (u64, carried losslessly).
    pub seed: Option<u64>,
    /// Admission-queue bound (0 rejects every submission).
    pub queue_cap: Option<u64>,
    /// Auto-checkpoint period in epochs (0 = off).
    pub checkpoint_every_epochs: Option<u64>,
    /// Directory rotating checkpoints are written into.
    pub checkpoint_dir: Option<String>,
}

impl DeployOptions {
    fn apply(&self, req: &mut Json) {
        if let Some(v) = self.scale {
            req.set("scale", Json::Num(v));
        }
        if let Some(v) = &self.scheme {
            req.set("scheme", Json::Str(v.clone()));
        }
        if let Some(v) = self.seed {
            req.set("seed", Json::from_u64(v));
        }
        if let Some(v) = self.queue_cap {
            req.set("queue_cap", Json::from_u64(v));
        }
        if let Some(v) = self.checkpoint_every_epochs {
            req.set("checkpoint_every_epochs", Json::from_u64(v));
        }
        if let Some(v) = &self.checkpoint_dir {
            req.set("checkpoint_dir", Json::Str(v.clone()));
        }
    }
}

/// A deployment summary as the daemon reports it.
#[derive(Clone, Debug)]
pub struct DeploySummary {
    /// Deployment name.
    pub name: String,
    /// Registry preset.
    pub preset: String,
    /// Scheme label.
    pub scheme: String,
    /// Engine seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Preset epoch budget.
    pub epochs: u64,
    /// Current epoch.
    pub epoch: u64,
    /// `(slot, epoch)` of the checkpoint image this deployment was
    /// resumed from, when the daemon recovered it at startup.
    pub recovered: Option<(u64, u64)>,
}

impl DeploySummary {
    fn from_json(doc: &Json) -> Result<DeploySummary> {
        let text = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ClientError::Protocol(format!("missing field {k:?}")))
        };
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("missing field {k:?}")))
        };
        Ok(DeploySummary {
            name: text("name")?,
            preset: text("preset")?,
            scheme: text("scheme")?,
            seed: int("seed")?,
            nodes: int("nodes")? as usize,
            epochs: int("epochs")?,
            epoch: int("epoch")?,
            recovered: doc.get("recovered").and_then(|r| {
                Some((
                    r.get("slot").and_then(Json::as_u64)?,
                    r.get("epoch").and_then(Json::as_u64)?,
                ))
            }),
        })
    }
}

/// The full `status` response: pool size, deployments, and anything the
/// recovery scan could not resume.
#[derive(Clone, Debug)]
pub struct StatusReport {
    /// Serving-pool worker count the daemon was started with.
    pub serving_threads: u64,
    /// Every live deployment, name-ascending.
    pub deployments: Vec<DeploySummary>,
    /// `(name, error)` for each deployment `--recover` found but could
    /// not resume from any checkpoint slot.
    pub unrecoverable: Vec<(String, String)>,
}

/// The scored outcome of one client query.
#[derive(Clone, Copy, Debug)]
pub struct QueryReport {
    /// Assigned query id.
    pub id: u64,
    /// Epoch the query was injected at.
    pub epoch: u64,
    /// Epoch the query finalised at.
    pub answered_epoch: u64,
    /// `answered_epoch - epoch`: the in-engine answer latency.
    pub epochs_to_answer: u64,
    /// Nodes whose current value satisfies the query.
    pub true_sources: usize,
    /// Satisfying nodes the dissemination actually reached.
    pub sources_reached: usize,
    /// Source recall in `[0, 1]`.
    pub recall: f64,
    /// Query-dissemination transmissions attributed to this query.
    pub tx: u64,
    /// Matching receptions.
    pub rx: u64,
}

impl QueryReport {
    fn from_json(doc: &Json) -> Result<QueryReport> {
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("missing field {k:?}")))
        };
        Ok(QueryReport {
            id: int("id")?,
            epoch: int("epoch")?,
            answered_epoch: int("answered_epoch")?,
            epochs_to_answer: int("epochs_to_answer")?,
            true_sources: int("true_sources")? as usize,
            sources_reached: int("sources_reached")? as usize,
            recall: doc
                .get("recall")
                .and_then(Json::as_f64)
                .ok_or_else(|| ClientError::Protocol("missing field \"recall\"".into()))?,
            tx: int("tx")?,
            rx: int("rx")?,
        })
    }
}

/// One `drain` response: completed queries since the request cursor.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Completed queries in sequence order, each with its log sequence
    /// number.
    pub results: Vec<(u64, QueryReport)>,
    /// Cursor to pass to the next drain (one past the last returned
    /// sequence, or the log head when nothing was returned).
    pub cursor: u64,
    /// Queries still queued or in flight on the deployment.
    pub pending: u64,
    /// Deployment epoch at reply time.
    pub epoch: u64,
}

/// A snapshot the daemon wrote to disk.
#[derive(Clone, Debug)]
pub struct SnapshotReport {
    /// Image path.
    pub path: String,
    /// Image size in bytes (header + body).
    pub bytes: u64,
    /// Epoch the capture happened at.
    pub epoch: u64,
    /// Engine state fingerprint at capture.
    pub fingerprint: u64,
}

/// One blocking connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a daemon with the default read deadline.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Change (or with `None` remove) the socket read deadline.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.writer.set_read_timeout(timeout)?;
        Ok(())
    }

    /// One raw request/response round trip; checks the `ok` envelope.
    pub fn call(&mut self, request: &Json) -> Result<Json> {
        write_line(&mut self.writer, request)?;
        let response = read_line(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("daemon closed the connection".into()))?;
        match response.get("ok") {
            Some(Json::Bool(true)) => Ok(response),
            Some(Json::Bool(false)) => Err(ClientError::Remote {
                kind: response
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
                message: response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
            }),
            _ => Err(ClientError::Protocol("response lacks an \"ok\" field".into())),
        }
    }

    fn request(cmd: &str) -> Json {
        let mut obj = Json::object();
        obj.set("cmd", Json::Str(cmd.to_string()));
        obj
    }

    /// Create a deployment from a registry preset.
    pub fn deploy(
        &mut self,
        name: &str,
        preset: &str,
        options: &DeployOptions,
    ) -> Result<DeploySummary> {
        let mut req = Self::request("deploy");
        req.set("name", Json::Str(name.to_string()));
        req.set("preset", Json::Str(preset.to_string()));
        options.apply(&mut req);
        DeploySummary::from_json(&self.call(&req)?)
    }

    fn query_request(
        deployment: &str,
        stype: u8,
        lo: f64,
        hi: f64,
        region: Option<[f64; 4]>,
    ) -> Json {
        let mut req = Self::request("query");
        req.set("deployment", Json::Str(deployment.to_string()));
        req.set("stype", Json::Num(f64::from(stype)));
        req.set("lo", Json::Num(lo));
        req.set("hi", Json::Num(hi));
        if let Some(r) = region {
            req.set("region", Json::Arr(r.iter().map(|&x| Json::Num(x)).collect()));
        }
        req
    }

    /// Submit one range query and block until it completes.
    pub fn query(
        &mut self,
        deployment: &str,
        stype: u8,
        lo: f64,
        hi: f64,
        region: Option<[f64; 4]>,
    ) -> Result<QueryReport> {
        let req = Self::query_request(deployment, stype, lo, hi, region);
        QueryReport::from_json(&self.call(&req)?)
    }

    /// Submit one range query without waiting for the outcome: returns
    /// `(id, injection_epoch)` once the query is injected. Fetch the
    /// outcome later with [`Client::poll`] or [`Client::drain`]. The
    /// optional `client` tag breaks ties when the daemon orders an
    /// admission round by content.
    pub fn query_async(
        &mut self,
        deployment: &str,
        stype: u8,
        lo: f64,
        hi: f64,
        region: Option<[f64; 4]>,
        client: Option<&str>,
    ) -> Result<(u64, u64)> {
        let mut req = Self::query_request(deployment, stype, lo, hi, region);
        req.set("async", Json::Bool(true));
        if let Some(c) = client {
            req.set("client", Json::Str(c.to_string()));
        }
        let doc = self.call(&req)?;
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("missing field {k:?}")))
        };
        Ok((int("id")?, int("epoch")?))
    }

    /// Check one submitted query: `Ok(Some(report))` once completed,
    /// `Ok(None)` while still in flight. An id the deployment never
    /// assigned (or whose result aged out of the log) is a remote
    /// `not_found` error.
    pub fn poll(&mut self, deployment: &str, id: u64) -> Result<Option<QueryReport>> {
        let mut req = Self::request("poll");
        req.set("deployment", Json::Str(deployment.to_string()));
        req.set("id", Json::from_u64(id));
        let doc = self.call(&req)?;
        match doc.get("done").and_then(Json::as_bool) {
            Some(true) => Ok(Some(QueryReport::from_json(&doc)?)),
            Some(false) => Ok(None),
            None => Err(ClientError::Protocol("missing field \"done\"".into())),
        }
    }

    /// Fetch every completed query with log sequence `>= cursor` (the
    /// daemon caps one response; loop until `results` comes back empty).
    /// Start from cursor 0, or from `u64::MAX` to learn the current log
    /// head without consuming anything.
    pub fn drain(&mut self, deployment: &str, cursor: u64) -> Result<DrainReport> {
        let mut req = Self::request("drain");
        req.set("deployment", Json::Str(deployment.to_string()));
        req.set("cursor", Json::from_u64(cursor));
        let doc = self.call(&req)?;
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("missing field {k:?}")))
        };
        let mut results = Vec::new();
        for item in doc
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing field \"results\"".into()))?
        {
            let seq = item
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol("drain result lacks \"seq\"".into()))?;
            results.push((seq, QueryReport::from_json(item)?));
        }
        Ok(DrainReport {
            results,
            cursor: int("cursor")?,
            pending: int("pending")?,
            epoch: int("epoch")?,
        })
    }

    /// Advance a deployment by `epochs`; returns the new epoch.
    pub fn step(&mut self, deployment: &str, epochs: u64) -> Result<u64> {
        let mut req = Self::request("step");
        req.set("deployment", Json::Str(deployment.to_string()));
        req.set("epochs", Json::from_u64(epochs));
        let doc = self.call(&req)?;
        doc.get("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing field \"epoch\"".into()))
    }

    /// List every deployment.
    pub fn status(&mut self) -> Result<Vec<DeploySummary>> {
        Ok(self.status_full()?.deployments)
    }

    /// The full `status` response, including the serving-pool size and
    /// the recovery scan's `unrecoverable` list.
    pub fn status_full(&mut self) -> Result<StatusReport> {
        let doc = self.call(&Self::request("status"))?;
        let deployments = doc
            .get("deployments")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing field \"deployments\"".into()))?
            .iter()
            .map(DeploySummary::from_json)
            .collect::<Result<Vec<_>>>()?;
        let unrecoverable = doc
            .get("unrecoverable")
            .and_then(Json::as_array)
            .map(|items| {
                items
                    .iter()
                    .map(|u| {
                        let text = |k: &str| {
                            u.get(k).and_then(Json::as_str).map(str::to_string).unwrap_or_default()
                        };
                        (text("name"), text("error"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(StatusReport {
            serving_threads: doc.get("serving_threads").and_then(Json::as_u64).unwrap_or(0),
            deployments,
            unrecoverable,
        })
    }

    /// The engine-state fingerprint of a deployment, with its epoch.
    pub fn fingerprint(&mut self, deployment: &str) -> Result<(u64, u64)> {
        let mut req = Self::request("fingerprint");
        req.set("deployment", Json::Str(deployment.to_string()));
        let doc = self.call(&req)?;
        let epoch = doc
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing field \"epoch\"".into()))?;
        let fp = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(parse_fingerprint)
            .ok_or_else(|| ClientError::Protocol("missing field \"fingerprint\"".into()))?;
        Ok((epoch, fp))
    }

    /// Capture a deployment to an image file on the daemon's filesystem.
    pub fn snapshot(&mut self, deployment: &str, path: &str) -> Result<SnapshotReport> {
        let mut req = Self::request("snapshot");
        req.set("deployment", Json::Str(deployment.to_string()));
        req.set("path", Json::Str(path.to_string()));
        let doc = self.call(&req)?;
        let int = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("missing field {k:?}")))
        };
        Ok(SnapshotReport {
            path: doc.get("path").and_then(Json::as_str).unwrap_or(path).to_string(),
            bytes: int("bytes")?,
            epoch: int("epoch")?,
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .and_then(parse_fingerprint)
                .ok_or_else(|| ClientError::Protocol("missing field \"fingerprint\"".into()))?,
        })
    }

    /// Create a deployment from an image file on the daemon's
    /// filesystem. `options` may override serving knobs (seed, scale and
    /// scheme come from the image header and are ignored here).
    pub fn restore(
        &mut self,
        name: &str,
        path: &str,
        options: &DeployOptions,
    ) -> Result<DeploySummary> {
        let mut req = Self::request("restore");
        req.set("name", Json::Str(name.to_string()));
        req.set("path", Json::Str(path.to_string()));
        options.apply(&mut req);
        DeploySummary::from_json(&self.call(&req)?)
    }

    /// Stop the daemon (all deployments are torn down).
    pub fn shutdown(&mut self) -> Result<()> {
        self.call(&Self::request("shutdown")).map(|_| ())
    }
}

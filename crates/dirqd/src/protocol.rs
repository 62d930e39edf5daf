//! The dirqd wire protocol: newline-delimited JSON over TCP.
//!
//! Every request is a single line holding one JSON object with a `cmd`
//! field; every response is a single line holding one JSON object with
//! an `ok` field (`true` plus result fields, or `false` plus `error`).
//! Lines are bounded at [`MAX_LINE_BYTES`] on both sides, so a
//! misbehaving peer cannot balloon memory.
//!
//! ## Commands
//!
//! Optional request fields are in brackets.
//!
//! | `cmd`         | request fields                                              | response fields |
//! |---------------|-------------------------------------------------------------|-----------------|
//! | `deploy`      | `name`, `preset`, \[`scale`\], \[`scheme`\], \[`seed`\], \[`queue_cap`\], \[`checkpoint_every_epochs`\], \[`checkpoint_dir`\] | `name`, `preset`, `scheme`, `seed`, `scale`, `nodes`, `epochs`, `epoch`, `queue_cap`, `checkpoint_every_epochs` |
//! | `query`       | `deployment`, `stype`, `lo`, `hi`, \[`region`: `[x0,y0,x1,y1]`\], \[`async`: bool\], \[`client`\], \[`timeout_ms`\] | blocking: `id`, `epoch`, `answered_epoch`, `epochs_to_answer`, `true_sources`, `sources_reached`, `should_receive`, `received_should`, `received_should_not`, `recall`, `tx`, `rx`; async: `id`, `epoch` |
//! | `poll`        | `deployment`, `id`, \[`timeout_ms`\]                        | `done` (+ the blocking-query fields when `done` is true, else `epoch`) |
//! | `drain`       | `deployment`, \[`cursor`\], \[`timeout_ms`\]                | `results` (array of completed queries, each + `seq`), `cursor`, `pending`, `epoch` |
//! | `step`        | `deployment`, `epochs`, \[`timeout_ms`\]                    | `epoch` |
//! | `status`      | —                                                           | `deployments`: array of deploy summaries |
//! | `fingerprint` | `deployment`, \[`timeout_ms`\]                              | `epoch`, `fingerprint` (hex string) |
//! | `snapshot`    | `deployment`, `path`, \[`timeout_ms`\]                      | `path`, `bytes`, `epoch`, `fingerprint` |
//! | `restore`     | `name`, `path`, \[`queue_cap`\], \[`checkpoint_every_epochs`\], \[`checkpoint_dir`\] | like `deploy`, at the captured `epoch` |
//! | `debug_stall` | `deployment`, `ms`, \[`timeout_ms`\]                        | `epoch` (diagnostics: occupies the engine thread for `ms`) |
//! | `shutdown`    | —                                                           | — |
//!
//! `query`'s `stype` must name a sensor type in the deployment's
//! catalog (the environmental presets carry types 0–3); any other value
//! is a `bad_request`. `deploy` and `restore` take a `name` that can
//! name a checkpoint file: 1 to 200 bytes, without `/` or NUL; any other
//! is a `bad_request`. `deploy` and `restore` requests written for
//! older daemons may still carry `policy` and `admit_per_epoch`; both
//! keys are ignored.
//!
//! Query submissions pass through a per-deployment **admission
//! queue**: submissions wait in a bounded queue (`queue_cap`, rejected
//! with a `queue_full` error beyond it) and every queued submission is
//! admitted at the next epoch boundary. Each admitted set is injected
//! ordered by **content** (not arrival time), with the request's
//! `client` tag as the tie-break, so a fixed sequence of barriered
//! batches drives the engine along a reproducible trajectory regardless
//! of socket scheduling — the property the integration tests'
//! fingerprint checks pin. Blocking queries reply once the query completes;
//! `async: true` queries reply with the assigned id at injection, and
//! the outcome is fetched later via `poll` (one id) or `drain` (every
//! completion since a client-held cursor, backed by the deployment's
//! bounded results log).
//!
//! ## Typed errors
//!
//! Error responses are `{"ok": false, "kind": …, "error": …}`; `kind`
//! is machine-matchable, `error` human-readable:
//!
//! | `kind`        | meaning |
//! |---------------|---------|
//! | `bad_request` | missing/mistyped/out-of-range request field |
//! | `not_found`   | unknown deployment, preset, scheme, or query id |
//! | `exists`      | deployment name already taken |
//! | `unsupported` | operation the deployment cannot serve (e.g. spatial query without the location extension) |
//! | `queue_full`  | admission queue at `queue_cap`; resubmit later |
//! | `timeout`     | the engine thread missed the command deadline (`timeout_ms`, default [`DEFAULT_TIMEOUT_MS`]) |
//! | `shutdown`    | deployment or daemon is stopping |
//! | `io`          | filesystem failure (snapshot write, image read) |
//! | `bad_image`   | snapshot image failed to parse or mismatches its header |
//! | `bad_line`    | request line oversized or not valid JSON (connection drops) |
//!
//! Snapshot images are [`dirq_sim::snap::frame_image`] files: magic,
//! format version, a JSON header carrying the deployment recipe
//! (`preset`/`scale`/`scheme`/`seed`/`epoch`/`nodes`) and the engine
//! body. `restore` rebuilds the engine from the header recipe and
//! overlays the body, so a restored deployment is byte-identical to the
//! one that was captured.

use std::io::{self, BufRead, Read as _, Write};

use dirq_scenario::{preset, ScenarioSpec, Scheme};
use dirq_sim::json::Json;

/// Upper bound for one request or response line, both directions.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Default admission-queue bound when `deploy` doesn't set `queue_cap`.
pub const DEFAULT_QUEUE_CAP: usize = 4096;

/// File extension the tools use for snapshot images.
pub const IMAGE_EXTENSION: &str = "dirqsnap";

/// Default engine round-trip deadline when a request carries no
/// `timeout_ms`. Generous: a legitimate blocking query on the largest
/// preset completes in well under a second.
pub const DEFAULT_TIMEOUT_MS: u64 = 60_000;

/// Hard ceiling a request's `timeout_ms` is clamped to (10 minutes).
pub const MAX_TIMEOUT_MS: u64 = 600_000;

/// Machine-matchable error kinds (the `kind` field of an error
/// response). Kept as `&str` constants rather than an enum so client
/// and daemon stay wire-compatible with kinds they don't know yet.
pub mod kind {
    /// Missing, mistyped, or out-of-range request field.
    pub const BAD_REQUEST: &str = "bad_request";
    /// Unknown deployment, preset, scheme, or query id.
    pub const NOT_FOUND: &str = "not_found";
    /// Deployment name already taken.
    pub const EXISTS: &str = "exists";
    /// Operation the deployment cannot serve.
    pub const UNSUPPORTED: &str = "unsupported";
    /// Admission queue at capacity; resubmit later.
    pub const QUEUE_FULL: &str = "queue_full";
    /// The engine thread missed the command deadline.
    pub const TIMEOUT: &str = "timeout";
    /// Deployment or daemon is stopping.
    pub const SHUTDOWN: &str = "shutdown";
    /// Filesystem failure.
    pub const IO: &str = "io";
    /// Snapshot image failed to parse or mismatches its header.
    pub const BAD_IMAGE: &str = "bad_image";
    /// Request line oversized or not valid JSON.
    pub const BAD_LINE: &str = "bad_line";
}

/// Render a fingerprint the way the protocol carries it (`u64` does not
/// survive a JSON `f64` number, so fingerprints travel as hex strings).
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:#018X}")
}

/// Parse a [`fingerprint_hex`] string.
pub fn parse_fingerprint(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"))?, 16).ok()
}

/// A successful response under construction.
pub fn ok_response() -> Json {
    let mut obj = Json::object();
    obj.set("ok", Json::Bool(true));
    obj
}

/// An error response: `{ok: false, kind, error}`. `kind` should be one
/// of the [`kind`] constants.
pub fn err_response(kind: &str, message: &str) -> Json {
    let mut obj = Json::object();
    obj.set("ok", Json::Bool(false));
    obj.set("kind", Json::Str(kind.to_string()));
    obj.set("error", Json::Str(message.to_string()));
    obj
}

/// Resolve a request's engine round-trip deadline: the optional
/// `timeout_ms` field clamped to `[1, MAX_TIMEOUT_MS]`, defaulting to
/// [`DEFAULT_TIMEOUT_MS`]. A non-numeric `timeout_ms` is a typed error.
pub fn request_timeout(req: &Json) -> Result<std::time::Duration, String> {
    let ms = match req.get("timeout_ms") {
        None | Some(Json::Null) => DEFAULT_TIMEOUT_MS,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| "timeout_ms must be a non-negative integer".to_string())?
            .clamp(1, MAX_TIMEOUT_MS),
    };
    Ok(std::time::Duration::from_millis(ms))
}

/// Write `doc` as one protocol line.
pub fn write_line(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    let mut line = doc.render();
    debug_assert!(line.len() < MAX_LINE_BYTES, "oversized protocol line");
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Read one protocol line and parse it. `Ok(None)` means clean EOF;
/// blank lines are skipped; an oversized or syntactically broken line is
/// an error. A final unterminated line (piped input) is still parsed.
pub fn read_line(r: &mut impl BufRead) -> io::Result<Option<Json>> {
    loop {
        let mut line = String::new();
        // Bound the read itself, not just the parse — a peer must not be
        // able to buffer an unbounded newline-free stream.
        let n = r.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "protocol line too long"));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return Json::parse_bounded(trimmed.as_bytes(), MAX_LINE_BYTES)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
    }
}

/// Per-deployment serving knobs, set at `deploy`/`restore` time and
/// embedded in auto-checkpoint image headers so `--recover` can resume
/// a deployment under the knobs it was running with.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingOptions {
    /// Admission-queue bound; `0` rejects every submission (useful as a
    /// deterministic `queue_full` probe).
    pub queue_cap: usize,
    /// Auto-checkpoint period in epochs; `0` disables.
    pub checkpoint_every_epochs: u64,
    /// Directory rotating checkpoint images are written into (required
    /// when `checkpoint_every_epochs > 0`).
    pub checkpoint_dir: Option<String>,
}

impl Default for ServingOptions {
    fn default() -> ServingOptions {
        ServingOptions {
            queue_cap: DEFAULT_QUEUE_CAP,
            checkpoint_every_epochs: 0,
            checkpoint_dir: None,
        }
    }
}

impl ServingOptions {
    /// Render as the `serving` object an image header embeds.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("queue_cap", Json::from_u64(self.queue_cap as u64));
        obj.set("checkpoint_every_epochs", Json::from_u64(self.checkpoint_every_epochs));
        if let Some(dir) = &self.checkpoint_dir {
            obj.set("checkpoint_dir", Json::Str(dir.clone()));
        }
        obj
    }

    /// Parse a `serving` object written by [`ServingOptions::to_json`].
    /// Keys of retired knobs that older images still carry
    /// (`upkeep_workers`, `policy`, `admit_per_epoch`) are ignored.
    pub fn from_json(doc: &Json) -> Result<ServingOptions, String> {
        let u64_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("serving recipe: missing integer field {k:?}"))
        };
        Ok(ServingOptions {
            queue_cap: u64_field("queue_cap")? as usize,
            checkpoint_every_epochs: u64_field("checkpoint_every_epochs")?,
            checkpoint_dir: doc.get("checkpoint_dir").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// The deployment recipe a snapshot image header carries — everything
/// needed to rebuild the static engine structure the body overlays.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageHeader {
    /// Registry preset name.
    pub preset: String,
    /// Epoch-budget scale applied to the preset (1.0 = as registered).
    pub scale: f64,
    /// Scheme label ([`Scheme::label`]).
    pub scheme: String,
    /// Engine seed.
    pub seed: u64,
    /// Epoch the snapshot was captured at.
    pub epoch: u64,
    /// Node count (redundant with the preset; a cheap sanity field).
    pub nodes: usize,
    /// Serving knobs the deployment ran with — written since the
    /// serving-pool refactor, absent in older images. `--recover` uses
    /// it to resume a deployment under its original queue bound and
    /// checkpoint configuration.
    pub serving: Option<ServingOptions>,
}

impl ImageHeader {
    /// Render as the JSON object [`dirq_sim::snap::frame_image`] embeds.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("preset", Json::Str(self.preset.clone()));
        obj.set("scale", Json::Num(self.scale));
        obj.set("scheme", Json::Str(self.scheme.clone()));
        obj.set("seed", Json::from_u64(self.seed));
        obj.set("epoch", Json::from_u64(self.epoch));
        obj.set("nodes", Json::Num(self.nodes as f64));
        if let Some(serving) = &self.serving {
            obj.set("serving", serving.to_json());
        }
        obj
    }

    /// Parse an image header object.
    pub fn from_json(doc: &Json) -> Result<ImageHeader, String> {
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("image header: missing string field {k:?}"))
        };
        let num_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("image header: missing numeric field {k:?}"))
        };
        // Seeds and epochs are u64s and must not round through f64.
        let u64_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("image header: missing integer field {k:?}"))
        };
        Ok(ImageHeader {
            preset: str_field("preset")?,
            scale: num_field("scale")?,
            scheme: str_field("scheme")?,
            seed: u64_field("seed")?,
            epoch: u64_field("epoch")?,
            nodes: u64_field("nodes")? as usize,
            serving: match doc.get("serving") {
                None | Some(Json::Null) => None,
                Some(s) => Some(ServingOptions::from_json(s)?),
            },
        })
    }

    /// Resolve the recipe back to a spec + scheme, exactly as `deploy`
    /// would interpret it.
    pub fn resolve(&self) -> Result<(ScenarioSpec, Scheme), String> {
        resolve_deployment(&self.preset, self.scale, Some(&self.scheme))
    }
}

/// Resolve a `(preset, scale, scheme)` request to a runnable spec: the
/// scheme defaults to the preset's first registered scheme, and scaling
/// is only applied when it changes the budget (so `scale: 1.0`
/// round-trips exactly).
pub fn resolve_deployment(
    preset_name: &str,
    scale: f64,
    scheme: Option<&str>,
) -> Result<(ScenarioSpec, Scheme), String> {
    let spec = preset(preset_name).ok_or_else(|| format!("unknown preset {preset_name:?}"))?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("scale must be a positive number, got {scale}"));
    }
    let scheme = match scheme {
        None => spec.schemes[0],
        Some(label) => Scheme::parse(label).ok_or_else(|| format!("unknown scheme {label:?}"))?,
    };
    let spec = if scale == 1.0 { spec } else { spec.scaled(scale) };
    Ok((spec, scheme))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_round_trip_as_hex() {
        for fp in [0u64, 1, u64::MAX, 0x5778_F391_E49D_F93C] {
            assert_eq!(parse_fingerprint(&fingerprint_hex(fp)), Some(fp));
        }
        assert_eq!(parse_fingerprint("12"), None);
    }

    #[test]
    fn image_headers_round_trip() {
        let header = ImageHeader {
            preset: "dense_grid_100".into(),
            scale: 0.1,
            scheme: "dirq-atc".into(),
            seed: 1_001,
            epoch: 37,
            nodes: 100,
            serving: None,
        };
        assert_eq!(ImageHeader::from_json(&header.to_json()).unwrap(), header);
        let (spec, scheme) = header.resolve().unwrap();
        assert_eq!(spec.n_nodes, 100);
        assert_eq!(scheme, Scheme::DirqAtc);
    }

    #[test]
    fn image_headers_round_trip_the_serving_recipe() {
        let serving = ServingOptions {
            queue_cap: 17,
            checkpoint_every_epochs: 10,
            checkpoint_dir: Some("/tmp/ckpt".into()),
        };
        let header = ImageHeader {
            preset: "dense_grid_100".into(),
            scale: 0.1,
            scheme: "dirq-atc".into(),
            seed: 7,
            epoch: 20,
            nodes: 100,
            serving: Some(serving.clone()),
        };
        let wire = header.to_json().render();
        let reparsed = ImageHeader::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(reparsed, header);
        assert_eq!(reparsed.serving, Some(serving));
        // Headers written before the serving recipe existed still parse.
        let mut bare = header.to_json();
        bare.set("serving", Json::Null);
        assert_eq!(ImageHeader::from_json(&bare).unwrap().serving, None);
        // A mistyped recipe is an error, not a silent default.
        let mut broken = header.to_json();
        broken.set("serving", Json::Num(17.0));
        assert!(ImageHeader::from_json(&broken).is_err());
    }

    #[test]
    fn image_headers_with_retired_serving_keys_still_parse() {
        // Images checkpointed by older daemons embed retired knobs in their
        // serving recipe: a per-deployment `upkeep_workers` (deployments now
        // build their engines at one worker), an admission `policy` and an
        // `admit_per_epoch` cap (every turn now admits the whole queue).
        // The first header predates the `upkeep_workers` retirement, the
        // second only the admission one; both parse with the keys ignored.
        let headers = [
            r#"{"preset": "dense_grid_100", "scale": 0.1, "scheme": "dirq-atc",
                "seed": 7, "epoch": 20, "nodes": 100,
                "serving": {"policy": "rr", "queue_cap": 17, "admit_per_epoch": 3,
                            "checkpoint_every_epochs": 10, "checkpoint_dir": "ckpt",
                            "upkeep_workers": 2}}"#,
            r#"{"preset": "dense_grid_100", "scale": 0.1, "scheme": "dirq-atc",
                "seed": 7, "epoch": 20, "nodes": 100,
                "serving": {"policy": "rr", "queue_cap": 17, "admit_per_epoch": 3,
                            "checkpoint_every_epochs": 10, "checkpoint_dir": "ckpt"}}"#,
        ];
        let serving = ServingOptions {
            queue_cap: 17,
            checkpoint_every_epochs: 10,
            checkpoint_dir: Some("ckpt".into()),
        };
        // The same options as the recipe without the keys.
        assert_eq!(ServingOptions::from_json(&serving.to_json()).unwrap(), serving);
        for old in headers {
            let parsed = ImageHeader::from_json(&Json::parse(old).unwrap()).unwrap();
            assert_eq!(parsed.serving.as_ref(), Some(&serving), "{old}");
        }
    }

    #[test]
    fn image_headers_keep_huge_seeds_exact() {
        // Above 2^53: a float round trip would silently round this.
        let header = ImageHeader {
            preset: "dense_grid_100".into(),
            scale: 1.0,
            scheme: "dirq-atc".into(),
            seed: u64::MAX - 12,
            epoch: 3,
            nodes: 100,
            serving: None,
        };
        let wire = header.to_json().render();
        let reparsed = Json::parse(&wire).unwrap();
        assert_eq!(ImageHeader::from_json(&reparsed).unwrap(), header);
    }

    #[test]
    fn request_timeouts_parse_and_clamp() {
        use std::time::Duration;
        let req = |s: &str| Json::parse(s).unwrap();
        assert_eq!(request_timeout(&req("{}")).unwrap(), Duration::from_millis(DEFAULT_TIMEOUT_MS));
        assert_eq!(
            request_timeout(&req("{\"timeout_ms\": 250}")).unwrap(),
            Duration::from_millis(250)
        );
        assert_eq!(request_timeout(&req("{\"timeout_ms\": 0}")).unwrap(), Duration::from_millis(1));
        assert_eq!(
            request_timeout(&req("{\"timeout_ms\": 1e12}")).unwrap(),
            Duration::from_millis(MAX_TIMEOUT_MS)
        );
        assert!(request_timeout(&req("{\"timeout_ms\": \"soon\"}")).is_err());
        assert!(request_timeout(&req("{\"timeout_ms\": -5}")).is_err());
    }

    #[test]
    fn deployment_resolution_validates() {
        assert!(resolve_deployment("no_such_preset", 1.0, None).is_err());
        assert!(resolve_deployment("dense_grid_100", 0.0, None).is_err());
        assert!(resolve_deployment("dense_grid_100", 1.0, Some("bogus")).is_err());
        let (spec, _) = resolve_deployment("dense_grid_100", 1.0, None).unwrap();
        assert_eq!(spec.epochs, dirq_scenario::preset("dense_grid_100").unwrap().epochs);
    }
}

//! End-to-end daemon tests over real TCP sockets: deploy, step, query
//! (blocking and async), poll/drain, snapshot, restore, fingerprint
//! equality, the typed protocol error surface and clean shutdowns — the
//! same invariants `loadgen` gates in CI, at debug-tier scale.

use std::time::Duration;

use dirq_sim::json::Json;
use dirq_sim::snap::frame_image;
use dirqd::loadmodel::{replay_serving, ServingOp};
use dirqd::protocol::ImageHeader;
use dirqd::{Client, ClientError, Daemon, DaemonOptions, DeployOptions};

/// Spawn a daemon, run `body` against a fresh client, then shut the
/// daemon down and join its serving thread.
fn with_daemon(body: impl FnOnce(std::net::SocketAddr, &mut Client)) {
    with_daemon_opts(DaemonOptions::default(), body);
}

/// [`with_daemon`] with explicit [`DaemonOptions`] (pool size,
/// recovery directory).
fn with_daemon_opts(options: DaemonOptions, body: impl FnOnce(std::net::SocketAddr, &mut Client)) {
    let (addr, daemon) = Daemon::spawn_with("127.0.0.1:0", options).expect("spawn daemon");
    let mut c = Client::connect(addr).expect("connect");
    body(addr, &mut c);
    c.shutdown().expect("shutdown");
    daemon.join().expect("join daemon thread").expect("daemon serve");
}

/// The remote error kind of a failed call, or a panic if it succeeded
/// (or failed client-side).
fn remote_kind<T>(r: Result<T, ClientError>, what: &str) -> String {
    match r {
        Ok(_) => panic!("{what}: accepted"),
        Err(e) => e.kind().unwrap_or_else(|| panic!("{what}: not a remote error")).to_string(),
    }
}

fn scaled(scale: f64) -> DeployOptions {
    DeployOptions { scale: Some(scale), ..DeployOptions::default() }
}

#[test]
fn daemon_end_to_end() {
    with_daemon(|_addr, c| {
        // --- deploy + step + status --------------------------------------
        let info = c.deploy("a", "dense_grid_100", &scaled(0.1)).expect("deploy");
        assert_eq!(info.nodes, 100);
        assert_eq!(info.epoch, 0);
        assert_eq!(info.epochs, 400, "dense_grid_100 at 0.1 scale");
        assert_eq!(c.step("a", 25).expect("step"), 25);

        // Deterministic: a second identical deployment fingerprints equal.
        c.deploy("b", "dense_grid_100", &scaled(0.1)).expect("deploy twin");
        c.step("b", 25).expect("step twin");
        let (_, fp_a) = c.fingerprint("a").expect("fingerprint");
        let (_, fp_b) = c.fingerprint("b").expect("fingerprint");
        assert_eq!(fp_a, fp_b, "identical call sequences must produce identical engines");

        let status = c.status().expect("status");
        assert_eq!(status.len(), 2);
        assert!(status.iter().all(|d| d.epoch == 25));

        // --- queries: batching, determinism, outcomes --------------------
        let q1 = c.query("a", 0, 12.0, 26.0, None).expect("query");
        assert!(q1.answered_epoch > q1.epoch, "a batch must step the engine");
        assert_eq!(q1.epochs_to_answer, q1.answered_epoch - q1.epoch);
        let q2 = c.query("b", 0, 12.0, 26.0, None).expect("query twin");
        assert_eq!(q1.id, q2.id);
        assert_eq!(q1.answered_epoch, q2.answered_epoch);
        assert_eq!(q1.sources_reached, q2.sources_reached);
        assert_eq!(q1.tx, q2.tx);
        let (_, fp_a) = c.fingerprint("a").expect("fingerprint");
        let (_, fp_b) = c.fingerprint("b").expect("fingerprint");
        assert_eq!(fp_a, fp_b, "twins diverged after identical queries");

        // --- snapshot / restore ------------------------------------------
        let image = std::env::temp_dir().join("dirqd-test-a.dirqsnap");
        let image = image.to_str().expect("utf-8 temp path");
        let snap = c.snapshot("a", image).expect("snapshot");
        assert_eq!(snap.fingerprint, fp_a);
        assert!(snap.bytes > 0);

        let restored = c.restore("a2", image, &DeployOptions::default()).expect("restore");
        assert_eq!(restored.epoch, snap.epoch);
        assert_eq!(restored.preset, "dense_grid_100");
        let (_, fp_restored) = c.fingerprint("a2").expect("fingerprint");
        assert_eq!(fp_restored, fp_a, "restored engine must fingerprint-equal the original");

        // The restored engine *behaves* identically too, not just at rest.
        let qa = c.query("a", 1, 40.0, 55.0, None).expect("query original");
        let qr = c.query("a2", 1, 40.0, 55.0, None).expect("query restored");
        assert_eq!(
            (qa.id, qa.answered_epoch, qa.sources_reached),
            (qr.id, qr.answered_epoch, qr.sources_reached)
        );
        let (_, fp_after_a) = c.fingerprint("a").expect("fingerprint");
        let (_, fp_after_r) = c.fingerprint("a2").expect("fingerprint");
        assert_eq!(fp_after_a, fp_after_r);

        // --- error paths, each with its machine-matchable kind -----------
        let none = DeployOptions::default();
        assert_eq!(remote_kind(c.deploy("a", "dense_grid_100", &none), "duplicate name"), "exists");
        assert_eq!(
            remote_kind(c.deploy("x", "no_such_preset", &none), "unknown preset"),
            "not_found"
        );
        assert_eq!(
            remote_kind(c.deploy("x", "dense_grid_100", &scaled(-1.0)), "negative scale"),
            "bad_request"
        );
        let bogus_scheme =
            DeployOptions { scheme: Some("bogus".into()), ..DeployOptions::default() };
        assert_eq!(
            remote_kind(c.deploy("x", "dense_grid_100", &bogus_scheme), "unknown scheme"),
            "not_found"
        );
        assert_eq!(
            remote_kind(c.query("missing", 0, 0.0, 1.0, None), "unknown deployment"),
            "not_found"
        );
        assert_eq!(remote_kind(c.query("a", 0, 5.0, 1.0, None), "inverted window"), "bad_request");
        assert_eq!(
            remote_kind(
                c.query("a", 0, 10.0, 20.0, Some([0.0, 0.0, 50.0, 50.0])),
                "spatial query without the location extension"
            ),
            "unsupported"
        );
        assert_eq!(remote_kind(c.restore("x", "/no/such/image", &none), "missing image"), "io");
        // A non-image file is rejected by magic.
        let junk = std::env::temp_dir().join("dirqd-test-junk.dirqsnap");
        std::fs::write(&junk, b"not a snapshot").expect("write junk");
        assert_eq!(
            remote_kind(c.restore("x", junk.to_str().unwrap(), &none), "junk image"),
            "bad_image"
        );
        // Unknown command and missing cmd field.
        let mut raw = Json::object();
        raw.set("cmd", Json::Str("frobnicate".into()));
        assert_eq!(remote_kind(c.call(&raw), "unknown command"), "bad_request");
        assert_eq!(remote_kind(c.call(&Json::object()), "missing cmd"), "bad_request");

        // A deployment whose preset enables the location extension takes
        // spatially scoped queries.
        c.deploy("spatial", "hotspot_workload_200", &scaled(0.1)).expect("deploy spatial");
        c.step("spatial", 12).expect("step spatial");
        let q = c
            .query("spatial", 0, 5.0, 60.0, Some([0.0, 0.0, 150.0, 150.0]))
            .expect("spatial query");
        assert!(q.answered_epoch > q.epoch);

        let _ = std::fs::remove_file(image);
        let _ = std::fs::remove_file(junk);
    });

    // with_daemon joined the serving thread; the port must be dead.
    // (The OS may accept a queued connection briefly; a call must fail
    // either way.)
    let (addr, daemon) = Daemon::spawn("127.0.0.1:0").expect("spawn daemon");
    let mut c = Client::connect(addr).expect("connect");
    c.shutdown().expect("shutdown");
    daemon.join().expect("join daemon thread").expect("daemon serve");
    assert!(
        Client::connect(addr).is_err() || {
            let mut late = Client::connect(addr).unwrap();
            late.status().is_err()
        },
        "daemon still serving after shutdown"
    );
}

/// Seeds are u64s; 2^53-plus values must survive deploy → status →
/// snapshot header → restore without rounding through `f64`.
#[test]
fn huge_seeds_survive_the_wire_and_the_image_header() {
    let seed = u64::MAX - 12;
    with_daemon(|_, c| {
        let opts = DeployOptions { scale: Some(0.1), seed: Some(seed), ..DeployOptions::default() };
        let info = c.deploy("big", "dense_grid_100", &opts).expect("deploy");
        assert_eq!(info.seed, seed, "deploy reply rounded the seed");

        let status = c.status().expect("status");
        assert_eq!(status[0].seed, seed, "status rounded the seed");

        c.step("big", 8).expect("step");
        let image = std::env::temp_dir().join("dirqd-test-hugeseed.dirqsnap");
        let image = image.to_str().expect("utf-8 temp path");
        c.snapshot("big", image).expect("snapshot");
        let restored = c.restore("big2", image, &DeployOptions::default()).expect("restore");
        assert_eq!(restored.seed, seed, "image header rounded the seed");
        let (_, fp_a) = c.fingerprint("big").expect("fingerprint");
        let (_, fp_b) = c.fingerprint("big2").expect("fingerprint");
        assert_eq!(fp_a, fp_b);
        let _ = std::fs::remove_file(image);
    });
}

/// Malformed fields that previously truncated or wrapped silently are
/// now typed `bad_request` errors.
#[test]
fn wire_validation_rejects_what_it_used_to_truncate() {
    with_daemon(|_, c| {
        c.deploy("a", "dense_grid_100", &scaled(0.1)).expect("deploy");

        let query = |mutate: &dyn Fn(&mut Json)| {
            let mut req = Json::object();
            req.set("cmd", Json::Str("query".into()));
            req.set("deployment", Json::Str("a".into()));
            req.set("stype", Json::Num(0.0));
            req.set("lo", Json::Num(10.0));
            req.set("hi", Json::Num(20.0));
            mutate(&mut req);
            req
        };
        // stype used to go through `as u8` (300 wrapped to 44; 1.5
        // truncated to 1).
        for (bad_stype, what) in [(Json::Num(300.0), "stype 300"), (Json::Num(1.5), "stype 1.5")] {
            let req = query(&|r: &mut Json| {
                r.set("stype", bad_stype.clone());
            });
            assert_eq!(remote_kind(c.call(&req), what), "bad_request");
        }
        // Regions must be exactly four finite numbers.
        let req = query(&|r: &mut Json| {
            r.set("region", Json::Arr(vec![Json::Num(0.0), Json::Num(0.0), Json::Num(9.0)]));
        });
        assert_eq!(remote_kind(c.call(&req), "3-corner region"), "bad_request");
        let req = query(&|r: &mut Json| {
            r.set(
                "region",
                Json::Arr(vec![
                    Json::Num(0.0),
                    Json::Str("oops".into()),
                    Json::Num(9.0),
                    Json::Num(9.0),
                ]),
            );
        });
        assert_eq!(remote_kind(c.call(&req), "non-numeric region"), "bad_request");
        // Mistyped async flag and timeout.
        let req = query(&|r: &mut Json| {
            r.set("async", Json::Str("yes".into()));
        });
        assert_eq!(remote_kind(c.call(&req), "string async"), "bad_request");
        let req = query(&|r: &mut Json| {
            r.set("timeout_ms", Json::Num(-5.0));
        });
        assert_eq!(remote_kind(c.call(&req), "negative timeout"), "bad_request");

        let deploy = |mutate: &dyn Fn(&mut Json)| {
            let mut req = Json::object();
            req.set("cmd", Json::Str("deploy".into()));
            req.set("name", Json::Str("x".into()));
            req.set("preset", Json::Str("dense_grid_100".into()));
            req.set("scale", Json::Num(0.1));
            mutate(&mut req);
            req
        };
        // Seeds used to round through f64; now they must be unsigned
        // integers, rejected otherwise rather than truncated.
        for (bad_seed, what) in
            [(Json::Num(-5.0), "negative seed"), (Json::Num(1.5), "fractional seed")]
        {
            let req = deploy(&|r: &mut Json| {
                r.set("seed", bad_seed.clone());
            });
            assert_eq!(remote_kind(c.call(&req), what), "bad_request");
        }
        // Scale zero was accepted and asserted deep in the engine.
        let req = deploy(&|r: &mut Json| {
            r.set("scale", Json::Num(0.0));
        });
        assert_eq!(remote_kind(c.call(&req), "zero scale"), "bad_request");
        // Serving knobs validate at deploy time.
        let req = deploy(&|r: &mut Json| {
            r.set("checkpoint_every_epochs", Json::from_u64(10));
        });
        assert_eq!(
            remote_kind(c.call(&req), "checkpoint period without a directory"),
            "bad_request"
        );
        // None of the rejected deploys may have registered a deployment.
        assert_eq!(c.status().expect("status").len(), 1);
    });
}

/// Send one raw request line and return the rejection's `(kind, message)`;
/// panics if the daemon accepted it or the call failed client-side.
fn rejection(c: &mut Client, request: &str) -> (String, String) {
    let req = Json::parse(request).unwrap_or_else(|e| panic!("{request}: {e}"));
    match c.call(&req) {
        Err(ClientError::Remote { kind, message }) => (kind, message),
        other => panic!("{request}: expected a remote error, got {:?}", other.map(|r| r.render())),
    }
}

/// Every command's rejections, reply for reply: each row is one request
/// and the exact kind and message it must get back, so the order in
/// which a handler validates (its own fields, then `timeout_ms`, then the
/// deployment lookup, then checks against the deployment) is pinned too.
/// An `io` reply is pinned up to the OS error text.
#[test]
fn every_rejection_replies_with_its_pinned_kind_and_message() {
    let dir = fresh_dir("reject");
    let path = |file: &str| dir.join(file).to_string_lossy().into_owned();
    let quoted = |p: &str| Json::Str(p.to_string()).render();
    with_daemon(|_, c| {
        let info = c.deploy("a", "dense_grid_100", &scaled(0.1)).expect("deploy");
        let zero =
            DeployOptions { scale: Some(0.1), queue_cap: Some(0), ..DeployOptions::default() };
        c.deploy("full", "dense_grid_100", &zero).expect("deploy zero-cap");

        let valid = path("valid.dirqsnap");
        c.snapshot("a", &valid).expect("snapshot");
        let garbage = path("garbage.dirqsnap");
        std::fs::write(&garbage, b"not a snapshot").expect("write garbage");
        let image = |file: &str, header: Json, body: &[u8]| {
            let p = path(file);
            std::fs::write(&p, frame_image(&header, body)).expect("write image");
            p
        };
        let header = ImageHeader {
            preset: "dense_grid_100".into(),
            scale: 0.1,
            scheme: info.scheme.clone(),
            seed: 1,
            epoch: 0,
            nodes: 7,
            serving: None,
        };
        let lying = image("lying.dirqsnap", header.to_json(), b"");
        let empty_body =
            image("empty.dirqsnap", ImageHeader { nodes: 100, ..header.clone() }.to_json(), b"");
        let mut no_preset = header.to_json();
        no_preset.set("preset", Json::Null);
        let no_preset = image("no-preset.dirqsnap", no_preset, b"");
        let unknown_preset = image(
            "unknown-preset.dirqsnap",
            ImageHeader { preset: "nope".into(), ..header.clone() }.to_json(),
            b"",
        );

        const BAD: &str = "bad_request";
        const NOT_FOUND: &str = "not_found";
        const BAD_IMAGE: &str = "bad_image";
        let missing_deployment = r#"missing string field "deployment""#;
        let no_deployment = r#"no deployment named "missing""#;
        let bad_timeout = "timeout_ms must be a non-negative integer";
        let restore = |name: &str, p: &str| {
            format!(r#"{{"cmd": "restore", "name": "{name}", "path": {}}}"#, quoted(p))
        };
        let bad_name = "name must be 1 to 200 bytes, without '/' or NUL";
        let (longest, too_long) = ("n".repeat(200), "n".repeat(201));
        let rows: Vec<(String, &str, String)> = [
            // The command itself.
            (r#"{}"#.to_string(), BAD, r#"missing "cmd" field"#.to_string()),
            (r#"{"cmd": "frobnicate"}"#.into(), BAD, r#"unknown command "frobnicate""#.into()),
            // deploy
            (
                r#"{"cmd": "deploy", "preset": "dense_grid_100"}"#.into(),
                BAD,
                r#"missing string field "name""#.into(),
            ),
            (
                r#"{"cmd": "deploy", "name": 7, "preset": "dense_grid_100"}"#.into(),
                BAD,
                r#"missing string field "name""#.into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x"}"#.into(),
                BAD,
                r#"missing string field "preset""#.into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "nope", "seed": -5}"#.into(),
                NOT_FOUND,
                r#"unknown preset "nope""#.into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "dense_grid_100", "scale": "big"}"#
                    .into(),
                BAD,
                "scale must be a number".into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "dense_grid_100", "scale": -1}"#.into(),
                BAD,
                "scale must be a positive number, got -1".into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "dense_grid_100", "scheme": 5}"#.into(),
                BAD,
                "scheme must be a string".into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "dense_grid_100", "scheme": "bogus"}"#
                    .into(),
                NOT_FOUND,
                r#"unknown scheme "bogus""#.into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "dense_grid_100", "seed": 1.5}"#.into(),
                BAD,
                "seed must be a non-negative integer".into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "dense_grid_100", "queue_cap": "many"}"#
                    .into(),
                BAD,
                "queue_cap must be a non-negative integer".into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "dense_grid_100",
                    "checkpoint_every_epochs": 10}"#
                    .into(),
                BAD,
                "checkpoint_every_epochs requires checkpoint_dir".into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "x", "preset": "dense_grid_100", "checkpoint_dir": 3}"#
                    .into(),
                BAD,
                "checkpoint_dir must be a string".into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "a", "preset": "dense_grid_100", "scale": 0.1}"#.into(),
                "exists",
                r#"deployment "a" already exists"#.into(),
            ),
            // Names a checkpoint file cannot carry; the longest allowed
            // passes on to the next field.
            (r#"{"cmd": "deploy", "name": "", "preset": "dense_grid_100"}"#.into(), BAD, bad_name.into()),
            (
                r#"{"cmd": "deploy", "name": "a/b", "preset": "dense_grid_100"}"#.into(),
                BAD,
                bad_name.into(),
            ),
            (
                r#"{"cmd": "deploy", "name": "a\u0000b", "preset": "dense_grid_100"}"#.into(),
                BAD,
                bad_name.into(),
            ),
            (
                format!(r#"{{"cmd": "deploy", "name": "{too_long}", "preset": "dense_grid_100"}}"#),
                BAD,
                bad_name.into(),
            ),
            (
                format!(r#"{{"cmd": "deploy", "name": "{longest}"}}"#),
                BAD,
                r#"missing string field "preset""#.into(),
            ),
            // query
            (
                r#"{"cmd": "query", "stype": 0, "lo": 10, "hi": 20}"#.into(),
                BAD,
                missing_deployment.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "lo": 10, "hi": 20}"#.into(),
                BAD,
                r#"missing numeric field "stype""#.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 300, "lo": 10, "hi": 20}"#.into(),
                BAD,
                "stype must be an integer in 0..=255, got 300".into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 0, "hi": 20}"#.into(),
                BAD,
                r#"missing numeric field "lo""#.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 0, "lo": "x"}"#.into(),
                BAD,
                r#"missing numeric field "lo""#.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 0, "lo": 10}"#.into(),
                BAD,
                r#"missing numeric field "hi""#.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 0, "lo": 10, "hi": 20,
                    "region": [0, 0, 9]}"#
                    .into(),
                BAD,
                "region must be [x0, y0, x1, y1] (finite numbers)".into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 0, "lo": 10, "hi": 20,
                    "async": "yes"}"#
                    .into(),
                BAD,
                "async must be a boolean".into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 0, "lo": 10, "hi": 20,
                    "client": 5}"#
                    .into(),
                BAD,
                "client must be a string".into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 0, "lo": 10, "hi": 20,
                    "timeout_ms": -5}"#
                    .into(),
                BAD,
                bad_timeout.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "missing", "stype": 0, "lo": 10, "hi": 20}"#
                    .into(),
                NOT_FOUND,
                no_deployment.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "missing", "stype": 1.5, "lo": 10, "hi": 20}"#
                    .into(),
                BAD,
                "stype must be an integer in 0..=255, got 1.5".into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "missing", "stype": 0, "lo": 10, "hi": 20,
                    "timeout_ms": "soon"}"#
                    .into(),
                BAD,
                bad_timeout.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 4, "lo": 10, "hi": 20}"#.into(),
                BAD,
                r#"stype 4 is not in deployment "a"'s catalog of 4 sensor types"#.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 4, "lo": 10, "hi": 20,
                    "region": [0, 0, 50, 50]}"#
                    .into(),
                "unsupported",
                r#"deployment "a" has no location extension; spatial queries unsupported"#.into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "a", "stype": 0, "lo": 20, "hi": 10}"#.into(),
                BAD,
                "query window must satisfy lo <= hi (finite)".into(),
            ),
            (
                r#"{"cmd": "query", "deployment": "full", "stype": 0, "lo": 10, "hi": 20}"#.into(),
                "queue_full",
                "admission queue at capacity (0); resubmit later".into(),
            ),
            // poll
            (r#"{"cmd": "poll", "id": 1}"#.into(), BAD, missing_deployment.into()),
            (
                r#"{"cmd": "poll", "deployment": "a"}"#.into(),
                BAD,
                r#"missing integer field "id""#.into(),
            ),
            (
                r#"{"cmd": "poll", "deployment": "missing", "id": "x"}"#.into(),
                BAD,
                "id must be a non-negative integer".into(),
            ),
            (
                r#"{"cmd": "poll", "deployment": "missing", "id": 1, "timeout_ms": "soon"}"#.into(),
                BAD,
                bad_timeout.into(),
            ),
            (
                r#"{"cmd": "poll", "deployment": "missing", "id": 1}"#.into(),
                NOT_FOUND,
                no_deployment.into(),
            ),
            (
                r#"{"cmd": "poll", "deployment": "a", "id": 999999}"#.into(),
                NOT_FOUND,
                "unknown or expired query id 999999".into(),
            ),
            // drain
            (r#"{"cmd": "drain"}"#.into(), BAD, missing_deployment.into()),
            (
                r#"{"cmd": "drain", "deployment": "missing", "cursor": -1}"#.into(),
                BAD,
                "cursor must be a non-negative integer".into(),
            ),
            (
                r#"{"cmd": "drain", "deployment": "missing", "timeout_ms": "soon"}"#.into(),
                BAD,
                bad_timeout.into(),
            ),
            (r#"{"cmd": "drain", "deployment": "missing"}"#.into(), NOT_FOUND, no_deployment.into()),
            // step
            (r#"{"cmd": "step", "epochs": 1}"#.into(), BAD, missing_deployment.into()),
            (
                r#"{"cmd": "step", "deployment": "missing"}"#.into(),
                BAD,
                r#"missing integer field "epochs""#.into(),
            ),
            (
                r#"{"cmd": "step", "deployment": "missing", "epochs": 1.5}"#.into(),
                BAD,
                "epochs must be a non-negative integer".into(),
            ),
            (
                r#"{"cmd": "step", "deployment": "missing", "epochs": 1, "timeout_ms": -1}"#.into(),
                BAD,
                bad_timeout.into(),
            ),
            (
                r#"{"cmd": "step", "deployment": "missing", "epochs": 1}"#.into(),
                NOT_FOUND,
                no_deployment.into(),
            ),
            // fingerprint
            (r#"{"cmd": "fingerprint"}"#.into(), BAD, missing_deployment.into()),
            (
                r#"{"cmd": "fingerprint", "deployment": "missing", "timeout_ms": "soon"}"#.into(),
                BAD,
                bad_timeout.into(),
            ),
            (
                r#"{"cmd": "fingerprint", "deployment": "missing"}"#.into(),
                NOT_FOUND,
                no_deployment.into(),
            ),
            // snapshot
            (r#"{"cmd": "snapshot", "path": "x"}"#.into(), BAD, missing_deployment.into()),
            (
                r#"{"cmd": "snapshot", "deployment": "missing"}"#.into(),
                BAD,
                r#"missing string field "path""#.into(),
            ),
            (
                r#"{"cmd": "snapshot", "deployment": "missing", "path": "x", "timeout_ms": "soon"}"#
                    .into(),
                BAD,
                bad_timeout.into(),
            ),
            (
                r#"{"cmd": "snapshot", "deployment": "missing", "path": "x"}"#.into(),
                NOT_FOUND,
                no_deployment.into(),
            ),
            // restore
            (
                format!(r#"{{"cmd": "restore", "path": {}}}"#, quoted(&valid)),
                BAD,
                r#"missing string field "name""#.into(),
            ),
            (r#"{"cmd": "restore", "name": "x"}"#.into(), BAD, r#"missing string field "path""#.into()),
            (
                format!(r#"{{"cmd": "restore", "name": "x", "path": {}, "queue_cap": -1}}"#, quoted(&valid)),
                BAD,
                "queue_cap must be a non-negative integer".into(),
            ),
            (
                format!(
                    r#"{{"cmd": "restore", "name": "x", "path": {}, "checkpoint_every_epochs": 5}}"#,
                    quoted(&valid)
                ),
                BAD,
                "checkpoint_every_epochs requires checkpoint_dir".into(),
            ),
            (
                restore("x", &garbage),
                BAD_IMAGE,
                format!("parse {garbage:?}: not a snapshot image (bad magic)"),
            ),
            (
                restore("x", &no_preset),
                BAD_IMAGE,
                r#"image header: missing string field "preset""#.into(),
            ),
            (restore("x", &unknown_preset), BAD_IMAGE, r#"unknown preset "nope""#.into()),
            (
                restore("x", &lying),
                BAD_IMAGE,
                r#"image header claims 7 nodes but preset "dense_grid_100" deploys 100"#.into(),
            ),
            (
                restore("x", &empty_body),
                BAD_IMAGE,
                "restore: snapshot truncated at byte 0 (needed 4 more)".into(),
            ),
            (restore("a", &valid), "exists", r#"deployment "a" already exists"#.into()),
            (restore("", &valid), BAD, bad_name.into()),
            (restore("a/b", &valid), BAD, bad_name.into()),
            (restore("a\\u0000b", &valid), BAD, bad_name.into()),
            (restore(&too_long, &valid), BAD, bad_name.into()),
            (
                format!(r#"{{"cmd": "restore", "name": "{longest}"}}"#),
                BAD,
                r#"missing string field "path""#.into(),
            ),
            // debug_stall
            (r#"{"cmd": "debug_stall", "ms": 1}"#.into(), BAD, missing_deployment.into()),
            (
                r#"{"cmd": "debug_stall", "deployment": "missing"}"#.into(),
                BAD,
                r#"missing integer field "ms""#.into(),
            ),
            (
                r#"{"cmd": "debug_stall", "deployment": "missing", "ms": "x"}"#.into(),
                BAD,
                "ms must be a non-negative integer".into(),
            ),
            (
                r#"{"cmd": "debug_stall", "deployment": "missing", "ms": 1}"#.into(),
                NOT_FOUND,
                no_deployment.into(),
            ),
        ]
        .into_iter()
        .collect();
        for (request, kind, message) in &rows {
            let got = rejection(c, request);
            assert_eq!((got.0.as_str(), got.1.as_str()), (*kind, message.as_str()), "{request}");
        }

        // `io` replies carry the OS's own error text after the path.
        let unreadable = path("no-such.dirqsnap");
        let unwritable = path("no-such-dir/x.dirqsnap");
        let io_rows = [
            (restore("x", &unreadable), format!("read {unreadable:?}: ")),
            (
                format!(
                    r#"{{"cmd": "snapshot", "deployment": "a", "path": {}}}"#,
                    quoted(&unwritable)
                ),
                format!("write {unwritable:?}: "),
            ),
        ];
        for (request, prefix) in &io_rows {
            let (kind, message) = rejection(c, request);
            assert_eq!(kind, "io", "{request}");
            assert!(message.starts_with(prefix.as_str()), "{request}: {message}");
            assert!(message.len() > prefix.len(), "{request}: no OS error text");
        }

        // No rejected request registered or stepped a deployment.
        let status = c.status().expect("status");
        let names: Vec<(&str, u64)> = status.iter().map(|d| (d.name.as_str(), d.epoch)).collect();
        assert_eq!(names, [("a", 0), ("full", 0)]);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The non-blocking path: submit returns an id immediately, `poll`
/// resolves it, `drain` hands every completion to a cursored reader
/// exactly once, and unknown ids are typed `not_found`.
#[test]
fn async_submissions_resolve_through_poll_and_drain() {
    with_daemon(|_, c| {
        c.deploy("a", "dense_grid_100", &scaled(0.1)).expect("deploy");
        c.step("a", 10).expect("warmup");

        // Polling an id the deployment never assigned is not_found.
        assert_eq!(remote_kind(c.poll("a", 999_999), "unknown id"), "not_found");

        // Submit a burst, then resolve each id by polling.
        let mut ids = Vec::new();
        for k in 0..6u8 {
            let lo = 10.0 + f64::from(k);
            let (id, epoch) =
                c.query_async("a", k % 2, lo, lo + 8.0, None, Some("t")).expect("submit");
            assert!(epoch >= 10, "injection epoch precedes the warmup");
            ids.push(id);
        }
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be assigned in order");
        let mut reports = Vec::new();
        for &id in &ids {
            let report = loop {
                match c.poll("a", id).expect("poll") {
                    Some(r) => break r,
                    None => std::thread::sleep(Duration::from_millis(1)),
                }
            };
            assert_eq!(report.id, id);
            assert!(report.answered_epoch > report.epoch);
            assert_eq!(report.epochs_to_answer, report.answered_epoch - report.epoch);
            reports.push(report);
        }
        // Poll is a read: asking again returns the same answer.
        let again = c.poll("a", ids[0]).expect("re-poll").expect("still done");
        assert_eq!((again.id, again.answered_epoch), (reports[0].id, reports[0].answered_epoch));

        // Drain from cursor 0 sees the same completions, exactly once,
        // with strictly increasing sequence numbers and a monotone
        // cursor.
        let mut cursor = 0;
        let mut drained = Vec::new();
        loop {
            let batch = c.drain("a", cursor).expect("drain");
            assert!(batch.cursor >= cursor, "drain cursor went backwards");
            if batch.results.is_empty() {
                assert_eq!(batch.pending, 0);
                break;
            }
            drained.extend(batch.results.iter().map(|&(seq, r)| (seq, r.id)));
            cursor = batch.cursor;
        }
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0), "sequence numbers not increasing");
        assert_eq!(drained.iter().map(|&(_, id)| id).collect::<Vec<_>>(), ids);
        // A re-drain from the final cursor stays empty: exactly-once.
        assert!(c.drain("a", cursor).expect("re-drain").results.is_empty());

        // A zero-capacity admission queue is a deterministic queue_full.
        let zero =
            DeployOptions { scale: Some(0.1), queue_cap: Some(0), ..DeployOptions::default() };
        c.deploy("full", "dense_grid_100", &zero).expect("deploy zero-cap");
        assert_eq!(
            remote_kind(c.query_async("full", 0, 10.0, 20.0, None, None), "zero-cap submit"),
            "queue_full"
        );
        assert_eq!(
            remote_kind(c.query("full", 0, 10.0, 20.0, None), "zero-cap blocking submit"),
            "queue_full"
        );
    });
}

/// Queries against a deployment whose preset epoch budget has been
/// spent still answer: the serving loop steps the engine past the
/// budget rather than wedging the caller.
#[test]
fn queries_complete_past_the_epoch_budget() {
    with_daemon(|_, c| {
        // dense_grid_100 at 0.01 scale floors at 4 query periods = 80
        // epochs.
        let info = c.deploy("tiny", "dense_grid_100", &scaled(0.01)).expect("deploy");
        assert_eq!(info.epochs, 80);
        let past = info.epochs + 10;
        assert_eq!(c.step("tiny", past).expect("step"), past);
        let q = c.query("tiny", 0, 12.0, 26.0, None).expect("query past budget");
        assert!(q.epoch >= past);
        assert!(q.answered_epoch > q.epoch, "query must still step to completion");
    });
}

// --- the serving pool ------------------------------------------------------

/// Run one deployment's barriered op script against a daemon.
fn run_ops(c: &mut Client, name: &str, ops: &[ServingOp]) {
    for op in ops {
        match *op {
            ServingOp::Step(epochs) => {
                c.step(name, epochs).expect("step");
            }
            ServingOp::Query(stype, lo, hi) => {
                c.query(name, stype, lo, hi, None).expect("query");
            }
        }
    }
}

/// The tentpole differential test: several deployments with interleaved
/// barriered op scripts, served by pools of 1, 2 and 4 workers, must
/// all walk the exact trajectory of the engine-level replay — the pool
/// size (and therefore which worker runs which turn, and how turns of
/// different deployments interleave in time) is invisible to results.
#[test]
fn pool_trajectories_match_the_engine_replay_at_any_thread_count() {
    let scripts: &[(&str, u64, &[ServingOp])] = &[
        (
            "d0",
            11,
            &[
                ServingOp::Step(10),
                ServingOp::Query(0, 12.0, 26.0),
                ServingOp::Query(1, 40.0, 55.0),
                ServingOp::Step(5),
            ],
        ),
        (
            "d1",
            22,
            &[
                ServingOp::Step(7),
                ServingOp::Query(0, 14.0, 22.0),
                ServingOp::Step(3),
                ServingOp::Query(1, 41.0, 50.0),
            ],
        ),
        ("d2", 33, &[ServingOp::Query(0, 12.0, 20.0), ServingOp::Query(0, 13.0, 21.0)]),
    ];
    let reference: Vec<(u64, u64)> = scripts
        .iter()
        .map(|&(_, seed, ops)| replay_serving("dense_grid_100", 0.05, Some(seed), ops))
        .collect();
    for threads in [1, 2, 4] {
        let mut observed = Vec::new();
        with_daemon_opts(
            DaemonOptions { serving_threads: threads, ..DaemonOptions::default() },
            |_, c| {
                for &(name, seed, _) in scripts {
                    let opts = DeployOptions {
                        scale: Some(0.05),
                        seed: Some(seed),
                        ..DeployOptions::default()
                    };
                    c.deploy(name, "dense_grid_100", &opts).expect("deploy");
                }
                // Interleave: one op per deployment per round, so turns
                // of different deployments genuinely contend for the
                // pool.
                let longest = scripts.iter().map(|&(_, _, ops)| ops.len()).max().unwrap();
                for k in 0..longest {
                    for &(name, _, ops) in scripts {
                        if let Some(op) = ops.get(k) {
                            run_ops(c, name, std::slice::from_ref(op));
                        }
                    }
                }
                for &(name, _, _) in scripts {
                    observed.push(c.fingerprint(name).expect("fingerprint"));
                }
            },
        );
        assert_eq!(
            observed, reference,
            "serving_threads={threads}: trajectories diverged from the engine replay"
        );
    }
}

/// Decode a deterministic op script from one sampled integer — mixes
/// explicit steps and blocking queries of varying content.
fn script_from(mut code: u64) -> Vec<ServingOp> {
    let len = 2 + (code % 3) as usize;
    code /= 3;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let kind = code % 2;
        code /= 2;
        if kind == 0 {
            ops.push(ServingOp::Step(1 + code % 9));
            code /= 9;
        } else {
            let stype = (code % 2) as u8;
            code /= 2;
            let lo = 10.0 + (code % 10) as f64;
            code /= 10;
            let hi = lo + 4.0 + (code % 6) as f64;
            code /= 6;
            ops.push(ServingOp::Query(stype, lo, hi));
        }
    }
    ops
}

/// Run one sampled script against a pooled daemon and return the final
/// `(epoch, fingerprint)`.
fn run_pooled_script(threads: usize, seed: u64, ops: &[ServingOp]) -> (u64, u64) {
    let mut result = (0, 0);
    with_daemon_opts(
        DaemonOptions { serving_threads: threads, ..DaemonOptions::default() },
        |_, c| {
            let opts =
                DeployOptions { scale: Some(0.01), seed: Some(seed), ..DeployOptions::default() };
            c.deploy("p", "dense_grid_100", &opts).expect("deploy");
            run_ops(c, "p", ops);
            result = c.fingerprint("p").expect("fingerprint");
        },
    );
    result
}

mod pool_invariance {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]
        /// Pool-scheduled stepping is result-invariant in
        /// `--serving-threads`, and both pool sizes match the
        /// engine-level replay, across random barriered op scripts.
        #[test]
        fn pool_size_never_changes_results(seed in 0u64..1_000, code in 0u64..u64::MAX) {
            let ops = script_from(code);
            let one = run_pooled_script(1, seed, &ops);
            let four = run_pooled_script(4, seed, &ops);
            prop_assert_eq!(one, four, "threads 1 vs 4 diverged on {:?}", ops);
            let reference = replay_serving("dense_grid_100", 0.01, Some(seed), &ops);
            prop_assert_eq!(one, reference, "daemon diverged from the replay on {:?}", ops);
        }
    }
}

// --- crash recovery --------------------------------------------------------

/// Checkpoint-writing deployment options.
fn checkpointed(scale: f64, every: u64, dir: &std::path::Path, seed: u64) -> DeployOptions {
    DeployOptions {
        scale: Some(scale),
        seed: Some(seed),
        checkpoint_every_epochs: Some(every),
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..DeployOptions::default()
    }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dirqd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

/// `--recover` resumes a deployment from the newest valid rotating
/// image at a fingerprint equal to an uninterrupted run to the same
/// epoch, reports the slot it used, keeps checkpointing from where it
/// resumed — and a deployment whose slots are all corrupt lands in
/// `unrecoverable` without failing startup.
#[test]
fn recovery_resumes_from_the_newest_valid_checkpoint() {
    let dir = fresh_dir("recov");
    // Phase 1: a daemon checkpointing every 10 epochs, stepped to 25 —
    // the rotation leaves slot 1 at epoch 10 and slot 0 at epoch 20.
    with_daemon(|_, c| {
        c.deploy("r1", "dense_grid_100", &checkpointed(0.05, 10, &dir, 5)).expect("deploy r1");
        c.deploy("r2", "dense_grid_100", &checkpointed(0.05, 10, &dir, 77)).expect("deploy r2");
        c.step("r1", 25).expect("step r1");
        c.step("r2", 25).expect("step r2");
    });
    // Wreck every slot of r2: one torn mid-write, one overwritten with
    // garbage.
    let r2_slot0 = dir.join("r2.0.dirqsnap");
    let bytes = std::fs::read(&r2_slot0).expect("read r2 slot 0");
    std::fs::write(&r2_slot0, &bytes[..bytes.len() / 2]).expect("tear r2 slot 0");
    std::fs::write(dir.join("r2.1.dirqsnap"), b"garbage").expect("wreck r2 slot 1");

    let recover = DaemonOptions {
        recover: Some(dir.to_string_lossy().into_owned()),
        ..DaemonOptions::default()
    };
    with_daemon_opts(recover, |_, c| {
        let status = c.status_full().expect("status");
        assert!(status.serving_threads >= 1, "pool size must be reported");
        assert_eq!(status.deployments.len(), 1, "only r1 is recoverable");
        let r1 = &status.deployments[0];
        assert_eq!(r1.name, "r1");
        assert_eq!(r1.epoch, 20, "must resume from the newest image");
        assert_eq!(r1.recovered, Some((0, 20)), "slot 0 held the newest image");
        assert_eq!(status.unrecoverable.len(), 1);
        assert_eq!(status.unrecoverable[0].0, "r2");
        assert!(
            status.unrecoverable[0].1.contains("slot"),
            "error should name the failing slots: {}",
            status.unrecoverable[0].1
        );

        // Fingerprint equality with an uninterrupted run to the same
        // epoch.
        let clean = DeployOptions { scale: Some(0.05), seed: Some(5), ..DeployOptions::default() };
        c.deploy("clean", "dense_grid_100", &clean).expect("deploy clean");
        c.step("clean", 20).expect("step clean");
        let (_, fp_recovered) = c.fingerprint("r1").expect("fingerprint r1");
        let (_, fp_clean) = c.fingerprint("clean").expect("fingerprint clean");
        assert_eq!(fp_recovered, fp_clean, "recovered state diverged from a straight run");

        // The resumed deployment keeps checkpointing under its original
        // recipe: stepping to epoch 30 must rotate a new image in.
        assert_eq!(c.step("r1", 10).expect("step r1"), 30);
        let best = dirqd::daemon::scan_checkpoint_dir(&dir)
            .expect("scan")
            .into_iter()
            .find(|s| s.name == "r1")
            .expect("r1 images");
        assert_eq!(best.header.expect("valid image").epoch, 30, "checkpointing must resume");

        // The recovered deployment still serves queries.
        let q = c.query("r1", 0, 12.0, 26.0, None).expect("query recovered");
        assert!(q.answered_epoch > q.epoch);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn newest slot (the expected wreckage of `kill -9` mid-write)
/// falls back to the older intact slot.
#[test]
fn torn_newest_checkpoint_falls_back_to_the_older_slot() {
    let dir = fresh_dir("fallback");
    with_daemon(|_, c| {
        c.deploy("t", "dense_grid_100", &checkpointed(0.05, 10, &dir, 9)).expect("deploy");
        c.step("t", 25).expect("step");
    });
    // Slot 0 (epoch 20) is the newest; tear it. Slot 1 (epoch 10)
    // stays intact.
    let newest = dir.join("t.0.dirqsnap");
    let bytes = std::fs::read(&newest).expect("read newest");
    std::fs::write(&newest, &bytes[..bytes.len() / 3]).expect("tear newest");

    let recover = DaemonOptions {
        recover: Some(dir.to_string_lossy().into_owned()),
        ..DaemonOptions::default()
    };
    with_daemon_opts(recover, |_, c| {
        let status = c.status_full().expect("status");
        assert!(status.unrecoverable.is_empty(), "the older slot must rescue the deployment");
        assert_eq!(status.deployments.len(), 1);
        assert_eq!(status.deployments[0].epoch, 10, "must fall back to the older image");
        assert_eq!(status.deployments[0].recovered, Some((1, 10)));

        let clean = DeployOptions { scale: Some(0.05), seed: Some(9), ..DeployOptions::default() };
        c.deploy("clean", "dense_grid_100", &clean).expect("deploy clean");
        c.step("clean", 10).expect("step clean");
        let (_, fp_t) = c.fingerprint("t").expect("fingerprint t");
        let (_, fp_clean) = c.fingerprint("clean").expect("fingerprint clean");
        assert_eq!(fp_t, fp_clean, "fallback state diverged from a straight run");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sensor type outside the deployment's catalog is a typed
/// `bad_request` at the wire. It used to reach the engine, whose
/// per-type readings it indexed out of bounds: the serving-pool worker
/// panicked, the caller got `shutdown`, and on a one-thread pool every
/// deployment then answered `timeout`.
#[test]
fn out_of_catalog_stypes_are_rejected_and_the_pool_keeps_serving() {
    let options = DaemonOptions { serving_threads: 1, ..DaemonOptions::default() };
    with_daemon_opts(options, |_, c| {
        c.deploy("a", "dense_grid_100", &scaled(0.1)).expect("deploy a");
        c.deploy("b", "dense_grid_100", &scaled(0.1)).expect("deploy b");
        let mut req = Json::object();
        req.set("cmd", Json::Str("query".into()));
        req.set("deployment", Json::Str("a".into()));
        req.set("stype", Json::Num(4.0));
        req.set("lo", Json::Num(10.0));
        req.set("hi", Json::Num(20.0));
        assert_eq!(remote_kind(c.call(&req), "stype 4"), "bad_request");
        c.query("a", 0, 10.0, 20.0, None).expect("blocking query on a");
        assert_eq!(c.step("b", 5).expect("step b"), 5);
    });
}

/// Engine round trips are bounded: a wedged deployment produces an
/// orderly remote `timeout` error and the connection stays usable; a
/// client-side deadline surfaces as [`ClientError::Timeout`].
#[test]
fn stalled_deployments_time_out_instead_of_blocking() {
    with_daemon(|addr, c| {
        c.deploy("a", "dense_grid_100", &scaled(0.1)).expect("deploy");

        // Daemon-side deadline: the handler gives up after timeout_ms
        // while the engine thread is still stalled.
        let mut stall = Json::object();
        stall.set("cmd", Json::Str("debug_stall".into()));
        stall.set("deployment", Json::Str("a".into()));
        stall.set("ms", Json::from_u64(400));
        stall.set("timeout_ms", Json::from_u64(50));
        assert_eq!(remote_kind(c.call(&stall), "stalled round trip"), "timeout");
        // The connection survived; once the stall clears, calls answer.
        c.fingerprint("a").expect("fingerprint after daemon-side timeout");

        // Client-side deadline: a generous daemon timeout but a 50 ms
        // socket deadline. This connection is dead afterwards (its reply
        // may still arrive), so use a throwaway client.
        let mut throwaway = Client::connect(addr).expect("connect throwaway");
        throwaway.set_timeout(Some(Duration::from_millis(50))).expect("set timeout");
        let mut stall = Json::object();
        stall.set("cmd", Json::Str("debug_stall".into()));
        stall.set("deployment", Json::Str("a".into()));
        stall.set("ms", Json::from_u64(400));
        stall.set("timeout_ms", Json::from_u64(5_000));
        assert!(
            matches!(throwaway.call(&stall), Err(ClientError::Timeout)),
            "socket deadline must surface as ClientError::Timeout"
        );
        drop(throwaway);
        // Give the stall time to clear so shutdown is prompt.
        std::thread::sleep(Duration::from_millis(400));
    });
}

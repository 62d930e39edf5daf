//! Differential proof of the snapshot/restore contract: interrupting a
//! run at **any** epoch, serialising the engine, restoring the body onto
//! a freshly built engine and finishing the run must be bit-identical to
//! never having stopped — across protocol schemes, churn regimes,
//! sampling strategies and spatial workloads, with split points landing
//! mid-churn-window and mid-query-flight.
//!
//! Also pins the image format (magic + version + header round-trip) and
//! exercises the typed error paths: malformed input must never panic.

use dirq::prelude::*;
use dirq::sim::json::Json;
use dirq::sim::snap::{frame_image, parse_image, IMAGE_MAGIC, SNAP_FORMAT_VERSION};
use dirq::sim::SnapError;
use proptest::prelude::*;

/// One scenario family per axis the snapshot must cover. `variant`
/// selects the family; every family keeps the 50-node paper deployment
/// so a proptest case stays debug-mode fast.
fn variant_config(seed: u64, variant: u8, epochs: u64) -> ScenarioConfig {
    let base = ScenarioConfig {
        epochs,
        measure_from_epoch: epochs / 5,
        delta_policy: DeltaPolicy::Fixed(5.0),
        ..ScenarioConfig::paper_small(seed)
    };
    match variant {
        // Fixed δ on the steady-state hot path.
        0 => base,
        // Adaptive Threshold Control: EHr loop, budget multiplier, δ trace.
        1 => ScenarioConfig { delta_policy: DeltaPolicy::Adaptive(AtcConfig::default()), ..base },
        // The flooding baseline (per-node rebroadcast dedup state).
        2 => ScenarioConfig { protocol: Protocol::Flooding, ..base },
        // Mid-run deaths: splits inside `[from, until)` land mid-churn,
        // with detachment timers and repair state in flight.
        3 => ScenarioConfig {
            churn: ChurnSpec::RandomDeaths {
                deaths: 4,
                from_epoch: epochs / 4,
                until_epoch: epochs / 2,
            },
            ..base
        },
        // Predictive sampling: per-(node, type) sampler models.
        4 => ScenarioConfig {
            sampling: SamplingStrategy::Predictive(PredictiveConfig::default()),
            ..base
        },
        // The location extension with a spatially scoped workload.
        5 => ScenarioConfig { location_enabled: true, spatial_query_fraction: 0.6, ..base },
        _ => unreachable!("variant out of range"),
    }
}

/// Step `engine` to its epoch budget, then compare the two halves of the
/// differential: snapshot bytes (the strongest equality) and the final
/// run reports.
fn assert_resume_matches(cfg: ScenarioConfig, split: u64) {
    let epochs = cfg.epochs;
    let mut straight = Engine::new(cfg.clone());
    for _ in 0..split {
        straight.step_epoch();
    }
    let body = straight.snapshot();

    let mut resumed = Engine::new(cfg);
    resumed.restore(&body).expect("restore onto a same-config engine");
    assert_eq!(
        straight.state_fingerprint(),
        resumed.state_fingerprint(),
        "restored state must fingerprint-equal the snapshotted engine"
    );

    while straight.epoch() < epochs {
        straight.step_epoch();
    }
    while resumed.epoch() < epochs {
        resumed.step_epoch();
    }
    assert_eq!(
        straight.snapshot(),
        resumed.snapshot(),
        "final dynamic state diverged after resume (split at {split}/{epochs})"
    );
    let (a, b) = (straight.run(), resumed.run());
    assert_eq!(
        a.stable_fingerprint(),
        b.stable_fingerprint(),
        "run reports diverged after resume (split at {split}/{epochs})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The 256-case differential: N epochs + snapshot + restore + M
    /// epochs ≡ N+M epochs straight, across every scenario family and an
    /// arbitrary split point (including epoch 0 and the final epoch).
    #[test]
    fn snapshot_resume_is_bit_identical(
        seed in 0u64..1_000_000,
        variant in 0u8..6,
        extra in 0u64..4,
        split_permille in 0u64..=1000,
    ) {
        let epochs = 60 + 20 * extra;
        let split = split_permille * epochs / 1000;
        assert_resume_matches(variant_config(seed, variant, epochs), split);
    }

    /// Arbitrary byte bodies must decode to a typed error, never panic,
    /// and never "succeed" into a half-restored engine.
    #[test]
    fn restore_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let mut engine = Engine::new(variant_config(7, 0, 60));
        prop_assert!(engine.restore(&bytes).is_err());
    }
}

/// Fixed mid-complexity pin of the same property at a longer budget than
/// the proptest sweep: ATC + churn with the split inside the churn
/// window and queries in flight.
#[test]
fn atc_churn_resume_long_run() {
    let cfg = ScenarioConfig {
        epochs: 400,
        measure_from_epoch: 80,
        delta_policy: DeltaPolicy::Adaptive(AtcConfig::default()),
        churn: ChurnSpec::RandomDeaths { deaths: 5, from_epoch: 100, until_epoch: 250 },
        ..ScenarioConfig::paper_small(40_417)
    };
    assert_resume_matches(cfg, 177);
}

/// The recorded snapshot-state golden: any change to the snapshot byte
/// layout (or to engine behaviour feeding it) must show up here and be
/// re-recorded deliberately via `record_goldens`.
#[test]
fn snapshot_state_fingerprint_is_pinned() {
    assert_eq!(
        dirq::goldens::snapshot_state_fingerprint(),
        dirq::goldens::GOLDEN_SNAPSHOT_STATE,
        "snapshot codec drifted; re-record with \
         `cargo run --release -p dirq-bench --bin record_goldens`"
    );
}

/// External queries share the generator id space, come out of the
/// drained completed log, and leave the engine on the same deterministic
/// trajectory as an engine that received the identical call sequence.
#[test]
fn external_queries_complete_and_stay_deterministic() {
    let cfg = variant_config(91, 0, 120);
    let run_once = || {
        let mut e = Engine::new(cfg.clone());
        e.enable_completed_log();
        for _ in 0..30 {
            e.step_epoch();
        }
        let id = e.submit_external_query(SensorType(0), 10.0, 28.0, None);
        let mut seen = Vec::new();
        while e.epoch() < 120 {
            e.step_epoch();
            seen.extend(e.drain_completed());
        }
        (id, seen, e.state_fingerprint())
    };
    let (id_a, completed_a, fp_a) = run_once();
    let (id_b, completed_b, fp_b) = run_once();
    assert_eq!(id_a, id_b);
    assert_eq!(fp_a, fp_b, "identical call sequences must be deterministic");
    assert_eq!(completed_a.len(), completed_b.len());
    assert!(completed_a.iter().any(|c| c.outcome.id == id_a), "the external query never completed");
    // The log is observational: an engine with the log disabled follows
    // the exact same trajectory.
    let mut silent = Engine::new(cfg.clone());
    for _ in 0..30 {
        silent.step_epoch();
    }
    let silent_id = silent.submit_external_query(SensorType(0), 10.0, 28.0, None);
    assert_eq!(silent_id, id_a);
    while silent.epoch() < 120 {
        silent.step_epoch();
    }
    assert!(silent.drain_completed().next().is_none(), "log must stay off until enabled");
    assert_eq!(silent.state_fingerprint(), fp_a);
}

/// Restoring into an engine built from a *different* configuration is a
/// typed error wherever the body carries enough shape to notice.
#[test]
fn restore_rejects_mismatched_configs() {
    let mut donor = Engine::new(variant_config(11, 0, 60));
    for _ in 0..20 {
        donor.step_epoch();
    }
    let body = donor.snapshot();

    // Different node count.
    let cfg = ScenarioConfig { n_nodes: 30, ..variant_config(11, 0, 60) };
    assert!(Engine::new(cfg).restore(&body).is_err(), "node-count mismatch accepted");

    // Different measurement window.
    let cfg = ScenarioConfig { measure_from_epoch: 5, ..variant_config(11, 0, 60) };
    assert!(
        matches!(
            Engine::new(cfg).restore(&body),
            Err(SnapError::Malformed { what: "measurement window mismatch", .. })
        ),
        "measurement-window mismatch accepted"
    );

    // Predictive sampling expects sampler rows the donor never wrote.
    let cfg = ScenarioConfig {
        sampling: SamplingStrategy::Predictive(PredictiveConfig::default()),
        ..variant_config(11, 0, 60)
    };
    assert!(
        matches!(
            Engine::new(cfg).restore(&body),
            Err(SnapError::Malformed {
                what: "sampler presence disagrees with the sampling strategy",
                ..
            })
        ),
        "sampler-presence mismatch accepted"
    );
}

/// Every truncation of a valid body fails loudly; a valid body with
/// trailing bytes fails as [`SnapError::TrailingBytes`]; a corrupted
/// leading tag fails as [`SnapError::BadTag`].
#[test]
fn malformed_bodies_fail_loudly() {
    let mut donor = Engine::new(variant_config(23, 1, 60));
    for _ in 0..25 {
        donor.step_epoch();
    }
    let body = donor.snapshot();

    let fresh = || Engine::new(variant_config(23, 1, 60));
    // Sparse truncation sweep (every prefix would be slow in debug).
    for cut in (0..body.len()).step_by(97).chain([body.len() - 1]) {
        assert!(fresh().restore(&body[..cut]).is_err(), "truncation at {cut} accepted");
    }

    let mut long = body.clone();
    long.push(0);
    assert!(matches!(fresh().restore(&long), Err(SnapError::TrailingBytes { .. })));

    let mut bad_tag = body.clone();
    bad_tag[0] ^= 0xFF;
    assert!(matches!(fresh().restore(&bad_tag), Err(SnapError::BadTag { .. })));

    // And the round trip itself holds.
    let mut ok = fresh();
    ok.restore(&body).expect("unmodified body restores");
    assert_eq!(ok.state_fingerprint(), donor.state_fingerprint());
}

/// A body whose MAC slot lies outside the frame is a typed error at
/// restore (the daemon answers `bad_image`), not a panic at the next
/// step.
#[test]
fn restore_rejects_an_out_of_range_mac_slot() {
    let mut donor = Engine::new(variant_config(17, 0, 60));
    for _ in 0..10 {
        donor.step_epoch();
    }
    let mut body = donor.snapshot();
    // The body opens with "ENGN", the epoch (u64), "LMAC", the MAC frame
    // (u64) and the MAC slot (u16).
    assert_eq!(&body[12..16], b"LMAC");
    body[24..26].copy_from_slice(&500u16.to_le_bytes());
    assert!(
        matches!(
            Engine::new(variant_config(17, 0, 60)).restore(&body),
            Err(SnapError::Malformed { what: "MAC slot out of range", .. })
        ),
        "an out-of-range MAC slot restored"
    );
}

/// Byte offsets of every occurrence of `tag` in a snapshot body.
fn tag_offsets(body: &[u8], tag: &[u8; 4]) -> Vec<usize> {
    body.windows(4).enumerate().filter(|(_, w)| w == tag).map(|(i, _)| i).collect()
}

/// A `paper_small` body (fixed δ, 50 nodes) snapshotted at `epoch`, with
/// the node-state records located: one `NODE` tag per node, root first.
fn body_at(epoch: u64) -> (Vec<u8>, Vec<usize>) {
    let mut donor = Engine::new(variant_config(17, 0, 60));
    for _ in 0..epoch {
        donor.step_epoch();
    }
    let body = donor.snapshot();
    let nodes = tag_offsets(&body, b"NODE");
    assert_eq!(nodes.len(), 50, "one NODE record per node");
    (body, nodes)
}

/// Restoring `body` fails with the typed error `what` (the engine would
/// otherwise index past the deployment, or panic, on a later step).
fn assert_rejected(body: &[u8], what: &str) {
    match Engine::new(variant_config(17, 0, 60)).restore(body) {
        Err(SnapError::Malformed { what: got, .. }) => assert_eq!(got, what),
        other => panic!("expected the typed error {what:?}, got {other:?}"),
    }
}

/// A parent pointer outside the deployment is a typed error at restore.
#[test]
fn restore_rejects_a_parent_outside_the_deployment() {
    let (mut body, nodes) = body_at(10);
    // Node 1's record: "NODE", the parent flag, then the parent id (u32).
    let at = nodes[1] + 4;
    assert_eq!(body[at], 1, "node 1 has a parent");
    body[at + 1..at + 5].copy_from_slice(&60_000u32.to_le_bytes());
    assert_rejected(&body, "node id outside the deployment");
}

/// A child id outside the deployment is a typed error at restore.
#[test]
fn restore_rejects_a_child_outside_the_deployment() {
    let (mut body, nodes) = body_at(10);
    // The root's record: "NODE", the parent flag (none), the child count
    // (u64), then the child ids (u32).
    let at = nodes[0] + 4;
    assert_eq!(body[at], 0, "the root has no parent");
    assert!(u64::from_le_bytes(body[at + 1..at + 9].try_into().unwrap()) > 0);
    body[at + 9..at + 13].copy_from_slice(&60_000u32.to_le_bytes());
    assert_rejected(&body, "node id outside the deployment");
}

/// A pending query whose ground truth names a source outside the
/// deployment is a typed error at restore.
#[test]
fn restore_rejects_a_query_source_outside_the_deployment() {
    // At epoch 25 the query injected at epoch 20 is still in flight.
    let (mut body, _) = body_at(25);
    let pend = tag_offsets(&body, b"PEND");
    assert_eq!(pend.len(), 1);
    // "PEND", the entry count (u64); the first entry's query: id (u64),
    // type (u8), bounds (2 × f64), region flag; its epoch (u64); then the
    // ground truth: the source count (u64) and the source ids (u32).
    let at = pend[0] + 4;
    assert!(u64::from_le_bytes(body[at..at + 8].try_into().unwrap()) > 0, "a query in flight");
    assert_eq!(body[at + 33], 0, "a value query has no region");
    let sources = at + 42;
    assert!(u64::from_le_bytes(body[sources..sources + 8].try_into().unwrap()) > 0);
    body[sources + 8..sources + 12].copy_from_slice(&60_000u32.to_le_bytes());
    assert_rejected(&body, "query source outside the deployment");
}

/// Offset of the first in-flight query's id in a `body_at` body: "PEND",
/// the entry count (u64), then the entry's query, which opens with its id
/// (u64).
fn first_pending_id_at(body: &[u8]) -> usize {
    let pend = tag_offsets(body, b"PEND");
    assert_eq!(pend.len(), 1);
    let at = pend[0] + 4;
    assert!(u64::from_le_bytes(body[at..at + 8].try_into().unwrap()) > 0, "a query in flight");
    at + 8
}

/// An in-flight query id at or past the generator's cursor is a typed
/// error at restore, not an allocation sized by the id.
#[test]
fn restore_rejects_a_huge_in_flight_query_id() {
    let (mut body, _) = body_at(25);
    let id = first_pending_id_at(&body);
    body[id..id + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
    assert_rejected(&body, "in-flight query id not below the id cursor");
}

/// Two in-flight entries with one id are a typed error at restore.
#[test]
fn restore_rejects_a_duplicate_in_flight_query_id() {
    // At epoch 25 the query injected at epoch 20 is in flight; an
    // external query joins it.
    let mut donor = Engine::new(variant_config(17, 0, 60));
    for _ in 0..25 {
        donor.step_epoch();
    }
    let (lo, hi) = (17.25f64, 22.75f64);
    let second = donor.submit_external_query(SensorType(0), lo, hi, None);
    let mut body = donor.snapshot();
    let first = first_pending_id_at(&body);
    assert_eq!(u64::from_le_bytes(body[first - 8..first].try_into().unwrap()), 2);
    // The second entry's query: id (u64), type (u8), then the bounds. The
    // MAC's queued copy of the query lies before the pending set.
    let mut pattern = second.0.to_le_bytes().to_vec();
    pattern.push(0);
    pattern.extend_from_slice(&lo.to_le_bytes());
    pattern.extend_from_slice(&hi.to_le_bytes());
    let at: Vec<usize> = body
        .windows(pattern.len())
        .enumerate()
        .filter(|&(i, w)| i > first && w == &pattern[..])
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "the external query's pending record is found once");
    let first_id: [u8; 8] = body[first..first + 8].try_into().unwrap();
    body[at[0]..at[0] + 8].copy_from_slice(&first_id);
    assert_rejected(&body, "duplicate in-flight query id");
}

/// A query-id cursor at `u64::MAX` is a typed error at restore, not an
/// overflow at the next injection.
#[test]
fn restore_rejects_an_exhausted_query_id_cursor() {
    let (mut body, _) = body_at(25);
    let qgen = tag_offsets(&body, b"QGEN");
    assert_eq!(qgen.len(), 1);
    // "QGEN", then the id cursor (u64).
    let at = qgen[0] + 4;
    body[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let mut engine = Engine::new(variant_config(17, 0, 60));
    let restored = engine.restore(&body);
    if restored.is_ok() {
        // Twenty steps reach the epoch-40 injection, which allocates an
        // id from the cursor.
        for _ in 0..20 {
            engine.step_epoch();
        }
    }
    assert!(
        matches!(restored, Err(SnapError::Malformed { what: "query id cursor out of range", .. })),
        "an exhausted id cursor restored: {restored:?}"
    );
}

/// A negative warm region half-size is a typed error at restore, not a
/// panic in `Rect::centered` (debug) or an inverted bisection bracket
/// (release) at the next spatial injection.
#[test]
fn restore_rejects_a_negative_warm_half() {
    let cfg = registry::hotspot_workload_200().config(Scheme::DirqFixed(5.0), 1_004);
    let mut donor = Engine::new(cfg.clone());
    for _ in 0..85 {
        donor.step_epoch();
    }
    let mut body = donor.snapshot();
    let qgen = tag_offsets(&body, b"QGEN");
    assert_eq!(qgen.len(), 1);
    // "QGEN", the id cursor (u64), the RNG (4 × u64) and the probe tally
    // (u64); then the warm widths and the warm halves, each a count (u64)
    // followed by entries of a presence byte plus an f64 when present.
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    let entry_len = |presence: u8| if presence == 1 { 9 } else { 1 };
    let mut at = qgen[0] + 4 + 8 + 32 + 8;
    let widths = u64_at(at);
    at += 8;
    for _ in 0..widths {
        at += entry_len(body[at]);
    }
    let halves = u64_at(at);
    at += 8;
    let mut half = None;
    for _ in 0..halves {
        if body[at] == 1 && half.is_none() {
            half = Some(at + 1);
        }
        at += entry_len(body[at]);
    }
    let half = half.expect("a spatial query set a warm half-size by epoch 85");
    assert!(f64::from_le_bytes(body[half..half + 8].try_into().unwrap()) > 0.0);
    body[half..half + 8].copy_from_slice(&(-5.0f64).to_le_bytes());
    match Engine::new(cfg).restore(&body) {
        Err(SnapError::Malformed { what, .. }) => assert_eq!(what, "warm half-size out of range"),
        other => panic!("a negative warm half-size restored: {other:?}"),
    }
}

/// A threshold δ that is negative, NaN or infinite — the node's own, or
/// its ATC controller's — is a typed error at restore, not a panic in
/// `RangeEntry::around` (debug) or a tuple built on it (release) at the
/// next sample.
#[test]
fn restore_rejects_a_negative_or_non_finite_delta() {
    // Fixed δ, then ATC: the node record alone, then the controller too.
    for variant in [0, 1] {
        let cfg = variant_config(17, variant, 60);
        let body = Engine::new(cfg.clone()).snapshot();
        let nodes = tag_offsets(&body, b"NODE");
        // A fresh node holds no range table yet, so the first 5.0 in its
        // record is its δ. Under ATC the controller's presence flag and
        // the controller's own δ follow it.
        let five = 5.0f64.to_le_bytes();
        let record = &body[nodes[1]..nodes[2]];
        let delta = nodes[1] + record.windows(8).position(|w| w == five).expect("node 1's δ");
        let mut deltas = vec![delta];
        if variant == 1 {
            assert_eq!(body[delta + 8], 1, "node 1 carries an ATC controller");
            assert_eq!(body[delta + 9..delta + 17], five, "the controller's δ");
            deltas.push(delta + 9);
        }
        for at in deltas {
            for bad in [-1.0f64, f64::NAN, f64::INFINITY] {
                let mut patched = body.clone();
                patched[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                match Engine::new(cfg.clone()).restore(&patched) {
                    Err(SnapError::Malformed { what, .. }) => {
                        assert_eq!(what, "threshold delta negative or not finite")
                    }
                    other => panic!("δ = {bad} at byte {at} restored: {other:?}"),
                }
            }
        }
    }
}

/// Every counter the step increments is bounded at restore: set to
/// `u64::MAX`, each is a typed error, not an overflow panic (debug) or a
/// wrapped count (release) at its next increment.
#[test]
fn restore_rejects_a_counter_past_the_bound() {
    fn u64_at(body: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(body[at..at + 8].try_into().unwrap())
    }
    fn tag(body: &[u8], t: &[u8; 4], k: usize) -> usize {
        tag_offsets(body, t)[k]
    }
    // The metrics record: "METR", the measurement start, the query,
    // update and control tx/rx tallies (6 × u64), then the Fig. 6 series
    // (bucket width, the sums and the counts, each a count and `len`
    // values) and the overshoot accumulator, whose sample count leads.
    fn metrics(body: &[u8]) -> usize {
        tag(body, b"METR", 0)
    }
    fn buckets(body: &[u8]) -> usize {
        u64_at(body, metrics(body) + 68) as usize
    }
    // The body ends with the sampler records, the Fig. 6 reference line
    // (f64), the δ trace (after 25 epochs, epoch 0's point: a count and
    // one (u64, f64) pair) and the injection count (u64).
    fn samplers_end(body: &[u8]) -> usize {
        assert_eq!(u64_at(body, body.len() - 32), 1, "one δ trace point");
        body.len() - 40
    }
    type Offsets = fn(&[u8]) -> Vec<usize>;
    let cases: [(&str, u8, u64, Offsets); 14] = [
        // "ENGN", then the epoch.
        ("engine epoch", 0, 25, |_| vec![4]),
        // "LMAC" at 12: the frame, the slot (u16), then eight statistics.
        ("MAC frame", 0, 25, |_| vec![16]),
        ("MAC statistics", 0, 25, |_| (0..8).map(|k| 26 + 8 * k).collect()),
        // Each ledger: "ELDG", then the tx and rx tallies of 50 nodes.
        ("energy ledgers", 0, 25, |b| {
            tag_offsets(b, b"ELDG").iter().flat_map(|&at| [at + 12, at + 12 + 8 * 50 + 8]).collect()
        }),
        // "WRLD", then the world's epoch.
        ("world epoch", 0, 25, |b| vec![tag(b, b"WRLD", 0) + 4]),
        // A node record ends with its Update count; node 1's precedes
        // node 2's record.
        ("updates sent", 0, 25, |b| vec![tag(b, b"NODE", 2) - 8]),
        // Under ATC a fresh node's first 5.0 is its δ, then the
        // controller's presence flag, its δ and its two window counts.
        ("ATC window counts", 1, 0, |b| {
            let (one, two) = (tag(b, b"NODE", 1), tag(b, b"NODE", 2));
            let five = 5.0f64.to_le_bytes();
            let delta = one + b[one..two].windows(8).position(|w| w == five).unwrap();
            vec![delta + 17, delta + 25]
        }),
        // "QGEN", the id cursor, the RNG (4 × u64), then the probe tally.
        ("generator probes", 0, 25, |b| vec![tag(b, b"QGEN", 0) + 44]),
        // The query injected at epoch 20 is in flight; its tx and rx
        // tallies close the pending set, right before the metrics.
        ("pending tx and rx", 0, 25, |b| vec![metrics(b) - 16, metrics(b) - 8]),
        ("metrics tallies", 0, 25, |b| (0..6).map(|k| metrics(b) + 12 + 8 * k).collect()),
        ("update series counts", 0, 25, |b| vec![metrics(b) + 84 + 8 * buckets(b)]),
        ("overshoot samples", 0, 25, |b| vec![metrics(b) + 84 + 16 * buckets(b)]),
        // The last predictive sampler's taken and skipped counts.
        ("sampler counts", 4, 25, |b| vec![samplers_end(b) - 16, samplers_end(b) - 8]),
        ("queries injected", 0, 25, |b| vec![b.len() - 8]),
    ];
    for (counter, variant, epochs, offsets) in cases {
        let cfg = variant_config(17, variant, 60);
        let mut donor = Engine::new(cfg.clone());
        for _ in 0..epochs {
            donor.step_epoch();
        }
        let body = donor.snapshot();
        Engine::new(cfg.clone()).restore(&body).expect("the unpatched body restores");
        for at in offsets(&body) {
            let mut patched = body.clone();
            patched[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            match Engine::new(cfg.clone()).restore(&patched) {
                Err(SnapError::Malformed { what: "counter out of range", pos }) => {
                    assert_eq!(pos, at, "{counter}: the error names the counter's offset")
                }
                other => panic!("{counter} = u64::MAX at byte {at} restored: {other:?}"),
            }
        }
    }
}

/// The on-disk image format: magic, version, JSON header, byte-exact
/// body recovery, and typed rejection of foreign or future files.
#[test]
fn image_format_is_pinned() {
    // The wire constants are a compatibility promise; bumping them must
    // be a conscious act (update this test + the daemon docs together).
    assert_eq!(IMAGE_MAGIC, b"DIRQSNAP");
    assert_eq!(SNAP_FORMAT_VERSION, 1);

    let mut engine = Engine::new(variant_config(5, 0, 60));
    for _ in 0..15 {
        engine.step_epoch();
    }
    let body = engine.snapshot();
    let mut header = Json::object();
    header.set("preset", Json::Str("paper_small".into()));
    header.set("scheme", Json::Str("fixed:5".into()));
    header.set("seed", Json::Num(5.0));
    header.set("epoch", Json::Num(15.0));
    let image = frame_image(&header, &body);
    assert!(image.starts_with(IMAGE_MAGIC));

    let (parsed, parsed_body) = parse_image(&image).expect("well-formed image");
    assert_eq!(parsed.get("preset").and_then(Json::as_str), Some("paper_small"));
    assert_eq!(parsed.get("epoch").and_then(Json::as_f64), Some(15.0));
    assert_eq!(parsed_body, &body[..], "body must survive framing byte-exact");
    let mut restored = Engine::new(variant_config(5, 0, 60));
    restored.restore(parsed_body).expect("framed body restores");
    assert_eq!(restored.state_fingerprint(), engine.state_fingerprint());

    // Foreign magic.
    let mut foreign = image.clone();
    foreign[0] = b'X';
    assert_eq!(parse_image(&foreign).unwrap_err(), SnapError::BadMagic);
    // A future format version.
    let mut future = image.clone();
    future[8..12].copy_from_slice(&(SNAP_FORMAT_VERSION + 1).to_le_bytes());
    assert!(matches!(parse_image(&future), Err(SnapError::BadVersion { .. })));
    // Truncations never panic.
    for cut in 0..image.len().min(64) {
        assert!(parse_image(&image[..cut]).is_err());
    }
}

//! Differential proof of the snapshot/restore contract: interrupting a
//! run at **any** epoch, serialising the engine, restoring the body onto
//! a freshly built engine and finishing the run must be bit-identical to
//! never having stopped — across protocol schemes, churn regimes,
//! sampling strategies and spatial workloads, with split points landing
//! mid-churn-window and mid-query-flight.
//!
//! Also pins the image format (magic + version + header round-trip) and
//! exercises the typed error paths: malformed input must never panic.

use dirq::core::atc::ADJUST_PERIOD;
use dirq::core::sampling::MAX_SKIP;
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
        1 => ScenarioConfig { delta_policy: DeltaPolicy::Adaptive, ..base },
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
        4 => ScenarioConfig { sampling: SamplingStrategy::Predictive, ..base },
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
        delta_policy: DeltaPolicy::Adaptive,
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
/// The fingerprint the engine streams through its encoder, without holding
/// the body, is the hash of the body it would write: for every variant, at
/// several epochs.
#[test]
fn state_fingerprint_is_the_fingerprint_of_the_body() {
    for variant in 0..6 {
        let mut engine = Engine::new(variant_config(29, variant, 60));
        for epoch in 0..=45 {
            if epoch % 9 == 0 {
                let body = engine.snapshot();
                assert_eq!(
                    engine.state_fingerprint(),
                    Engine::body_fingerprint(&body),
                    "variant {variant} at epoch {epoch} ({} body bytes)",
                    body.len()
                );
            }
            engine.step_epoch();
        }
    }
}

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
    let cfg =
        ScenarioConfig { sampling: SamplingStrategy::Predictive, ..variant_config(11, 0, 60) };
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

    // The config record at the head of the body names the δ policy, its
    // fixed δ and the protocol once; each differing is a typed error.
    let cases = [
        (
            "fixed δ 3 % against 5 %",
            DeltaPolicy::Fixed(3.0),
            Protocol::Dirq,
            "fixed delta off its policy",
        ),
        (
            "ATC against fixed δ",
            DeltaPolicy::Adaptive,
            Protocol::Dirq,
            "ATC presence disagrees with the threshold policy",
        ),
        ("flooding against DirQ", DeltaPolicy::Fixed(5.0), Protocol::Flooding, "protocol mismatch"),
    ];
    for (case, delta_policy, protocol, what) in cases {
        let cfg = ScenarioConfig { delta_policy, protocol, ..variant_config(11, 0, 60) };
        match Engine::new(cfg).restore(&body) {
            Err(SnapError::Malformed { what: got, .. }) => assert_eq!(got, what, "{case}"),
            other => panic!("{case}: expected the typed error {what:?}, got {other:?}"),
        }
    }
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
    // "LMAC", then the MAC frame (u64) and the MAC slot (u16).
    let slot = lmac_at(&body) + 12;
    body[slot..slot + 2].copy_from_slice(&500u16.to_le_bytes());
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

/// Offset of the MAC's "LMAC" tag in a body: after "ENGN", the config
/// record (the flooding flag, the fixed δ's presence byte and the δ, the
/// predictive-sampling flag, the measurement window) and the engine's
/// epoch (u64).
fn lmac_at(body: &[u8]) -> usize {
    let at = if body[5] == 1 { 4 + 1 + 9 + 1 + 8 + 8 } else { 4 + 1 + 1 + 1 + 8 + 8 };
    assert_eq!(&body[at..at + 4], b"LMAC");
    at
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

/// A query's ground truth lists its sources strictly ascending, as
/// `ground_truth` writes them. A repeated or out-of-order source is a typed
/// error at restore, not a source counted twice when the query is scored.
#[test]
fn restore_rejects_query_sources_not_strictly_ascending() {
    let (body, _) = body_at(25);
    // The first in-flight query's source count and ids (see above).
    let sources = tag_offsets(&body, b"PEND")[0] + 46;
    assert!(u64::from_le_bytes(body[sources..sources + 8].try_into().unwrap()) >= 2);
    let (first, second) = (sources + 8, sources + 12);
    let id = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
    assert!(id(first) < id(second), "sources ascend");
    let mut swapped = body.clone();
    swapped[first..first + 4].copy_from_slice(&body[second..second + 4]);
    swapped[second..second + 4].copy_from_slice(&body[first..first + 4]);
    let mut repeated = body.clone();
    repeated[second..second + 4].copy_from_slice(&body[first..first + 4]);
    for patched in [swapped, repeated] {
        assert_rejected(&patched, "query sources not strictly ascending");
    }
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

/// A threshold δ that is negative, NaN or infinite — the fixed δ of the
/// config record, or an ATC node's own — is a typed error at restore, not
/// a panic in `RangeEntry::around` (debug) or a tuple built on it
/// (release) at the next sample. An ATC node's δ must also lie in the
/// controller's clamp, [0.2, 40] percent, where every step keeps it.
#[test]
fn restore_rejects_a_negative_or_non_finite_delta() {
    // Fixed δ: the config record's, after "ENGN", the flooding flag and
    // its presence byte; ATC: node 1's, right after its table array.
    for variant in [0, 1] {
        let cfg = variant_config(17, variant, 60);
        let body = Engine::new(cfg.clone()).snapshot();
        let delta = if variant == 0 { 6 } else { after_tables(&body, 1) };
        assert_eq!(body[delta..delta + 8], 5.0f64.to_le_bytes(), "the δ");
        let with = |value: f64| {
            let mut patched = body.clone();
            patched[delta..delta + 8].copy_from_slice(&value.to_le_bytes());
            Engine::new(cfg.clone()).restore(&patched)
        };
        let (bad, what): (&[f64], _) = if variant == 0 {
            (&[-1.0, f64::NAN, f64::INFINITY], "threshold delta negative or not finite")
        } else {
            (&[f64::MAX, 0.1, 41.0, -1.0, f64::NAN, f64::INFINITY], "ATC delta outside its clamp")
        };
        for &value in bad {
            match with(value) {
                Err(SnapError::Malformed { what: got, .. }) => assert_eq!(got, what),
                other => panic!("δ = {value} at byte {delta} restored: {other:?}"),
            }
        }
        if variant == 1 {
            for value in [0.2, 5.0, 40.0] {
                assert_eq!(with(value), Ok(()), "ATC δ = {value}");
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
    // The metrics record: "METR", the query, update and control tx/rx
    // tallies (6 × u64), then the Fig. 6 series (the sums and the counts,
    // each a count and `len` values) and the overshoot accumulator, whose
    // sample count leads.
    fn metrics(body: &[u8]) -> usize {
        tag(body, b"METR", 0)
    }
    fn buckets(body: &[u8]) -> usize {
        u64_at(body, metrics(body) + 52) as usize
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
        // The engine's epoch precedes "LMAC".
        ("engine epoch", 0, 25, |b| vec![lmac_at(b) - 8]),
        // "LMAC", the frame, the slot (u16), then eight statistics.
        ("MAC frame", 0, 25, |b| vec![lmac_at(b) + 4]),
        ("MAC statistics", 0, 25, |b| (0..8).map(|k| lmac_at(b) + 14 + 8 * k).collect()),
        // Each ledger: "ELDG", then the tx and rx tallies of 50 nodes.
        ("energy ledgers", 0, 25, |b| {
            tag_offsets(b, b"ELDG").iter().flat_map(|&at| [at + 12, at + 12 + 8 * 50 + 8]).collect()
        }),
        // "WRLD", then the world's epoch.
        ("world epoch", 0, 25, |b| vec![tag(b, b"WRLD", 0) + 4]),
        // A node record ends with its Update count; node 1's precedes
        // node 2's record.
        ("updates sent", 0, 25, |b| vec![tag(b, b"NODE", 2) - 8]),
        // Under ATC a node's δ follows its table array, then the ATC
        // record's two window counts.
        ("ATC window counts", 1, 0, |b| vec![after_tables(b, 1) + 8, after_tables(b, 1) + 16]),
        // "QGEN", the id cursor, the RNG (4 × u64), then the probe tally.
        ("generator probes", 0, 25, |b| vec![tag(b, b"QGEN", 0) + 44]),
        // The query injected at epoch 20 is in flight; its tx and rx
        // tallies close the pending set, right before the metrics.
        ("pending tx and rx", 0, 25, |b| vec![metrics(b) - 16, metrics(b) - 8]),
        ("metrics tallies", 0, 25, |b| (0..6).map(|k| metrics(b) + 4 + 8 * k).collect()),
        ("update series counts", 0, 25, |b| vec![metrics(b) + 68 + 8 * buckets(b)]),
        ("overshoot samples", 0, 25, |b| vec![metrics(b) + 68 + 16 * buckets(b)]),
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

/// Two restored counters at the bound still sum: every sum of counters a
/// run reads saturates instead of overflowing (a panic in debug, a wrapped
/// total in release) when the run ends and its cost is read.
#[test]
fn restored_counters_at_the_bound_sum_without_overflow() {
    const BOUND: u64 = 1 << 63;
    fn u64_at(body: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(body[at..at + 8].try_into().unwrap())
    }
    fn metrics(body: &[u8]) -> usize {
        tag_offsets(body, b"METR")[0]
    }
    fn ledger(body: &[u8]) -> usize {
        tag_offsets(body, b"ELDG")[0]
    }
    // Before the first epoch no sampler has sampled, so every sampler
    // record is 27 bytes: the absence bytes of the last reading and of the
    // drift and volatility estimates, then the skip, taken and skipped
    // counts. The body closes with u_max (f64), the empty δ trace (a zero
    // count) and the injection count (u64).
    fn last_samplers_taken(body: &[u8]) -> Vec<usize> {
        let end = body.len() - 24;
        assert_eq!(u64_at(body, body.len() - 16), 0, "an empty δ trace");
        vec![end - 16, end - SAMPLER - 16]
    }
    type Offsets = fn(&[u8]) -> Vec<usize>;
    let cases: [(&str, u8, u64, Offsets); 5] = [
        // The last two samplers' taken counts: `sample_counts` in `run`.
        ("sampler counts", 4, 0, last_samplers_taken),
        // The query injected at epoch 20 is in flight; its tx and rx
        // close the pending set, right before the metrics.
        ("pending tx and rx", 0, 25, |b| vec![metrics(b) - 16, metrics(b) - 8]),
        // "METR", then the query category's tx and rx: `CategoryCost::cost`.
        ("query category tallies", 0, 25, |b| vec![metrics(b) + 4, metrics(b) + 12]),
        // "ELDG", a count, then nodes 0 and 1's transmissions, and after
        // the 50 nodes another count and their receptions: one ledger's
        // `total_tx` and `total_rx` in `run`.
        ("ledger transmissions", 0, 25, |b| vec![ledger(b) + 12, ledger(b) + 20]),
        ("ledger receptions", 0, 25, |b| vec![ledger(b) + 420, ledger(b) + 428]),
    ];
    for (pair, variant, epochs, offsets) in cases {
        let cfg = variant_config(17, variant, 60);
        let mut donor = Engine::new(cfg.clone());
        for _ in 0..epochs {
            donor.step_epoch();
        }
        let mut body = donor.snapshot();
        for at in offsets(&body) {
            assert!(u64_at(&body, at) < 1 << 20, "{pair}: byte {at} holds a live counter");
            body[at..at + 8].copy_from_slice(&BOUND.to_le_bytes());
        }
        let mut engine = Engine::new(cfg);
        engine.restore(&body).expect("counters at the bound restore");
        let cost = engine.run().cost_per_query();
        assert!(cost.is_some_and(f64::is_finite), "{pair}: cost per query {cost:?}");
    }
}

/// A duplicate-suppression list longer than its cap is a typed error at
/// restore: `on_query` evicts only at exactly the cap, so a longer list
/// would grow by one id per query, each scanned on every arrival.
#[test]
fn restore_rejects_an_overlong_seen_query_list() {
    let (body, nodes) = body_at(25);
    // The root's record ends with its seen-query ids (a count, then one
    // u64 each), its location table (empty: two absence flags around a
    // zero child count) and its Update count. By epoch 25 it has seen the
    // query injected at epoch 20.
    let ids_end = nodes[1] - 8 - 10;
    let count_at = ids_end - 16;
    assert_eq!(u64::from_le_bytes(body[count_at..count_at + 8].try_into().unwrap()), 1);
    let with_ids = |extra: u64| {
        let mut patched = body[..ids_end].to_vec();
        patched[count_at..count_at + 8].copy_from_slice(&(1 + extra).to_le_bytes());
        patched.extend((0..extra).flat_map(|k| (1_000 + k).to_le_bytes()));
        patched.extend_from_slice(&body[ids_end..]);
        patched
    };
    Engine::new(variant_config(17, 0, 60)).restore(&with_ids(63)).expect("a full list restores");
    assert_rejected(&with_ids(64), "seen-query list too long");
}

/// Offset of `sensor`'s node-local AR(1) record in a `variant_config`
/// body: the type's one φ and σ, then the cell count (50) and one value
/// per cell.
fn local_params_at(body: &[u8], sensor: &dirq::data::world::SensorTypeConfig) -> usize {
    let world = tag_offsets(body, b"WRLD")[0];
    let (phi, sigma) = (sensor.local_phi.to_le_bytes(), sensor.local_sigma.to_le_bytes());
    let record = [phi, sigma, 50u64.to_le_bytes()].concat();
    world + body[world..].windows(24).position(|w| w == record).expect("the local processes")
}

/// The world keeps one φ and σ per sensor type for its node-local AR(1)
/// processes, and the image carries them once per type, beside the
/// regional process. A φ or σ that differs from its type's is a typed
/// error at restore, not processes silently stepped under their type's
/// parameters.
#[test]
fn restore_rejects_a_local_process_off_its_types_parameters() {
    let (body, _) = body_at(25);
    let params = local_params_at(&body, &dirq::data::world::SensorTypeConfig::temperature());
    Engine::new(variant_config(17, 0, 60)).restore(&body).expect("the unpatched body restores");
    // (0 for φ or 8 for σ, a value Ar1's own range check accepts)
    for (field, bad) in [(0, 0.5), (8, 0.03), (0, 0.0), (8, 0.0)] {
        let at = params + field;
        let mut patched = body.clone();
        patched[at..at + 8].copy_from_slice(&f64::to_le_bytes(bad));
        assert_rejected(&patched, "local AR(1) parameters differ from the type's");
    }
}

/// Every image the MAC writes has each present neighbour entry heard no
/// later than the image's frame. A later `last_heard_frame` is a typed
/// error at restore: that entry could never go stale, so a neighbour that
/// stops transmitting would never be reported dead.
#[test]
fn restore_rejects_an_arena_entry_heard_in_the_future() {
    let (body, _) = body_at(30);
    // "LMAC", then the MAC frame (u64).
    let at = lmac_at(&body) + 4;
    let frame = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    // "ARNA" and the entry count (u64), then per entry a presence byte;
    // a present entry goes on with its slot (presence byte, u16 when
    // present), occupancy (u128), gateway distance (u16) and
    // `last_heard_frame` (u64).
    let arena = tag_offsets(&body, b"ARNA");
    assert_eq!(arena.len(), 1);
    let entries = u64::from_le_bytes(body[arena[0] + 4..arena[0] + 12].try_into().unwrap());
    let mut at = arena[0] + 12;
    let mut heard = Vec::new();
    for _ in 0..entries {
        at += 1;
        if body[at - 1] == 1 {
            at += 1 + 2 * usize::from(body[at]) + 16 + 2;
            heard.push(at);
            at += 8;
        }
    }
    assert!(heard.len() > 100, "a converged MAC knows its neighbours");
    Engine::new(variant_config(17, 0, 60)).restore(&body).expect("the unpatched body restores");
    for at in [heard[0], heard[heard.len() - 1]] {
        let patch = |last_heard: u64| {
            let mut patched = body.clone();
            patched[at..at + 8].copy_from_slice(&last_heard.to_le_bytes());
            patched
        };
        Engine::new(variant_config(17, 0, 60))
            .restore(&patch(frame))
            .expect("an entry heard in the image's frame restores");
        for bad in [frame + 1, u64::MAX] {
            assert_rejected(&patch(bad), "neighbour heard after the image's frame");
        }
    }
}

/// Bytes of a predictive sampler record before its first sample: the
/// absence bytes of its last reading and of its drift and volatility
/// estimates, then its skip, taken and skipped counts.
const SAMPLER: usize = 3 + 24;

/// A `variant` body snapshotted at `epoch`, and restoring a patched copy
/// of it fails with the typed error `what`.
fn variant_body(variant: u8, epoch: u64) -> (Vec<u8>, impl Fn(&[u8], &str)) {
    let cfg = variant_config(17, variant, 60);
    let mut donor = Engine::new(cfg.clone());
    for _ in 0..epoch {
        donor.step_epoch();
    }
    let body = donor.snapshot();
    Engine::new(cfg.clone()).restore(&body).expect("the unpatched body restores");
    let rejected = move |patched: &[u8], what: &str| match Engine::new(cfg.clone()).restore(patched)
    {
        Err(SnapError::Malformed { what: got, .. }) => assert_eq!(got, what),
        other => panic!("expected the typed error {what:?}, got {other:?}"),
    };
    (body, rejected)
}

/// Between steps the MAC stands at slot 0 of frame `epoch`. An image whose
/// MAC frame is off the engine's epoch is a typed error at restore, not a
/// run whose frames and epochs drift apart.
#[test]
fn restore_rejects_a_mac_frame_off_the_engine_epoch() {
    let (body, rejected) = variant_body(0, 30);
    // The engine's epoch, "LMAC", then the MAC frame (u64).
    let frame = lmac_at(&body) + 4;
    assert_eq!(body[frame..frame + 8], body[frame - 12..frame - 4], "the frame is the epoch");
    for epoch in [29u64, 31] {
        let mut patched = body.clone();
        patched[frame..frame + 8].copy_from_slice(&epoch.to_le_bytes());
        rejected(&patched, "section clocks disagree");
    }
}

/// Between steps the world stands one epoch behind the engine (at 0
/// before the second step). An image whose world epoch is off is a typed
/// error at restore, not readings drawn from the wrong counter window and
/// diurnal phase.
#[test]
fn restore_rejects_a_world_epoch_off_the_engine_epoch() {
    let (body, rejected) = variant_body(0, 30);
    // "WRLD", then the world's epoch (u64).
    let at = tag_offsets(&body, b"WRLD")[0] + 4;
    assert_eq!(body[at..at + 8], 29u64.to_le_bytes());
    for epoch in [28u64, 30] {
        let mut patched = body.clone();
        patched[at..at + 8].copy_from_slice(&epoch.to_le_bytes());
        rejected(&patched, "section clocks disagree");
    }
}

/// A flooding node's duplicate-query memory holds its cap of 64 ids at
/// restore, as a DirQ node's does: a longer list would never shrink back
/// and would grow by one id per query.
#[test]
fn restore_rejects_an_overlong_flooding_seen_list() {
    // Before the first query (epoch 20) every seen list is empty: a zero
    // count. Node 49's record, the last before "QGEN", ends with its list,
    // its empty location table (10 bytes) and its Update count.
    let (body, rejected) = variant_body(2, 10);
    let ids_end = tag_offsets(&body, b"QGEN")[0] - 8 - 10;
    let count_at = ids_end - 8;
    assert_eq!(body[count_at..ids_end], 0u64.to_le_bytes(), "node 49's empty list");
    let with_ids = |ids: u64| {
        let mut patched = body[..ids_end].to_vec();
        patched[count_at..].copy_from_slice(&ids.to_le_bytes());
        patched.extend((0..ids).flat_map(|k| (1_000 + k).to_le_bytes()));
        patched.extend_from_slice(&body[ids_end..]);
        patched
    };
    let cfg = variant_config(17, 2, 60);
    Engine::new(cfg).restore(&with_ids(64)).expect("a full list restores");
    rejected(&with_ids(65), "seen-query list too long");
}

/// A DirQ engine never queues a flooding query. A queued one is a typed
/// error at restore: delivered, it would index the flooding seen lists
/// DirQ does not build.
#[test]
fn restore_rejects_a_queued_flood_query_under_dirq() {
    // The query injected at epoch 20 is still queued at some nodes when
    // epoch 20 ends; a flooding query is a directed one's bytes under
    // discriminant 7.
    let (body, rejected) = variant_body(0, 21);
    let payloads = queued_payloads(&body);
    let at = *payloads.iter().find(|&&at| body[at] == 2).expect("a queued directed query");
    let mut patched = body.clone();
    patched[at] = 7;
    rejected(&patched, "flooding query queued under DirQ");
}

/// Offset of the value of `sensor`'s regional AR(1) process in a
/// `variant_config` body: its φ and σ, then its value.
fn regional_value_at(body: &[u8], sensor: &dirq::data::world::SensorTypeConfig) -> usize {
    let world = tag_offsets(body, b"WRLD")[0];
    let params = [sensor.regional_phi.to_le_bytes(), sensor.regional_sigma.to_le_bytes()].concat();
    world + body[world..].windows(16).position(|w| w == params).expect("the regional process") + 16
}

/// The world steps every regional and local AR(1) value. One that is not
/// finite is a typed error at restore, not a world whose next readings,
/// and so its nodes' own tuples, are not finite.
#[test]
fn restore_rejects_a_non_finite_ar1_value() {
    let (body, _) = body_at(25);
    let t = dirq::data::world::SensorTypeConfig::temperature();
    let regional = regional_value_at(&body, &t);
    // The temperature type's local values follow its local φ and σ and
    // the cell count (50).
    let local = local_params_at(&body, &t) + 24;
    for at in [regional, local, local + 8 * 49] {
        assert!(f64::from_le_bytes(body[at..at + 8].try_into().unwrap()).is_finite());
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut patched = body.clone();
            patched[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            assert_rejected(&patched, "AR(1) value not finite");
        }
    }
}

/// The world keeps one regional process per sensor type, built from the
/// type's φ and σ. A regional process whose φ or σ differs is a typed
/// error at restore, not a drift stepped under parameters the run never
/// set (σ = +∞ makes the next value infinite).
#[test]
fn restore_rejects_a_regional_process_off_its_types_parameters() {
    let (body, _) = body_at(25);
    let t = dirq::data::world::SensorTypeConfig::temperature();
    let value = regional_value_at(&body, &t);
    Engine::new(variant_config(17, 0, 60)).restore(&body).expect("the unpatched body restores");
    // (0 for φ or 8 for σ, a value Ar1's own range check accepts)
    for (field, bad) in [(0, 0.5), (8, 0.03), (8, f64::INFINITY)] {
        let at = value - 16 + field;
        let mut patched = body.clone();
        patched[at..at + 8].copy_from_slice(&f64::to_le_bytes(bad));
        assert_rejected(&patched, "regional AR(1) parameters differ from the type's");
    }
}

/// A reading is finite, or NaN for a node that read nothing (a carrier
/// added since the last advance reads NaN until the next). An infinite
/// reading is a typed error at restore, not a sample that escapes into a
/// node's own tuple.
#[test]
fn restore_rejects_an_infinite_reading() {
    let (body, _) = body_at(25);
    // The readings close the world section: a row count (4), then per
    // type a node count (50) and one f64 per node, right before the
    // engine's node count and the first node record.
    let rows_end = tag_offsets(&body, b"NODE")[0] - 8;
    let rows = rows_end - 4 * (8 + 8 * 50);
    assert_eq!(body[rows - 8..rows], 4u64.to_le_bytes(), "four reading rows");
    assert_eq!(body[rows..rows + 8], 50u64.to_le_bytes());
    let reading = |k: usize| rows + 8 + 8 * k;
    let at = (1..50)
        .map(reading)
        .find(|&at| f64::from_le_bytes(body[at..at + 8].try_into().unwrap()).is_finite())
        .expect("a node reading temperature");
    let patch = |v: f64| {
        let mut patched = body.clone();
        patched[at..at + 8].copy_from_slice(&v.to_le_bytes());
        patched
    };
    let mut engine = Engine::new(variant_config(17, 0, 60));
    engine.restore(&patch(f64::NAN)).expect("a NaN reading restores");
    engine.step_epoch();
    for bad in [f64::INFINITY, f64::NEG_INFINITY] {
        assert_rejected(&patch(bad), "infinite reading");
    }
}

/// Under a fixed-δ policy every node's δ is the policy's, and the image
/// carries it once, in the config record. Another δ there is a typed error
/// at restore, not a run whose tuples, and so its update traffic, follow a
/// δ it never set.
#[test]
fn restore_rejects_a_fixed_delta_off_its_policy() {
    let (body, rejected) = variant_body(0, 0);
    // "ENGN", the flooding flag, then the fixed δ's presence byte and δ.
    assert_eq!(body[5..14], [&[1u8][..], &5.0f64.to_le_bytes()].concat()[..]);
    let mut patched = body.clone();
    patched[6..14].copy_from_slice(&7.3f64.to_le_bytes());
    rejected(&patched, "fixed delta off its policy");
}

/// Offset of the ATC controller's record in node `i`'s record of an ATC
/// body snapshotted before the first adjustment: it follows the node's δ
/// (still 5.0), right after the table array.
fn atc_record_at(body: &[u8], i: usize) -> usize {
    let delta = after_tables(body, i);
    assert_eq!(body[delta..delta + 8], 5.0f64.to_le_bytes(), "node {i}'s δ");
    delta + 8
}

/// An ATC controller's budget is one `on_budget` accepts, and its window
/// count is below `ADJUST_PERIOD`, where a step resets it. A budget that
/// is negative, NaN or infinite, or a window at or past the period, is a
/// typed error at restore, not a δ that turns NaN at the next adjustment.
#[test]
fn restore_rejects_an_atc_budget_or_window_no_step_writes() {
    // At epoch 20 node 1 holds the first EHr's budget and has counted 20
    // epochs of its first window, with no rate observed yet.
    let (body, rejected) = variant_body(1, 20);
    let atc = atc_record_at(&body, 1);
    let (window, rate_flag) = (atc + 8, atc + 16);
    assert_eq!(body[window..window + 8], 20u64.to_le_bytes(), "20 epochs into the window");
    assert_eq!(body[rate_flag], 0, "no rate observed yet");
    let budget = rate_flag + 2;
    assert_eq!(body[budget - 1], 1, "node 1 holds a budget");
    for bad in [f64::INFINITY, f64::NAN, -0.5] {
        let mut patched = body.clone();
        patched[budget..budget + 8].copy_from_slice(&bad.to_le_bytes());
        rejected(&patched, "ATC budget negative or not finite");
    }
    let with_window = |epochs: u64| {
        let mut patched = body.clone();
        patched[window..window + 8].copy_from_slice(&epochs.to_le_bytes());
        patched
    };
    let cfg = variant_config(17, 1, 60);
    Engine::new(cfg).restore(&with_window(ADJUST_PERIOD - 1)).expect("a full window restores");
    for epochs in [ADJUST_PERIOD, ADJUST_PERIOD + 1] {
        rejected(&with_window(epochs), "ATC window at or past its period");
    }
}

/// Offsets of the payloads queued in the MAC of a `variant_config` body
/// without spatial queries. The two 50-node ledgers ("ELDG", then a count
/// and 50 tallies, twice each) precede the node count; per node follow its
/// liveness, slot (a presence byte and a u16), listen countdown (u32) and
/// queue, each entry a destination (broadcast, or a multicast's count and
/// ids) and a payload.
fn queued_payloads(body: &[u8]) -> Vec<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap()) as usize;
    let mut at = tag_offsets(body, b"ELDG")[1] + 4 + 2 * (8 + 8 * 50);
    assert_eq!(u64_at(at), 50, "the MAC's node count");
    at += 8;
    let mut payloads = Vec::new();
    for _ in 0..50 {
        at += 1;
        at += if body[at] == 1 { 3 } else { 1 };
        let queue = u64_at(at + 4);
        at += 12;
        for _ in 0..queue {
            at += if body[at] == 1 { 9 + 4 * u64_at(at + 1) } else { 1 };
            payloads.push(at);
            // Update (type, min, max), Retract (type), a value query (id,
            // type, bounds, no region), EHr (two f64), Attach, Detach.
            at += match body[at] {
                0 => 18,
                1 => 2,
                2 | 7 if body[at + 26] == 0 => 27,
                3 => 17,
                4 | 5 => 1,
                other => panic!("unexpected payload {other} at byte {at}"),
            };
        }
    }
    payloads
}

/// A queued Update or Retract names a type of the catalog. Delivered, one
/// outside it would grow range tables for a type no node carries, so
/// either is a typed error at restore.
#[test]
fn restore_rejects_a_queued_update_type_outside_the_catalog() {
    let cfg = variant_config(17, 0, 60);
    let mut donor = Engine::new(cfg.clone());
    for _ in 0..25 {
        donor.step_epoch();
    }
    // A leaf that loses its only source of a type queues a Retract.
    let t = SensorType(0);
    let leaf = (1..50)
        .map(NodeId::from_index)
        .find(|&v| {
            let node = donor.node(v);
            node.children().is_empty()
                && node.parent().is_some()
                && donor.table(v, t).is_some_and(|table| table.own().is_some())
        })
        .expect("an attached leaf sensing type 0");
    donor.remove_sensor(leaf, t);
    let body = donor.snapshot();
    Engine::new(cfg.clone()).restore(&body).expect("the unpatched body restores");
    let payloads = queued_payloads(&body);
    for (kind, name) in [(0u8, "Update"), (1, "Retract")] {
        let at = *payloads.iter().find(|&&at| body[at] == kind).expect(name);
        assert!(body[at + 1] < 4, "a queued {name} of a catalog type");
        let mut patched = body.clone();
        patched[at + 1] = 9;
        match Engine::new(cfg.clone()).restore(&patched) {
            Err(SnapError::Malformed { what, .. }) => {
                assert_eq!(what, "update type outside the catalog")
            }
            other => panic!("a queued {name} of type 9 restored: {other:?}"),
        }
    }
}

/// A predictive sampler skips at most `MAX_SKIP` epochs in a row. A larger
/// skip count is a typed error at restore: at `u64::MAX` the sensor would
/// never be read again.
#[test]
fn restore_rejects_a_sampler_skip_above_max_skip() {
    let (body, rejected) = variant_body(4, 0);
    // The last sampler record closes with its skip, taken and skipped
    // counts, 24 bytes before the body's end (see
    // `restored_counters_at_the_bound_sum_without_overflow`).
    let at = body.len() - 24 - 24;
    assert_eq!(body[at..at + 8], 0u64.to_le_bytes(), "nothing skipped yet");
    let with_skip = |skip: u64| {
        let mut patched = body.clone();
        patched[at..at + 8].copy_from_slice(&skip.to_le_bytes());
        patched
    };
    let cfg = variant_config(17, 4, 60);
    Engine::new(cfg).restore(&with_skip(MAX_SKIP)).expect("a full skip restores");
    for skip in [MAX_SKIP + 1, u64::MAX] {
        rejected(&with_skip(skip), "sampler skip above max_skip");
    }
}

/// `body` with the absence byte at `at` replaced by a presence byte and
/// `value`: an `Option<f64>` that was `None`, now `Some(value)`.
fn with_present(body: &[u8], at: usize, value: f64) -> Vec<u8> {
    assert_eq!(body[at], 0, "an absent value at byte {at}");
    let mut patched = body[..at].to_vec();
    patched.push(1);
    patched.extend_from_slice(&value.to_le_bytes());
    patched.extend_from_slice(&body[at + 1..]);
    patched
}

/// Every EWMA a run keeps observes finite values only, so its estimate
/// stays finite, and one that is not finite would never leave it. An
/// estimate that is NaN or infinite is a typed error at restore, for each
/// of the five users: the engine's cost estimate, ATC's rate, the
/// predictive sampler's drift and volatility, and a node's sensing
/// variability. A finite one restores.
#[test]
fn restore_rejects_an_ewma_estimate_that_is_not_finite() {
    type At = fn(&[u8]) -> usize;
    // Before the first step every estimate is absent, and an EWMA record
    // is its estimate's absence byte alone.
    let cases: [(&str, u8, At); 5] = [
        // The body closes with the cost estimate, the budget multiplier
        // and the update count (f64), 50 absent detachment epochs, u_max
        // (f64), the empty δ trace and the injection count (u64).
        ("root cost estimate", 0, |b| b.len() - 8 - 8 - 8 - 50 - 8 - 8 - 1),
        // Node 1's δ, its ATC record's two window counts, then its rate.
        ("ATC rate", 1, |b| atc_record_at(b, 1) + 16),
        // The last sampler record: its last reading, drift and volatility.
        ("sampler drift", 4, |b| b.len() - 24 - SAMPLER + 1),
        ("sampler volatility", 4, |b| b.len() - 24 - SAMPLER + 2),
        // A fixed-δ node's table array, then type 0's variability record.
        ("sensing variability", 0, |b| after_tables(b, 1)),
    ];
    for (ewma, variant, at) in cases {
        let (body, rejected) = variant_body(variant, 0);
        let at = at(&body);
        let estimate = |value: f64| with_present(&body, at, value);
        let cfg = variant_config(17, variant, 60);
        Engine::new(cfg).restore(&estimate(2.5)).unwrap_or_else(|e| panic!("{ewma}: {e:?}"));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            rejected(&estimate(bad), "EWMA estimate not finite");
        }
    }
}

/// A predictive sampler's last value is a reading the sampling pass took,
/// which is finite (a NaN reading is skipped before the sampler sees it).
/// One that is not finite is a typed error at restore, not a sampler
/// whose drift and volatility read NaN from its next sample on, so that
/// it skips no more than its restored count.
#[test]
fn restore_rejects_a_sampler_last_value_that_is_not_finite() {
    let (body, rejected) = variant_body(4, 0);
    // The last sampler record opens with its last value's absence byte.
    let at = body.len() - 24 - SAMPLER;
    let cfg = variant_config(17, 4, 60);
    Engine::new(cfg).restore(&with_present(&body, at, 12.5)).expect("a reading restores");
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        rejected(&with_present(&body, at, bad), "sampler last value not finite");
    }
}

/// A node's last sensing reading is one the world gave it, which is
/// finite, or NaN before its first. An infinite one is a typed error at
/// restore, not a variability that turns NaN at the next reading.
#[test]
fn restore_rejects_a_sensing_last_reading_that_is_infinite() {
    let (body, rejected) = variant_body(0, 0);
    // After node 1's table array: the four absent variability records,
    // then type 0's last reading (NaN before the first step).
    let at = after_tables(&body, 1) + 4;
    assert_eq!(body[at - 4..at], [0; 4], "four absent variability records");
    assert!(f64::from_le_bytes(body[at..at + 8].try_into().unwrap()).is_nan());
    let patch = |v: f64| {
        let mut patched = body.clone();
        patched[at..at + 8].copy_from_slice(&v.to_le_bytes());
        patched
    };
    Engine::new(variant_config(17, 0, 60)).restore(&patch(12.5)).expect("a reading restores");
    for bad in [f64::INFINITY, f64::NEG_INFINITY] {
        rejected(&patch(bad), "sensing last reading infinite");
    }
}

/// Where one present range table sits in a `variant_config` body: its own
/// tuple's presence byte, its child-tuple count (the ids, the mins and the
/// maxes follow as three counted sequences) and that count, and its
/// transmitted tuple's presence byte. A present tuple's two bounds follow
/// its presence byte.
struct TableAt {
    own: usize,
    children: usize,
    count: usize,
    tx: usize,
}

/// The present range tables of the node record whose "NODE" tag is at
/// `node`, and the offset right after its table array. A node record holds
/// "NODE", the parent flag and id, the child ids (a count, then u32s) and,
/// per catalog type (four), a presence byte and a present table. Under
/// ATC the node's δ follows the table array, then the ATC record; then one
/// variability record per type.
fn walk_tables(body: &[u8], node: usize) -> (Vec<TableAt>, usize) {
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap()) as usize;
    let mut tables = Vec::new();
    let mut at = node + 4;
    at += if body[at] == 1 { 5 } else { 1 };
    at += 8 + 4 * u64_at(at);
    for _ in 0..4 {
        at += 1;
        if body[at - 1] == 0 {
            continue;
        }
        let own = at;
        at += if body[at] == 1 { 17 } else { 1 };
        let (children, count) = (at, u64_at(at));
        at += 3 * 8 + 20 * count;
        tables.push(TableAt { own, children, count, tx: at });
        at += if body[at] == 1 { 17 } else { 1 };
    }
    (tables, at)
}

/// Every present range table of every node in `body`.
fn table_records(body: &[u8]) -> Vec<TableAt> {
    let nodes = tag_offsets(body, b"NODE");
    assert_eq!(nodes.len(), 50, "one NODE record per node");
    nodes.into_iter().flat_map(|node| walk_tables(body, node).0).collect()
}

/// Offset right after node `i`'s table array in `body`: its δ under ATC,
/// else its first variability record.
fn after_tables(body: &[u8], i: usize) -> usize {
    walk_tables(body, tag_offsets(body, b"NODE")[i]).1
}

/// Copies of `body` whose tuple, with bounds at `min` and `max`, holds each
/// pair no run writes: a NaN bound, an infinite one, and `min > max`.
fn bad_intervals(body: &[u8], min: usize, max: usize) -> Vec<Vec<u8>> {
    let f64_at = |at: usize| f64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    let (lo, hi) = (f64_at(min), f64_at(max));
    assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "a finite interval to start from");
    [(f64::NAN, hi), (lo, f64::NAN), (lo, f64::INFINITY), (f64::NEG_INFINITY, hi), (hi + 1.0, hi)]
        .into_iter()
        .map(|(a, b)| {
            let mut patched = body.to_vec();
            patched[min..min + 8].copy_from_slice(&a.to_le_bytes());
            patched[max..max + 8].copy_from_slice(&b.to_le_bytes());
            patched
        })
        .collect()
}

/// A present own tuple is `[R − δ, R + δ]` around a reading. One with a
/// NaN or infinite bound, or with `min > max`, is a typed error at restore,
/// not an escape window that holds no reading and an aggregate that drops
/// the bound.
#[test]
fn restore_rejects_an_own_tuple_that_is_not_a_finite_interval() {
    let (body, rejected) = variant_body(0, 25);
    let own = table_records(&body).iter().map(|t| t.own).find(|&at| body[at] == 1);
    let own = own.expect("a table with an own tuple");
    for patched in bad_intervals(&body, own + 1, own + 9) {
        rejected(&patched, "range tuple not a finite interval");
    }
}

/// A child tuple is an aggregate the child advertised. One with a NaN or
/// infinite bound, or with `min > max`, is a typed error at restore, not a
/// child that drops out of its parent's aggregate and is never routed a
/// query.
#[test]
fn restore_rejects_a_child_tuple_that_is_not_a_finite_interval() {
    let (body, rejected) = variant_body(0, 25);
    let tables = table_records(&body);
    let table = tables.iter().find(|t| t.count > 1).expect("a table with two child tuples");
    // The second child's bounds, in the mins and in the maxes.
    let mins = table.children + 8 + 4 * table.count + 8;
    let maxs = mins + 8 * table.count + 8;
    for patched in bad_intervals(&body, mins + 8, maxs + 8) {
        rejected(&patched, "range tuple not a finite interval");
    }
}

/// The last transmitted tuple is an aggregate of tuples a run holds. One
/// with a NaN or infinite bound, or with `min > max`, is a typed error at
/// restore, not a table whose next Update test compares against it.
#[test]
fn restore_rejects_a_transmitted_tuple_that_is_not_a_finite_interval() {
    let (body, rejected) = variant_body(0, 25);
    let tx = table_records(&body)[0].tx;
    assert_eq!(body[tx], 1, "a present table carries its transmitted tuple");
    for patched in bad_intervals(&body, tx + 1, tx + 9) {
        rejected(&patched, "range tuple not a finite interval");
    }
}

/// A table exists from its first advertised aggregate until its Retract,
/// so a present table always carries its last transmitted tuple. One
/// without it is a typed error at restore, not a table that exists
/// without ever having been advertised.
#[test]
fn restore_rejects_a_table_without_a_transmitted_tuple() {
    let (body, rejected) = variant_body(0, 25);
    let tables = table_records(&body);
    assert!(tables.iter().all(|t| body[t.tx] == 1), "every table carries its transmitted tuple");
    let tx = tables[0].tx;
    let mut patched = body[..tx].to_vec();
    patched.push(0);
    patched.extend_from_slice(&body[tx + 17..]);
    rejected(&patched, "range table without a transmitted tuple");
}

/// A node holds an own tuple only of a type it carries: removing a sensor
/// drops the tuple with it, and a born node starts with none. An own tuple
/// of a type the image's assignment section does not give the node is a
/// typed error at restore, not a node that keeps the tuple in the
/// aggregate it advertises and is delivered that type's overlapping
/// queries as a source.
#[test]
fn restore_rejects_an_own_tuple_of_a_type_the_node_does_not_carry() {
    let mut donor = Engine::new(variant_config(17, 0, 60));
    for _ in 0..10 {
        donor.step_epoch();
    }
    let t = SensorType(0);
    let v = (1..50)
        .map(NodeId::from_index)
        .find(|&v| donor.table(v, t).is_some_and(|table| table.own().is_some()))
        .expect("a node with an own tuple of type 0");
    let body = donor.snapshot();
    // "ASGN", the node count, then per node one byte per catalog type.
    let flag = tag_offsets(&body, b"ASGN")[0] + 12 + 4 * v.index();
    assert_eq!(body[flag], 1, "node {v:?} carries type 0");
    let mut patched = body.clone();
    patched[flag] = 0;
    assert_rejected(&patched, "own tuple of a type the node does not carry");
}

/// Offsets of the root control loop in a `variant_config` body with one
/// δ trace point: the budget multiplier, the update count at the last EHr
/// (two f64s before the 50 detachment epochs, all absent while every node
/// is attached) and Umax (f64), which precedes the δ trace (a count and
/// one (u64, f64) pair) and the injection count (u64).
fn control_loop_at(body: &[u8]) -> (usize, usize, usize) {
    let trace = body.len() - 8 - 16 - 8;
    assert_eq!(body[trace..trace + 8], 1u64.to_le_bytes(), "one δ trace point");
    let umax = trace - 8;
    assert!(body[umax - 50..umax].iter().all(|&b| b == 0), "no node detached");
    (umax - 50 - 16, umax - 50 - 8, umax)
}

/// A body of `paper_small` (fixed δ 5 %, seed 17) at epoch 45, past its
/// second EHr, whose f64 at `at` is `value`.
fn with_f64(body: &[u8], at: usize, value: f64) -> Vec<u8> {
    let mut patched = body.to_vec();
    patched[at..at + 8].copy_from_slice(&value.to_le_bytes());
    patched
}

/// The root's budget multiplier starts at 1.0 and every EHr clamps it to
/// [0.05, 10]. One outside that range, or NaN, is a typed error at
/// restore: a NaN survives the clamp, so every later EHr would hand out a
/// NaN budget, which ATC ignores, keeping its last budget for good.
#[test]
fn restore_rejects_a_budget_multiplier_outside_its_clamp() {
    let (body, rejected) = variant_body(0, 45);
    let (multiplier, _, _) = control_loop_at(&body);
    let cfg = variant_config(17, 0, 60);
    for edge in [0.05, 10.0] {
        Engine::new(cfg.clone()).restore(&with_f64(&body, multiplier, edge)).expect("the clamp");
    }
    for bad in [f64::NAN, 0.04, 10.5, -1.0, f64::INFINITY] {
        rejected(&with_f64(&body, multiplier, bad), "budget multiplier outside [0.05, 10]");
    }
}

/// The update count at the last EHr is the update series' total at that
/// EHr, and the total only grows. One that is negative, not finite or
/// above the restored series' total is a typed error at restore, not an
/// hour whose realised traffic reads negative or NaN.
#[test]
fn restore_rejects_an_update_count_off_the_update_series() {
    let cfg = variant_config(17, 0, 60);
    let mut donor = Engine::new(cfg.clone());
    for _ in 0..45 {
        donor.step_epoch();
    }
    let total = donor.metrics().updates_per_bucket.total();
    assert!(total > 0.0, "updates flowed");
    let body = donor.snapshot();
    let (_, updates, _) = control_loop_at(&body);
    for fine in [0.0, total] {
        Engine::new(cfg.clone()).restore(&with_f64(&body, updates, fine)).expect("a count");
    }
    for bad in [-1.0, f64::NAN, f64::INFINITY, total + 1.0] {
        match Engine::new(cfg.clone()).restore(&with_f64(&body, updates, bad)) {
            Err(SnapError::Malformed { what, .. }) => {
                assert_eq!(what, "update count at the last EHr out of range")
            }
            other => panic!("an update count of {bad} restored: {other:?}"),
        }
    }
}

/// Umax, the Fig. 6 reference line, is the analytic worst case: finite
/// and non-negative. One that is negative or not finite is a typed error
/// at restore.
#[test]
fn restore_rejects_a_umax_negative_or_not_finite() {
    let (body, rejected) = variant_body(0, 45);
    let (_, _, umax) = control_loop_at(&body);
    let cfg = variant_config(17, 0, 60);
    Engine::new(cfg).restore(&with_f64(&body, umax, 0.0)).expect("a zero Umax");
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        rejected(&with_f64(&body, umax, bad), "Umax negative or not finite");
    }
}

/// Offset of the metrics record's update-series sums (a count, then one
/// f64 per bucket) and of its overshoot accumulator (the sample count,
/// the mean, m2, the minimum and the maximum) in a `variant_config` body.
fn series_and_overshoot_at(body: &[u8]) -> (usize, usize) {
    // "METR" and the six tallies, then the sums and the counts.
    let sums = tag_offsets(body, b"METR")[0] + 4 + 48;
    let buckets = u64::from_le_bytes(body[sums..sums + 8].try_into().unwrap()) as usize;
    (sums, sums + 16 + 16 * buckets)
}

/// An update-series sum counts Update transmissions, so it is finite. One
/// that is not is a typed error at restore, not a total that reads NaN
/// for good, with the budget multiplier climbing to its cap every hour.
#[test]
fn restore_rejects_an_update_series_sum_that_is_not_finite() {
    let (body, rejected) = variant_body(0, 25);
    let (sums, _) = series_and_overshoot_at(&body);
    let first = sums + 8;
    assert!(f64::from_le_bytes(body[first..first + 8].try_into().unwrap()) > 0.0);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        rejected(&with_f64(&body, first, bad), "series sum not finite");
    }
}

/// The overshoot accumulator holds only what observing finite overshoots
/// leaves: the empty state, or a finite mean, minimum and maximum in order
/// and a finite, non-negative m2. Anything else is a typed error at
/// restore, not a NaN mean overshoot in every report.
#[test]
fn restore_rejects_an_overshoot_accumulator_no_observation_leaves() {
    let (empty, rejected) = variant_body(0, 0);
    let (_, acc) = series_and_overshoot_at(&empty);
    assert_eq!(empty[acc..acc + 8], 0u64.to_le_bytes(), "no sample yet");
    for (field, bad) in [(8, 1.0), (16, 2.0), (24, 0.0), (32, f64::NAN)] {
        rejected(&with_f64(&empty, acc + field, bad), "empty accumulator off the empty state");
    }
    let (body, rejected) = variant_body(0, 55);
    let (_, acc) = series_and_overshoot_at(&body);
    assert!(u64::from_le_bytes(body[acc..acc + 8].try_into().unwrap()) > 0, "an overshoot");
    let max = f64::from_le_bytes(body[acc + 32..acc + 40].try_into().unwrap());
    for (field, bad) in [(8, f64::NAN), (16, -1.0), (16, f64::INFINITY), (24, max + 1.0)] {
        rejected(&with_f64(&body, acc + field, bad), "accumulator statistics out of range");
    }
}

/// A finalised query's counts are of nodes: none is above the deployment's
/// size, and the nodes reached that should be are among those reached. An
/// outcome off either is a typed error at restore, not an overshoot or a
/// wrongly-reached count no run scores.
#[test]
fn restore_rejects_a_query_outcome_no_run_scores() {
    let (body, rejected) = variant_body(0, 55);
    // The outcomes follow the overshoot accumulator: a count, then per
    // outcome its id and epoch (u64), its type (u8) and five counts
    // (u64): should receive, true sources, received, received-should and
    // sources reached.
    let (_, acc) = series_and_overshoot_at(&body);
    let outcomes = acc + 40;
    assert!(u64::from_le_bytes(body[outcomes..outcomes + 8].try_into().unwrap()) > 0);
    let counts = outcomes + 8 + 17;
    let count_at = |k: usize| counts + 8 * k;
    let received = u64::from_le_bytes(body[count_at(2)..count_at(2) + 8].try_into().unwrap());
    assert!(received < 50, "a directed query misses a node");
    let patch = |k: usize, v: u64| {
        let mut patched = body.clone();
        patched[count_at(k)..count_at(k) + 8].copy_from_slice(&v.to_le_bytes());
        patched
    };
    for k in 0..5 {
        rejected(&patch(k, 51), "query outcome count above the deployment size");
    }
    rejected(&patch(3, received + 1), "query outcome received-should above received");
}

/// A step injects at its own epoch, below the image's, and an external
/// query between steps at the image's. An in-flight query injected after
/// the image's epoch is a typed error at restore, not a query whose
/// completion window closes late.
#[test]
fn restore_rejects_a_pending_query_injected_after_the_image() {
    let (body, rejected) = variant_body(0, 25);
    // The first in-flight query's inject epoch follows its id (u64), type
    // (u8), bounds (2 × f64) and region flag.
    let at = first_pending_id_at(&body) + 26;
    assert_eq!(body[at..at + 8], 20u64.to_le_bytes(), "the query of epoch 20 is in flight");
    let cfg = variant_config(17, 0, 60);
    Engine::new(cfg).restore(&with_u64(&body, at, 25)).expect("an inject epoch of the image's");
    for bad in [26, u64::MAX] {
        rejected(&with_u64(&body, at, bad), "in-flight query injected after the image's epoch");
    }
}

/// A step finalises only queries injected by its own epoch, below the
/// image's. A finalised query injected at or after the image's epoch is
/// a typed error at restore.
#[test]
fn restore_rejects_an_outcome_injected_at_or_after_the_image() {
    let (body, rejected) = variant_body(0, 55);
    // The first outcome's inject epoch follows the outcome count and its
    // id (u64).
    let (_, acc) = series_and_overshoot_at(&body);
    let at = acc + 40 + 8 + 8;
    assert!(u64::from_le_bytes(body[at..at + 8].try_into().unwrap()) < 55);
    let cfg = variant_config(17, 0, 60);
    Engine::new(cfg).restore(&with_u64(&body, at, 54)).expect("an epoch before the image's");
    for bad in [55, u64::MAX] {
        rejected(&with_u64(&body, at, bad), "query outcome injected at or after the image's epoch");
    }
}

/// The repair pass stamps a node's detachment with its step's epoch,
/// below the image's. A detachment at or after the image's epoch is a
/// typed error at restore, not a node that waits past the fallback
/// deadline or adopts a parent at once.
#[test]
fn restore_rejects_a_detachment_at_or_after_the_image() {
    let (body, rejected) = variant_body(0, 45);
    // Node 7's detachment, absent, becomes a presence byte and an epoch.
    let (_, _, umax) = control_loop_at(&body);
    let at = umax - 50 + 7;
    let detached = |since: u64| {
        let mut patched = body[..at].to_vec();
        patched.push(1);
        patched.extend_from_slice(&since.to_le_bytes());
        patched.extend_from_slice(&body[at + 1..]);
        patched
    };
    let cfg = variant_config(17, 0, 60);
    Engine::new(cfg).restore(&detached(44)).expect("a detachment before the image's epoch");
    for bad in [45, u64::MAX] {
        rejected(&detached(bad), "detachment at or after the image's epoch");
    }
}

/// The δ trace gains at most one point per step, stamped with the step's
/// epoch, and each value is a mean of δs, finite and non-negative. A trace
/// whose epochs do not ascend strictly below the image's, or with a value
/// off that range, is a typed error at restore.
#[test]
fn restore_rejects_a_delta_trace_no_step_writes() {
    let (body, rejected) = variant_body(0, 45);
    // The trace: a count, then (epoch u64, mean δ f64) pairs; the
    // injection count (u64) ends the body.
    let (_, _, umax) = control_loop_at(&body);
    let trace = umax + 8;
    let with_trace = |points: &[(u64, f64)]| {
        let mut patched = body[..trace].to_vec();
        patched.extend_from_slice(&(points.len() as u64).to_le_bytes());
        for &(epoch, delta) in points {
            patched.extend_from_slice(&epoch.to_le_bytes());
            patched.extend_from_slice(&delta.to_le_bytes());
        }
        patched.extend_from_slice(&body[body.len() - 8..]);
        patched
    };
    assert_eq!(with_trace(&[(0, 5.0)]), body, "one point, δ = 5 % at epoch 0");
    let cfg = variant_config(17, 0, 60);
    Engine::new(cfg).restore(&with_trace(&[(0, 5.0), (44, 0.0)])).expect("a trace a run writes");
    for bad in [&[(45, 5.0)][..], &[(u64::MAX, 5.0)], &[(0, 5.0), (0, 5.0)], &[(9, 5.0), (3, 5.0)]]
    {
        rejected(&with_trace(bad), "delta trace epochs not ascending below the image's epoch");
    }
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        rejected(&with_trace(&[(0, bad)]), "delta trace value negative or not finite");
    }
}

/// A copy of `body` whose u64 at `at` is `value`.
fn with_u64(body: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut patched = body.to_vec();
    patched[at..at + 8].copy_from_slice(&value.to_le_bytes());
    patched
}

/// The on-disk image format: magic, version, JSON header, byte-exact
/// body recovery, and typed rejection of foreign or future files.
#[test]
fn image_format_is_pinned() {
    // The wire constants are a compatibility promise; bumping them must
    // be a conscious act (update this test + the daemon docs together).
    assert_eq!(IMAGE_MAGIC, b"DIRQSNAP");
    assert_eq!(SNAP_FORMAT_VERSION, 2);

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

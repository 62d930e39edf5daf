//! One-pass golden re-record tool.
//!
//! Recomputes **every** pinned fingerprint in the workspace — the
//! engine-level and report-level pins of the [`dirq::goldens`] manifest
//! (the smoke golden among them), the full-budget registry's report
//! fingerprint, whose one copy is `BENCH_2.json`, and the serving goldens
//! of `BENCH_3.json` — and either:
//!
//! * **default (record)** — rewrites the manifest constants in place
//!   (`src/goldens.rs`), writes `BENCH_2.json` from a full matrix run
//!   with its large-preset throughput rows and history trail, and
//!   rewrites `BENCH_3.json` from the recipes it records, so an
//!   intentional behaviour break lands as one consistent commit; or
//! * **`--check`** — recomputes everything fresh, compares against the
//!   checked-in values (constants, the `BENCH_2.json` report fingerprint
//!   and throughput rows, and the `BENCH_3.json` rows) and exits non-zero
//!   on any mismatch. This is the CI staleness gate: a behaviour change
//!   cannot land with half-recorded goldens.
//!
//! Usage: `record_goldens [--check] [--out PATH]`

use std::path::Path;
use std::time::Instant;

use dirq::goldens::{self, GoldenPin};
use dirq::scenario::registry;
use dirq_bench::matrix::{self, THROUGHPUT_PRESETS};
use dirq_bench::repo_root;
use dirq_scenario::{run_matrix_report, Scheme, SweepConfig};
use dirq_sim::json::Json;
use dirq_sim::runner;
use dirq_sim::snap::SNAP_FORMAT_VERSION;
use dirqd::loadmodel::{histogram_counts, reference_epochs_histogram};

/// The serving goldens, at the workspace root.
const BENCH3_FILE: &str = "BENCH_3.json";

/// The schema [`refresh_bench3`] writes; bump it when the row fields
/// change.
const BENCH3_SCHEMA: &str = "dirqd-serving-goldens/4";

/// Rewrite `const NAME: u64 = 0x…;` in `file` to `value`. Returns whether
/// the stored value changed.
fn patch_const(file: &Path, name: &str, value: u64) -> bool {
    let text =
        std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
    let needle = format!("const {name}: u64 = ");
    let Some(at) = text.find(&needle) else {
        panic!("{}: no `{needle}` declaration found", file.display());
    };
    let vstart = at + needle.len();
    let vend = vstart + text[vstart..].find(';').expect("const terminator");
    let new_value = format!("{value:#018X}");
    if text[vstart..vend] == new_value {
        return false;
    }
    let patched = format!("{}{}{}", &text[..vstart], new_value, &text[vend..]);
    std::fs::write(file, patched).unwrap_or_else(|e| panic!("write {}: {e}", file.display()));
    true
}

/// The intra-run worker counts the throughput axis asks for.
const THROUGHPUT_WORKERS: [usize; 3] = [1, 2, 4];

/// The distinct worker counts `requested` resolve to on this host, as the
/// engine resolves them for a deployment of `nodes` nodes
/// ([`runner::shard_workers`]), ascending. A request past the host's
/// threads runs at a smaller count, so it is measured once, under that
/// count.
fn resolved_workers(requested: &[usize], nodes: usize) -> Vec<usize> {
    let mut counts: Vec<usize> =
        requested.iter().map(|&w| runner::shard_workers(w, nodes)).collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Run the full registry matrix, measure the large-preset throughput
/// axis, and write the scenario-matrix artifact to `out`, carrying its
/// history trail forward. Returns the report fingerprint, the registry's
/// pin.
///
/// The throughput axis runs each large preset at 1, 2 and 4 intra-run
/// workers, each row labelled with the count the engine resolves (see
/// [`resolved_workers`]); the run fingerprint must be identical across the
/// axis — worker counts may only change speed, and this asserts it.
fn record_bench2(out: &Path) -> u64 {
    let cfg = SweepConfig::default();
    let t0 = Instant::now();
    let report = run_matrix_report(&registry::registry(), &cfg);
    let wall = (t0.elapsed().as_secs_f64() * 100.0).round() / 100.0;
    let fingerprint = report.stable_fingerprint();

    print!("{}", report.summary_table().to_ascii());
    println!("comparisons (scheme / flooding, same scenario):");
    for c in &report.comparisons {
        println!("  {:<18} {:<22} {:>7.3}", c.scenario, c.metric, c.ratio);
    }
    println!(
        "report fingerprint: {fingerprint:#018X}  ({} rows, {wall:.1}s wall)",
        report.rows.len()
    );

    let mut doc = Json::object();
    doc.set("schema", Json::Str("dirq-scenario-matrix-v1".to_string()));
    doc.set("epoch_scale", Json::Num(cfg.epoch_scale));
    doc.set("wall_seconds", Json::Num(wall));
    doc.set("report", report.to_json());
    doc.set("tool", Json::Str("crates/bench/src/bin/record_goldens.rs".to_string()));
    // Per-epoch throughput of the largest presets, measured on the run
    // loop only (setup excluded) — the trajectory the ROADMAP perf work is
    // gated on, and the baseline of the CI perf floor.
    let mut throughput = Vec::new();
    for name in THROUGHPUT_PRESETS {
        let spec = registry::preset(name).expect("registry preset");
        let mut serial_fp = None;
        for threads in resolved_workers(&THROUGHPUT_WORKERS, spec.n_nodes) {
            // Best of two runs: the run loop is deterministic, so repeats
            // only differ by scheduling noise — keep the cleaner sample.
            let (eps, epochs, fp) = matrix::measure_throughput(&spec, threads, 2);
            assert_eq!(
                *serial_fp.get_or_insert(fp),
                fp,
                "{name}: {threads} workers changed the run fingerprint"
            );
            println!(
                "{name}: {eps:.0} epochs/s ({epochs} epochs, run loop only, {threads} threads)"
            );
            let mut o = Json::object();
            o.set("scenario", Json::Str(name.to_string()));
            o.set("threads", Json::Num(threads as f64));
            o.set("epochs", Json::Num(epochs as f64));
            o.set("epochs_per_sec", Json::Num(eps.round()));
            o.set("fingerprint", Json::Str(format!("{fp:#018X}")));
            throughput.push(o);
        }
    }
    doc.set("throughput", Json::Arr(throughput));
    // Carry the recorded trajectory forward: previous (wall, fingerprint,
    // rows) entries stay in the artifact as its scale history.
    let mut history: Vec<Json> = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("history").and_then(Json::as_array).map(<[Json]>::to_vec))
        .unwrap_or_default();
    let mut entry = Json::object();
    entry.set("wall_seconds", Json::Num(wall));
    entry.set("report_fingerprint", Json::Str(format!("{fingerprint:#018X}")));
    entry.set("rows", Json::Num(report.rows.len() as f64));
    history.push(entry);
    doc.set("history", Json::Arr(history));
    std::fs::write(out, doc.render_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());
    fingerprint
}

/// Compare the scenario-matrix artifact `file` (its text is `text`) with
/// `registry`, the fingerprint of a fresh full-registry sweep. Returns
/// one line per difference: a report fingerprint that is missing or off
/// `registry`, and each perf-floor preset without a one-worker throughput
/// row. Unparseable text is one difference.
fn bench2_diffs(file: &str, text: &str, registry: u64) -> Vec<String> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("{file}: unparseable: {e:?}")],
    };
    let recorded =
        doc.get("report").and_then(|r| r.get("report_fingerprint")).and_then(Json::as_str);
    let fresh = format!("{registry:#018X}");
    let status = if recorded == Some(fresh.as_str()) { "ok" } else { "DRIFTED" };
    println!("  {:<26} {fresh}  {status}", format!("{file}:report_fingerprint"));
    let mut diffs = Vec::new();
    if recorded != Some(fresh.as_str()) {
        let recorded = recorded.unwrap_or("no report fingerprint");
        diffs.push(format!("{file}: records {recorded}, fresh registry is {fresh}"));
    }
    for name in THROUGHPUT_PRESETS {
        if matrix::baseline_throughput(&doc, name, 1).is_none() {
            diffs.push(format!("{file}: no one-worker throughput row for {name}"));
        }
    }
    diffs
}

/// One `BENCH_3.json` row's recipe, as the file records it.
struct Bench3Recipe {
    name: String,
    preset: String,
    scale: f64,
    scheme: Scheme,
    seed: u64,
    warmup: u64,
}

impl Bench3Recipe {
    fn parse(row: &Json) -> Option<Self> {
        Some(Bench3Recipe {
            name: row.get("name")?.as_str()?.to_string(),
            preset: row.get("preset")?.as_str()?.to_string(),
            scale: row.get("scale")?.as_f64()?,
            scheme: Scheme::parse(row.get("scheme")?.as_str()?)?,
            // `as_u64` carries seeds losslessly.
            seed: row.get("seed")?.as_u64()?,
            warmup: row.get("warmup_epochs")?.as_u64()?,
        })
    }
}

/// Refresh `BENCH_3.json` (its text is `text`) from the recipe each row
/// records — preset, scale, scheme, seed and warm-up. Per row it
/// recomputes the engine's `state_fingerprint` and snapshot body length
/// (`body_bytes`, so a layout change shows its size) after the warm-up,
/// and the epochs-to-answer histogram of the barriered [`dirqd::loadmodel`]
/// sequence, replayed engine-level; the replay deploys the preset's
/// default seed, so a row must record that seed.
///
/// Returns the refreshed document and one line per difference from
/// `text`: a drifted gated field names its row, and anything else that
/// record mode would rewrite (schema, image format version, field set)
/// is one line. Unparseable text or an invalid recipe is an error.
fn refresh_bench3(text: &str) -> Result<(Json, Vec<String>), String> {
    let file = BENCH3_FILE;
    let doc = Json::parse(text).map_err(|e| format!("{file}: unparseable: {e:?}"))?;
    let rows = doc
        .get("deployments")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{file}: no deployments array"))?;
    let mut diffs = Vec::new();
    let mut fresh_rows = Vec::with_capacity(rows.len());
    for row in rows {
        let r = Bench3Recipe::parse(row)
            .ok_or_else(|| format!("{file}: a row has a missing or invalid recipe field"))?;
        let label = &r.name;
        let spec = dirq_scenario::preset(&r.preset)
            .ok_or_else(|| format!("{file}: {label}: unknown preset {:?}", r.preset))?;
        let spec = if r.scale == 1.0 { spec } else { spec.scaled(r.scale) };
        if r.seed != spec.seed {
            return Err(format!(
                "{file}: {label}: seed {} is not the preset default {}; the epochs-to-answer \
                 replay deploys the default",
                r.seed, spec.seed
            ));
        }
        let mut engine = dirq_core::Engine::new(spec.config(r.scheme, r.seed));
        for _ in 0..r.warmup {
            engine.step_epoch();
        }
        let fingerprint = Json::Str(format!("{:#018X}", engine.state_fingerprint()));
        let body_bytes = Json::from_u64(engine.snapshot().len() as u64);
        let hist = histogram_counts(&reference_epochs_histogram(&r.preset, r.scale, r.warmup));
        let hist = Json::Arr(
            hist.into_iter()
                .map(|(epochs, n)| Json::Arr(vec![Json::from_u64(epochs), Json::from_u64(n)]))
                .collect(),
        );
        let gated = [
            ("state_fingerprint", &fingerprint),
            ("body_bytes", &body_bytes),
            ("epochs_to_answer", &hist),
        ];
        for (field, value) in gated {
            let recorded = row.get(field);
            let status = if recorded == Some(value) { "ok" } else { "DRIFTED" };
            println!("  {:<26} {}  {status}", format!("BENCH_3:{label}:{field}"), value.render());
            if recorded != Some(value) {
                let recorded = recorded.map_or_else(|| "nothing".to_string(), Json::render);
                diffs.push(format!(
                    "{file}: {label}: {field} records {recorded}, fresh is {}",
                    value.render()
                ));
            }
        }
        let mut fresh = Json::object();
        fresh.set("name", Json::Str(r.name.clone()));
        fresh.set("preset", Json::Str(r.preset.clone()));
        fresh.set("scale", Json::Num(r.scale));
        fresh.set("scheme", Json::Str(r.scheme.label()));
        fresh.set("seed", Json::from_u64(r.seed));
        fresh.set("warmup_epochs", Json::from_u64(r.warmup));
        fresh.set("state_fingerprint", fingerprint);
        fresh.set("body_bytes", body_bytes);
        fresh.set("epochs_to_answer", hist);
        fresh_rows.push(fresh);
    }
    let mut fresh = Json::object();
    fresh.set("schema", Json::Str(BENCH3_SCHEMA.to_string()));
    fresh.set("image_format_version", Json::from_u64(u64::from(SNAP_FORMAT_VERSION)));
    fresh.set("deployments", Json::Arr(fresh_rows));
    if diffs.is_empty() && fresh.render_pretty() != text {
        diffs.push(format!(
            "{file}: the schema, image format version or field set differ from a fresh record"
        ));
    }
    Ok((fresh, diffs))
}

fn main() {
    let mut check = false;
    let mut out = String::from("BENCH_2.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--help" | "-h" => {
                eprintln!("usage: record_goldens [--check] [--out PATH]");
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let root = repo_root();
    let pins = goldens::pins();

    // Recompute every manifest pin from scratch. Runs are deterministic
    // and independent; print progress as they land (the full pass is a
    // couple of minutes of release-mode simulation).
    println!("recomputing {} manifest pins + the full registry…", pins.len());
    let mut mismatches: Vec<String> = Vec::new();
    let mut fresh: Vec<(&GoldenPin, u64)> = Vec::new();
    for pin in &pins {
        let value = (pin.compute)();
        let status = if value == pin.recorded { "ok" } else { "DRIFTED" };
        println!("  {:<26} {:#018X}  {status}", pin.name, value);
        if value != pin.recorded {
            mismatches.push(format!(
                "{}: recorded {:#018X}, fresh {:#018X}",
                pin.name, pin.recorded, value
            ));
        }
        fresh.push((pin, value));
    }

    if check {
        // Full-budget registry sweep, compared against the checked-in
        // artifact (no writes in check mode).
        let registry_fp =
            run_matrix_report(&registry::registry(), &SweepConfig::default()).stable_fingerprint();
        match std::fs::read_to_string(root.join(&out)) {
            Ok(text) => mismatches.extend(bench2_diffs(&out, &text, registry_fp)),
            Err(e) => mismatches.push(format!("{out}: {e}")),
        }
        match std::fs::read_to_string(root.join(BENCH3_FILE)) {
            Ok(text) => match refresh_bench3(&text) {
                Ok((_, diffs)) => mismatches.extend(diffs),
                Err(e) => mismatches.push(e),
            },
            Err(e) => mismatches.push(format!("{BENCH3_FILE}: {e}")),
        }
        if mismatches.is_empty() {
            println!("all goldens match a fresh record");
            return;
        }
        eprintln!("STALE GOLDENS ({}):", mismatches.len());
        for m in &mismatches {
            eprintln!("  {m}");
        }
        eprintln!("re-record with: cargo run --release -p dirq-bench --bin record_goldens");
        std::process::exit(1);
    }

    // Record mode: patch the manifest constants, then regenerate the
    // artifact from the same behaviour.
    let mut patched = 0usize;
    for (pin, value) in &fresh {
        if patch_const(&root.join(goldens::GOLDENS_FILE), pin.name, *value) {
            println!("  patched {} in {}", pin.name, goldens::GOLDENS_FILE);
            patched += 1;
        }
    }
    let registry_fp = record_bench2(&root.join(&out));
    let bench3 = root.join(BENCH3_FILE);
    let text = std::fs::read_to_string(&bench3)
        .unwrap_or_else(|e| panic!("read {}: {e}", bench3.display()));
    let (doc, diffs) = refresh_bench3(&text).unwrap_or_else(|e| panic!("{e}"));
    std::fs::write(&bench3, doc.render_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", bench3.display()));
    println!(
        "done: {patched} constant(s) rewritten, {out} regenerated \
         (fingerprint {registry_fp:#018X}), {BENCH3_FILE} rewritten ({} difference(s))",
        diffs.len()
    );
    if patched > 0 {
        println!("note: rebuild + rerun tests to verify the new pins compile and hold");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_rows_are_the_distinct_resolved_counts() {
        let host = runner::host_threads();
        let counts = resolved_workers(&THROUGHPUT_WORKERS, 2_000);
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?} not distinct");
        assert!(counts.iter().all(|&w| 1 <= w && w <= host), "{counts:?} past {host} threads");
        assert_eq!(counts.first(), Some(&1));
        assert_eq!(counts.last(), Some(&host.min(4)), "the largest request runs at its clamp");
        assert_eq!(resolved_workers(&THROUGHPUT_WORKERS, 100), [1], "small runs are serial");
    }

    /// The checked-in `BENCH_2.json` records the registry pin it was
    /// written with and a one-worker throughput row for each preset the
    /// perf floor reads. A flipped fingerprint digit is exactly one
    /// difference, named by the file; a copy without a report, or without
    /// the throughput rows, is a difference per missing fact, not a panic.
    #[test]
    fn bench2_carries_its_pin_and_the_perf_floor_rows() {
        let file = "BENCH_2.json";
        let text = std::fs::read_to_string(repo_root().join(file)).expect("read");
        let doc = Json::parse(&text).expect("parse");
        let fp = doc
            .get("report")
            .and_then(|r| r.get("report_fingerprint"))
            .and_then(Json::as_str)
            .expect("report fingerprint");
        let pin = u64::from_str_radix(&fp[2..], 16).expect("hex fingerprint");
        assert!(
            bench2_diffs(file, &text, pin).is_empty(),
            "{file} is not in the form it is checked in"
        );
        for name in THROUGHPUT_PRESETS {
            let row = matrix::baseline_throughput(&doc, name, 1);
            assert_eq!(row.map(|(threads, _)| threads), Some(1), "{name}: no one-worker row");
        }

        let flipped = if fp.ends_with('0') { '1' } else { '0' };
        let copy = text.replacen(fp, &format!("{}{flipped}", &fp[..fp.len() - 1]), 1);
        assert_ne!(copy, text);
        let diffs = bench2_diffs(file, &copy, pin);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains(file), "{:?} does not name {file}", diffs[0]);

        let no_report = text.replacen("\"report\":", "\"no_report\":", 1);
        let diffs = bench2_diffs(file, &no_report, pin);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("no report fingerprint"), "{:?}", diffs[0]);

        let no_rows = text.replacen("\"throughput\":", "\"no_throughput\":", 1);
        let diffs = bench2_diffs(file, &no_rows, pin);
        assert_eq!(diffs.len(), THROUGHPUT_PRESETS.len(), "{diffs:?}");
        for (diff, name) in diffs.iter().zip(THROUGHPUT_PRESETS) {
            assert!(diff.contains(name), "{diff:?} does not name {name}");
        }
        assert_eq!(bench2_diffs(file, "", pin).len(), 1, "unparseable text is one difference");
    }

    /// The checked-in `BENCH_3.json` is current and in the form record
    /// mode writes; a flipped fingerprint digit is exactly one difference,
    /// named by its row, and the refresh restores the file.
    #[test]
    fn bench3_is_current_and_a_flipped_digit_is_named() {
        let text = std::fs::read_to_string(repo_root().join(BENCH3_FILE)).expect("read");
        let (fresh, diffs) = refresh_bench3(&text).expect("refresh");
        assert!(diffs.is_empty(), "{BENCH3_FILE} is stale: {diffs:?}");
        assert_eq!(fresh.render_pretty(), text);

        let doc = Json::parse(&text).expect("parse");
        let row = &doc.get("deployments").and_then(Json::as_array).expect("rows")[1];
        let name = row.get("name").and_then(Json::as_str).expect("name");
        let fp = row.get("state_fingerprint").and_then(Json::as_str).expect("fingerprint");
        let flipped = if fp.ends_with('0') { '1' } else { '0' };
        let copy = text.replacen(fp, &format!("{}{flipped}", &fp[..fp.len() - 1]), 1);
        assert_ne!(copy, text);
        let (refreshed, diffs) = refresh_bench3(&copy).expect("refresh copy");
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains(name), "{:?} does not name {name}", diffs[0]);
        assert_eq!(refreshed.render_pretty(), text);
    }
}

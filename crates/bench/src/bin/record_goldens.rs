//! One-pass golden re-record tool.
//!
//! Recomputes **every** pinned fingerprint in the workspace — the
//! engine-level and report-level pins of the [`dirq::goldens`] manifest,
//! the smoke golden, the full-budget registry golden and the serving
//! goldens of `BENCH_3.json` — and either:
//!
//! * **default (record)** — rewrites the constants in place
//!   (`src/goldens.rs`, `crates/scenario/src/registry.rs`), regenerates
//!   `BENCH_2.json` from the same full matrix run and rewrites
//!   `BENCH_3.json` from the recipes it records, so an intentional
//!   behaviour break lands as one consistent commit; or
//! * **`--check`** — recomputes everything fresh, compares against the
//!   checked-in values (constants, the `BENCH_2.json` report
//!   fingerprint and the `BENCH_3.json` rows) and exits non-zero on any
//!   mismatch. This is the CI staleness gate: a behaviour change cannot
//!   land with half-recorded goldens.
//!
//! Usage: `record_goldens [--check] [--out PATH]`

use std::path::Path;

use dirq::goldens::{self, GoldenPin};
use dirq::scenario::registry;
use dirq_bench::repo_root;
use dirq_scenario::{run_matrix_report, Scheme, SweepConfig};
use dirq_sim::json::Json;
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

/// The report fingerprint `BENCH_2.json` records, if readable.
fn bench2_fingerprint(path: &Path) -> Option<String> {
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    Some(doc.get("report")?.get("report_fingerprint")?.as_str()?.to_string())
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
        // Full-budget registry sweep, compared against the constant and
        // the checked-in artifact (no writes in check mode).
        let report = run_matrix_report(&registry::registry(), &SweepConfig::default());
        let registry_fp = report.stable_fingerprint();
        println!(
            "  {:<26} {:#018X}  {}",
            "REGISTRY_GOLDEN_FINGERPRINT",
            registry_fp,
            if registry_fp == registry::REGISTRY_GOLDEN_FINGERPRINT { "ok" } else { "DRIFTED" }
        );
        if registry_fp != registry::REGISTRY_GOLDEN_FINGERPRINT {
            mismatches.push(format!(
                "REGISTRY_GOLDEN_FINGERPRINT: recorded {:#018X}, fresh {registry_fp:#018X}",
                registry::REGISTRY_GOLDEN_FINGERPRINT
            ));
        }
        let recorded_artifact = bench2_fingerprint(&root.join(&out));
        let expected = format!("{registry_fp:#018X}");
        if recorded_artifact.as_deref() != Some(expected.as_str()) {
            mismatches.push(format!(
                "{out}: records {}, fresh registry is {expected}",
                recorded_artifact.as_deref().unwrap_or("<missing/unparseable>")
            ));
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
    // artifact from the same behaviour and pin its registry fingerprint.
    let mut patched = 0usize;
    for (pin, value) in &fresh {
        if patch_const(&root.join(pin.file), pin.name, *value) {
            println!("  patched {} in {}", pin.name, pin.file);
            patched += 1;
        }
    }
    let out_abs = root.join(&out).to_string_lossy().into_owned();
    let report = dirq_bench::matrix::run_and_record(
        &registry::registry(),
        &SweepConfig::default(),
        &out_abs,
    );
    if patch_const(
        &root.join(goldens::REGISTRY_FILE),
        "REGISTRY_GOLDEN_FINGERPRINT",
        report.stable_fingerprint(),
    ) {
        println!("  patched REGISTRY_GOLDEN_FINGERPRINT in {}", goldens::REGISTRY_FILE);
        patched += 1;
    }
    let bench3 = root.join(BENCH3_FILE);
    let text = std::fs::read_to_string(&bench3)
        .unwrap_or_else(|e| panic!("read {}: {e}", bench3.display()));
    let (doc, diffs) = refresh_bench3(&text).unwrap_or_else(|e| panic!("{e}"));
    std::fs::write(&bench3, doc.render_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", bench3.display()));
    println!(
        "done: {patched} constant(s) rewritten, {out} regenerated \
         (fingerprint {:#018X}), {BENCH3_FILE} rewritten ({} difference(s))",
        report.stable_fingerprint(),
        diffs.len()
    );
    if patched > 0 {
        println!("note: rebuild + rerun tests to verify the new pins compile and hold");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

//! The deterministic query-load model shared by the daemon's integration
//! tests, the golden recorder and the benchmark.
//!
//! The histogram sequence is [`HIST_QUERIES`] barriered queries
//! (submit, wait for completion, submit the next) with content from
//! [`hist_query`]. Because the daemon injects each barriered submission
//! at the next epoch boundary and steps until it finalises, the
//! *epochs-to-answer* of every query is a deterministic function of the
//! deployment recipe. [`reference_epochs_histogram`] reproduces it
//! engine-level, with no daemon involved: the daemon's integration tests
//! assert the daemon against it, and `record_goldens` records and checks
//! the `BENCH_3.json` histogram with it. It and [`replay_serving`] run the
//! one replay of the serving loop.

use dirq_core::Engine;
use dirq_data::SensorType;

use crate::protocol::resolve_deployment;

/// Queries in the barriered histogram phase.
pub const HIST_QUERIES: usize = 24;

/// Content of the `k`-th histogram query: `(stype, lo, hi)`. Windows
/// sweep the value range of both sensor types so latencies are sampled
/// across differently sized result sets, without RNG.
pub fn hist_query(k: usize) -> (u8, f64, f64) {
    let stype = (k % 2) as u8;
    let lo = 12.0 + ((k * 7) % 9) as f64;
    let hi = lo + 6.0 + (k % 4) as f64;
    (stype, lo, hi)
}

/// The histogram phase as a serving script: a `warmup`-epoch step, then
/// the [`HIST_QUERIES`] barriered queries.
pub fn histogram_script(warmup: u64) -> Vec<ServingOp> {
    let queries = (0..HIST_QUERIES).map(|k| {
        let (stype, lo, hi) = hist_query(k);
        ServingOp::Query(stype, lo, hi)
    });
    std::iter::once(ServingOp::Step(warmup)).chain(queries).collect()
}

/// Replay the histogram phase engine-level: build the preset's default
/// deployment, step `warmup` epochs, then run the barriered sequence,
/// returning each query's epochs-to-answer in submission order.
pub fn reference_epochs_histogram(preset: &str, scale: f64, warmup: u64) -> Vec<u64> {
    replay(preset, scale, None, &histogram_script(warmup)).2
}

/// One step of a barriered serving script ([`replay_serving`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServingOp {
    /// An explicit `step` command: advance this many epochs.
    Step(u64),
    /// A blocking range query `(stype, lo, hi)`: inject at the current
    /// epoch boundary, then step until it finalises.
    Query(u8, f64, f64),
}

/// Replay a barriered op sequence engine-level, with no daemon
/// involved, and return the final `(epoch, state_fingerprint)`. The
/// daemon differential tests pin that a deployment multiplexed over any
/// `--serving-threads` count walks this exact trajectory.
pub fn replay_serving(
    preset: &str,
    scale: f64,
    seed: Option<u64>,
    ops: &[ServingOp],
) -> (u64, u64) {
    let (epoch, fingerprint, _) = replay(preset, scale, seed, ops);
    (epoch, fingerprint)
}

/// The one replay of the serving loop: build the preset's deployment at
/// `seed` (its registered seed when `None`), run `ops`, and return the
/// final epoch, the state fingerprint and each query's epochs-to-answer
/// in script order.
///
/// This mirrors one deployment's scheduled turns in the serving pool
/// exactly: a blocking query is admitted and injected at the current
/// epoch boundary, the engine steps one epoch per turn until the query
/// finalises, stopping on the boundary after the finalising epoch, and an
/// explicit `step` never admits anything.
fn replay(preset: &str, scale: f64, seed: Option<u64>, ops: &[ServingOp]) -> (u64, u64, Vec<u64>) {
    let (spec, scheme) =
        resolve_deployment(preset, scale, None).unwrap_or_else(|e| panic!("resolve {preset}: {e}"));
    let seed = seed.unwrap_or(spec.seed);
    let mut engine = Engine::new(spec.config(scheme, seed));
    engine.enable_completed_log();
    let mut epochs_to_answer = Vec::new();
    for op in ops {
        match *op {
            ServingOp::Step(epochs) => {
                for _ in 0..epochs {
                    engine.step_epoch();
                }
            }
            ServingOp::Query(stype, lo, hi) => {
                let id = engine.submit_external_query(SensorType(stype), lo, hi, None);
                loop {
                    engine.step_epoch();
                    if let Some(done) = engine.drain_completed().find(|done| done.outcome.id == id)
                    {
                        epochs_to_answer.push(done.answered_epoch - done.outcome.epoch);
                        break;
                    }
                }
            }
        }
    }
    (engine.epoch(), engine.state_fingerprint(), epochs_to_answer)
}

/// Collapse per-query latencies into sorted `(epochs, count)` pairs —
/// the shape BENCH_3.json records.
pub fn histogram_counts(latencies: &[u64]) -> Vec<(u64, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    for &l in latencies {
        *counts.entry(l).or_insert(0u64) += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_accumulate_sorted() {
        assert_eq!(histogram_counts(&[3, 1, 3, 3, 2]), vec![(1, 1), (2, 1), (3, 3)]);
        assert!(histogram_counts(&[]).is_empty());
    }

    #[test]
    fn reference_histogram_is_deterministic() {
        let a = reference_epochs_histogram("dense_grid_100", 0.1, 8);
        let b = reference_epochs_histogram("dense_grid_100", 0.1, 8);
        assert_eq!(a.len(), HIST_QUERIES);
        assert_eq!(a, b);
        assert!(a.iter().all(|&l| l > 0), "every query needs at least one epoch to answer");
    }
}

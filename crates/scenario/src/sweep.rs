//! The deterministic sweep executor.
//!
//! Expands a scenario matrix — every spec × its schemes — into
//! independent simulation jobs, fans them over
//! [`dirq_sim::runner::run_sweep`] worker threads, and assembles the
//! ordered [`ScenarioReport`]. Individual runs are single-threaded and
//! deterministic and the executor preserves matrix order, so the report
//! (and its fingerprint) is identical across runs and thread counts.

use dirq_core::run_scenario;
use dirq_sim::runner::run_sweep;

use crate::report::{ScenarioOutcome, ScenarioReport};
use crate::spec::ScenarioSpec;

/// Execution parameters of one sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Worker threads fanning runs of the matrix (0 = all cores). Never
    /// affects results.
    pub threads: usize,
    /// Multiplier on every spec's epoch budget (quick runs / CI smoke).
    pub epoch_scale: f64,
    /// Intra-run workers inside each simulation: sets
    /// [`dirq_core::ScenarioConfig::world_workers`] (the split-stream
    /// world advance) and [`dirq_core::ScenarioConfig::upkeep_workers`]
    /// (sensor sampling, the only sharded upkeep pass); the MAC's slot
    /// loop is serial. Like `threads`, never affects results — every
    /// sharded path is bit-identical, and the CI smoke worker matrix
    /// enforces it.
    pub workers: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { threads: 0, epoch_scale: 1.0, workers: 1 }
    }
}

/// Run the full matrix, one run per `(spec, scheme)` cell at the spec's
/// seed, and assemble the report.
pub fn run_matrix_report(specs: &[ScenarioSpec], cfg: &SweepConfig) -> ScenarioReport {
    let cells: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.schemes.len()).map(move |ki| (si, ki)))
        .collect();
    let rows = run_sweep(&cells, cfg.threads, |&(si, ki)| {
        let spec = specs[si].scaled(cfg.epoch_scale);
        let scheme = spec.schemes[ki];
        let mut run_cfg = spec.config(scheme, spec.seed);
        let workers = cfg.workers.max(1);
        run_cfg.world_workers = workers;
        run_cfg.upkeep_workers = workers;
        let run = run_scenario(run_cfg);
        ScenarioOutcome::from_run(&spec.name, &scheme.label(), spec.seed, &run)
    });
    ScenarioReport::new(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::spec::Scheme;

    fn tiny_matrix() -> Vec<ScenarioSpec> {
        // The smoke grid plus a head-to-head cell, both heavily scaled so
        // the debug-mode test stays quick.
        vec![
            registry::smoke().scaled(0.5),
            ScenarioSpec {
                epochs: 300,
                schemes: vec![Scheme::DirqFixed(5.0), Scheme::Flooding],
                seed: 9,
                ..ScenarioSpec::new("tiny_h2h", 40)
            },
        ]
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let specs = tiny_matrix();
        let cfg1 = SweepConfig { threads: 1, ..SweepConfig::default() };
        let cfg4 = SweepConfig { threads: 4, ..SweepConfig::default() };
        let a = run_matrix_report(&specs, &cfg1);
        let b = run_matrix_report(&specs, &cfg4);
        assert_eq!(a.stable_fingerprint(), b.stable_fingerprint());
        assert_eq!(a.rows.len(), 3, "one row per (scenario, scheme)");
    }

    #[test]
    fn workers_are_result_invariant() {
        // The intra-run worker knob must never change a report: same
        // fingerprint serial and with 4 workers. (The tiny matrix sits
        // below the 512-node floor of `runner::shard_workers`, so this pins
        // the serial resolution of the world and upkeep knobs; the MAC's
        // slot loop is serial at any count. The sharded world and upkeep
        // paths are pinned by their differential suites, the grid_2000
        // golden and `scenario_matrix --workers W`.)
        let specs = vec![tiny_matrix().remove(1)];
        let serial = run_matrix_report(&specs, &SweepConfig::default());
        let sharded =
            run_matrix_report(&specs, &SweepConfig { workers: 4, ..SweepConfig::default() });
        assert_eq!(serial.stable_fingerprint(), sharded.stable_fingerprint());
    }

    #[test]
    fn head_to_head_produces_flooding_comparisons() {
        let specs = vec![tiny_matrix().remove(1)];
        let r = run_matrix_report(&specs, &SweepConfig::default());
        assert_eq!(r.comparisons.len(), 2);
        let tx = r.comparisons.iter().find(|c| c.metric == "tx_per_delivered").unwrap();
        assert!(
            tx.ratio < 1.0,
            "DirQ should spend fewer tx per delivered source than flooding: {:.3}",
            tx.ratio
        );
    }

    #[test]
    fn epoch_scale_shrinks_runs() {
        let specs = vec![tiny_matrix().remove(1)];
        let cfg = SweepConfig { epoch_scale: 0.5, ..SweepConfig::default() };
        let r = run_matrix_report(&specs, &cfg);
        assert_eq!(r.rows[0].epochs, 150);
    }
}

//! The deterministic sweep executor.
//!
//! Expands a scenario matrix — every spec × its schemes × seed replicates
//! — into independent simulation jobs, fans them over
//! [`dirq_sim::runner::run_matrix`] worker threads, and assembles the
//! ordered [`ScenarioReport`]. Individual runs are single-threaded and
//! deterministic and the executor preserves matrix order, so the report
//! (and its fingerprint) is identical across runs and thread counts.

use dirq_core::run_scenario;
use dirq_sim::runner::run_matrix;

use crate::report::{ScenarioOutcome, ScenarioReport, ScenarioRow};
use crate::spec::ScenarioSpec;

/// Execution parameters of one sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Worker threads fanning runs of the matrix (0 = all cores). Never
    /// affects results.
    pub threads: usize,
    /// Seed replicates per `(scenario, scheme)` cell.
    pub replicates: usize,
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
        SweepConfig { threads: 0, replicates: 1, epoch_scale: 1.0, workers: 1 }
    }
}

/// Derive the seed of replicate `rep` from a spec's base seed. Replicate 0
/// uses the base seed itself, so single-replicate sweeps match direct
/// [`ScenarioSpec::config`] runs.
pub fn replicate_seed(base: u64, rep: usize) -> u64 {
    base ^ (rep as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Run the full matrix and assemble the report.
pub fn run_matrix_report(specs: &[ScenarioSpec], cfg: &SweepConfig) -> ScenarioReport {
    assert!(cfg.replicates > 0, "at least one replicate required");
    // One cell per (spec, scheme); replication is the matrix's second axis.
    let cells: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.schemes.len()).map(move |ki| (si, ki)))
        .collect();
    let results = run_matrix(&cells, cfg.replicates, cfg.threads, |&(si, ki), rep| {
        let spec = specs[si].scaled(cfg.epoch_scale);
        let scheme = spec.schemes[ki];
        let seed = replicate_seed(spec.seed, rep);
        let mut run_cfg = spec.config(scheme, seed);
        let workers = cfg.workers.max(1);
        run_cfg.world_workers = workers;
        run_cfg.upkeep_workers = workers;
        let run = run_scenario(run_cfg);
        ScenarioOutcome::from_run(&spec.name, &scheme.label(), seed, &run)
    });
    let rows = cells
        .into_iter()
        .zip(results)
        .map(|((si, ki), replicates)| ScenarioRow {
            scenario: specs[si].name.clone(),
            scheme: specs[si].schemes[ki].label(),
            replicates,
        })
        .collect();
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
            ScenarioSpec::builder("tiny_h2h", 40)
                .epochs(300)
                .schemes(vec![Scheme::DirqFixed(5.0), Scheme::Flooding])
                .seed(9)
                .build(),
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
    fn replicates_get_distinct_seeds_and_stable_order() {
        let specs = vec![tiny_matrix().remove(1)];
        let cfg = SweepConfig { threads: 0, replicates: 2, ..SweepConfig::default() };
        let r = run_matrix_report(&specs, &cfg);
        for row in &r.rows {
            assert_eq!(row.replicates.len(), 2);
            assert_ne!(row.replicates[0].seed, row.replicates[1].seed);
            assert_eq!(row.replicates[0].seed, replicate_seed(9, 0));
        }
    }

    #[test]
    fn workers_are_result_invariant() {
        // The intra-run worker knob must never change a report: same
        // fingerprint serial and with 4 workers. (The tiny matrix sits
        // below the 512-node floor of `runner::shard_workers`, so this pins
        // the serial resolution of the world and upkeep knobs; the MAC's
        // slot loop is serial at any count. The sharded world and upkeep
        // paths are pinned by their differential suites, the grid_2000
        // golden and the scenario_matrix smoke.)
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
        assert_eq!(r.rows[0].replicates[0].epochs, 150);
    }
}

//! Differential property tests for the sharded protocol upkeep.
//!
//! With `upkeep_workers > 1` sensor sampling, the only sharded upkeep
//! pass, runs the real decision path per node chunk on scoped threads
//! and replays the shared-state effects in chunk order; the serial loop
//! is the reference implementation. Tree repair is serial at every
//! worker count, so under churn the suite also checks that sharded
//! sampling leaves the repair outcomes untouched. 256 sampled cases pin,
//! across churn × adaptive-sampling × multi-sink × assignment-change
//! scenario families:
//!
//! * **sharded ≡ serial** — engines forced to 2 and 4 workers
//!   (`Engine::force_sharded`, which shards the world advance as well as
//!   sampling) stay bit-equal to the serial reference at every epoch on
//!   the in-flight pending set (which transitively pins the readings
//!   dispatched and the MAC enqueue order feeding later epochs) and on
//!   the per-node upkeep state (parent pointers, children sets,
//!   detached-since tracking, per-sampler taken/skipped counters);
//! * at the end of the run the complete metrics fingerprint and the
//!   full snapshot-state fingerprint match bit for bit.

use dirq::prelude::*;
use proptest::prelude::*;

fn build(cfg: &ScenarioConfig, forced_workers: usize) -> Engine {
    let mut engine = Engine::new(cfg.clone());
    if forced_workers > 1 {
        engine.force_sharded(forced_workers);
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Forced-sharded passes at 2 and 4 workers are bit-equal to the
    /// serial reference across the churn × sampling × sink × assignment
    /// change families.
    #[test]
    fn sharded_upkeep_matches_serial_reference(
        n in 32usize..64,
        seed in 0u64..1_000_000,
        epochs in 24u64..44,
        churn in 0u8..2,
        predictive in 0u8..2,
        multi_sink in 0u8..2,
        sensors in 0u8..2,
    ) {
        let (churn, predictive, multi_sink) = (churn == 1, predictive == 1, multi_sink == 1);
        let cfg = ScenarioConfig {
            n_nodes: n,
            epochs,
            measure_from_epoch: 5,
            query_period: 8,
            completion_window: 10,
            hour_epochs: 16,
            extra_sinks: if multi_sink { 2 } else { 0 },
            // The paper's bounded-random tree can fail to build on small
            // random deployments (and multi-sink forests); the upkeep
            // passes are tree-kind agnostic, so pin BFS for buildability.
            tree: TreeKind::Bfs,
            // Repositioned secondary sinks on the dense paper deployment
            // can exceed the default 32-slot frame's 2-hop degree bound;
            // the frame size is identical across the serial and sharded
            // engines, so it never affects the differential property.
            lmac: LmacConfig { slots_per_frame: 64, ..LmacConfig::default() },
            sampling: if predictive {
                SamplingStrategy::Predictive
            } else {
                SamplingStrategy::EveryEpoch
            },
            churn: if churn {
                // Deaths orphan subtrees, exercising both the primary and
                // the fallback repair path (the detach fallback needs long-detached regions, which
                // early deaths plus short runs still produce via the
                // count-to-infinity staleness).
                ChurnSpec::RandomDeaths { deaths: 3, from_epoch: 3, until_epoch: 15 }
            } else {
                ChurnSpec::None
            },
            ..ScenarioConfig::paper(seed)
        };
        let mut reference = build(&cfg, 1);
        let mut sharded: Vec<Engine> = [2usize, 4].iter().map(|&w| build(&cfg, w)).collect();
        // Assignment changes, on every engine alike: at a third of the run
        // a few nodes lose every sensor, so some have none to sample; at
        // half of it one type comes back on one of them.
        let victims: Vec<NodeId> = (0..3)
            .map(|k| NodeId::from_index(1 + (seed as usize + 7 * k) % (n - 1)))
            .collect();
        let change = |e: &mut Engine, epoch: u64| {
            if sensors == 1 && epoch == epochs / 3 {
                for &v in &victims {
                    for t in 0..4 {
                        e.remove_sensor(v, SensorType(t));
                    }
                }
            }
            if sensors == 1 && epoch == epochs / 2 {
                e.add_sensor(victims[0], SensorType((seed % 4) as u8));
            }
        };

        for epoch in 0..epochs {
            change(&mut reference, epoch);
            reference.step_epoch();
            let want_pending = reference.pending_snapshot();
            let want_upkeep = reference.upkeep_snapshot();
            for (i, engine) in sharded.iter_mut().enumerate() {
                change(engine, epoch);
                engine.step_epoch();
                prop_assert_eq!(
                    &engine.pending_snapshot(),
                    &want_pending,
                    "epoch {}: {}-worker upkeep diverged from serial on the pending set",
                    epoch, [2, 4][i]
                );
                prop_assert_eq!(
                    &engine.upkeep_snapshot(),
                    &want_upkeep,
                    "epoch {}: {}-worker upkeep diverged from serial on node upkeep state",
                    epoch, [2, 4][i]
                );
            }
        }
        let want_metrics = reference.metrics().stable_fingerprint();
        let want_state = reference.state_fingerprint();
        for (i, engine) in sharded.iter().enumerate() {
            prop_assert_eq!(
                engine.metrics().stable_fingerprint(),
                want_metrics,
                "{}-worker upkeep metrics diverged from serial", [2, 4][i]
            );
            prop_assert_eq!(
                engine.state_fingerprint(),
                want_state,
                "{}-worker upkeep final state diverged from serial", [2, 4][i]
            );
        }
    }
}

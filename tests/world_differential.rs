//! Differential property tests for the split-stream world generator.
//!
//! The per-epoch advance of [`SensorWorld`] shards `(node, type)` cells
//! by node range over scoped threads; the serial advance, one range over
//! every node, is the reference implementation.
//! 256 sampled cases pin, on arbitrary deployments, sensor coverage and
//! assignment churn:
//!
//! * **parallel ≡ serial** — worlds advancing with 2 and 4 sharded
//!   workers (`set_workers`, which takes the count as given) are bit-equal to the serial reference on every reading and
//!   every per-type aggregate, at every epoch;
//! * **stream isolation** — removing and re-adding sensors on victim
//!   nodes (the world-level effect of churn deaths/births and of the
//!   runtime `add_sensor`/`remove_sensor` extension) never perturbs any
//!   other `(node, type)` sequence, because each cell draws from its own
//!   counter-based stream.

use dirq::data::sensor::SensorAssignment;
use dirq::data::SensorCatalog;
use dirq::prelude::*;
use proptest::prelude::*;
use rand::Rng;

/// A world over `n` seeded uniform positions (no connectivity requirement
/// — the generator only consumes positions) with heterogeneous coverage.
fn build_world(n: usize, coverage: f64, seed: u64) -> SensorWorld {
    let f = RngFactory::new(seed);
    let mut pos_rng = f.stream("positions");
    let positions: Vec<Position> = (0..n)
        .map(|_| Position { x: pos_rng.gen_range(0.0..100.0), y: pos_rng.gen_range(0.0..100.0) })
        .collect();
    let topo = Topology::from_positions(positions, &UnitDisk::new(30.0));
    let catalog = SensorCatalog::environmental();
    let assignment =
        SensorAssignment::heterogeneous(n, catalog.len(), coverage, &mut f.stream("assign"));
    SensorWorld::new(&WorldConfig::environmental(100.0), catalog, assignment, &topo, &f)
}

/// All readings of every type at the current epoch, as exact bits.
fn snapshot(world: &SensorWorld) -> Vec<Vec<u64>> {
    world
        .catalog()
        .types()
        .map(|t| world.readings(t).iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Per-type observed min/max aggregates, as exact bits.
fn aggregates(world: &SensorWorld) -> Vec<Option<(u64, u64)>> {
    world
        .catalog()
        .types()
        .map(|t| world.value_range(t).map(|(lo, hi)| (lo.to_bits(), hi.to_bits())))
        .collect()
}

/// Apply one sampled assignment mutation (the world-level footprint of
/// churn and runtime sensor extension) to a world.
fn apply_churn(world: &mut SensorWorld, n: usize, op: (u32, u8, u8)) {
    let (raw_node, raw_type, add) = op;
    let node = raw_node as usize % n;
    let t = SensorType(raw_type % 4);
    if add == 1 {
        world.assignment_mut().add(node, t);
    } else {
        world.assignment_mut().remove(node, t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Sharded advances at 2 and 4 workers are bit-equal to the serial
    /// reference — every reading and every per-type aggregate, at every
    /// epoch, under arbitrary mid-run assignment churn applied to all
    /// worlds alike.
    #[test]
    fn parallel_world_advance_matches_serial_reference(
        n in 8usize..96,
        coverage in 0.05f64..1.0,
        seed in 0u64..1_000_000,
        epochs in 1u64..10,
        churn_ops in proptest::collection::vec((0u32..96, 0u8..4, 0u8..2), 0..12),
    ) {
        let mut reference = build_world(n, coverage, seed);
        let mut sharded: Vec<SensorWorld> = [2usize, 4]
            .iter()
            .map(|&w| {
                let mut world = build_world(n, coverage, seed);
                world.set_workers(w);
                world
            })
            .collect();
        prop_assert_eq!(snapshot(&reference), snapshot(&sharded[0]), "construction diverged");

        for epoch in 1..=epochs {
            // Spread the sampled churn over the run: op k lands before the
            // advance of epoch (k mod epochs) + 1.
            for (k, &op) in churn_ops.iter().enumerate() {
                if k as u64 % epochs + 1 == epoch {
                    apply_churn(&mut reference, n, op);
                    for world in &mut sharded {
                        apply_churn(world, n, op);
                    }
                }
            }
            reference.advance_epoch();
            let want_snapshot = snapshot(&reference);
            let want_aggregates = aggregates(&reference);
            for (i, world) in sharded.iter_mut().enumerate() {
                world.advance_epoch();
                prop_assert_eq!(world.epoch(), reference.epoch());
                prop_assert_eq!(
                    &snapshot(world),
                    &want_snapshot,
                    "epoch {}: {}-worker advance diverged from serial", epoch, [2, 4][i]
                );
                prop_assert_eq!(
                    &aggregates(world),
                    &want_aggregates,
                    "epoch {}: {}-worker aggregates diverged", epoch, [2, 4][i]
                );
            }
        }
    }

    /// Churning victim cells — removing their sensors mid-run and adding
    /// them back (deaths/births at world level) — never shifts any other
    /// `(node, type)` stream, serial or sharded: every non-victim reading
    /// stays bit-identical to the undisturbed control world.
    #[test]
    fn victim_churn_leaves_other_streams_untouched(
        n in 8usize..96,
        coverage in 0.2f64..1.0,
        seed in 0u64..1_000_000,
        victims in proptest::collection::vec(0u32..96, 1..4),
        death_epoch in 1u64..4,
        rebirth_epoch in 4u64..7,
        workers in 1usize..5,
    ) {
        let mut control = build_world(n, coverage, seed);
        let mut churned = build_world(n, coverage, seed);
        if workers > 1 {
            churned.set_workers(workers);
        }
        let victim_nodes: Vec<usize> = victims.iter().map(|&v| v as usize % n).collect();
        let is_victim = |node: usize| victim_nodes.contains(&node);

        for epoch in 1..=7u64 {
            if epoch == death_epoch {
                // Death: the node's sensors leave the assignment.
                for &v in &victim_nodes {
                    for t in 0..4u8 {
                        churned.assignment_mut().remove(v, SensorType(t));
                    }
                }
            }
            if epoch == rebirth_epoch {
                // Birth: re-equip every sensor the control world carries.
                for &v in &victim_nodes {
                    for t in 0..4u8 {
                        if control.assignment().has(v, SensorType(t)) {
                            churned.assignment_mut().add(v, SensorType(t));
                        }
                    }
                }
            }
            control.advance_epoch();
            churned.advance_epoch();
            for t in control.catalog().types() {
                for node in 0..n {
                    if is_victim(node) {
                        continue;
                    }
                    prop_assert_eq!(
                        control.reading(node, t).map(f64::to_bits),
                        churned.reading(node, t).map(f64::to_bits),
                        "epoch {}: node {} type {:?} perturbed by victim churn",
                        epoch, node, t
                    );
                }
            }
        }
        // After rebirth the victims generate again for every type the
        // control world carries. (Their values differ from the control's:
        // the local AR(1) state froze while dead — only the draws, not
        // the state, are counter-addressed.)
        for t in control.catalog().types() {
            for &v in &victim_nodes {
                prop_assert_eq!(
                    control.reading(v, t).is_some(),
                    churned.reading(v, t).is_some(),
                    "reborn victim {} type {:?} carrier set diverged", v, t
                );
            }
        }
    }
}

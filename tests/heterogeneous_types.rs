//! Heterogeneity and post-deployment extensibility (paper Section 4.1,
//! Fig. 4): nodes carry different sensor subsets, Range Tables exist per
//! type only where the type exists in the subtree, and new sensors can be
//! added after deployment without global reconfiguration.

use dirq::prelude::*;

#[test]
fn tables_exist_only_where_the_type_exists_in_the_subtree() {
    let mut engine = Engine::new(ScenarioConfig {
        epochs: 600,
        measure_from_epoch: 100,
        sensor_coverage: 0.4, // strongly heterogeneous
        ..ScenarioConfig::paper(30)
    });
    for _ in 0..200 {
        engine.step_epoch();
    }
    let tree = engine.protocol_tree();
    let world = engine.world();
    for t in world.catalog().types() {
        // For every attached node: a table for `t` implies the type exists
        // at the node itself or somewhere in its subtree.
        for n in engine.topology().nodes() {
            if !tree.is_attached(n) || n.is_root() {
                continue;
            }
            if engine.table(n, t).is_some() {
                let subtree = tree.subtree(n);
                let carried = subtree.iter().any(|m| world.assignment().has(m.index(), t));
                assert!(carried, "{n} holds a table for {t} but no node in its subtree carries it");
            }
        }
    }
}

#[test]
fn aggregates_contain_every_subtree_reading() {
    // The advertised [min, max] at each node must (up to δ slack at each
    // level) cover the subtree's current readings. With generous slack
    // accounting we assert containment with a small tolerance.
    let mut engine = Engine::new(ScenarioConfig {
        epochs: 600,
        measure_from_epoch: 100,
        delta_policy: DeltaPolicy::Fixed(3.0),
        ..ScenarioConfig::paper(31)
    });
    for _ in 0..300 {
        engine.step_epoch();
    }
    let tree = engine.protocol_tree();
    let world = engine.world();
    let t = SensorType(0);
    let span = WorldConfig::environmental(100.0).reference_spans()[0];
    // Per-hop slack: δ (update hysteresis) + per-epoch drift before the
    // next update; depth ≤ ~6, so 6·(3% of span) plus padding margin.
    let tolerance = 8.0 * 0.03 * span;
    for n in engine.topology().nodes() {
        if n.is_root() || !tree.is_attached(n) {
            continue;
        }
        let Some(table) = engine.table(n, t) else { continue };
        let Some(tx) = table.last_transmitted() else { continue };
        for m in tree.subtree(n) {
            if let Some(reading) = world.reading(m.index(), t) {
                assert!(
                    reading >= tx.min - tolerance && reading <= tx.max + tolerance,
                    "{n}'s advertisement [{:.2}, {:.2}] misses {m}'s reading {reading:.2}",
                    tx.min,
                    tx.max
                );
            }
        }
    }
}

#[test]
fn sensor_added_after_deployment_becomes_queryable() {
    let mut engine = Engine::new(ScenarioConfig {
        epochs: 2_000,
        measure_from_epoch: 100,
        sensor_coverage: 0.5,
        ..ScenarioConfig::paper(32)
    });
    for _ in 0..100 {
        engine.step_epoch();
    }
    // Find a leaf-ish node lacking temperature and equip it.
    let t = SensorType(0);
    let node = engine
        .topology()
        .nodes()
        .find(|&n| {
            !n.is_root()
                && engine.is_alive(n)
                && !engine.world().assignment().has(n.index(), t)
                && engine.node(n).parent().is_some()
        })
        .expect("some node lacks temperature");
    engine.add_sensor(node, t);
    for _ in 0..100 {
        engine.step_epoch();
    }
    // The node now advertises the type: its parent's table has an entry.
    let parent = engine.node(node).parent().unwrap();
    let entry = engine.table(parent, t).and_then(|tab| tab.child_entry(node));
    assert!(entry.is_some(), "parent {parent} never learned about {node}'s new sensor");
    // And the root can route a query covering the node's reading.
    let reading = engine.world().reading(node.index(), t).unwrap();
    let root_table = engine.table(NodeId::ROOT, t).expect("root table exists");
    let agg = root_table.aggregate().expect("root aggregate exists");
    assert!(
        agg.min <= reading && reading <= agg.max,
        "root aggregate [{:.2}, {:.2}] must cover the new sensor's reading {reading:.2}",
        agg.min,
        agg.max
    );
}

#[test]
fn sensor_removal_retracts_tables() {
    let mut engine = Engine::new(ScenarioConfig {
        epochs: 1_000,
        measure_from_epoch: 100,
        sensor_coverage: 0.5,
        ..ScenarioConfig::paper(33)
    });
    for _ in 0..100 {
        engine.step_epoch();
    }
    let t = SensorType(1);
    // Pick an attached leaf that carries the type.
    let tree = engine.protocol_tree();
    let node = engine
        .topology()
        .nodes()
        .find(|&n| {
            !n.is_root()
                && tree.is_attached(n)
                && tree.children(n).is_empty()
                && engine.world().assignment().has(n.index(), t)
        })
        .expect("an attached leaf carries humidity");
    engine.remove_sensor(node, t);
    for _ in 0..50 {
        engine.step_epoch();
    }
    assert!(
        engine.table(node, t).is_none(),
        "leaf's own table should be gone after sensor removal"
    );
    let parent = engine.node(node).parent().unwrap();
    let parent_entry = engine.table(parent, t).and_then(|tab| tab.child_entry(node));
    assert!(parent_entry.is_none(), "parent must have processed the Retract for {node}");
}

#[test]
fn queries_span_all_four_types_over_a_run() {
    let r = run_scenario(ScenarioConfig {
        epochs: 3_000,
        measure_from_epoch: 100,
        ..ScenarioConfig::paper(34)
    });
    let mut seen = [false; 4];
    for o in &r.metrics.outcomes {
        seen[o.stype.index()] = true;
    }
    assert!(seen.iter().all(|&s| s), "workload should exercise every sensor type, saw {seen:?}");
}

//! Memory held to a budget: the bytes each plane reports holding, from
//! its lengths and capacities, for a 2 000-node deployment.

use dirq::core::EngineFootprint;
use dirq::lmac::MacFootprint;
use dirq::prelude::*;

/// Bytes per node the MAC may hold outside its neighbour arena, at rest:
/// the node record and liveness bit, the two ledgers, the per-slot
/// scratch and the slot owner lists come to about 64.
const MAC_BYTES_PER_NODE: usize = 72;

/// A 2 000-node MAC on grid_2000's geometry, with its greedy schedule.
fn grid_mac() -> LmacNetwork<u32> {
    let mut rng = RngFactory::new(1_008).stream("footprint");
    let topo = Topology::deploy_connected(
        2_000,
        &Placement::JitteredGrid { side: 800.0, jitter: 4.0 },
        SinkPlacement::Corner,
        &UnitDisk::new(30.0),
        &mut rng,
        200,
    )
    .expect("a jittered grid is connected");
    let cfg = LmacConfig { slots_per_frame: 96, ..LmacConfig::default() };
    let mut net = LmacNetwork::new(cfg, topo);
    net.assign_slots_greedy();
    net
}

/// The arena takes 24 bytes a directed edge and 4 a node (its present
/// count), and everything else stays within a per-node budget, after
/// construction and once a frame of traffic has drained: a per-edge index
/// beside the arena, or a per-node cache, breaks one of the two.
#[test]
fn mac_holds_24_bytes_an_edge_and_a_per_node_budget() {
    let mut net = grid_mac();
    let (nodes, edges) = (net.topology().len(), 2 * net.topology().link_count());
    let check = |f: MacFootprint, when: &str| {
        assert_eq!(f.arena, 24 * edges + 4 * nodes, "{when}: {f:?}");
        let rest = f.total() - f.arena;
        assert!(
            rest <= MAC_BYTES_PER_NODE * nodes,
            "{when}: {} bytes a node besides the arena, over {MAC_BYTES_PER_NODE}: {f:?}",
            rest / nodes
        );
    };
    check(net.footprint(), "after construction");
    let mut rng = RngFactory::new(1_008).stream("footprint-traffic");
    for i in (0..nodes).step_by(7) {
        net.enqueue(NodeId::from_index(i), Destination::Broadcast, i as u32);
    }
    let burst = net.footprint();
    assert!(burst.store > 0, "the queued burst is counted: {burst:?}");
    for _ in 0..3 {
        net.advance_frame(&mut rng);
    }
    check(net.footprint(), "after the traffic drained");
}

/// Bytes per node the protocol nodes may hold after construction: the
/// 112-byte record and the child-id slices (4 bytes a tree edge). A node
/// allocates nothing else under fixed δ: its tuples are the plane's.
const NODE_BYTES_AT_REST: usize = 120;

/// Bytes per node the protocol nodes may hold after 30 epochs: besides the
/// above, each parent's child-tuple list (24 bytes a child per catalog
/// type, so 96 a tree edge) and the few seen-query ids a node holds by
/// then.
const NODE_BYTES_AFTER_30_EPOCHS: usize = 232;

/// Bytes per node of the sensing plane under per-epoch sampling: a
/// 32-byte cell and a 16-byte sent tuple per catalog type, nothing else.
const SENSING_BYTES_PER_NODE: usize = 4 * (32 + 16);

/// A grid_2000 engine's protocol nodes and sensing plane stay within their
/// per-node budgets after construction and after 30 epochs: a per-node
/// allocation at construction, or a second copy of a tuple, breaks one of
/// them.
#[test]
fn engine_nodes_and_plane_hold_a_per_node_budget() {
    let mut engine = Engine::new(dirq::goldens::grid_2000_scenario());
    let n = engine.topology().len();
    let check = |f: EngineFootprint, node_budget: usize, when: &str| {
        assert!(
            f.nodes <= node_budget * n,
            "{when}: the nodes hold {} bytes a node, over {node_budget}: {f:?}",
            f.nodes / n
        );
        assert_eq!(f.sensing, SENSING_BYTES_PER_NODE * n, "{when}: {f:?}");
        assert_eq!(f.total(), f.mac.total() + f.nodes + f.sensing);
    };
    let at_rest = engine.footprint();
    check(at_rest, NODE_BYTES_AT_REST, "after construction");
    for _ in 0..30 {
        engine.step_epoch();
    }
    let running = engine.footprint();
    assert!(running.nodes > at_rest.nodes, "child tuples and seen lists are counted");
    check(running, NODE_BYTES_AFTER_30_EPOCHS, "after 30 epochs");
}

//! Memory held to a budget: the bytes each plane reports holding, from
//! its lengths and capacities, for a 2 000-node deployment.

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

//! Table == function: the route rows and the wiring table the step loop
//! indexes hold exactly what [`Topology::route`] and
//! [`Topology::link_dest`] compute. The functions stay the definition
//! (`nox-statics` extracts its channel-dependency graph from them); the
//! tables may only ever be a cache of their answers.

use nox_core::PortId;
use nox_sim::config::Arch;
use nox_sim::router::Router;
use nox_sim::topology::{NodeId, Topology, Wiring};

fn topologies() -> [Topology; 4] {
    [
        Topology::mesh(8, 8),
        Topology::mesh(4, 4),
        Topology::cmesh(4, 4, 4),
        Topology::ring(8),
    ]
}

#[test]
fn route_rows_equal_the_routing_function() {
    for topo in topologies() {
        for router in topo.grid().iter() {
            let mut r = Router::new(router, Arch::Nox, topo, 4);
            // Twice: the first lookup fills the row, the second reads it.
            for _ in 0..2 {
                for core in (0..topo.cores() as u16).map(NodeId) {
                    assert_eq!(
                        r.route_to(core),
                        topo.route(router, core),
                        "{topo:?}: {router} -> {core}"
                    );
                }
            }
        }
    }
}

#[test]
fn wiring_table_equals_link_dest() {
    for topo in topologies() {
        let wiring = Wiring::new(&topo);
        let mut links = 0;
        for router in topo.grid().iter() {
            for port in (0..topo.ports()).map(PortId) {
                let want = topo.link_dest(router, port);
                assert_eq!(
                    wiring.link_dest(router, port),
                    want,
                    "{topo:?}: {router} port {port}"
                );
                links += usize::from(want.is_some());
            }
        }
        assert!(links > 0, "{topo:?}: compared a table of `None`s");
    }
}

#[test]
fn attach_table_equals_router_of_and_local_port() {
    for topo in topologies() {
        let wiring = Wiring::new(&topo);
        for core in (0..topo.cores() as u16).map(NodeId) {
            assert_eq!(
                wiring.attach(core),
                (topo.router_of(core), topo.local_port(core)),
                "{topo:?}: {core}"
            );
        }
    }
}

/// The credit-owner lookup (which output port a freed input slot's credit
/// returns to) against the derivation it replaced: the neighbour in the
/// input port's direction, on that neighbour's opposite port.
#[test]
fn link_source_equals_the_neighbour_derivation() {
    for topo in topologies() {
        let wiring = Wiring::new(&topo);
        for router in topo.grid().iter() {
            for input in (0..topo.ports()).map(PortId) {
                let want = (!topo.is_local(input))
                    .then(|| topo.port_direction(input))
                    .and_then(|dir| {
                        let upstream = topo.neighbor(router, dir)?;
                        Some((upstream, topo.direction_port(dir.opposite())))
                    });
                assert_eq!(
                    wiring.link_source(router, input),
                    want,
                    "{topo:?}: {router} input {input}"
                );
            }
        }
    }
}

#[test]
fn ring_wraparound_credits_cross_the_seam() {
    let topo = Topology::ring(8);
    let wiring = Wiring::new(&topo);
    let east = topo.direction_port(nox_sim::topology::Port::East);
    let west = topo.direction_port(nox_sim::topology::Port::West);
    // Router 7's East output lands on router 0's West input, so a slot
    // freed there credits router 7's East port; and the other way round.
    assert_eq!(wiring.link_dest(NodeId(7), east), Some((NodeId(0), west)));
    assert_eq!(wiring.link_source(NodeId(0), west), Some((NodeId(7), east)));
    assert_eq!(wiring.link_source(NodeId(7), east), Some((NodeId(0), west)));
}

//! Lockstep between the static analyzer and the simulator: the
//! deadlock verdict `nox-statics` proves from the channel-dependency
//! graph must agree with what the cycle-accurate network actually does.
//! The mesh the analyzer proves safe drains under saturating permutation
//! pressure; the ring it flags wedges under the very traffic pattern the
//! witness cycle describes.

use nox::exec::Executor;
use nox::prelude::*;
use nox::sim::sim::RunSpec as SimRunSpec;
use nox::sim::topology::Topology;
use nox::sim::trace::Trace as SimTrace;
use nox::statics::cdg;

/// Every node fires `packets` wormholes of `len` flits at its image
/// under `dest`, all released together at the window open — the nastiest
/// synchronized burst the topology can see.
fn burst(nodes: u16, packets: u32, len: u16, dest: impl Fn(u16) -> u16) -> SimTrace {
    let mut t = SimTrace::new();
    for p in 0..packets {
        for i in 0..nodes {
            t.push(PacketEvent {
                time_ns: 20.0 + p as f64 * 2.0,
                src: NodeId(i),
                dest: NodeId(dest(i)),
                len,
            });
        }
    }
    t
}

/// A short window with a drain cap generous enough that any *live*
/// network clears the few dozen packets of [`burst`] many times over —
/// so `!drained` means wedged, not merely congested.
fn spec() -> SimRunSpec {
    SimRunSpec {
        warmup_ns: 10.0,
        measure_ns: 200.0,
        drain_ns: 50_000.0,
    }
}

#[test]
fn analyzer_proves_mesh_safe_and_the_sim_agrees() {
    // Static half: XY on the 4x4 mesh has an acyclic CDG.
    let cdg = cdg::extract(&Topology::mesh(4, 4), &Executor::sequential());
    assert!(cdg.deadlock_free(), "analyzer must prove the mesh safe");
    assert!(cdg.cyclic_sccs().is_empty());

    // Dynamic half: saturating transpose permutation, long packets, all
    // nodes synchronized — drains anyway, on every architecture.
    let trace = burst(16, 3, 8, |i| (i % 4) * 4 + i / 4);
    for arch in Arch::ALL {
        let res = nox::sim::run(NetConfig::small(arch), &trace, &spec());
        assert!(res.measured_total > 0, "{arch}: burst missed the window");
        assert!(
            res.drained,
            "{arch}: the provably deadlock-free mesh failed to drain \
             ({}/{} measured packets ejected)",
            res.measured_ejected, res.measured_total
        );
    }
}

#[test]
fn analyzer_flags_ring_and_the_sim_wedges() {
    // Static half: the unrestricted ring has a cyclic CDG with a
    // concrete witness — the all-East channel cycle.
    let cdg = cdg::extract(&Topology::ring(8), &Executor::sequential());
    assert!(!cdg.deadlock_free(), "analyzer must flag the ring");
    assert!(!cdg.witnesses().is_empty());

    // Dynamic half: realize the witness. Every node fires long wormholes
    // at its antipode (4 East hops each — route_ring breaks the tie
    // East), so all eight East channels fill and each head waits on the
    // channel held by the packet ahead: the witness cycle, live.
    let trace = burst(8, 3, 8, |i| (i + 4) % 8);
    let res = nox::sim::run(NetConfig::ring(Arch::NonSpec, 8), &trace, &spec());
    assert!(res.measured_total > 0, "burst missed the window");
    assert!(
        !res.drained,
        "the deadlock-prone ring drained {} of {} packets under the witness \
         traffic — the static verdict and the simulator disagree",
        res.measured_ejected, res.measured_total
    );
}

#[test]
fn statics_artifact_is_byte_identical_across_thread_counts() {
    // The CLI-visible contract behind `noxsim run statics --threads N`.
    let baseline = nox::statics::standard_report(&Executor::new(1)).to_json();
    for threads in [2, 8] {
        assert_eq!(
            nox::statics::standard_report(&Executor::new(threads)).to_json(),
            baseline,
            "statics artifact drifted at {threads} threads"
        );
    }
}

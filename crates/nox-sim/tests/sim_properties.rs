//! Property-based tests of the whole simulator: random traffic on random
//! topologies must conserve every flit, preserve per-packet order, keep
//! payload bits intact through arbitrary XOR encode/decode sequences, and
//! drain deadlock-free — on every router architecture.
//!
//! (Payload and ordering assertions fire *inside* the simulator; these
//! properties drive diverse inputs through them and check the global
//! accounting afterwards.)

use proptest::prelude::*;

use nox_sim::config::{Arch, NetConfig};
use nox_sim::network::Network;
use nox_sim::topology::NodeId;
use nox_sim::trace::{PacketEvent, Trace};

#[derive(Clone, Debug)]
struct RandomTraffic {
    events: Vec<(u16, u16, u16, u16)>, // (time slot, src, dest, len)
    concentration: u8,
}

fn traffic_strategy() -> impl Strategy<Value = RandomTraffic> {
    (1u8..=4).prop_flat_map(|concentration| {
        // 4x4 router grid; cores = 16 * concentration.
        let cores = 16 * concentration as u16;
        let events = prop::collection::vec(
            (
                0u16..500, // injection time slot (~0.5 ns units)
                0..cores,  // src
                0..cores,  // dest
                prop_oneof![Just(1u16), Just(2), Just(9)],
            ),
            1..60,
        );
        events.prop_map(move |events| RandomTraffic {
            events,
            concentration,
        })
    })
}

fn build(t: &RandomTraffic) -> Trace {
    Trace::from_events(
        t.events
            .iter()
            .filter(|&&(_, s, d, _)| s != d)
            .map(|&(slot, s, d, len)| PacketEvent {
                time_ns: slot as f64 * 0.5,
                src: NodeId(s),
                dest: NodeId(d),
                len,
            })
            .collect(),
    )
}

fn config(arch: Arch, concentration: u8) -> NetConfig {
    let mut cfg = NetConfig::small(arch);
    cfg.concentration = concentration;
    if concentration > 1 {
        // Longer clock for the wider router, as in the cmesh preset.
        cfg.clock_ps = nox_sim::config::cmesh_clock_ps(arch);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation on the NoX router over random topologies and traffic.
    #[test]
    fn nox_conserves_all_flits(t in traffic_strategy()) {
        let trace = build(&t);
        let mut net = Network::new(config(Arch::Nox, t.concentration), &trace, (0.0, f64::MAX));
        prop_assert!(net.run_to_quiescence(200_000), "failed to drain");
        prop_assert_eq!(net.counters().packets_ejected, trace.len() as u64);
        prop_assert_eq!(net.counters().flits_injected, net.counters().flits_ejected);
        // NoX never wastes link cycles except on multi-flit aborts.
        prop_assert_eq!(net.counters().link_wasted, net.counters().aborts);
    }

    /// All four architectures agree on *what* is delivered (same packet
    /// set), differing only in timing.
    #[test]
    fn all_architectures_deliver_the_same_packets(t in traffic_strategy()) {
        let trace = build(&t);
        let mut delivered: Option<u64> = None;
        for arch in Arch::ALL {
            let mut net = Network::new(config(arch, t.concentration), &trace, (0.0, f64::MAX));
            prop_assert!(net.run_to_quiescence(400_000), "{} failed to drain", arch);
            let got = net.counters().packets_ejected;
            if let Some(d) = delivered {
                prop_assert_eq!(d, got, "{} delivered a different packet count", arch);
            }
            delivered = Some(got);
        }
    }

    /// The sequential router never drives a wasted link cycle, and the
    /// speculative routers waste exactly one per collision.
    #[test]
    fn wasted_link_cycle_accounting(t in traffic_strategy()) {
        let trace = build(&t);
        let mut net = Network::new(config(Arch::NonSpec, t.concentration), &trace, (0.0, f64::MAX));
        prop_assert!(net.run_to_quiescence(400_000));
        prop_assert_eq!(net.counters().link_wasted, 0);

        for arch in [Arch::SpecFast, Arch::SpecAccurate] {
            let mut net = Network::new(config(arch, t.concentration), &trace, (0.0, f64::MAX));
            prop_assert!(net.run_to_quiescence(400_000));
            prop_assert_eq!(net.counters().link_wasted, net.counters().collisions);
        }
    }

    /// Per-packet latency is at least the ideal unloaded bound (hops + 1
    /// ejection + injection handling), for every packet.
    #[test]
    fn latency_never_beats_physics(t in traffic_strategy()) {
        let trace = build(&t);
        let cfg = config(Arch::Nox, t.concentration);
        let topo = cfg.topology();
        let mut net = Network::new(cfg, &trace, (0.0, f64::MAX));
        net.enable_eject_log();
        prop_assert!(net.run_to_quiescence(200_000));
        for &(pkt, eject_cycle) in net.eject_log().unwrap() {
            let meta = net.packets().meta(pkt);
            let hops = topo.hops(meta.src, meta.dest) as u64;
            let min_cycles = hops + meta.len as u64;
            prop_assert!(
                eject_cycle - meta.created_cycle >= min_cycles,
                "packet {:?} beat the physical bound",
                pkt
            );
        }
    }
}

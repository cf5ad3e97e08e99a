//! Cross-counter invariants on a contended run, for all four
//! architectures: the energy model and the probe both derive quantities
//! from `Counters`, so the books they read must balance among themselves,
//! not just against the traffic.
//!
//! The traffic deliberately mixes a uniform background with two sources
//! equidistant from a merge router, so NoX sees encoded words and the
//! speculative routers see collisions — the wasted-word accounting is
//! exercised, not just the happy path.

use nox::prelude::*;
use nox::sim::network::Network;
use nox::traffic::synthetic::generate;

fn contended_trace() -> Trace {
    let mesh = Mesh::new(4, 4);
    let background = generate(
        mesh,
        &SyntheticConfig {
            duration_ns: 3_000.0,
            ..SyntheticConfig::uniform(1_500.0, 3_000.0)
        },
    );
    let mut events = background.events().to_vec();
    // Nodes 6 (2,1) and 9 (1,2) are both one hop from node 10 (2,2):
    // their flits meet at router 10 in the same cycle and collide there.
    for i in 0..100u32 {
        for src in [6u16, 9] {
            events.push(PacketEvent {
                time_ns: i as f64 * 4.0,
                src: NodeId(src),
                dest: NodeId(10),
                len: 1,
            });
        }
    }
    Trace::from_events(events)
}

#[test]
fn counters_balance_on_a_contended_run_for_all_architectures() {
    let trace = contended_trace();
    let total_flits = trace.total_flits();
    for arch in Arch::ALL {
        let mut net = Network::new(NetConfig::small(arch), &trace, (0.0, f64::MAX));
        net.enable_sanitizer();
        assert!(
            net.run_to_quiescence(400_000),
            "{arch} failed to drain the contended trace"
        );
        let c = net.counters();

        // Conservation: every flit injected is ejected, none invented.
        assert_eq!(c.flits_injected, total_flits, "{arch}: lost at injection");
        assert_eq!(c.flits_injected, c.flits_ejected, "{arch}: flits vanished");
        assert_eq!(c.packets_injected, c.packets_ejected, "{arch}");

        // What the channel energy model charges for is exactly the
        // productive plus the wasted words.
        assert_eq!(
            c.link_transitions(),
            c.link_flits + c.link_wasted,
            "{arch}: link transition books don't balance"
        );

        // Every flit crosses at least its ejection link.
        assert!(
            c.link_flits >= c.flits_ejected,
            "{arch}: fewer link words than ejected flits"
        );

        // Wasted words are attributed to exactly one cause per
        // architecture: aborts on NoX, failed speculation on the
        // speculative routers, and nothing at all without speculation.
        match arch {
            Arch::NonSpec => {
                assert_eq!(c.link_wasted, 0, "non-speculative router wasted a word");
                assert_eq!(c.collisions + c.aborts, 0, "{arch}");
            }
            Arch::SpecFast | Arch::SpecAccurate => {
                assert_eq!(c.link_wasted, c.collisions, "{arch}: wasted != collisions");
                assert_eq!(c.aborts, 0, "{arch}: speculative router cannot abort");
                assert!(c.collisions > 0, "{arch}: contended run saw no collisions");
            }
            Arch::Nox => {
                assert_eq!(c.link_wasted, c.aborts, "NoX: wasted != aborts");
                assert_eq!(
                    c.collisions, 0,
                    "NoX collisions are productive, not counted"
                );
                assert!(
                    c.encoded_transfers > 0,
                    "NoX: contended run produced no encoded words"
                );
            }
        }

        // Encoded words ride productive link transfers.
        assert!(c.encoded_transfers <= c.link_flits, "{arch}");
        // Only NoX ever encodes.
        if arch != Arch::Nox {
            assert_eq!(c.encoded_transfers, 0, "{arch}: non-NoX router encoded");
        }
    }
}

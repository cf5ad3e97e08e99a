//! Sanitized end-to-end runs: every architecture under contention-heavy
//! traffic with the per-cycle conservation audits enabled.

use nox_sim::config::{Arch, NetConfig};
use nox_sim::topology::NodeId;
use nox_sim::trace::{PacketEvent, Trace};
use nox_sim::Network;

/// Hotspot traffic: every node fires at a single destination so the
/// victim router sees sustained multi-way collisions, plus a few long
/// packets to exercise streaming, aborts, and mid-chain credit stalls.
fn contention_trace(cores: u16) -> Trace {
    let mut events = Vec::new();
    for i in 0..cores {
        events.push(PacketEvent {
            time_ns: i as f64 * 0.3,
            src: NodeId(i),
            dest: NodeId(5),
            len: if i % 3 == 0 { 4 } else { 1 },
        });
        events.push(PacketEvent {
            time_ns: 2.0 + i as f64 * 0.2,
            src: NodeId(i),
            dest: NodeId((i + 7) % cores),
            len: 2,
        });
    }
    events.sort_by(|a, b| a.time_ns.total_cmp(&b.time_ns));
    let mut t = Trace::new();
    for e in events {
        t.push(e);
    }
    t
}

#[test]
fn sanitized_contention_run_stays_clean_on_every_arch() {
    for arch in Arch::ALL {
        let cfg = NetConfig::small(arch);
        let mut net = Network::new(cfg, &contention_trace(16), (0.0, f64::MAX));
        net.enable_sanitizer();
        assert!(
            net.run_to_quiescence(20_000),
            "{arch} failed to drain under sanitizer"
        );
        let c = net.counters();
        assert_eq!(c.flits_injected, c.flits_ejected, "{arch} lost flits");
    }
}

#[test]
fn sanitizer_audits_an_idle_network_without_complaint() {
    let mut net = Network::new(NetConfig::small(Arch::Nox), &Trace::new(), (0.0, f64::MAX));
    net.enable_sanitizer();
    net.run(50);
    assert!(net.is_quiescent());
}

#[test]
fn sanitizer_stays_clean_on_a_fully_drained_network() {
    // After the last flit ejects, every structure is empty; continuing
    // to tick must keep every audit clean and move no flits.
    for arch in Arch::ALL {
        let cfg = NetConfig::small(arch);
        let mut net = Network::new(cfg, &contention_trace(16), (0.0, f64::MAX));
        net.enable_sanitizer();
        assert!(
            net.run_to_quiescence(20_000),
            "{arch} failed to drain under sanitizer"
        );
        let drained = *net.counters();
        net.run(500);
        let after = *net.counters();
        assert!(net.is_quiescent(), "{arch} woke up after draining");
        assert_eq!(drained.flits_injected, after.flits_injected);
        assert_eq!(
            drained.flits_ejected, after.flits_ejected,
            "{arch} ejected post-drain"
        );
    }
}

/// A zero-rate fault plan with no dead links, freezes, or retransmission
/// must be completely inert: same counters as a fault-free run, zero
/// fault events, settled from the first cycle — with the sanitizer
/// auditing the combination the whole way.
#[test]
fn zero_rate_fault_plan_is_inert_under_the_sanitizer() {
    use nox_fault::FaultConfig;

    for trace in [contention_trace(16), Trace::new()] {
        let baseline = {
            let mut net = Network::new(NetConfig::small(Arch::Nox), &trace, (0.0, f64::MAX));
            net.enable_sanitizer();
            assert!(net.run_to_quiescence(20_000));
            *net.counters()
        };
        let mut net = Network::new(NetConfig::small(Arch::Nox), &trace, (0.0, f64::MAX));
        net.enable_sanitizer();
        net.enable_faults(FaultConfig::bit_flips(0x5EED, 0.0));
        assert!(
            net.faults_settled(),
            "zero-rate plan not settled at cycle 0"
        );
        assert!(net.run_to_settlement(20_000));
        assert_eq!(
            *net.counters(),
            baseline,
            "zero-rate plan perturbed the run"
        );
        let stats = net.fault_state().unwrap().stats();
        assert_eq!(stats.injected_bit_flips, 0);
        assert_eq!(stats.silent_corruptions, 0);
        assert_eq!(stats.detected_crc, 0);
    }
}

/// The audits of what the step loop skips: every sleeping router is
/// ticked as a clone, and the tick must have emitted nothing, counted
/// nothing and left the router settled; every source outside the
/// injecting set must have had nothing to inject; every sink outside the
/// draining set is drained as a clone, which must do nothing. Sparse
/// traffic on the 4x4 mesh keeps most of them asleep most cycles —
/// including right after a Spec-Fast output took its stale reservation's
/// extra tick and a NoX output fell back from Scheduled — so the audits
/// have something to check on every cycle.
#[test]
fn skipped_router_ticks_are_audited_as_identities() {
    for arch in Arch::ALL {
        let cfg = NetConfig::small(arch);
        let mut events = Vec::new();
        for i in 0..40u16 {
            events.push(PacketEvent {
                time_ns: f64::from(i) * 6.0,
                src: NodeId(i % 16),
                dest: NodeId((i * 5 + 3) % 16),
                len: 1 + (i % 3) * 2,
            });
            // A second packet for the same router a cycle later: contention.
            events.push(PacketEvent {
                time_ns: f64::from(i) * 6.0 + cfg.clock_ns(),
                src: NodeId((i + 4) % 16),
                dest: NodeId((i * 5 + 3) % 16),
                len: 1,
            });
        }
        events.sort_by(|a, b| a.time_ns.total_cmp(&b.time_ns));
        let mut net = Network::new(cfg, &Trace::from_events(events), (0.0, f64::MAX));
        net.enable_sanitizer();
        assert!(net.run_to_quiescence(20_000), "{arch} failed to drain");
        assert_eq!(net.counters().packets_ejected, 80, "{arch}");
        let all = net.cycle() * 16;
        assert!(
            net.router_ticks() * 2 < all,
            "{arch}: {} of {all} router ticks, the audit had little to check",
            net.router_ticks()
        );
        // The audits of skipped sources and sinks, likewise: on most
        // cycles most of the sixteen of each were asleep and got checked.
        assert!(
            net.source_visits() * 2 < all && net.sink_visits() * 2 < all,
            "{arch}: {} source and {} sink visits of {all}",
            net.source_visits(),
            net.sink_visits()
        );
    }
}

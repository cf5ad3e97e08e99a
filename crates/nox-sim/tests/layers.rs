//! The simulator's optional layers — sanitizer, phase clock, probe, fault
//! campaign — are all compiled into one build and switched at run time.
//! Attached together they must not move a simulated number: this runs
//! every architecture on the 4x4 mesh, the concentrated mesh and the
//! paper's 8x8 mesh driven past saturation bare, then with every observer
//! at once, then under a zero-rate fault plan, and compares everything a
//! run reports, and the work it did to get there.
//!
//! Every run steps the same loop; a phase clock times the router loop
//! from outside (DESIGN.md §16). So an observer must not change how many
//! routers, ports, sources or sinks are visited: the work counters come
//! out equal. A zero-rate campaign visits every router, source and sink
//! every cycle, and still exactly the ports the bare run visits; it
//! builds every presented record at every visit, and reuses none. The
//! saturated case keeps routers busy on every port: collisions, encoded
//! chains, aborts, Spec-Fast stale reservations, outputs out of credit.

use nox_sim::config::{Arch, NetConfig};
use nox_sim::fault::FaultConfig;
use nox_sim::flit::PacketId;
use nox_sim::network::Network;
use nox_sim::topology::NodeId;
use nox_sim::trace::{PacketEvent, Trace};
use nox_sim::{Counters, LatencyStats};
use nox_telemetry::phase::{SIM_ROUTE, SIM_STEP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform-random traffic, a `long_share` of it nine-flit data packets
/// and the rest single flits: `per_cycle` packets per node per cycle for
/// `cycles` cycles.
fn mixed_trace(cfg: &NetConfig, per_cycle: f64, long_share: f64, cycles: u64) -> Trace {
    let nodes = cfg.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(0x1A7E5);
    let mut trace = Trace::new();
    for cycle in 0..cycles {
        for src in 0..nodes {
            if rng.gen_bool(per_cycle) {
                trace.push(PacketEvent {
                    time_ns: cycle as f64 * cfg.clock_ns(),
                    src: NodeId(src),
                    dest: NodeId(rng.gen_range(0..nodes)),
                    len: if rng.gen_bool(long_share) { 9 } else { 1 },
                });
            }
        }
    }
    trace
}

/// Everything a run reports.
#[derive(Debug, PartialEq)]
struct Report {
    cycles: u64,
    counters: Counters,
    latency: LatencyStats,
    ejections: Vec<(PacketId, u64)>,
}

fn report(net: &Network) -> Report {
    Report {
        cycles: net.cycle(),
        counters: *net.counters(),
        latency: *net.latency_measured_ns(),
        ejections: net.eject_log().expect("eject log enabled").to_vec(),
    }
}

/// The work a run did, in things visited.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Work {
    router_ticks: u64,
    source_visits: u64,
    sink_visits: u64,
    input_visits: u64,
    output_ticks: u64,
    presents_reused: u64,
}

fn work(net: &Network) -> Work {
    Work {
        router_ticks: net.router_ticks(),
        source_visits: net.source_visits(),
        sink_visits: net.sink_visits(),
        input_visits: net.input_visits(),
        output_ticks: net.output_ticks(),
        presents_reused: net.presents_reused(),
    }
}

/// A network that measures the second half of the trace and logs every
/// ejection.
fn network(cfg: NetConfig, trace: &Trace) -> Network {
    let mut net = Network::new(cfg, trace, (trace.horizon_ns() / 2.0, f64::MAX));
    net.enable_eject_log();
    net
}

/// A network with every observer attached. Must be called with the
/// process-wide profiling switch on, so it owns a phase clock.
fn observed(cfg: NetConfig, trace: &Trace) -> Network {
    let mut net = network(cfg, trace);
    net.enable_sanitizer();
    net.enable_probe(nox_sim::probe::ProbeConfig {
        window_cycles: 64,
        ring_capacity: 1_024,
    });
    net
}

/// Drops `net` and returns how many steps its phase clock flushed into
/// this thread's telemetry accumulator. Whatever it flushed has the
/// router loop timed once a step and the work counters beside it.
fn profiled_steps(net: Network) -> u64 {
    let w = work(&net);
    drop(nox_telemetry::take_acc());
    drop(net);
    let Some(acc) = nox_telemetry::take_acc() else {
        return 0;
    };
    let steps = acc.phase(SIM_STEP).count;
    assert_eq!(acc.phase(SIM_ROUTE).count, steps, "one router loop a step");
    let flushed = |key: &str| acc.counters().get(key).copied().unwrap_or(0);
    let counted = Work {
        router_ticks: flushed("sim.router_ticks"),
        source_visits: flushed("sim.source_visits"),
        sink_visits: flushed("sim.sink_visits"),
        input_visits: flushed("sim.input_visits"),
        output_ticks: flushed("sim.output_ticks"),
        presents_reused: flushed("sim.presents_reused"),
    };
    assert_eq!(counted, w, "the work counters did not go with the clock");
    steps
}

// One test function: the profiling switch is process-wide, the bare runs
// must be built while it is off, and a clock only flushes while it is on.
#[test]
fn layers_attached_together_move_no_simulated_number() {
    for arch in Arch::ALL {
        // The small topologies carry a 40 % share of nine-flit packets,
        // dense enough for collisions, aborts and decode chains. The 8x8
        // mesh is offered mostly single flits (they are what collides
        // and chains), 0.63 flits per node per cycle, about twice what it
        // can carry.
        let topologies = [
            ("mesh(4,4)", NetConfig::small(arch), 0.04, 0.4, 1_200),
            (
                "cmesh(4,4,4)",
                NetConfig::cmesh_paper(arch),
                0.015,
                0.4,
                1_200,
            ),
            (
                "mesh(8,8) saturated",
                NetConfig::paper(arch),
                0.45,
                0.05,
                200,
            ),
        ];
        for (name, cfg, per_cycle, long_share, cycles) in topologies {
            let trace = mixed_trace(&cfg, per_cycle, long_share, cycles);
            let routers = cfg.topology().routers() as u64;
            let cores = cfg.topology().cores() as u64;

            let mut bare = network(cfg, &trace);
            assert!(bare.run_to_quiescence(200_000), "{arch} {name}: no drain");
            let expected = report(&bare);
            let expected_work = work(&bare);
            assert_eq!(expected.counters.packets_ejected, trace.len() as u64);
            assert!(expected.latency.count() > 0, "{arch} {name}: none measured");
            assert!(
                bare.router_ticks() < expected.cycles * routers,
                "{arch} {name}: no router ever slept"
            );
            // Heads wait for their outputs, and their records are reused.
            assert!(
                0 < expected_work.presents_reused
                    && expected_work.presents_reused < expected_work.input_visits,
                "{arch} {name}: {expected_work:?}"
            );
            if routers == 64 {
                let c = &expected.counters;
                let busy = match arch {
                    Arch::NonSpec => true,
                    Arch::SpecFast => c.collisions > 500 && c.wasted_reservations > 10_000,
                    Arch::SpecAccurate => c.collisions > 3_000,
                    Arch::Nox => c.encoded_transfers > 1_000 && c.aborts > 100,
                };
                assert!(
                    busy && c.link_flits > 50 * expected.cycles,
                    "{arch} {name}: the mesh was not busy: {c:?}"
                );
            }
            assert_eq!(profiled_steps(bare), 0, "{arch} {name}: bare run profiled");

            // Sanitizer + phase clock + probe on one network.
            nox_telemetry::set_profiling(true);
            let mut all = observed(cfg, &trace);
            assert!(all.run_to_quiescence(200_000));
            assert_eq!(report(&all), expected, "{arch} {name}: observers perturbed");
            assert_eq!(
                work(&all),
                expected_work,
                "{arch} {name}: observers moved work"
            );
            let mut probe = all.take_probe().expect("probe attached");
            probe.finish();
            assert_eq!(probe.cycles_observed(), expected.cycles);
            assert_eq!(
                profiled_steps(all),
                expected.cycles,
                "{arch} {name}: the phase clock missed steps"
            );

            // The same, under a fault plan that never fires: every router,
            // source and sink is visited every cycle, and nothing else
            // differs.
            let mut campaign = observed(cfg, &trace);
            campaign.enable_faults(FaultConfig::default());
            assert!(campaign.run_to_settlement(200_000));
            assert_eq!(
                report(&campaign),
                expected,
                "{arch} {name}: a zero-rate campaign perturbed the run"
            );
            assert_eq!(
                work(&campaign),
                Work {
                    router_ticks: expected.cycles * routers,
                    source_visits: expected.cycles * cores,
                    sink_visits: expected.cycles * cores,
                    presents_reused: 0,
                    ..expected_work
                },
                "{arch} {name}: a zero-rate campaign visited the wrong ports"
            );
            let stats = campaign.fault_state().expect("campaign attached").stats();
            assert_eq!(stats.injected_total(), 0);
            assert_eq!(profiled_steps(campaign), expected.cycles);
            nox_telemetry::set_profiling(false);
        }
    }
}

//! Quiescence-driven stepping (DESIGN.md §17): the network ticks only
//! the routers whose tick can change something, and nothing a simulation
//! reports may depend on that.
//!
//! The benchmark's traces are single-flit; these tests cover what they
//! cannot — multi-flit wormholes, NoX aborts, decode chains that outlive
//! their router's last tick, traffic injected into a sleeping network,
//! cloning — and pin the work counter [`Network::router_ticks`]. Every
//! cycle of every run is audited by the sanitizer (each skipped router is
//! ticked as a clone and must not have moved), and runs are also compared
//! with the same network under a zero-rate fault plan, which ticks every
//! router every cycle.

use nox_sim::config::{Arch, NetConfig};
use nox_sim::network::Network;
use nox_sim::topology::NodeId;
use nox_sim::trace::{PacketEvent, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flits of a data packet: 8 B header + 64 B cache line (Table 1).
const DATA_FLITS: u16 = 9;

/// Uniform-random traffic, `per_cycle` packets per core per cycle for
/// `cycles` cycles: nine-flit data packets with probability `data_share`,
/// single-flit control packets otherwise (the CMP mix when it is not 0).
fn random_trace(cfg: &NetConfig, per_cycle: f64, cycles: u64, data_share: f64, seed: u64) -> Trace {
    let nodes = cfg.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for cycle in 0..cycles {
        for src in 0..nodes {
            if rng.gen_bool(per_cycle) {
                trace.push(PacketEvent {
                    time_ns: cycle as f64 * cfg.clock_ns(),
                    src: NodeId(src),
                    dest: NodeId(rng.gen_range(0..nodes)),
                    len: if rng.gen_bool(data_share) {
                        DATA_FLITS
                    } else {
                        1
                    },
                });
            }
        }
    }
    trace
}

/// CMP-style traffic: 40 % data packets.
fn cmp_style_trace(cfg: &NetConfig, per_cycle: f64, cycles: u64, seed: u64) -> Trace {
    random_trace(cfg, per_cycle, cycles, 0.4, seed)
}

/// Single-flit traffic at `mbps` MB/s per node, the benchmark's two
/// operating points on the paper's mesh.
fn uniform_trace(cfg: &NetConfig, mbps: f64, cycles: u64) -> Trace {
    let per_cycle = mbps / 1_000.0 / f64::from(cfg.flit_bytes) * cfg.clock_ns();
    random_trace(cfg, per_cycle, cycles, 0.0, 0x0A0C5)
}

/// A network with its eject log and the sanitizer switched on.
fn observed(cfg: NetConfig, trace: &Trace) -> Network {
    let mut net = Network::new(cfg, trace, (0.0, f64::MAX));
    net.enable_eject_log();
    net.enable_sanitizer();
    net
}

fn routers(cfg: &NetConfig) -> u64 {
    cfg.topology().routers() as u64
}

/// Everything a run reports.
fn report(net: &Network) -> (u64, nox_sim::Counters, Vec<(nox_sim::flit::PacketId, u64)>) {
    (
        net.cycle(),
        *net.counters(),
        net.eject_log().expect("eject log enabled").to_vec(),
    )
}

#[test]
fn multiflit_traffic_is_unchanged_by_skipping_on_every_topology() {
    for arch in Arch::ALL {
        let topologies = [
            ("mesh(4,4)", NetConfig::small(arch), 0.04),
            ("cmesh(4,4,4)", NetConfig::cmesh_paper(arch), 0.015),
            // Shortest-path ring routing can deadlock under load
            // (`routing::route_ring`); keep it light.
            ("ring(8)", NetConfig::ring(arch, 8), 0.03),
        ];
        for (name, cfg, per_cycle) in topologies {
            let trace = cmp_style_trace(&cfg, per_cycle, 1_500, 0xC3F);
            let mut net = observed(cfg, &trace);
            assert!(net.run_to_quiescence(200_000), "{arch} {name}: no drain");
            let c = *net.counters();
            assert_eq!(c.packets_ejected, trace.len() as u64, "{arch} {name}");
            assert_eq!(c.flits_injected, c.flits_ejected, "{arch} {name}");
            assert!(
                c.flits_ejected > 2 * c.packets_ejected,
                "{arch} {name}: the trace has no multi-flit share"
            );
            if arch == Arch::Nox {
                assert!(c.aborts > 0, "{name}: no multi-flit collision aborted");
                assert!(c.encoded_transfers > 0, "{name}: no collision encoded");
            }
            let all = net.cycle() * routers(&cfg);
            assert!(
                net.router_ticks() < all,
                "{arch} {name}: no router ever slept ({all} ticks)"
            );

            // The reference: the same run with every router ticking.
            let mut every = observed(cfg, &trace);
            every.enable_faults(nox_sim::fault::FaultConfig::default());
            assert!(every.run_to_settlement(200_000));
            assert_eq!(every.router_ticks(), every.cycle() * routers(&cfg));
            assert_eq!(
                report(&every),
                report(&net),
                "{arch} {name}: skipping settled routers changed the run"
            );
        }
    }
}

#[test]
fn decode_chain_resumes_after_its_router_slept() {
    // Node 4 -> 7 and node 5 -> 7 collide on router 5's East output right
    // behind a plain word that took the first of its two credits. The
    // encoded word takes the second; the chain's last word then waits at
    // router 5 for a credit that is ten cycles away. Router 6 latches the
    // encoded word into its decode register, has nothing else buffered,
    // and goes to sleep mid-chain; the late word must wake it and decode.
    let cfg = NetConfig {
        buffer_depth: 2,
        credit_delay: 10,
        ..NetConfig::small(Arch::Nox)
    };
    let mut net = observed(cfg, &Trace::new());
    net.inject(NodeId(4), NodeId(7), 1, true);
    net.step();
    net.inject(NodeId(4), NodeId(7), 1, true);
    net.step();
    net.inject(NodeId(5), NodeId(7), 1, true);

    let mut slept_mid_chain = 0;
    for _ in 0..200 {
        if net.is_quiescent() {
            break;
        }
        let before = net.router_ticks();
        net.step();
        let c = net.counters();
        let latched_not_decoded = c.decode_reg_writes == 1 && c.decode_xors == 0;
        // One tick: router 5, stalled with the chain's last word. Router 6
        // holds the register and was not ticked.
        if latched_not_decoded && net.router_ticks() - before == 1 {
            slept_mid_chain += 1;
        }
    }
    assert!(net.is_quiescent(), "the chain never completed");
    let c = net.counters();
    assert_eq!(c.encoded_transfers, 1, "the two packets did not collide");
    assert_eq!(c.decode_xors, 1);
    assert_eq!(c.packets_ejected, 3);
    assert!(
        slept_mid_chain >= 3,
        "router 6 never slept on its decode register ({slept_mid_chain} cycles)"
    );
}

#[test]
fn injection_wakes_a_drained_sleeping_network() {
    for arch in Arch::ALL {
        let cfg = NetConfig::small(arch);
        let trace = cmp_style_trace(&cfg, 0.05, 200, 7);
        let mut net = observed(cfg, &trace);
        assert!(net.run_to_quiescence(50_000));
        // Leftover engine state (a stale Spec-Fast reservation) settles.
        net.run(4);
        let asleep = net.router_ticks();
        net.run(100);
        assert_eq!(net.router_ticks(), asleep, "{arch}: ticking while drained");

        let ejected = net.counters().packets_ejected;
        let id = net.inject(NodeId(0), NodeId(15), DATA_FLITS, true);
        assert!(!net.is_quiescent());
        assert!(net.run_to_quiescence(1_000), "{arch}: injected packet lost");
        assert_eq!(net.counters().packets_ejected, ejected + 1);
        assert_eq!(net.eject_log().unwrap().last().unwrap().0, id);
        // Seven routers on the XY path, each awake for about the nine
        // cycles the packet takes to pass: nowhere near all sixteen
        // routers for the whole flight.
        let woken = net.router_ticks() - asleep;
        assert!((7..=7 * 14).contains(&woken), "{arch}: {woken} ticks");
    }
}

#[test]
fn clone_of_a_half_asleep_network_continues_identically() {
    for arch in Arch::ALL {
        let cfg = NetConfig::small(arch);
        let trace = cmp_style_trace(&cfg, 0.02, 600, 11);
        let mut net = observed(cfg, &trace);
        net.run(300);
        let before = net.router_ticks();
        net.step();
        let awake = net.router_ticks() - before;
        assert!(
            0 < awake && awake < routers(&cfg),
            "{arch}: {awake} routers awake, wanted some but not all"
        );

        let mut twin = net.clone();
        assert!(net.run_to_quiescence(50_000));
        assert!(twin.run_to_quiescence(50_000));
        assert_eq!(report(&twin), report(&net), "{arch}");
        assert_eq!(twin.router_ticks(), net.router_ticks(), "{arch}");
    }
}

#[test]
fn router_ticks_follow_the_load() {
    const CYCLES: u64 = 4_000;
    for arch in Arch::ALL {
        let cfg = NetConfig::paper(arch);
        let all = CYCLES * routers(&cfg);

        // 200 MB/s/node, 3-4 % link utilisation: most routers sleep.
        let mut low = Network::new(cfg, &uniform_trace(&cfg, 200.0, CYCLES), (0.0, 0.0));
        low.run(CYCLES);
        let ticks = low.router_ticks();
        assert!(
            (ticks as f64) < 0.35 * all as f64,
            "{arch}: {ticks} of {all} router ticks at low load"
        );

        // Once drained the counter stops.
        assert!(low.run_to_quiescence(10_000));
        low.run(4);
        let drained = low.router_ticks();
        low.run(1_000);
        assert_eq!(low.router_ticks(), drained, "{arch}: ticking while drained");

        // 2000 MB/s/node: hardly anybody sleeps, and nobody is counted twice.
        let mut high = Network::new(cfg, &uniform_trace(&cfg, 2_000.0, CYCLES), (0.0, 0.0));
        high.run(CYCLES);
        let ticks = high.router_ticks();
        assert!(
            ticks as f64 > 0.6 * all as f64 && ticks <= all,
            "{arch}: {ticks} of {all} router ticks at saturation"
        );
    }
}

/// A fault campaign reaches routers that have nothing buffered (freeze
/// draws, credit corruption, watchdog resets), so while one is attached
/// every router ticks — even a plan that never fires.
#[test]
fn every_router_ticks_under_a_fault_plan() {
    let cfg = NetConfig::paper(Arch::Nox);
    let trace = uniform_trace(&cfg, 200.0, 500);
    let mut net = Network::new(cfg, &trace, (0.0, 0.0));
    net.enable_faults(nox_sim::fault::FaultConfig::default());
    net.run(1_000);
    assert_eq!(net.router_ticks(), 1_000 * routers(&cfg));

    // Attached mid-run, it wakes whoever was asleep.
    let mut net = Network::new(cfg, &trace, (0.0, 0.0));
    net.run(400);
    let before = net.router_ticks();
    assert!(before < 400 * routers(&cfg));
    net.enable_faults(nox_sim::fault::FaultConfig::default());
    net.run(600);
    assert_eq!(net.router_ticks() - before, 600 * routers(&cfg));
}

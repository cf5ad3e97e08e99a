//! Quiescence-driven stepping (DESIGN.md §16): the network visits
//! only the sources, routers and sinks that can act, and a router only
//! its occupied inputs and demanded outputs, and nothing a simulation
//! reports may depend on that.
//!
//! The benchmark's traces are single-flit; these tests cover what they
//! cannot — multi-flit wormholes, NoX aborts, decode chains that outlive
//! their router's or sink's last visit, a source stalled mid-packet,
//! traffic injected into a sleeping network or behind a trace that is
//! still running, cloning — and pin the work counters
//! [`Network::router_ticks`], [`Network::source_visits`],
//! [`Network::sink_visits`], [`Network::input_visits`] and
//! [`Network::output_ticks`]. Every cycle of every run is audited by the
//! sanitizer (each skipped router is ticked and each skipped sink drained
//! as a clone and must not have moved, each skipped source must have had
//! nothing to inject), and runs are also compared with the same network
//! under a zero-rate fault plan, which visits everything every cycle.

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

/// The same network as `observed`, under a fault plan that never fires:
/// every source, router and sink is visited every cycle.
fn reference(cfg: NetConfig, trace: &Trace) -> Network {
    let mut net = observed(cfg, trace);
    net.enable_faults(nox_sim::fault::FaultConfig::default());
    net
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
        // 72 cores: the sets of sources, sinks and routers each span two
        // machine words.
        let mesh_9x8 = NetConfig {
            width: 9,
            ..NetConfig::paper(arch)
        };
        let topologies = [
            ("mesh(4,4)", NetConfig::small(arch), 0.04, 1_500),
            // Four cores a router: four local ports share its port sets.
            ("cmesh(4,4,4)", NetConfig::cmesh_paper(arch), 0.015, 1_500),
            // Shortest-path ring routing can deadlock under load
            // (`routing::route_ring`); keep it light.
            ("ring(8)", NetConfig::ring(arch, 8), 0.03, 1_500),
            ("mesh(9,8)", mesh_9x8, 0.02, 300),
        ];
        for (name, cfg, per_cycle, cycles) in topologies {
            let trace = cmp_style_trace(&cfg, per_cycle, cycles, 0xC3F);
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
            let all = net.cycle() * cfg.nodes() as u64;
            assert!(
                net.source_visits() < all && net.sink_visits() < all,
                "{arch} {name}: no source or no sink ever slept ({all} visits)"
            );

            // The reference: the same run with everything visited.
            let mut every = reference(cfg, &trace);
            assert!(every.run_to_settlement(200_000));
            assert_eq!(every.router_ticks(), every.cycle() * routers(&cfg));
            assert_eq!(every.source_visits(), all, "{arch} {name}");
            assert_eq!(every.sink_visits(), all, "{arch} {name}");
            // A sleeping router has no occupied input and no demanded
            // output, so waking it adds no port work.
            assert_eq!(every.input_visits(), net.input_visits(), "{arch} {name}");
            assert_eq!(every.output_ticks(), net.output_ticks(), "{arch} {name}");
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
fn sink_sleeps_on_a_mid_chain_register_and_wakes_on_the_last_word() {
    // The same at an ejection port. A plain word from node 4 takes the
    // first of the two credits of router 5's local output; a cycle later
    // words from nodes 4 and 6 collide there and the encoded word takes
    // the second. Sink 5 latches it, holds nothing else, and leaves the
    // draining set with its register mid-chain, while the chain's last
    // word waits in router 5 for a credit that is ten cycles away.
    let cfg = NetConfig {
        buffer_depth: 2,
        credit_delay: 10,
        ..NetConfig::small(Arch::Nox)
    };
    let mut net = observed(cfg, &Trace::new());
    net.inject(NodeId(4), NodeId(5), 1, true);
    net.step();
    net.inject(NodeId(4), NodeId(5), 1, true);
    net.inject(NodeId(6), NodeId(5), 1, true);

    let mut slept_mid_chain = 0;
    for _ in 0..200 {
        if net.is_quiescent() {
            break;
        }
        let before = net.sink_visits();
        net.step();
        let c = net.counters();
        let latched_not_decoded = c.decode_reg_writes == 1 && c.decode_xors == 0;
        if latched_not_decoded && net.sink_visits() == before {
            slept_mid_chain += 1;
            assert!(!net.is_quiescent(), "quiescent over a register mid-chain");
        }
    }
    assert!(net.is_quiescent(), "the chain never completed");
    let c = net.counters();
    assert_eq!(c.encoded_transfers, 1, "the two packets did not collide");
    assert_eq!(c.decode_xors, 1);
    assert_eq!(c.packets_ejected, 3);
    assert!(
        slept_mid_chain >= 3,
        "sink 5 never slept on its decode register ({slept_mid_chain} cycles)"
    );
    // One visit per word, and one more for the decoded flit the last word
    // leaves behind it.
    assert_eq!(net.sink_visits(), 4);
}

#[test]
fn source_stalled_on_a_full_buffer_stays_in_the_set() {
    for arch in Arch::ALL {
        // Two slots and a ten-cycle credit loop: the nine-flit packet's
        // source fills its router's local buffer and then waits, part-way
        // through, for the router to get credits back.
        let cfg = NetConfig {
            buffer_depth: 2,
            credit_delay: 10,
            ..NetConfig::small(arch)
        };
        let mut trace = Trace::new();
        trace.push(PacketEvent {
            time_ns: 0.0,
            src: NodeId(0),
            dest: NodeId(15),
            len: DATA_FLITS,
        });
        let mut net = observed(cfg, &trace);
        let mut cycles_injecting = 0;
        while net.counters().flits_injected < u64::from(DATA_FLITS) {
            let before = net.source_visits();
            net.step();
            assert_eq!(
                net.source_visits(),
                before + 1,
                "{arch}: the source was not visited mid-packet"
            );
            cycles_injecting += 1;
            assert!(cycles_injecting < 500, "{arch}: the packet never went in");
        }
        assert!(
            cycles_injecting > 2 * u64::from(DATA_FLITS),
            "{arch}: the source never stalled ({cycles_injecting} cycles)"
        );
        assert!(net.run_to_quiescence(1_000), "{arch}: no drain");
        assert_eq!(net.source_visits(), cycles_injecting, "{arch}");

        let mut every = reference(cfg, &trace);
        assert!(every.run_to_settlement(1_000));
        assert_eq!(report(&every), report(&net), "{arch}");
    }
}

#[test]
fn injected_packet_queues_behind_the_trace_at_its_source() {
    // Core 0's trace has a packet at cycle 0 and one at cycle 100; core 1
    // has nothing. At cycle 20 both inject. A source's queue is in
    // scheduling order, not time order, so core 0's injected packet waits
    // behind the packet of cycle 100, and core 1's goes at once. The
    // cursor over the trace must not change that.
    for arch in Arch::ALL {
        let cfg = NetConfig::small(arch);
        let mut trace = Trace::new();
        for cycle in [0.0, 100.0] {
            trace.push(PacketEvent {
                time_ns: cycle * cfg.clock_ns(),
                src: NodeId(0),
                dest: NodeId(15),
                len: DATA_FLITS,
            });
        }
        let run = |mut net: Network| {
            net.run(20);
            assert_eq!(net.counters().packets_injected, 1);
            let behind = net.inject(NodeId(0), NodeId(15), 1, true);
            let at_once = net.inject(NodeId(1), NodeId(15), 1, true);
            assert!(!net.is_quiescent());
            net.run(10);
            assert_eq!(net.counters().packets_injected, 2, "{arch}: core 1 waited");
            net.run(60);
            assert!(!net.is_quiescent(), "{arch}: the trace has not finished");
            assert!(net.run_to_settlement(1_000), "{arch}: no drain");
            let order: Vec<_> = net.eject_log().unwrap().iter().map(|e| e.0).collect();
            assert_eq!(order.len(), 4);
            assert_eq!(order[1], at_once, "{arch}: {order:?}");
            assert_eq!(order[3], behind, "{arch}: {order:?}");
            report(&net)
        };
        assert_eq!(
            run(reference(cfg, &trace)),
            run(observed(cfg, &trace)),
            "{arch}"
        );
    }
}

#[test]
fn retransmission_launches_while_the_trace_is_still_running() {
    use nox_sim::fault::{FaultConfig, RetxConfig};

    // Drops with end-to-end retransmission over a trace much longer than
    // the retransmission timeout: retries are scheduled, by the one
    // helper that schedules anything, at sources whose trace packets are
    // still in the future, and under a campaign every source and sink is
    // visited every cycle.
    let cfg = NetConfig::small(Arch::Nox);
    let trace = cmp_style_trace(&cfg, 0.02, 3_000, 0xD12);
    let mut net = Network::new(cfg, &trace, (0.0, f64::MAX));
    net.enable_faults(FaultConfig {
        seed: 7,
        drop_rate: 0.01,
        crc_enabled: true,
        // A retry waits behind its source's trace packets, so it may time
        // out again while it waits: allow for that.
        retx: Some(RetxConfig {
            timeout_cycles: 200,
            max_attempts: 12,
        }),
        ..Default::default()
    });
    while net.fault_state().unwrap().stats().retransmissions == 0 {
        net.step();
        assert!(net.cycle() < 3_000, "no retransmission during the trace");
    }
    assert!(
        net.counters().packets_injected < trace.len() as u64 / 2,
        "the trace was nearly over at the first retransmission"
    );
    assert!(!net.is_quiescent());
    assert!(net.run_to_settlement(200_000), "did not settle");
    let f = net.fault_state().unwrap();
    assert_eq!(f.delivered_logicals(), f.total_logicals());
    let all = net.cycle() * cfg.nodes() as u64;
    assert_eq!(net.source_visits(), all);
    assert_eq!(net.sink_visits(), all);
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

/// The five work counters.
fn work(net: &Network) -> [u64; 5] {
    [
        net.router_ticks(),
        net.source_visits(),
        net.sink_visits(),
        net.input_visits(),
        net.output_ticks(),
    ]
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
        let [ticks, sources, sinks, inputs, outputs] = work(&low);
        assert!(
            (ticks as f64) < 0.35 * all as f64,
            "{arch}: {ticks} of {all} router ticks at low load"
        );
        // A core injects a flit every fifty cycles or so and ejects as
        // often (measured 0.017-0.023 of cycles x cores, both).
        assert!(
            (sources as f64) < 0.1 * all as f64 && (sinks as f64) < 0.1 * all as f64,
            "{arch}: {sources} source and {sinks} sink visits of {all} at low load"
        );
        // Port work is per link flit: one input visited and one engine
        // ticked, or two where Spec-Fast's stale reservation is owed its
        // tick, and little else (measured 1.01-1.03 and 1.00 / 2.00 at
        // this load, 1.09-2.04 and 1.00-2.01 at saturation).
        let flits = low.counters().link_flits;
        let owed = if arch == Arch::SpecFast { 2 } else { 1 };
        assert!(
            (flits..2 * flits).contains(&inputs),
            "{arch}: {inputs} input visits for {flits} link flits"
        );
        assert!(
            (flits..=2 * owed * flits).contains(&outputs),
            "{arch}: {outputs} output ticks for {flits} link flits"
        );

        // Once drained the counters stop.
        assert!(low.run_to_quiescence(10_000));
        low.run(4);
        let drained = work(&low);
        low.run(1_000);
        assert_eq!(work(&low), drained, "{arch}: work while drained");

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
/// draws, credit corruption, watchdog resets) and sinks that have nothing
/// to drain (the watchdog's flush), so while one is attached every
/// router, source and sink is visited — even under a plan that never
/// fires.
#[test]
fn every_router_ticks_under_a_fault_plan() {
    let cfg = NetConfig::paper(Arch::Nox);
    let all = routers(&cfg);
    assert_eq!(all, cfg.nodes() as u64);
    let trace = uniform_trace(&cfg, 200.0, 500);
    let mut net = Network::new(cfg, &trace, (0.0, 0.0));
    net.enable_faults(nox_sim::fault::FaultConfig::default());
    net.run(1_000);
    assert_eq!(work(&net)[..3], [1_000 * all; 3]);

    // Attached mid-run, it wakes whoever was asleep.
    let mut net = Network::new(cfg, &trace, (0.0, 0.0));
    net.run(400);
    let before = work(&net);
    assert!(before[..3].iter().all(|&visits| visits < 400 * all));
    net.enable_faults(nox_sim::fault::FaultConfig::default());
    net.run(600);
    for (after, before) in work(&net).into_iter().zip(before).take(3) {
        assert_eq!(after - before, 600 * all);
    }
}

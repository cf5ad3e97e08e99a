//! `mesh_saturated` and `mesh_lowload`: the step loop of `nox-sim` on
//! the paper's 8x8 mesh, all four architectures, one thread.
//!
//! One uniform-random Poisson single-flit trace (generated from `--seed`)
//! drives four networks. Each is warmed, then stepped in fixed segments
//! of `Network::run`, interleaved round-robin across the architectures so
//! a slow stretch of the host hits all four alike. Trace generation,
//! construction, warm-up and the final drain are outside the timed
//! segments; `claims_smoke` is the workload that pays for them.

use nox::sim::config::{Arch, NetConfig};
use nox::sim::network::Network;
use nox::sim::stats::Counters;
use nox::sim::topology::Mesh;
use nox::sim::trace::Trace;
use nox::traffic::synthetic::{generate, SyntheticConfig};

use crate::spans::Spans;
use crate::stats::{self, Digest};
use crate::{alloc, collect, micro, Outcome, RunArgs};

/// Set-ups per untraced run: one before the measured section, the rest
/// after it.
const SETUPS: usize = 5;

/// Unidirectional router-to-router links of the 8x8 mesh.
const MESH_LINKS: u64 = 224;

/// Size of one mesh workload.
#[derive(Clone, Copy, Debug)]
pub struct MeshSpec {
    /// Offered load, MB/s per node.
    pub rate_mbps: f64,
    /// Timed segments per architecture.
    pub segments: usize,
    /// Cycles per timed segment.
    pub segment_cycles: u64,
    /// Untimed cycles each network runs first.
    pub warmup_cycles: u64,
}

impl MeshSpec {
    /// 2000 MB/s/node, the Fig. 12 / `BENCH_sim_throughput` operating
    /// point: 40 segments of 5 000 cycles per architecture at the
    /// benchmark's 15 s.
    pub fn saturated(seconds: u64) -> MeshSpec {
        MeshSpec {
            rate_mbps: 2_000.0,
            segments: (seconds as usize * 40).div_ceil(3),
            segment_cycles: 1_000,
            warmup_cycles: 2_000,
        }
    }

    /// 200 MB/s/node: 3-4 % link utilisation, so fixed per-router work
    /// dominates. About three times the cycles per host second, hence
    /// three times the segments.
    pub fn lowload(seconds: u64) -> MeshSpec {
        MeshSpec {
            rate_mbps: 200.0,
            segments: seconds as usize * 40,
            ..MeshSpec::saturated(seconds)
        }
    }

    /// The shorter untraced pass a traced run compares itself against.
    fn reference(self) -> MeshSpec {
        MeshSpec {
            segments: (self.segments / 4).max(8).min(self.segments),
            ..self
        }
    }

    fn cycles(&self) -> u64 {
        self.warmup_cycles + self.segments as u64 * self.segment_cycles
    }
}

/// Four warmed networks and what building them cost.
struct Setup {
    nets: Vec<Network>,
    /// Events each network was built from (its clock's share of the trace).
    scheduled: Vec<u64>,
    events: u64,
    generate_s: f64,
    new_s: f64,
    warmup_s: f64,
}

fn setup(spec: &MeshSpec, seed: u64, spans: &mut Spans) -> Setup {
    // Traces are in nanoseconds and clocks differ, so each architecture
    // consumes a different prefix of the same trace in the same number of
    // cycles. Cutting the trace at each network's own horizon keeps every
    // source injecting to the last timed cycle and leaves the drain with
    // only the backlog, not a tail of unused trace.
    let horizon = |arch: Arch| spec.cycles() as f64 * arch.clock_ns();
    let longest = Arch::ALL.map(horizon).into_iter().fold(0.0, f64::max);
    let (trace, generate_s) = spans.time("nox_traffic::generate", 0, |_| {
        generate(
            Mesh::new(8, 8),
            &SyntheticConfig {
                seed,
                ..SyntheticConfig::uniform(spec.rate_mbps, longest)
            },
        )
    });
    let mut s = Setup {
        nets: Vec::new(),
        scheduled: Vec::new(),
        events: trace.len() as u64,
        generate_s,
        new_s: 0.0,
        warmup_s: 0.0,
    };
    for (i, arch) in Arch::ALL.into_iter().enumerate() {
        let n = trace
            .events()
            .partition_point(|e| e.time_ns < horizon(arch));
        let own = Trace::from_events(trace.events()[..n].to_vec());
        let (mut net, new_s) = spans.time("Network::new", i as u64, |_| {
            Network::new(NetConfig::paper(arch), &own, (0.0, 0.0))
        });
        let ((), warmup_s) = spans.time("Network::run warm-up", i as u64, |_| {
            net.run(spec.warmup_cycles)
        });
        s.new_s += new_s;
        s.warmup_s += warmup_s;
        s.scheduled.push(n as u64);
        s.nets.push(net);
    }
    s
}

/// The timed segments of one pass.
struct Measured {
    /// Wall seconds of every segment, per architecture.
    seg_s: Vec<Vec<f64>>,
    /// The networks' counters, summed, before and after the timed
    /// segments.
    before: Counters,
    after: Counters,
    /// Heap allocations and bytes inside the timed segments.
    allocs: (u64, u64),
    /// Whether each source set was still injecting in the last segment.
    injecting: Vec<bool>,
}

impl Measured {
    /// How much one counter grew over the timed segments.
    fn grew(&self, field: fn(&Counters) -> u64) -> u64 {
        field(&self.after) - field(&self.before)
    }

    fn total_s(&self) -> f64 {
        self.seg_s.iter().flatten().sum()
    }

    /// Sum over the architectures of one order statistic of their
    /// segment times: the host seconds one round of segments takes.
    fn round_s(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        self.seg_s.iter().map(|s| stat(s)).sum()
    }
}

fn measure(
    nets: &mut [Network],
    spec: &MeshSpec,
    spans: &mut Spans,
    count_allocs: bool,
) -> Measured {
    let summed = |nets: &[Network]| {
        nets.iter().fold(Counters::new(), |mut sum, n| {
            sum.merge(n.counters());
            sum
        })
    };
    let mut m = Measured {
        seg_s: vec![Vec::with_capacity(spec.segments); nets.len()],
        before: summed(nets),
        after: Counters::new(),
        allocs: (0, 0),
        injecting: vec![false; nets.len()],
    };
    for seg in 0..spec.segments {
        for (i, net) in nets.iter_mut().enumerate() {
            let injected = net.counters().packets_injected;
            let ((), s) = spans.time("Network::run", i as u64, |_| {
                if count_allocs {
                    alloc::count(&mut m.allocs, || net.run(spec.segment_cycles))
                } else {
                    net.run(spec.segment_cycles)
                }
            });
            m.seg_s[i].push(s);
            if seg + 1 == spec.segments {
                m.injecting[i] = net.counters().packets_injected > injected;
            }
        }
    }
    m.after = summed(nets);
    m
}

fn words(c: &Counters) -> [u64; 18] {
    [
        c.cycles,
        c.link_flits,
        c.link_wasted,
        c.xbar_traversals,
        c.xbar_inputs_active,
        c.buffer_writes,
        c.buffer_reads,
        c.arbitrations,
        c.decode_xors,
        c.decode_reg_writes,
        c.collisions,
        c.aborts,
        c.encoded_transfers,
        c.wasted_reservations,
        c.flits_injected,
        c.flits_ejected,
        c.packets_injected,
        c.packets_ejected,
    ]
}

/// Drains every network outside the timed section and checks it: one
/// operation per architecture run. Returns the digest of the drained
/// networks' statistics.
fn drain_and_check(s: &mut Setup, m: &Measured, spec: &MeshSpec, out: &mut Outcome) -> u64 {
    let mut digest = Digest::default();
    for (i, net) in s.nets.iter_mut().enumerate() {
        // The backlog of a saturated network grows with the run, so the
        // cap does too; a network that needs longer is wedged.
        let drained = net.run_to_quiescence(spec.cycles());
        let c = *net.counters();
        out.check(
            drained
                && m.injecting[i]
                && c.packets_injected == s.scheduled[i]
                && c.packets_injected == c.packets_ejected
                && c.flits_injected == c.flits_ejected,
        );
        for w in words(&c) {
            digest.push(w);
        }
        digest.push(net.latency_all_ns().mean().to_bits());
    }
    digest.finish()
}

/// Runs one mesh workload.
pub fn run(workload: &str, spec: &MeshSpec, args: &RunArgs) -> Outcome {
    crate::with_recorder(args, |spans, out| {
        if args.traced {
            traced(workload, spec, args, spans, out);
        } else {
            untraced(spec, args, spans, out);
        }
    })
}

fn untraced(spec: &MeshSpec, args: &RunArgs, spans: &mut Spans, out: &mut Outcome) {
    let (mut s, first_setup_s) = spans.time("setup", 0, |sp| setup(spec, args.seed, sp));
    let m = measure(&mut s.nets, spec, spans, false);
    drain_and_check(&mut s, &m, spec, out);
    drop(s);
    out.finish_untraced(vec![vec![first_setup_s]], SETUPS - 1, |_| {
        spans.time("setup", 0, |sp| setup(spec, args.seed, sp)).1
    });

    // One operation is one round: every architecture stepped one
    // segment. The whole job is that, once per segment.
    let round_s = m.round_s(stats::best);
    out.set("op_ms", round_s * 1e3);
    out.set("wall_s", round_s * spec.segments as f64);
    out.notes.push(format!(
        "sim_cycles_per_s {} 1/s",
        4.0 * spec.segment_cycles as f64 / round_s
    ));
    out.notes.push(format!(
        "nox_cycles_per_s {} 1/s",
        spec.segment_cycles as f64 / stats::best(&m.seg_s[3])
    ));
}

fn traced(workload: &str, spec: &MeshSpec, args: &RunArgs, spans: &mut Spans, out: &mut Outcome) {
    // Untraced reference first, so the profiling switch has never been
    // on when its networks are built.
    let reference = {
        let mut quiet = Spans::new(std::time::Instant::now(), 0, false);
        let short = spec.reference();
        let mut s = setup(&short, args.seed, &mut quiet);
        measure(&mut s.nets, &short, &mut quiet, false).round_s(stats::best)
    };

    // Networks take their phase clock at construction and flush it when
    // dropped, so both happen inside `collect`.
    let ((s, m, digest), report) = collect(workload, 1, || {
        let mut s = setup(spec, args.seed, spans);
        let m = measure(&mut s.nets, spec, spans, true);
        let digest = drain_and_check(&mut s, &m, spec, out);
        s.nets.clear();
        (s, m, digest)
    });
    let cycles = m.grew(|c| c.cycles) as f64;
    let seg = spec.segment_cycles as f64;

    for (name, times) in [
        "nox-sim.cycles_per_s.nonspec",
        "nox-sim.cycles_per_s.specfast",
        "nox-sim.cycles_per_s.specacc",
        "nox-sim.cycles_per_s.nox",
    ]
    .into_iter()
    .zip(&m.seg_s)
    {
        out.set(name, seg / stats::best(times));
    }
    out.set(
        "nox-sim.ns_per_router_cycle",
        m.total_s() * 1e9 / (cycles * 64.0),
    );
    out.set("nox-sim.cycles_per_s_total", cycles / m.total_s());
    out.set(
        "nox-sim.segment_cps_p50",
        4.0 * seg / m.round_s(stats::median),
    );
    out.set(
        "nox-sim.segment_cps_best",
        4.0 * seg / m.round_s(stats::best),
    );
    crate::sim_profile(&report, out);
    out.set(
        "nox-sim.link_utilization",
        m.grew(|c| c.link_flits) as f64 / (cycles * MESH_LINKS as f64),
    );
    out.set("nox-sim.allocs_per_cycle", m.allocs.0 as f64 / cycles);
    out.set("nox-sim.alloc_bytes_per_cycle", m.allocs.1 as f64 / cycles);
    for (name, count) in [
        ("nox-sim.cycles", m.grew(|c| c.cycles)),
        ("nox-sim.flits_ejected", m.grew(|c| c.flits_ejected)),
        ("nox-sim.link_flits", m.grew(|c| c.link_flits)),
        ("nox-sim.link_wasted", m.grew(|c| c.link_wasted)),
        ("nox-sim.arbitrations", m.grew(|c| c.arbitrations)),
        ("nox-sim.collisions", m.grew(|c| c.collisions)),
        ("nox-sim.encoded_transfers", m.grew(|c| c.encoded_transfers)),
        ("nox-sim.aborts", m.grew(|c| c.aborts)),
        ("nox-sim.buffer_writes", m.grew(|c| c.buffer_writes)),
        ("nox-sim.stats_digest", digest),
        ("nox-traffic.events", s.events),
    ] {
        out.set(name, count as f64);
    }
    out.set("nox-sim.network_new_ms", s.new_s * 1e3);
    out.set("nox-sim.warmup_ms", s.warmup_s * 1e3);
    out.set("nox-traffic.generate_ms", s.generate_s * 1e3);
    out.set("nox-traffic.events_per_s", s.events as f64 / s.generate_s);

    let k = micro::run(spans, out);
    out.set(
        "nox-core.est_busy_share",
        (m.grew(|c| c.arbitrations) as f64 * k.rr_grant_ns
            + m.grew(|c| c.encoded_transfers) as f64 * k.coded_xor_ns
            + m.grew(|c| c.link_flits) as f64 * k.coded_plain_ns)
            / (m.total_s() * 1e9),
    );
    out.set(
        "nox-telemetry.trace_overhead_ratio",
        m.round_s(stats::best) / reference,
    );
    crate::finish_trace(workload, args, spans, out);
}

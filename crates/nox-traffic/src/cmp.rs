//! CMP cache-coherence traffic synthesizer.
//!
//! The paper's application study (§5.2) replays SPLASH-2 / SPEC / TPC
//! traces through a 64-core cache-coherent CMP with two 64-bit physical
//! wormhole networks (requests and replies on separate networks for
//! protocol deadlock freedom) — see Table 1. Those proprietary traces are
//! not available, so this module synthesizes coherence traffic with the
//! same structure (the substitution is documented in `DESIGN.md`):
//!
//! * 64 in-order 3 GHz cores with private L1s and an address-interleaved
//!   shared L2 (one *home* node per cache line);
//! * every L1 miss sends an 8-byte (1-flit) request to the line's home
//!   node on the **request network**, answered a fixed memory latency
//!   later by a 72-byte (9-flit) data reply on the **reply network**;
//! * a workload-dependent fraction of misses are *upgrades* (writes to
//!   shared lines): the home invalidates the sharers with 1-flit control
//!   packets and the sharers acknowledge with 1-flit packets — the
//!   control storms that make commercial workloads network-hungry;
//! * dirty evictions send 72-byte writebacks on the request network
//!   (writebacks initiate a transaction, so they share the request class),
//!   acknowledged by 1-flit control packets on the reply network — the
//!   networks isolate coherence *classes*, as §4 of the paper specifies,
//!   so both carry a mix of 8-byte control and 72-byte data packets;
//! * per-workload parameters control miss rate, upgrade and writeback
//!   fractions, invalidation fan-out, sharing locality, and burstiness.
//!
//! Replies are scheduled at trace-generation time (request time + L2/memory
//! latency), which reproduces the paper's *non-self-throttling,
//! trace-driven* methodology exactly: injection bandwidth is constant
//! across router architectures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};

use nox_sim::topology::{Mesh, NodeId};
use nox_sim::trace::{PacketEvent, Trace};

/// Control-packet length in flits (8 bytes, Table 1).
pub const CTRL_FLITS: u16 = 1;
/// Data-packet length in flits (72 bytes = 8 B header + 64 B line, Table 1).
pub const DATA_FLITS: u16 = 9;

/// Per-workload traffic parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Workload name (matches the paper's benchmark suites in spirit).
    pub name: &'static str,
    /// Mean L1 misses per core per nanosecond (3 GHz in-order core ×
    /// misses per instruction).
    pub miss_rate_per_ns: f64,
    /// Fraction of misses that also write back a dirty line.
    pub writeback_frac: f64,
    /// Fraction of misses that are upgrades (write to a shared line):
    /// control-only transactions with invalidation fan-out.
    pub upgrade_frac: f64,
    /// Sharers invalidated (and acknowledging) per upgrade.
    pub inv_degree: u8,
    /// Fraction of misses to a small hot set of shared lines (directory
    /// homes concentrated on a few nodes) instead of uniformly
    /// interleaved addresses.
    pub sharing_frac: f64,
    /// Number of distinct hot home nodes for the shared set.
    pub hot_homes: u8,
    /// Burstiness knob: mean length (in misses) of miss bursts; 1.0 is
    /// smooth Poisson, larger values cluster misses as out-of-order-less
    /// cores stall and release.
    pub burst_len: f64,
    /// Round-trip service latency from request ejection to reply
    /// injection at the home node, in nanoseconds (L2 + occasional
    /// memory; Table 1's 100-cycle / 3 GHz memory shows up here).
    pub service_ns: f64,
}

/// The named workloads used by the reproduction of Figures 10 and 11.
///
/// Parameters are synthetic but span the space the paper's suites cover:
/// low-locality scientific kernels (`fft`, `radix`), neighbour-heavy
/// stencil codes (`ocean`, `barnes`), cache-friendly kernels (`lu`,
/// `water`), and high-rate, high-sharing commercial workloads
/// (`tpcc`, `specweb`, `specjbb`).
pub const WORKLOADS: [Workload; 9] = [
    Workload {
        name: "barnes",
        miss_rate_per_ns: 0.014,
        writeback_frac: 0.25,
        upgrade_frac: 0.35,
        inv_degree: 2,
        sharing_frac: 0.30,
        hot_homes: 8,
        burst_len: 3.0,
        service_ns: 18.0,
    },
    Workload {
        name: "fft",
        miss_rate_per_ns: 0.019,
        writeback_frac: 0.35,
        upgrade_frac: 0.20,
        inv_degree: 2,
        sharing_frac: 0.05,
        hot_homes: 4,
        burst_len: 6.0,
        service_ns: 20.0,
    },
    Workload {
        name: "lu",
        miss_rate_per_ns: 0.010,
        writeback_frac: 0.30,
        upgrade_frac: 0.25,
        inv_degree: 2,
        sharing_frac: 0.10,
        hot_homes: 4,
        burst_len: 2.0,
        service_ns: 16.0,
    },
    Workload {
        name: "ocean",
        miss_rate_per_ns: 0.021,
        writeback_frac: 0.40,
        upgrade_frac: 0.25,
        inv_degree: 2,
        sharing_frac: 0.15,
        hot_homes: 8,
        burst_len: 5.0,
        service_ns: 22.0,
    },
    Workload {
        name: "radix",
        miss_rate_per_ns: 0.021,
        writeback_frac: 0.45,
        upgrade_frac: 0.15,
        inv_degree: 2,
        sharing_frac: 0.05,
        hot_homes: 4,
        burst_len: 8.0,
        service_ns: 24.0,
    },
    Workload {
        name: "water",
        miss_rate_per_ns: 0.008,
        writeback_frac: 0.20,
        upgrade_frac: 0.30,
        inv_degree: 2,
        sharing_frac: 0.20,
        hot_homes: 6,
        burst_len: 2.0,
        service_ns: 15.0,
    },
    Workload {
        name: "tpcc",
        miss_rate_per_ns: 0.028,
        writeback_frac: 0.30,
        upgrade_frac: 0.55,
        inv_degree: 3,
        sharing_frac: 0.45,
        hot_homes: 12,
        burst_len: 4.0,
        service_ns: 26.0,
    },
    Workload {
        name: "specjbb",
        miss_rate_per_ns: 0.025,
        writeback_frac: 0.28,
        upgrade_frac: 0.50,
        inv_degree: 3,
        sharing_frac: 0.35,
        hot_homes: 10,
        burst_len: 4.0,
        service_ns: 22.0,
    },
    Workload {
        name: "specweb",
        miss_rate_per_ns: 0.022,
        writeback_frac: 0.22,
        upgrade_frac: 0.50,
        inv_degree: 3,
        sharing_frac: 0.40,
        hot_homes: 10,
        burst_len: 5.0,
        service_ns: 20.0,
    },
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The pair of traces (request network, reply network) for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct CmpTraces {
    /// Traffic on the request physical network.
    pub request: Trace,
    /// Traffic on the reply physical network.
    pub reply: Trace,
}

impl CmpTraces {
    /// Total flits across both networks.
    pub fn total_flits(&self) -> u64 {
        self.request.total_flits() + self.reply.total_flits()
    }
}

/// Synthesizes `duration_ns` of coherence traffic for `workload` on a
/// mesh-sized CMP.
///
/// # Panics
///
/// Panics if the duration is non-positive.
pub fn synthesize(mesh: Mesh, w: &Workload, duration_ns: f64, seed: u64) -> CmpTraces {
    assert!(duration_ns > 0.0, "duration must be positive");
    let mut req_events = Vec::new();
    let mut rep_events = Vec::new();

    for core in mesh.iter() {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (core.0 as u64).wrapping_mul(0xD129_0A5B_97F3_42D1) ^ hash_name(w.name),
        );
        // Miss bursts arrive as a Poisson process of bursts; each burst
        // holds a geometric number of back-to-back misses, so burst_len
        // scales temporal clustering without changing the mean rate.
        let burst_rate = w.miss_rate_per_ns / w.burst_len;
        let exp = Exp::new(burst_rate).expect("positive burst rate");
        // Back-to-back misses of an in-order core are spaced by at least
        // the L1 miss issue interval (a few cycles at 3 GHz).
        let intra_burst_gap_ns = 2.0;

        let mut t = exp.sample(&mut rng);
        while t < duration_ns {
            let burst = sample_geometric(&mut rng, w.burst_len);
            let mut bt = t;
            for _ in 0..burst {
                if bt >= duration_ns {
                    break;
                }
                let home = pick_home(mesh, core, w, &mut rng);
                if home != core {
                    emit_miss(
                        mesh,
                        w,
                        core,
                        home,
                        bt,
                        &mut rng,
                        &mut req_events,
                        &mut rep_events,
                    );
                }
                bt += intra_burst_gap_ns;
            }
            t += exp.sample(&mut rng);
        }
    }

    CmpTraces {
        request: Trace::from_events(req_events),
        reply: Trace::from_events(rep_events),
    }
}

#[allow(clippy::too_many_arguments)] // one call site; splitting obscures the transaction
fn emit_miss(
    mesh: Mesh,
    w: &Workload,
    core: NodeId,
    home: NodeId,
    t: f64,
    rng: &mut StdRng,
    req: &mut Vec<PacketEvent>,
    rep: &mut Vec<PacketEvent>,
) {
    // Read/upgrade request: 1 control flit to the home.
    req.push(PacketEvent {
        time_ns: t,
        src: core,
        dest: home,
        len: CTRL_FLITS,
    });
    if rng.gen_bool(w.upgrade_frac) {
        // Upgrade: the home invalidates each sharer (control, request
        // class) and the sharers acknowledge the writer directly
        // (control, reply class); the home grants ownership with a final
        // control packet. No data moves.
        let half = t + w.service_ns * 0.5;
        for _ in 0..w.inv_degree {
            let sharer = NodeId(rng.gen_range(0..mesh.nodes()) as u16);
            if sharer != home {
                req.push(PacketEvent {
                    time_ns: half,
                    src: home,
                    dest: sharer,
                    len: CTRL_FLITS,
                });
            }
            if sharer != core {
                rep.push(PacketEvent {
                    time_ns: t + w.service_ns,
                    src: sharer,
                    dest: core,
                    len: CTRL_FLITS,
                });
            }
        }
        rep.push(PacketEvent {
            time_ns: t + w.service_ns,
            src: home,
            dest: core,
            len: CTRL_FLITS,
        });
        return;
    }
    // Read miss: data reply from the home after the service latency.
    rep.push(PacketEvent {
        time_ns: t + w.service_ns,
        src: home,
        dest: core,
        len: DATA_FLITS,
    });
    // Dirty eviction: a 72-byte writeback initiates a transaction and so
    // travels on the request network; the home acknowledges with a
    // control flit on the reply network. Both physical networks therefore
    // carry a mix of control and data packets, isolated by coherence
    // class (§4).
    if rng.gen_bool(w.writeback_frac) {
        req.push(PacketEvent {
            time_ns: t + 1.0,
            src: core,
            dest: home,
            len: DATA_FLITS,
        });
        rep.push(PacketEvent {
            time_ns: t + 1.0 + w.service_ns,
            src: home,
            dest: core,
            len: CTRL_FLITS,
        });
    }
}

fn pick_home(mesh: Mesh, core: NodeId, w: &Workload, rng: &mut StdRng) -> NodeId {
    let n = mesh.nodes();
    if rng.gen_bool(w.sharing_frac) {
        // Hot shared set: homes spread deterministically over the mesh by
        // a fixed stride so hot traffic converges on a few nodes.
        let k = rng.gen_range(0..w.hot_homes as usize);
        NodeId(((k * n) / w.hot_homes as usize + n / (2 * w.hot_homes as usize)) as u16)
    } else {
        // Address-interleaved home: uniform over all nodes.
        let d = rng.gen_range(0..n) as u16;
        let _ = core;
        NodeId(d)
    }
}

fn sample_geometric(rng: &mut StdRng, mean: f64) -> u64 {
    if mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / mean;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn every_workload_produces_two_way_traffic() {
        for w in &WORKLOADS {
            let t = synthesize(mesh(), w, 5_000.0, 1);
            assert!(!t.request.is_empty(), "{}: no requests", w.name);
            assert!(!t.reply.is_empty(), "{}: no replies", w.name);
        }
    }

    #[test]
    fn packet_sizes_match_table1() {
        let t = synthesize(mesh(), workload("ocean").unwrap(), 5_000.0, 2);
        for e in t.request.events().iter().chain(t.reply.events()) {
            assert!(
                e.len == CTRL_FLITS || e.len == DATA_FLITS,
                "unexpected packet size {}",
                e.len
            );
        }
    }

    #[test]
    fn every_transaction_gets_replies() {
        let t = synthesize(mesh(), workload("lu").unwrap(), 5_000.0, 3);
        // Transactions are roughly balanced in packet count across the
        // two networks; data fills make the reply network carry more
        // flits overall.
        assert!(t.reply.len() * 10 >= t.request.len() * 9);
        assert!(t.reply.total_flits() > t.request.total_flits());
        // Both networks carry a mix of control and data packets.
        let has = |tr: &Trace, len: u16| tr.events().iter().any(|e| e.len == len);
        assert!(has(&t.request, CTRL_FLITS) && has(&t.request, DATA_FLITS));
        assert!(has(&t.reply, CTRL_FLITS) && has(&t.reply, DATA_FLITS));
    }

    #[test]
    fn miss_rate_scales_traffic() {
        let lo = synthesize(mesh(), workload("water").unwrap(), 20_000.0, 4);
        let hi = synthesize(mesh(), workload("radix").unwrap(), 20_000.0, 4);
        assert!(
            hi.total_flits() > 2 * lo.total_flits(),
            "radix must offer far more traffic than water"
        );
    }

    #[test]
    fn sharing_concentrates_destinations() {
        // The high-sharing commercial workload must show visibly hotter
        // home nodes than the low-sharing scientific one.
        let concentration = |name: &str| {
            let t = synthesize(mesh(), workload(name).unwrap(), 20_000.0, 5);
            let mut counts = vec![0u64; 64];
            for e in t.request.events() {
                counts[e.dest.index()] += 1;
            }
            let max = *counts.iter().max().unwrap() as f64;
            let mean = counts.iter().sum::<u64>() as f64 / 64.0;
            max / mean
        };
        let (tpcc, fft) = (concentration("tpcc"), concentration("fft"));
        assert!(
            tpcc > 1.1 * fft,
            "tpcc ({tpcc:.2}) should be more home-concentrated than fft ({fft:.2})"
        );
    }

    #[test]
    fn synthesis_is_deterministic() {
        let w = workload("fft").unwrap();
        assert_eq!(
            synthesize(mesh(), w, 5_000.0, 9),
            synthesize(mesh(), w, 5_000.0, 9)
        );
    }

    #[test]
    fn no_self_traffic() {
        for w in &WORKLOADS {
            let t = synthesize(mesh(), w, 2_000.0, 6);
            for e in t.request.events().iter().chain(t.reply.events()) {
                assert_ne!(e.src, e.dest, "{}: self-addressed packet", w.name);
            }
        }
    }

    #[test]
    fn workload_lookup() {
        assert!(workload("barnes").is_some());
        assert!(workload("doom").is_none());
    }
}

//! The fault-injection campaign study: NoX's XOR-chain fragility and its
//! recovery under the CRC + retransmission protection stack.
//!
//! One study sweeps a bit-flip-rate grid twice over all four
//! architectures on the same deterministic traffic:
//!
//! * **unprotected** — no CRC, no retransmission. Every flipped payload
//!   that reaches a core is a *silent corruption*. The NoX chain re-drives
//!   each colliding flit across multiple link words (`A^B^C`, then `B^C`,
//!   then `C`), so the same per-word flip rate strikes NoX traffic more
//!   often than a plain wormhole router's — the fragility this repo's
//!   DESIGN.md §11 analyses.
//! * **protected** — CRC-8 sidebands checked at ejection plus end-to-end
//!   retransmission with exponential backoff. Every architecture must
//!   recover to 100% delivery with zero silent corruptions.

use std::fmt::Write as _;

use crate::harness::Tier;
use crate::json::Json;
use crate::Table;
use nox_exec::Executor;
use nox_sim::config::{Arch, NetConfig};
use nox_sim::fault::{FaultConfig, FaultStats};
use nox_sim::network::Network;
use nox_sim::topology::NodeId;
use nox_sim::trace::{PacketEvent, Trace};

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/faults/v1";

/// Packet length (flits) used by every campaign. Single-flit packets are
/// the ones that actually exercise the XOR chain: multiflit wormholes
/// reserve their output ports ahead of the body, so their heads never
/// meet in a collision the NoX output control would encode.
pub const PACKET_LEN: u16 = 1;

/// Settlement bound for a single campaign, cycles. Generous: a campaign
/// that fails to settle is reported (`settled: false`), not panicked on.
const MAX_CYCLES: u64 = 400_000;

/// One (architecture, flip-rate) campaign outcome.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// Per-link-word bit-flip probability of this campaign.
    pub rate: f64,
    /// Whether the network drained and every logical packet resolved
    /// within the cycle bound.
    pub settled: bool,
    /// Cycles the campaign ran.
    pub cycles: u64,
    /// Logical packets offered.
    pub offered_packets: u64,
    /// Logical packets delivered intact at least once.
    pub delivered_packets: u64,
    /// The full fault-event counter block.
    pub stats: FaultStats,
}

impl FaultPoint {
    /// Delivered fraction of offered logical packets.
    pub fn delivered_frac(&self) -> f64 {
        if self.offered_packets == 0 {
            return 1.0;
        }
        self.delivered_packets as f64 / self.offered_packets as f64
    }

    /// Silent corruptions per thousand offered flits.
    pub fn silent_per_kflit(&self) -> f64 {
        let flits = self.offered_packets * u64::from(PACKET_LEN);
        if flits == 0 {
            return 0.0;
        }
        self.stats.silent_corruptions as f64 * 1000.0 / flits as f64
    }
}

/// One architecture's sweep over the flip-rate grid.
#[derive(Clone, Debug)]
pub struct ArchFaultSeries {
    /// Router architecture.
    pub arch: Arch,
    /// One point per swept rate, grid order.
    pub points: Vec<FaultPoint>,
}

/// The full two-mode fault study.
#[derive(Clone, Debug)]
pub struct FaultStudy {
    /// Tier the study ran at.
    pub tier: Tier,
    /// The swept per-link-word bit-flip rates.
    pub rates: Vec<f64>,
    /// Traffic rounds per campaign (16 packets per round).
    pub rounds: u32,
    /// Unprotected series (no CRC, no retransmission), `Arch::ALL` order.
    pub unprotected: Vec<ArchFaultSeries>,
    /// Protected series (CRC + retransmission), `Arch::ALL` order.
    pub protected: Vec<ArchFaultSeries>,
}

/// The flip-rate grid for a tier.
pub fn rates(tier: Tier) -> Vec<f64> {
    match tier {
        Tier::Full => vec![0.002, 0.005, 0.01, 0.02, 0.05],
        Tier::Quick => vec![0.005, 0.01, 0.02],
        Tier::Smoke => vec![0.01, 0.02],
    }
}

/// Traffic rounds for a tier (each round injects six collision waves).
pub fn rounds(tier: Tier) -> u32 {
    match tier {
        Tier::Full => 80,
        Tier::Quick => 40,
        Tier::Smoke => 20,
    }
}

/// Deterministic collision-rich traffic on the 4x4 mesh.
///
/// Each round fires six waves, 4 ns apart. The first four aim equidistant
/// one-hop sources at a shared destination in the same instant, so their
/// flits meet at the destination router in the same cycle and collide on
/// its ejection port — under NoX every such wave forms an XOR chain
/// (`A^B^C`, `B^C`, `C`) that the sink's decode register unwinds, while
/// the baselines serialize the same conflict through ordinary
/// arbitration. The last two waves cross two-hop paths so the collision
/// (and its encoded words) happens at an *intermediate* router and the
/// chain travels an inter-router link. Every source sends exactly one
/// packet per wave — simultaneity is what makes the chains form. The
/// same trace feeds every campaign, making corruption counts directly
/// comparable across architectures and protection modes.
pub fn campaign_trace(rounds: u32) -> Trace {
    // (destination, equidistant sources): three-way and two-way merges
    // at the destination's ejection port...
    const MERGES: [(u16, &[u16]); 4] = [
        (5, &[4, 1, 9]),
        (10, &[9, 6, 14]),
        (7, &[6, 3, 11]),
        (14, &[13, 10]),
    ];
    // ...and crossing pairs that collide at an intermediate router
    // (0 -> 5 and 2 -> 5 both turn south at router 1; 15 -> 10 and
    // 13 -> 10 both turn north at router 14).
    const CROSSINGS: [(u16, &[u16]); 2] = [(5, &[0, 2]), (10, &[15, 13])];
    let mut t = Trace::new();
    for i in 0..rounds {
        let round_at = f64::from(i) * 24.0;
        for (w, (d, srcs)) in MERGES.iter().chain(&CROSSINGS).enumerate() {
            for &s in *srcs {
                t.push(PacketEvent {
                    time_ns: round_at + w as f64 * 4.0,
                    src: NodeId(s),
                    dest: NodeId(*d),
                    len: PACKET_LEN,
                });
            }
        }
    }
    t
}

fn campaign(arch: Arch, trace: &Trace, cfg: FaultConfig) -> FaultPoint {
    let rate = cfg.bit_flip_rate;
    let mut net = Network::new(NetConfig::small(arch), trace, (0.0, f64::MAX));
    net.enable_faults(cfg);
    let settled = net.run_to_settlement(MAX_CYCLES);
    let cycles = net.cycle();
    let f = net.fault_state().expect("campaign was attached");
    FaultPoint {
        rate,
        settled,
        cycles,
        offered_packets: f.total_logicals(),
        delivered_packets: f.delivered_logicals(),
        stats: f.stats().clone(),
    }
}

/// Runs the full study at `tier`, fanning every
/// (protection mode, architecture, rate) campaign out over `exec`.
///
/// Seeds are fixed per grid index and shared by every architecture at a
/// given rate, so the per-cycle fault draws are as comparable as the
/// shared trace is. Each campaign owns its fault RNG and shares only the
/// immutable trace, and the ordered reduction rebuilds the two series
/// sets in mode → `Arch::ALL` → grid order, so the study is
/// bit-identical at any thread count.
pub fn run_with(tier: Tier, exec: &Executor) -> FaultStudy {
    let rates = rates(tier);
    let rounds = rounds(tier);
    let trace = campaign_trace(rounds);
    let mut jobs: Vec<(bool, Arch, usize, f64)> = Vec::new();
    for protected in [false, true] {
        for &arch in Arch::ALL.iter() {
            for (i, &r) in rates.iter().enumerate() {
                jobs.push((protected, arch, i, r));
            }
        }
    }
    let points = exec.map_stage("faults.campaigns", jobs, |_, (protected, arch, i, r)| {
        let seed = 0xFA01 + i as u64;
        let cfg = if protected {
            FaultConfig::protected_bit_flips(seed, r)
        } else {
            FaultConfig::bit_flips(seed, r)
        };
        campaign(arch, &trace, cfg)
    });
    let mut it = points.into_iter();
    let mut series = || -> Vec<ArchFaultSeries> {
        Arch::ALL
            .iter()
            .map(|&arch| ArchFaultSeries {
                arch,
                points: (0..rates.len())
                    .map(|_| it.next().expect("one result per submitted job"))
                    .collect(),
            })
            .collect()
    };
    let unprotected = series();
    let protected = series();
    FaultStudy {
        tier,
        rates,
        rounds,
        unprotected,
        protected,
    }
}

impl FaultStudy {
    /// The unprotected series of one architecture.
    pub fn unprotected_of(&self, arch: Arch) -> &ArchFaultSeries {
        series_of(&self.unprotected, arch)
    }

    /// The protected series of one architecture.
    pub fn protected_of(&self, arch: Arch) -> &ArchFaultSeries {
        series_of(&self.protected, arch)
    }

    /// Total silent corruptions of one unprotected architecture across
    /// the whole grid.
    pub fn silent_total(&self, arch: Arch) -> u64 {
        self.unprotected_of(arch)
            .points
            .iter()
            .map(|p| p.stats.silent_corruptions)
            .sum()
    }

    /// Total injected bit flips of one unprotected architecture across
    /// the whole grid.
    pub fn injected_total(&self, arch: Arch) -> u64 {
        self.unprotected_of(arch)
            .points
            .iter()
            .map(|p| p.stats.injected_bit_flips)
            .sum()
    }

    /// Silent corruptions *per injected flip* of one unprotected
    /// architecture — the normalization that makes architectures with
    /// different cycle counts (and hence different absolute flip draws on
    /// the same per-word rate) directly comparable.
    pub fn silent_per_flip(&self, arch: Arch) -> f64 {
        self.silent_total(arch) as f64 / self.injected_total(arch) as f64
    }

    /// NoX's silent-corruption amplification over the non-speculative
    /// router: corrupted deliveries per injected flip, NoX / non-spec.
    /// Above 1.0 = the XOR chain fans a single link-word flip out into
    /// multiple corrupted deliveries (the mask lands both on the flit
    /// recovered *from* the struck word and on every chain-mate decoded
    /// *against* it), which no non-coding router can do.
    pub fn nox_silent_amplification(&self) -> f64 {
        self.silent_per_flip(Arch::Nox) / self.silent_per_flip(Arch::NonSpec)
    }

    /// `true` when the fragility claim's qualitative trend holds: NoX
    /// delivers strictly more silently-corrupted flits than flips were
    /// injected (chain fan-out), while the non-speculative router stays
    /// at (at most) one corrupted delivery per flip.
    pub fn nox_fragility_holds(&self) -> bool {
        self.silent_total(Arch::Nox) > self.injected_total(Arch::Nox)
            && self.silent_total(Arch::NonSpec) <= self.injected_total(Arch::NonSpec)
            && self.silent_per_flip(Arch::Nox) > self.silent_per_flip(Arch::NonSpec)
    }

    /// `true` when every protected campaign of `arch` settled with every
    /// logical packet delivered, none written off, and zero silent
    /// corruptions.
    pub fn full_recovery(&self, arch: Arch) -> bool {
        self.protected_of(arch).points.iter().all(|p| {
            p.settled
                && p.delivered_packets == p.offered_packets
                && p.stats.packets_failed == 0
                && p.stats.silent_corruptions == 0
        })
    }

    /// Worst-case recovery latency (cycles from a recovered packet's
    /// original creation to its successful ejection) over NoX's protected
    /// campaigns.
    pub fn nox_max_recovery_latency(&self) -> u64 {
        self.protected_of(Arch::Nox)
            .points
            .iter()
            .map(|p| p.stats.recovery_latency.max)
            .max()
            .unwrap_or(0)
    }

    /// Mean detection latency (injection to CRC/desync detection) over
    /// NoX's protected campaigns, cycles.
    pub fn nox_mean_detection_latency(&self) -> f64 {
        let (sum, count) =
            self.protected_of(Arch::Nox)
                .points
                .iter()
                .fold((0u64, 0u64), |(s, c), p| {
                    (
                        s + p.stats.detection_latency.sum,
                        c + p.stats.detection_latency.count,
                    )
                });
        if count == 0 {
            return 0.0;
        }
        sum as f64 / count as f64
    }

    /// The human-readable study tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let offered = self.unprotected[0].points[0].offered_packets;
        let _ = writeln!(
            out,
            "Fault campaigns on the 4x4 mesh: {} logical packets x {} flits, \
             per-link-word bit-flip rates {:?} ({} tier)\n",
            offered,
            PACKET_LEN,
            self.rates,
            self.tier.name()
        );

        let mut t = Table::new(
            "unprotected (no CRC, no retransmission): silent corruption",
            &[
                "arch",
                "flip rate",
                "injected",
                "silent",
                "per kflit",
                "delivered %",
            ],
        );
        for s in &self.unprotected {
            for p in &s.points {
                t.row([
                    s.arch.name().to_string(),
                    format!("{}", p.rate),
                    p.stats.injected_bit_flips.to_string(),
                    p.stats.silent_corruptions.to_string(),
                    format!("{:.2}", p.silent_per_kflit()),
                    format!("{:.1}", p.delivered_frac() * 100.0),
                ]);
            }
        }
        let _ = writeln!(out, "{t}");
        let _ = writeln!(
            out,
            "corrupted deliveries per injected flip: NoX {:.3}, non-spec {:.3} \
             ({:.2}x amplification; chain fan-out holds: {})\n",
            self.silent_per_flip(Arch::Nox),
            self.silent_per_flip(Arch::NonSpec),
            self.nox_silent_amplification(),
            self.nox_fragility_holds()
        );

        let mut t = Table::new(
            "protected (CRC-8 sideband + end-to-end retransmission)",
            &[
                "arch",
                "flip rate",
                "detected",
                "silent",
                "retx",
                "recovered",
                "failed",
                "delivered %",
                "rec. lat (mean/max)",
            ],
        );
        for s in &self.protected {
            for p in &s.points {
                t.row([
                    s.arch.name().to_string(),
                    format!("{}", p.rate),
                    p.stats.detected_total().to_string(),
                    p.stats.silent_corruptions.to_string(),
                    p.stats.retransmissions.to_string(),
                    p.stats.packets_recovered.to_string(),
                    p.stats.packets_failed.to_string(),
                    format!("{:.1}", p.delivered_frac() * 100.0),
                    format!(
                        "{:.0}/{}",
                        p.stats.recovery_latency.mean(),
                        p.stats.recovery_latency.max
                    ),
                ]);
            }
        }
        let _ = writeln!(out, "{t}");
        let _ = writeln!(
            out,
            "full recovery (100% delivery, zero silent, zero write-offs): {}",
            Arch::ALL
                .iter()
                .map(|&a| format!("{} {}", a.name(), self.full_recovery(a)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "NoX detection latency {:.0} cycles mean; recovery latency max {} cycles",
            self.nox_mean_detection_latency(),
            self.nox_max_recovery_latency()
        );
        out
    }

    /// The versioned machine-readable document.
    pub fn to_json(&self) -> Json {
        let series = |set: &[ArchFaultSeries]| {
            Json::Arr(
                set.iter()
                    .map(|s| {
                        let points = s
                            .points
                            .iter()
                            .map(|p| {
                                Json::obj()
                                    .field("rate", p.rate)
                                    .field("settled", p.settled)
                                    .field("cycles", p.cycles)
                                    .field("offered_packets", p.offered_packets)
                                    .field("delivered_packets", p.delivered_packets)
                                    .field("delivered_frac", p.delivered_frac())
                                    .field("injected", p.stats.injected_total())
                                    .field("detected", p.stats.detected_total())
                                    .field("silent_corruptions", p.stats.silent_corruptions)
                                    .field("silent_per_kflit", p.silent_per_kflit())
                                    .field("chain_kills", p.stats.chain_kills)
                                    .field("retransmissions", p.stats.retransmissions)
                                    .field("packets_recovered", p.stats.packets_recovered)
                                    .field("packets_failed", p.stats.packets_failed)
                                    .field("watchdog_resets", p.stats.watchdog_resets)
                                    .field(
                                        "detection_latency_mean",
                                        p.stats.detection_latency.mean(),
                                    )
                                    .field("recovery_latency_mean", p.stats.recovery_latency.mean())
                                    .field("recovery_latency_max", p.stats.recovery_latency.max)
                            })
                            .collect::<Vec<_>>();
                        Json::obj()
                            .field("arch", s.arch.name())
                            .field("points", Json::Arr(points))
                    })
                    .collect(),
            )
        };
        Json::obj()
            .field("schema", SCHEMA)
            .field("tier", self.tier.name())
            .field(
                "rates",
                Json::Arr(self.rates.iter().map(|&r| r.into()).collect()),
            )
            .field("packet_len", u64::from(PACKET_LEN))
            .field(
                "offered_packets",
                self.unprotected[0].points[0].offered_packets,
            )
            .field("unprotected", series(&self.unprotected))
            .field("protected", series(&self.protected))
            .field(
                "summary",
                Json::obj()
                    .field("nox_silent_per_flip", self.silent_per_flip(Arch::Nox))
                    .field(
                        "nonspec_silent_per_flip",
                        self.silent_per_flip(Arch::NonSpec),
                    )
                    .field("nox_silent_amplification", self.nox_silent_amplification())
                    .field("nox_fragility_holds", self.nox_fragility_holds())
                    .field(
                        "full_recovery_all_archs",
                        Arch::ALL.iter().all(|&a| self.full_recovery(a)),
                    )
                    .field(
                        "nox_mean_detection_latency",
                        self.nox_mean_detection_latency(),
                    )
                    .field(
                        "nox_max_recovery_latency_cycles",
                        self.nox_max_recovery_latency(),
                    ),
            )
    }
}

fn series_of(set: &[ArchFaultSeries], arch: Arch) -> &ArchFaultSeries {
    set.iter().find(|s| s.arch == arch).expect("known arch")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_demonstrates_fragility_and_recovery() {
        let s = run_with(Tier::Smoke, &Executor::sequential());
        assert!(
            s.nox_fragility_holds(),
            "fragility claim lost:\n{}",
            s.render()
        );
        for &arch in &Arch::ALL {
            assert!(
                s.full_recovery(arch),
                "{arch}: no full recovery:\n{}",
                s.render()
            );
        }
        assert!(s.nox_max_recovery_latency() > 0);
    }

    #[test]
    fn json_document_is_well_formed() {
        let s = run_with(Tier::Smoke, &Executor::sequential());
        let doc = Json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let summary = doc.get("summary").unwrap();
        assert_eq!(
            summary
                .get("full_recovery_all_archs")
                .and_then(Json::as_bool),
            Some(true)
        );
    }
}

//! Synthetic trace generation: Poisson and self-similar Pareto sources.
//!
//! Injection processes are generated in continuous time (nanoseconds) so
//! the same trace drives every router architecture at identical offered
//! load regardless of clock period — the paper plots injection bandwidth
//! in MB/s/node for exactly this reason (§5.1).
//!
//! Two arrival processes are provided:
//!
//! * [`Process::Poisson`] — memoryless arrivals, the standard model for
//!   "Bernoulli-style" synthetic evaluation.
//! * [`Process::ParetoOnOff`] — the self-similar pareto-based pattern the
//!   paper uses "commonly used in networking evaluations", generated with
//!   `alpha = 1.4`, `b = 8` and a varying `T_off` to set the injection
//!   rate, after Kramer's pseudo-Pareto generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};

use nox_sim::topology::Mesh;
use nox_sim::trace::{PacketEvent, Trace};

use crate::patterns::Pattern;

/// Pareto shape parameter used by the paper (`alpha = 1.4`).
pub const PARETO_ALPHA: f64 = 1.4;
/// Mean burst length in packets used by the paper (`b = 8`).
pub const PARETO_BURST: f64 = 8.0;

/// The nominal line rate a bursting source injects at, in bytes per
/// nanosecond (8 B/ns = one 64-bit flit per nanosecond).
pub const LINE_BYTES_PER_NS: f64 = 8.0;

/// Packet inter-arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Process {
    /// Independent exponential inter-arrival times.
    Poisson,
    /// Self-similar Pareto ON/OFF process: during ON periods packets
    /// inject back-to-back at the line rate; ON lengths are Pareto with
    /// shape [`PARETO_ALPHA`] and mean [`PARETO_BURST`] packets; OFF
    /// lengths are Pareto with the mean `T_off` needed to hit the target
    /// rate.
    ParetoOnOff,
}

impl Process {
    /// The name the CLI's `--process` and the serve protocol's
    /// `"process"` use (`poisson` / `pareto`).
    pub fn name(self) -> &'static str {
        match self {
            Process::Poisson => "poisson",
            Process::ParetoOnOff => "pareto",
        }
    }

    /// Parses a process name.
    pub fn parse(name: &str) -> Option<Process> {
        [Process::Poisson, Process::ParetoOnOff]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

/// Configuration for one synthetic trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyntheticConfig {
    /// Destination pattern.
    pub pattern: Pattern,
    /// Arrival process.
    pub process: Process,
    /// Target offered load per node, in MB/s (1 MB/s = 1e6 bytes/s).
    pub rate_mbps_per_node: f64,
    /// Packet length in flits (the paper's synthetic study is single-flit).
    pub len: u16,
    /// Flit width in bytes.
    pub flit_bytes: u32,
    /// Trace duration in nanoseconds.
    pub duration_ns: f64,
    /// RNG seed; equal seeds give identical traces.
    pub seed: u64,
}

/// The seed of [`SyntheticConfig::uniform`], which the single-trace
/// harnesses (Figure 12, the ablation, the concentrated-mesh study) and
/// `noxsim power` run on.
pub const UNIFORM_SEED: u64 = 0x0A0C5;

impl SyntheticConfig {
    /// Single-flit uniform-random Poisson traffic — the most common
    /// configuration in the paper's Figure 8.
    pub fn uniform(rate_mbps_per_node: f64, duration_ns: f64) -> Self {
        SyntheticConfig {
            pattern: Pattern::UniformRandom,
            process: Process::Poisson,
            rate_mbps_per_node,
            len: 1,
            flit_bytes: 8,
            duration_ns,
            seed: UNIFORM_SEED,
        }
    }

    /// Packets per nanosecond per node at the target rate.
    pub fn packets_per_ns(&self) -> f64 {
        // MB/s -> bytes/ns is a factor of 1e-3.
        self.rate_mbps_per_node * 1e-3 / (self.len as f64 * self.flit_bytes as f64)
    }
}

/// Generates the full trace for every node of `mesh`.
///
/// # Panics
///
/// Panics if the rate, duration, or packet length is non-positive, or if
/// a Pareto configuration requests more than the line rate.
pub fn generate(mesh: Mesh, cfg: &SyntheticConfig) -> Trace {
    assert!(cfg.rate_mbps_per_node >= 0.0, "negative injection rate");
    assert!(cfg.duration_ns > 0.0, "trace duration must be positive");
    assert!(cfg.len >= 1, "packets need at least one flit");

    // Room for the expected packet count and four standard deviations of
    // a Poisson count more, so the events are written once, not copied as
    // the vector doubles. Only a hint: an unbounded count skips it, a
    // reservation the allocator refuses is dropped, and a trace that
    // outgrows it grows as usual.
    let mut events = Vec::new();
    let expected = cfg.packets_per_ns() * cfg.duration_ns * mesh.nodes() as f64;
    if expected.is_finite() {
        let _ = events.try_reserve((expected + 4.0 * expected.sqrt() + 64.0) as usize);
    }
    for src in mesh.iter() {
        // Independent, deterministic stream per node.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x9E37_79B9 * (src.0 as u64 + 1)));
        match cfg.process {
            Process::Poisson => {
                let lambda = cfg.packets_per_ns();
                if lambda <= 0.0 {
                    continue;
                }
                let exp = Exp::new(lambda).expect("valid rate");
                let mut t = exp.sample(&mut rng);
                while t < cfg.duration_ns {
                    if let Some(dest) = cfg.pattern.dest(mesh, src, &mut rng) {
                        events.push(PacketEvent {
                            time_ns: t,
                            src,
                            dest,
                            len: cfg.len,
                        });
                    }
                    t += exp.sample(&mut rng);
                }
            }
            Process::ParetoOnOff => {
                generate_pareto(mesh, cfg, src, &mut rng, &mut events);
            }
        }
    }
    Trace::from_events(events)
}

fn generate_pareto(
    mesh: Mesh,
    cfg: &SyntheticConfig,
    src: nox_sim::topology::NodeId,
    rng: &mut StdRng,
    events: &mut Vec<PacketEvent>,
) {
    let slot_ns = cfg.len as f64 * cfg.flit_bytes as f64 / LINE_BYTES_PER_NS;
    let line_mbps = cfg.len as f64 * cfg.flit_bytes as f64 / slot_ns * 1000.0;
    let util = cfg.rate_mbps_per_node / line_mbps;
    assert!(
        (0.0..1.0).contains(&util),
        "Pareto source utilisation {util} outside [0, 1)"
    );
    if util == 0.0 {
        return;
    }
    // Mean OFF length (in slots) to achieve the target utilisation with
    // mean ON length b: util = b / (b + T_off).
    let t_off = PARETO_BURST * (1.0 / util - 1.0);

    let mut t = pareto_sample(rng, t_off) * slot_ns; // start mid-gap
    while t < cfg.duration_ns {
        // ON burst: back-to-back packets at line rate.
        let burst = pareto_sample(rng, PARETO_BURST).round().max(1.0) as u64;
        for _ in 0..burst {
            if t >= cfg.duration_ns {
                break;
            }
            if let Some(dest) = cfg.pattern.dest(mesh, src, rng) {
                events.push(PacketEvent {
                    time_ns: t,
                    src,
                    dest,
                    len: cfg.len,
                });
            }
            t += slot_ns;
        }
        // OFF gap.
        t += pareto_sample(rng, t_off) * slot_ns;
    }
}

/// Samples a Pareto variate with shape [`PARETO_ALPHA`] and the given
/// mean: scale = mean * (alpha - 1) / alpha.
fn pareto_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let scale = mean * (PARETO_ALPHA - 1.0) / PARETO_ALPHA;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    scale / u.powf(1.0 / PARETO_ALPHA)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn process_names_round_trip() {
        for p in [Process::Poisson, Process::ParetoOnOff] {
            assert_eq!(Process::parse(p.name()), Some(p));
        }
        assert_eq!(Process::parse("bursty"), None);
    }

    #[test]
    fn poisson_rate_matches_target() {
        let cfg = SyntheticConfig {
            pattern: Pattern::UniformRandom,
            process: Process::Poisson,
            rate_mbps_per_node: 1000.0,
            len: 1,
            flit_bytes: 8,
            duration_ns: 50_000.0,
            seed: 42,
        };
        let trace = generate(mesh(), &cfg);
        let offered = trace.offered_flits_per_node_ns(64) * 8.0 * 1000.0; // MB/s
        assert!(
            (offered - 1000.0).abs() / 1000.0 < 0.05,
            "offered {offered} MB/s vs target 1000"
        );
    }

    #[test]
    fn pareto_rate_matches_target() {
        let cfg = SyntheticConfig {
            pattern: Pattern::UniformRandom,
            process: Process::ParetoOnOff,
            rate_mbps_per_node: 2000.0,
            len: 1,
            flit_bytes: 8,
            duration_ns: 200_000.0,
            seed: 7,
        };
        let trace = generate(mesh(), &cfg);
        let offered = trace.offered_flits_per_node_ns(64) * 8.0 * 1000.0;
        assert!(
            (offered - 2000.0).abs() / 2000.0 < 0.15,
            "offered {offered} MB/s vs target 2000 (heavy-tailed: wide tolerance)"
        );
    }

    #[test]
    fn pareto_is_bursty() {
        // Compare squared coefficient of variation of per-window counts:
        // the self-similar source must be burstier than Poisson.
        let mk = |process| SyntheticConfig {
            pattern: Pattern::UniformRandom,
            process,
            rate_mbps_per_node: 1000.0,
            len: 1,
            flit_bytes: 8,
            duration_ns: 100_000.0,
            seed: 11,
        };
        let cv2 = |trace: &Trace| {
            let window = 100.0;
            let bins = 1000;
            let mut counts = vec![0f64; bins];
            for e in trace.events() {
                let b = (e.time_ns / window) as usize;
                if b < bins {
                    counts[b] += 1.0;
                }
            }
            let mean = counts.iter().sum::<f64>() / bins as f64;
            let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / bins as f64;
            var / (mean * mean)
        };
        let poisson = generate(mesh(), &mk(Process::Poisson));
        let pareto = generate(mesh(), &mk(Process::ParetoOnOff));
        assert!(
            cv2(&pareto) > 1.5 * cv2(&poisson),
            "self-similar traffic must be visibly burstier: {} vs {}",
            cv2(&pareto),
            cv2(&poisson)
        );
    }

    #[test]
    fn traces_are_deterministic() {
        let cfg = SyntheticConfig::uniform(500.0, 10_000.0);
        assert_eq!(generate(mesh(), &cfg), generate(mesh(), &cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticConfig {
            seed: 1,
            ..SyntheticConfig::uniform(500.0, 10_000.0)
        };
        let b = SyntheticConfig {
            seed: 2,
            ..SyntheticConfig::uniform(500.0, 10_000.0)
        };
        assert_ne!(generate(mesh(), &a), generate(mesh(), &b));
    }

    #[test]
    fn zero_rate_gives_empty_trace() {
        let cfg = SyntheticConfig::uniform(0.0, 1_000.0);
        assert!(generate(mesh(), &cfg).is_empty());
    }

    #[test]
    fn pareto_mean_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| pareto_sample(&mut rng, 8.0)).sum::<f64>() / n as f64;
        // alpha = 1.4 has a heavy tail; the sample mean converges slowly,
        // so allow a generous band around the target of 8.
        assert!((4.0..14.0).contains(&mean), "sample mean {mean}");
    }

    /// FNV-1a over every event's time bits, source, destination and
    /// length, in trace order: a change to any byte of a trace moves it.
    fn digest(trace: &Trace) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in trace.events() {
            let bytes = e.time_ns.to_bits().to_le_bytes().into_iter().chain(
                [e.src.0, e.dest.0, e.len]
                    .into_iter()
                    .flat_map(u16::to_le_bytes),
            );
            for b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn traces_are_pinned_to_the_byte() {
        let base = SyntheticConfig::uniform(1_500.0, 20_000.0);
        let cases = [
            ("uniform poisson", SyntheticConfig { seed: 1, ..base }),
            (
                "pareto on/off",
                SyntheticConfig {
                    process: Process::ParetoOnOff,
                    rate_mbps_per_node: 2_000.0,
                    seed: 2,
                    ..base
                },
            ),
            (
                // Nodes on the diagonal send nothing: `dest` is `None`.
                "transpose",
                SyntheticConfig {
                    pattern: Pattern::Transpose,
                    seed: 3,
                    ..base
                },
            ),
            (
                "4-flit packets",
                SyntheticConfig {
                    len: 4,
                    rate_mbps_per_node: 3_000.0,
                    seed: 4,
                    ..base
                },
            ),
        ];
        let got: Vec<(&str, usize, u64)> = cases
            .iter()
            .map(|(name, cfg)| {
                let trace = generate(mesh(), cfg);
                (*name, trace.len(), digest(&trace))
            })
            .collect();
        // Any change to a generated byte, however small, fails here.
        assert_eq!(
            got,
            [
                ("uniform poisson", 239_446, 12_542_191_832_494_341_160),
                ("pareto on/off", 325_878, 1_347_382_878_161_773_529),
                ("transpose", 209_546, 11_996_968_760_404_113_132),
                ("4-flit packets", 119_871, 9_512_628_724_322_608_282),
            ]
        );
    }
}

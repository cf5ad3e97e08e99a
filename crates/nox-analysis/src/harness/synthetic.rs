//! The synthetic-traffic study shared by Figures 8 and 9.
//!
//! One study sweeps all four router architectures over an injection-rate
//! grid for the paper's four traffic scenarios (uniform, transpose,
//! bit-complement — Poisson — and self-similar Pareto ON/OFF uniform,
//! §5.1). Figure 8 renders the latency view and Figure 9 the ED² view of
//! the *same* study, and the claims registry evaluates both figures'
//! claims from a single study run.

use crate::harness::Tier;
use crate::json::Json;
use crate::sweep::{crossover_mbps, sweep_series, ArchSeries, SweepConfig};
use nox_exec::Executor;
use nox_sim::config::{Arch, NetConfig};
use nox_sim::sim::RunSpec;
use nox_traffic::synthetic::Process;
use nox_traffic::Pattern;

/// Latency blow-up factor over zero-load that marks saturation
/// (matches the historical fig8 harness).
pub const SATURATION_FACTOR: f64 = 15.0;

/// One traffic scenario of the study.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable key used in claim IDs and JSON (`uniform`, `transpose`,
    /// `bit_complement`, `self_similar`).
    pub key: &'static str,
    /// The figure's panel label, e.g. `a) uniform random`.
    pub label: &'static str,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Arrival process.
    pub process: Process,
    /// One series per architecture, in `Arch::ALL` order, each ending at
    /// its first undrained rate.
    pub series: Vec<ArchSeries>,
}

/// The full four-scenario synthetic study.
#[derive(Clone, Debug)]
pub struct SyntheticStudy {
    /// Tier the study ran at.
    pub tier: Tier,
    /// The swept offered loads, MB/s per node: the grid every series
    /// starts on (a series may end before its last rate).
    pub rates: Vec<f64>,
    /// The four scenarios, in the paper's panel order.
    pub scenarios: Vec<Scenario>,
}

/// The scenario definitions (panel order of Figures 8 and 9).
pub fn scenario_defs() -> [(&'static str, &'static str, Pattern, Process); 4] {
    [
        (
            "uniform",
            "a) uniform random",
            Pattern::UniformRandom,
            Process::Poisson,
        ),
        (
            "transpose",
            "b) transpose",
            Pattern::Transpose,
            Process::Poisson,
        ),
        (
            "bit_complement",
            "c) bit-complement",
            Pattern::BitComplement,
            Process::Poisson,
        ),
        (
            "self_similar",
            "d) self-similar (Pareto on/off)",
            Pattern::UniformRandom,
            Process::ParetoOnOff,
        ),
    ]
}

/// The injection-rate grid for a tier.
pub fn rates(tier: Tier) -> Vec<f64> {
    let step = match tier {
        Tier::Full => 250.0,
        Tier::Quick | Tier::Smoke => 500.0,
    };
    (1..)
        .map(|i| i as f64 * step)
        .take_while(|&r| r <= 3_500.0)
        .collect()
}

/// The sweep configuration (trace duration + measurement phases) for a
/// tier. Smoke shortens the windows so a full study stays CI-friendly;
/// the grid itself matches `Quick` so saturation estimates share the
/// same resolution.
pub fn sweep_config(tier: Tier, rates: Vec<f64>) -> SweepConfig {
    let base = SweepConfig::uniform(rates);
    match tier {
        Tier::Full | Tier::Quick => base,
        Tier::Smoke => SweepConfig {
            duration_ns: 12_000.0,
            run: RunSpec {
                warmup_ns: 1_000.0,
                measure_ns: 3_000.0,
                drain_ns: 12_000.0,
            },
            ..base
        },
    }
}

/// Runs the full four-scenario study at `tier` through [`sweep_series`],
/// over `exec`: one wave per rate, each scenario's trace at that rate
/// generated once and driving every architecture still draining under
/// it. Each series ends at its first undrained rate, the last point
/// Figures 8 and 9 and the claims read (§5.1 reads a curve up to
/// saturation). The ordered reduction keeps the panel / series / point
/// nesting in definition order — so the study is bit-identical at any
/// thread count.
pub fn study_with(tier: Tier, exec: &Executor) -> SyntheticStudy {
    let rates = rates(tier);
    let defs = scenario_defs();
    let cfgs: Vec<SweepConfig> = defs
        .iter()
        .map(|&(_, _, pattern, process)| SweepConfig {
            pattern,
            process,
            ..sweep_config(tier, rates.clone())
        })
        .collect();
    let series = sweep_series("synthetic", &cfgs, &Arch::ALL.map(NetConfig::paper), exec);
    let scenarios = defs
        .into_iter()
        .zip(series)
        .map(|((key, label, pattern, process), series)| Scenario {
            key,
            label,
            pattern,
            process,
            series,
        })
        .collect();
    SyntheticStudy {
        tier,
        rates,
        scenarios,
    }
}

impl Scenario {
    /// The series of one architecture.
    pub fn series_of(&self, arch: Arch) -> &ArchSeries {
        &self.series[Arch::ALL
            .iter()
            .position(|&a| a == arch)
            .expect("known arch")]
    }

    /// Saturation throughput of one architecture (MB/s/node).
    pub fn saturation(&self, arch: Arch) -> f64 {
        self.series_of(arch).saturation_mbps(SATURATION_FACTOR)
    }

    /// NoX saturation gain over the best of the other three, as a
    /// fraction (+0.09 = NoX saturates 9% higher).
    pub fn nox_saturation_gain(&self) -> f64 {
        let best_other = [Arch::NonSpec, Arch::SpecFast, Arch::SpecAccurate]
            .into_iter()
            .map(|a| self.saturation(a))
            .fold(0.0, f64::max);
        self.saturation(Arch::Nox) / best_other - 1.0
    }

    /// The lowest rate from which `a`'s latency stays at or below `b`'s.
    pub fn crossover(&self, a: Arch, b: Arch) -> Option<f64> {
        crossover_mbps(self.series_of(a), self.series_of(b))
    }

    /// The architecture with the strictly lowest latency at the lowest
    /// swept rate, or `None` on a tie.
    pub fn best_at_lowest_rate(&self) -> Option<Arch> {
        let lats: Vec<f64> = self
            .series
            .iter()
            .map(|s| s.points.first().map(|p| p.latency_ns).unwrap_or(f64::MAX))
            .collect();
        let (i, &best) = lats.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1))?;
        let unique = lats.iter().enumerate().all(|(j, &l)| j == i || l > best);
        unique.then(|| Arch::ALL[i])
    }

    /// The largest swept rate up to which `arch` has the strictly lowest
    /// latency at every drained point (the "best at low load up to X
    /// MB/s/node" prose of §5.1), or `None` if it never leads. A rate past
    /// a series' end reads as undrained.
    pub fn best_region_edge(&self, arch: Arch) -> Option<f64> {
        let mut edge = None;
        for (i, p) in self.series_of(arch).points.iter().enumerate() {
            if !p.drained {
                break;
            }
            let leads = self.series.iter().zip(Arch::ALL).all(|(s, a)| {
                a == arch
                    || s.points
                        .get(i)
                        .is_none_or(|q| q.latency_ns > p.latency_ns || !q.drained)
            });
            if leads {
                edge = Some(p.rate_mbps);
            } else {
                break;
            }
        }
        edge
    }

    /// Index of the last rate at which *all* architectures still drained
    /// (the fair ED² comparison point of Figure 9). A rate past a series'
    /// end reads as undrained.
    pub fn last_common_drained(&self) -> Option<usize> {
        let longest = self.series.iter().map(|s| s.points.len()).max()?;
        (0..longest).rev().find(|&i| {
            self.series
                .iter()
                .all(|s| s.points.get(i).is_some_and(|p| p.drained))
        })
    }

    /// ED² of `arch` relative to NoX at the last common drained rate, as
    /// a fraction (+2.69 = 269% worse than NoX).
    pub fn ed2_vs_nox(&self, arch: Arch) -> Option<f64> {
        let i = self.last_common_drained()?;
        let nox = self.series_of(Arch::Nox).points[i].ed2;
        Some(self.series_of(arch).points[i].ed2 / nox - 1.0)
    }

    /// Mean latency of `arch` relative to NoX at the last common drained
    /// rate, as a fraction.
    pub fn latency_vs_nox(&self, arch: Arch) -> Option<f64> {
        let i = self.last_common_drained()?;
        let nox = self.series_of(Arch::Nox).points[i].latency_ns;
        Some(self.series_of(arch).points[i].latency_ns / nox - 1.0)
    }
}

impl SyntheticStudy {
    /// The scenario with the given key.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown (the study always carries all four).
    pub fn scenario(&self, key: &str) -> &Scenario {
        self.scenarios
            .iter()
            .find(|s| s.key == key)
            .unwrap_or_else(|| panic!("unknown scenario {key:?}"))
    }

    /// Serializes the study itself (shared by the fig8/fig9 documents).
    pub fn scenarios_json(&self, metric: Metric) -> Json {
        Json::Arr(
            self.scenarios
                .iter()
                .map(|sc| {
                    let series = sc
                        .series
                        .iter()
                        .map(|s| {
                            let points = s
                                .points
                                .iter()
                                .map(|p| {
                                    let mut o = Json::obj()
                                        .field("rate_mbps", p.rate_mbps)
                                        .field("drained", p.drained);
                                    o = match metric {
                                        Metric::LatencyNs => o
                                            .field("latency_ns", p.latency_ns)
                                            .field("accepted_mbps", p.accepted_mbps),
                                        Metric::Ed2 => o.field("ed2_pj_ns2", p.ed2),
                                    };
                                    o
                                })
                                .collect::<Vec<_>>();
                            Json::obj()
                                .field("arch", s.arch.name())
                                .field("saturation_mbps", s.saturation_mbps(SATURATION_FACTOR))
                                .field("points", Json::Arr(points))
                        })
                        .collect::<Vec<_>>();
                    Json::obj()
                        .field("key", sc.key)
                        .field("label", sc.label)
                        .field("nox_saturation_gain", sc.nox_saturation_gain())
                        .field(
                            "nox_overtakes_spec_accurate_mbps",
                            sc.crossover(Arch::Nox, Arch::SpecAccurate),
                        )
                        .field("series", Json::Arr(series))
                })
                .collect(),
        )
    }
}

/// Which measured quantity a figure view serializes per point.
#[derive(Clone, Copy, Debug)]
pub enum Metric {
    /// Mean packet latency (Figure 8).
    LatencyNs,
    /// Energy-delay² (Figure 9).
    Ed2,
}

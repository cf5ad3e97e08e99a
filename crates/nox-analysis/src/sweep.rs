//! Injection-rate sweeps for the synthetic-traffic studies (Figures 8, 9).
//!
//! A sweep runs one router architecture over a list of injection rates
//! with a fixed traffic pattern, collecting latency, accepted throughput,
//! and energy at every point, and locates the saturation point and the
//! crossovers between architectures that the paper reports in §5.1.
//!
//! This module also decides which trace an operating point runs on:
//! [`SweepConfig::trace`] is the one place a synthetic trace is generated
//! for a study, a harness or the daemon, and [`measure_rate`] generates it
//! once and runs every network of the point on it — the paper's method of
//! one offered-traffic trace driving all the routers it compares.

use nox_exec::Executor;
use nox_power::energy::{energy_delay2, energy_per_packet_pj, EnergyModel};
use nox_sim::config::{Arch, NetConfig};
use nox_sim::sim::{run, RunSpec, SimResult};
use nox_sim::topology::Mesh;
use nox_sim::trace::Trace;
use nox_traffic::synthetic::{generate, Process, SyntheticConfig};
use nox_traffic::Pattern;

/// One measured operating point.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Offered load, MB/s per node.
    pub rate_mbps: f64,
    /// Mean packet latency, nanoseconds.
    pub latency_ns: f64,
    /// Accepted throughput, MB/s per node.
    pub accepted_mbps: f64,
    /// Mean dynamic energy per packet, picojoules.
    pub energy_per_packet_pj: f64,
    /// Energy-delay^2 figure of merit (pJ * ns^2).
    pub ed2: f64,
    /// Average network power over the window, milliwatts.
    pub power_mw: f64,
    /// `false` once the network saturates (measured packets undrained).
    pub drained: bool,
    /// The full simulator result, for deeper inspection.
    pub result: SimResult,
}

/// The sweep of one architecture over a set of rates.
#[derive(Clone, Debug)]
pub struct ArchSeries {
    /// Router architecture.
    pub arch: Arch,
    /// Traffic pattern swept.
    pub pattern: Pattern,
    /// The measured points, in increasing rate order.
    pub points: Vec<SweepPoint>,
}

/// Parameters of a sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Arrival process.
    pub process: Process,
    /// Offered loads in MB/s per node, increasing.
    pub rates_mbps: Vec<f64>,
    /// Packet length in flits.
    pub len: u16,
    /// Trace duration in nanoseconds. It must cover the warm-up and the
    /// measurement window, so the window sees the configured load; the
    /// drain (at most `run.drain_ns`) runs on whatever traffic the trace
    /// still holds after the window, and on none once it ends.
    pub duration_ns: f64,
    /// Measurement phases.
    pub run: RunSpec,
    /// Trace seed.
    pub seed: u64,
}

impl SweepConfig {
    /// A single-flit uniform-random Poisson sweep with sensible phases.
    pub fn uniform(rates_mbps: Vec<f64>) -> Self {
        SweepConfig {
            pattern: Pattern::UniformRandom,
            process: Process::Poisson,
            rates_mbps,
            len: 1,
            duration_ns: 40_000.0,
            run: RunSpec {
                warmup_ns: 1_500.0,
                measure_ns: 6_000.0,
                drain_ns: 30_000.0,
            },
            seed: 0xF168,
        }
    }

    /// The offered traffic of the operating point at `rate`: the paper's
    /// 64 cores in 8-byte flits, whichever network carries them (the 4x4
    /// concentrated mesh puts four cores on a router). It depends on the
    /// configuration and the rate alone.
    pub fn trace(&self, rate: f64) -> Trace {
        generate(
            Mesh::new(8, 8),
            &SyntheticConfig {
                pattern: self.pattern,
                process: self.process,
                rate_mbps_per_node: rate,
                len: self.len,
                flit_bytes: 8,
                duration_ns: self.duration_ns,
                seed: self.seed,
            },
        )
    }
}

/// Measures the operating point of `cfg` at `rate` on every network of
/// `nets`: generates the point's trace once ([`SweepConfig::trace`]),
/// runs each network on it, and derives each one's metrics with its own
/// architecture's energy model. The results come back in `nets` order.
/// A point depends on its configuration, rate and networks alone, which
/// is what lets a study fan points out across threads without changing
/// a single output bit.
pub fn measure_rate(cfg: &SweepConfig, rate: f64, nets: &[NetConfig]) -> Vec<SweepPoint> {
    let _span = nox_telemetry::SpanGuard::begin(nox_telemetry::phase::HARNESS_POINT);
    let trace = cfg.trace(rate);
    nets.iter()
        .map(|&net| {
            let result = run(net, &trace, &cfg.run);
            point_from_result(rate, result, &EnergyModel::for_arch(net.arch))
        })
        .collect()
}

/// Measures one operating point of `arch` under `cfg` at `rate` on the
/// paper's mesh: [`measure_rate`] with one network.
pub fn measure_point(arch: Arch, cfg: &SweepConfig, rate: f64) -> SweepPoint {
    measure_rate(cfg, rate, &[NetConfig::paper(arch)])
        .pop()
        .expect("one network, one point")
}

/// Runs a sweep of `arch` under `cfg`, fanning the load points out over
/// `exec`. Points are reduced in rate order, so the series is
/// bit-identical at any thread count.
pub fn sweep_with(arch: Arch, cfg: &SweepConfig, exec: &Executor) -> ArchSeries {
    let stage = format!("sweep.{}", arch.name());
    let points = exec.map_stage(&stage, cfg.rates_mbps.clone(), |_, rate| {
        measure_point(arch, cfg, rate)
    });
    ArchSeries {
        arch,
        pattern: cfg.pattern,
        points,
    }
}

/// Builds a [`SweepPoint`] from a finished run.
pub fn point_from_result(rate: f64, result: SimResult, model: &EnergyModel) -> SweepPoint {
    let latency_ns = result.avg_latency_ns();
    let c = &result.window_counters;
    SweepPoint {
        rate_mbps: rate,
        latency_ns,
        accepted_mbps: result.accepted_mbps_per_node(),
        energy_per_packet_pj: energy_per_packet_pj(model, c),
        ed2: energy_delay2(model, c, latency_ns),
        power_mw: model.breakdown(c).power_mw(result.window_ns),
        drained: result.drained,
        result,
    }
}

impl ArchSeries {
    /// Zero-load latency estimate: the latency of the lowest-rate point.
    pub fn zero_load_latency_ns(&self) -> f64 {
        self.points.first().map(|p| p.latency_ns).unwrap_or(0.0)
    }

    /// The saturation throughput in MB/s/node: the highest *accepted*
    /// throughput observed at any offered load where the network still
    /// kept latencies bounded (mean below `factor` times zero-load), or
    /// the maximum accepted throughput if it never saturates in range.
    pub fn saturation_mbps(&self, factor: f64) -> f64 {
        let zl = self.zero_load_latency_ns();
        self.points
            .iter()
            .filter(|p| p.drained && p.latency_ns <= factor * zl)
            .map(|p| p.accepted_mbps)
            .fold(0.0, f64::max)
    }

    /// The lowest offered rate at which the network is saturated
    /// (undrained or latency beyond `factor` x zero-load), if any.
    pub fn saturation_onset_mbps(&self, factor: f64) -> Option<f64> {
        let zl = self.zero_load_latency_ns();
        self.points
            .iter()
            .find(|p| !p.drained || p.latency_ns > factor * zl)
            .map(|p| p.rate_mbps)
    }
}

/// Finds the crossover between two series: the lowest rate from which
/// `a`'s latency stays at or below `b`'s for the remainder of the sweep
/// (both unsaturated points only). Returns `None` if `a` never wins.
pub fn crossover_mbps(a: &ArchSeries, b: &ArchSeries) -> Option<f64> {
    let paired: Vec<(f64, f64, f64)> = a
        .points
        .iter()
        .zip(&b.points)
        .filter(|(pa, pb)| pa.drained && pb.drained)
        .map(|(pa, pb)| (pa.rate_mbps, pa.latency_ns, pb.latency_ns))
        .collect();
    let mut best = None;
    for i in 0..paired.len() {
        if paired[i..].iter().all(|&(_, la, lb)| la <= lb) {
            best = Some(paired[i].0);
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(rates: Vec<f64>) -> SweepConfig {
        SweepConfig {
            duration_ns: 8_000.0,
            run: RunSpec {
                warmup_ns: 500.0,
                measure_ns: 2_000.0,
                drain_ns: 20_000.0,
            },
            ..SweepConfig::uniform(rates)
        }
    }

    #[test]
    fn sweep_produces_monotone_nonneg_latencies() {
        let s = sweep_with(
            Arch::Nox,
            &quick_cfg(vec![300.0, 900.0, 1500.0]),
            &Executor::sequential(),
        );
        assert_eq!(s.points.len(), 3);
        for p in &s.points {
            assert!(p.latency_ns > 0.0);
            assert!(p.energy_per_packet_pj > 0.0);
            assert!(p.ed2 > 0.0);
        }
        // Latency grows with load.
        assert!(s.points[2].latency_ns >= s.points[0].latency_ns);
    }

    #[test]
    fn accepted_tracks_offered_below_saturation() {
        let s = sweep_with(
            Arch::SpecAccurate,
            &quick_cfg(vec![600.0]),
            &Executor::sequential(),
        );
        let p = &s.points[0];
        assert!(p.drained);
        assert!((p.accepted_mbps - 600.0).abs() / 600.0 < 0.1);
    }

    #[test]
    fn one_network_point_is_that_network_of_the_shared_point() {
        let cfg = SweepConfig {
            duration_ns: 2_500.0,
            run: RunSpec {
                warmup_ns: 300.0,
                measure_ns: 1_000.0,
                drain_ns: 8_000.0,
            },
            ..SweepConfig::uniform(vec![400.0, 1_600.0])
        };
        let nets = Arch::ALL.map(NetConfig::paper);
        for &rate in &cfg.rates_mbps {
            let shared = measure_rate(&cfg, rate, &nets);
            assert_eq!(shared.len(), nets.len());
            for (arch, point) in Arch::ALL.into_iter().zip(&shared) {
                assert_eq!(
                    format!("{:?}", measure_point(arch, &cfg, rate)),
                    format!("{point:?}"),
                    "{arch} @ {rate} MB/s/node"
                );
            }
        }
    }

    #[test]
    fn crossover_detects_series_order() {
        // Synthetic series: `a` worse at low rate, better from 200 on.
        let mk = |lats: &[f64]| ArchSeries {
            arch: Arch::Nox,
            pattern: Pattern::UniformRandom,
            points: lats
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    let mut result = fake_result();
                    result.latency_ns.record(l);
                    SweepPoint {
                        rate_mbps: 100.0 * (i + 1) as f64,
                        latency_ns: l,
                        accepted_mbps: 100.0 * (i + 1) as f64,
                        energy_per_packet_pj: 1.0,
                        ed2: 1.0,
                        power_mw: 1.0,
                        drained: true,
                        result,
                    }
                })
                .collect(),
        };
        let a = mk(&[5.0, 4.0, 4.0]);
        let b = mk(&[4.0, 4.5, 5.0]);
        assert_eq!(crossover_mbps(&a, &b), Some(200.0));
        assert_eq!(crossover_mbps(&b, &a), None);
    }

    fn fake_result() -> SimResult {
        SimResult {
            cfg: NetConfig::paper(Arch::Nox),
            cycles: 1,
            window_counters: Default::default(),
            latency_ns: Default::default(),
            latency_hist: Default::default(),
            measured_total: 1,
            measured_ejected: 1,
            window_ns: 1.0,
            drained: true,
        }
    }
}

#[cfg(test)]
mod saturation_tests {
    use super::*;

    fn series(points: Vec<(f64, f64, f64, bool)>) -> ArchSeries {
        // (rate, latency, accepted, drained)
        ArchSeries {
            arch: Arch::Nox,
            pattern: Pattern::UniformRandom,
            points: points
                .into_iter()
                .map(
                    |(rate_mbps, latency_ns, accepted_mbps, drained)| SweepPoint {
                        rate_mbps,
                        latency_ns,
                        accepted_mbps,
                        energy_per_packet_pj: 1.0,
                        ed2: 1.0,
                        power_mw: 1.0,
                        drained,
                        result: SimResult {
                            cfg: NetConfig::paper(Arch::Nox),
                            cycles: 1,
                            window_counters: Default::default(),
                            latency_ns: Default::default(),
                            latency_hist: Default::default(),
                            measured_total: 1,
                            measured_ejected: 1,
                            window_ns: 1.0,
                            drained,
                        },
                    },
                )
                .collect(),
        }
    }

    #[test]
    fn saturation_takes_best_bounded_point() {
        let s = series(vec![
            (100.0, 5.0, 100.0, true),
            (200.0, 6.0, 200.0, true),
            (300.0, 500.0, 220.0, true), // latency blew past 15x zero-load
            (400.0, 900.0, 210.0, false),
        ]);
        assert_eq!(s.saturation_mbps(15.0), 200.0);
        assert_eq!(s.saturation_onset_mbps(15.0), Some(300.0));
    }

    #[test]
    fn unsaturated_series_reports_max_accepted() {
        let s = series(vec![(100.0, 5.0, 100.0, true), (200.0, 5.5, 200.0, true)]);
        assert_eq!(s.saturation_mbps(15.0), 200.0);
        assert_eq!(s.saturation_onset_mbps(15.0), None);
    }

    #[test]
    fn undrained_points_never_count_as_saturation_throughput() {
        let s = series(vec![
            (100.0, 5.0, 100.0, true),
            (200.0, 6.0, 999.0, false), // bogus accepted on a saturated run
        ]);
        assert_eq!(s.saturation_mbps(15.0), 100.0);
    }

    #[test]
    fn zero_load_latency_is_first_point() {
        let s = series(vec![(100.0, 5.0, 100.0, true), (200.0, 9.0, 200.0, true)]);
        assert_eq!(s.zero_load_latency_ns(), 5.0);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = series(vec![]);
        assert_eq!(s.zero_load_latency_ns(), 0.0);
        assert_eq!(s.saturation_mbps(15.0), 0.0);
        assert_eq!(s.saturation_onset_mbps(15.0), None);
    }
}

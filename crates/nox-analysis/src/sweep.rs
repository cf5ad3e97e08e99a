//! Injection-rate sweeps for the synthetic-traffic studies (Figures 8, 9).
//!
//! A sweep runs router architectures over a list of injection rates
//! with a fixed traffic pattern, collecting latency, accepted throughput,
//! and energy at every point, and locates the saturation point and the
//! crossovers between architectures that the paper reports in §5.1.
//!
//! This module also decides which trace an operating point runs on:
//! [`SweepConfig::trace`] is the one place a synthetic trace is generated
//! for a study, a harness or the daemon, and [`run_points`] (the one
//! fan-out of networks over rates) and [`measure_rate`] generate it once
//! per rate and run every network of the point on it — the paper's
//! method of one offered-traffic trace driving all the routers it
//! compares.
//!
//! [`sweep_series`] drives the studies: it stops each series at its first
//! undrained rate, the last point any reader of a sweep uses.
//! [`measure_rate`] answers exactly the rates it is asked for.

use std::sync::{Mutex, PoisonError};

use nox_exec::Executor;
use nox_power::energy::{energy_delay2, energy_per_packet_pj, EnergyModel};
use nox_sim::config::{Arch, NetConfig};
use nox_sim::sim::{run, RunSpec, SimResult};
use nox_sim::topology::Mesh;
use nox_sim::trace::Trace;
use nox_telemetry::{phase, SpanGuard};
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
    /// The measured points, in increasing rate order. A series from
    /// [`sweep_series`] ends at its first undrained point: a rate past the
    /// end is one the network did not drain.
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

/// Sweeps every configuration of `cfgs` over its rates on every network
/// of `nets`, fanned out over `exec`, and returns one series per
/// (configuration, network): `series[c][n]` is network `n` under
/// configuration `c`, its architecture and `cfgs[c]`'s pattern.
///
/// The rates run in increasing order, one wave per rate: wave `k` runs
/// the `k`-th rate of every configuration. A network is live up to and
/// including its first undrained rate, and its series ends there; no
/// higher rate is simulated for it. Each wave is one [`run_points`]
/// fan-out, `"{stage}.runs"`, of the live (configuration, network)
/// pairs, configuration-major, so each configuration's trace of the
/// wave lives only while its networks run. The waves stop when no
/// network is live.
///
/// A point is the same bits as [`measure_rate`]'s at that rate, and the
/// results are reduced in submission order, so the series are
/// bit-identical at any thread count.
pub fn sweep_series(
    stage: &str,
    cfgs: &[SweepConfig],
    nets: &[NetConfig],
    exec: &Executor,
) -> Vec<Vec<ArchSeries>> {
    let mut series: Vec<Vec<ArchSeries>> = cfgs
        .iter()
        .map(|cfg| {
            nets.iter()
                .map(|net| ArchSeries {
                    arch: net.arch,
                    pattern: cfg.pattern,
                    points: Vec::with_capacity(cfg.rates_mbps.len()),
                })
                .collect()
        })
        .collect();
    let stage = format!("{stage}.runs");
    for wave in 0.. {
        let mut traces = Vec::new();
        let mut jobs = Vec::new();
        let mut cells = Vec::new();
        for (c, cfg) in cfgs.iter().enumerate() {
            let Some(&rate) = cfg.rates_mbps.get(wave) else {
                continue;
            };
            for (n, &net) in nets.iter().enumerate() {
                if series[c][n].points.last().is_none_or(|p| p.drained) {
                    jobs.push((traces.len(), net));
                    cells.push((c, n));
                }
            }
            traces.push((cfg, rate));
        }
        if jobs.is_empty() {
            break;
        }
        let points = run_points(&stage, exec, &traces, &jobs, run_point);
        for ((c, n), point) in cells.into_iter().zip(points) {
            series[c][n].points.push(point);
        }
    }
    series
}

/// Runs `point` on every job of `jobs` as the one fan-out `stage` over
/// `exec`, and returns its results in submission order. Job `(t, net)`
/// runs network `net` on the trace of `traces[t]`, a configuration and
/// a rate.
///
/// Each trace is generated once, through [`SweepConfig::trace`], by the
/// first of its jobs to start; the others share the handle (a cloned
/// [`Trace`] is a handle to the same events), and the last of them to
/// start takes it out of its slot. So a trace lives only while its jobs
/// run, whatever order they come in: submitted trace-major, a serial run
/// holds one trace at a time. A trace no job names is never generated.
pub fn run_points<R: Send>(
    stage: &str,
    exec: &Executor,
    traces: &[(&SweepConfig, f64)],
    jobs: &[(usize, NetConfig)],
    point: impl Fn(&SweepConfig, f64, NetConfig, &Trace) -> R + Sync,
) -> Vec<R> {
    // Per trace: its jobs not yet started, and the trace while one has
    // started and another has not.
    let mut pending = vec![0usize; traces.len()];
    for &(t, _) in jobs {
        pending[t] += 1;
    }
    let slots: Vec<Mutex<(usize, Option<Trace>)>> =
        pending.into_iter().map(|n| Mutex::new((n, None))).collect();
    exec.map_stage(stage, jobs, |_, &(t, net)| {
        let (cfg, rate) = traces[t];
        let trace = {
            // A panic while generating leaves the slot empty, and the
            // fan-out re-raises it once the pool joins.
            let mut slot = slots[t].lock().unwrap_or_else(PoisonError::into_inner);
            let (pending, shared) = &mut *slot;
            *pending -= 1;
            let trace = shared.take().unwrap_or_else(|| cfg.trace(rate));
            if *pending > 0 {
                *shared = Some(trace.clone());
            }
            trace
        };
        point(cfg, rate, net, &trace)
    })
}

/// [`run_points`] over every rate of `cfg` on every network of `nets`,
/// rate-major: the result of rate `r` on network `n` is at
/// `r * nets.len() + n`. One trace per rate drives all of `nets`.
pub fn run_rates<R: Send>(
    stage: &str,
    exec: &Executor,
    cfg: &SweepConfig,
    nets: &[NetConfig],
    point: impl Fn(&SweepConfig, f64, NetConfig, &Trace) -> R + Sync,
) -> Vec<R> {
    let traces: Vec<(&SweepConfig, f64)> = cfg.rates_mbps.iter().map(|&rate| (cfg, rate)).collect();
    let jobs: Vec<(usize, NetConfig)> = (0..traces.len())
        .flat_map(|t| nets.iter().map(move |&net| (t, net)))
        .collect();
    run_points(stage, exec, &traces, &jobs, point)
}

/// Measures the operating point of `cfg` at `rate` on every network of
/// `nets`: generates the point's trace once ([`SweepConfig::trace`]),
/// runs each network on it, and derives each one's metrics with its own
/// architecture's energy model. The results come back in `nets` order.
/// A point depends on its configuration, rate and networks alone, which
/// is what lets a study fan points out across threads without changing
/// a single output bit. Unlike [`sweep_series`] it runs every network,
/// drained or not: it answers the rate it was asked for.
pub fn measure_rate(cfg: &SweepConfig, rate: f64, nets: &[NetConfig]) -> Vec<SweepPoint> {
    let trace = cfg.trace(rate);
    nets.iter()
        .map(|&net| run_point(cfg, rate, net, &trace))
        .collect()
}

/// Measures one operating point of `arch` under `cfg` at `rate` on the
/// paper's mesh: [`measure_rate`] with one network.
pub fn measure_point(arch: Arch, cfg: &SweepConfig, rate: f64) -> SweepPoint {
    measure_rate(cfg, rate, &[NetConfig::paper(arch)])
        .pop()
        .expect("one network, one point")
}

/// Runs one network on `trace`, the trace of `cfg` at `rate`
/// ([`SweepConfig::trace`]), as one `harness.point` span whose index is
/// the rate in MB/s/node. A profile counts the run and its simulated
/// cycles (`sweep.runs`, `sweep.cycles`), and separately those of runs
/// that ended undrained (`sweep.undrained_runs`, `sweep.undrained_cycles`).
pub fn run_point(cfg: &SweepConfig, rate: f64, net: NetConfig, trace: &Trace) -> SweepPoint {
    let _span = SpanGuard::with_index(phase::HARNESS_POINT, rate.round() as u32);
    let result = run(net, trace, &cfg.run);
    nox_telemetry::with_acc(|a| {
        let undrained = u64::from(!result.drained);
        a.add_count("sweep.runs", 1);
        a.add_count("sweep.cycles", result.cycles);
        a.add_count("sweep.undrained_runs", undrained);
        a.add_count("sweep.undrained_cycles", undrained * result.cycles);
    });
    point_from_result(rate, result, &EnergyModel::for_arch(net.arch))
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

    /// The series of one paper-mesh network under one configuration.
    fn one_series(arch: Arch, cfg: SweepConfig) -> ArchSeries {
        sweep_series(
            "test",
            &[cfg],
            &[NetConfig::paper(arch)],
            &Executor::sequential(),
        )
        .remove(0)
        .remove(0)
    }

    #[test]
    fn sweep_produces_monotone_nonneg_latencies() {
        let s = one_series(Arch::Nox, quick_cfg(vec![300.0, 900.0, 1500.0]));
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
        let s = one_series(Arch::SpecAccurate, quick_cfg(vec![600.0]));
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

    /// A grid that crosses saturation and is cheap in a debug build: a
    /// short drain cap ends an undrained run early.
    fn saturating_cfgs() -> [SweepConfig; 2] {
        let base = SweepConfig {
            duration_ns: 1_500.0,
            run: RunSpec {
                warmup_ns: 200.0,
                measure_ns: 600.0,
                drain_ns: 1_000.0,
            },
            ..SweepConfig::uniform(vec![500.0, 1_500.0, 2_500.0])
        };
        [
            base.clone(),
            SweepConfig {
                pattern: Pattern::Transpose,
                ..base
            },
        ]
    }

    #[test]
    fn series_end_at_the_first_undrained_rate_of_the_full_grid() {
        let cfgs = saturating_cfgs();
        let nets = [Arch::SpecFast, Arch::Nox].map(NetConfig::paper);
        // The full grid, every rate of every network, point by point.
        let grid: Vec<Vec<Vec<SweepPoint>>> = cfgs
            .iter()
            .map(|cfg| {
                let by_rate: Vec<Vec<SweepPoint>> = cfg
                    .rates_mbps
                    .iter()
                    .map(|&rate| measure_rate(cfg, rate, &nets))
                    .collect();
                (0..nets.len())
                    .map(|n| by_rate.iter().map(|points| points[n].clone()).collect())
                    .collect()
            })
            .collect();
        // The stop rule's precondition: once undrained, a series stays so.
        let mut cut = Vec::new();
        for (c, series) in grid.iter().enumerate() {
            let mut cut_series = Vec::new();
            for (n, points) in series.iter().enumerate() {
                let end = points
                    .iter()
                    .position(|p| !p.drained)
                    .map_or(points.len(), |i| i + 1);
                assert!(
                    points[end..].iter().all(|p| !p.drained),
                    "configuration {c}, network {n} drains again above its first undrained rate"
                );
                cut_series.push(ArchSeries {
                    arch: nets[n].arch,
                    pattern: cfgs[c].pattern,
                    points: points[..end].to_vec(),
                });
            }
            cut.push(cut_series);
        }
        // Not vacuous: one series runs the whole grid, and one is cut short.
        let lens: Vec<usize> = cut.iter().flatten().map(|s| s.points.len()).collect();
        assert!(lens.contains(&3) && lens.iter().any(|&l| l < 3), "{lens:?}");
        let expected = format!("{cut:?}");
        for threads in [1, 2, 8] {
            let series = sweep_series("test", &cfgs, &nets, &Executor::new(threads));
            assert_eq!(format!("{series:?}"), expected, "{threads} thread(s)");
        }
    }

    #[test]
    fn run_points_shares_each_trace_among_its_jobs_only() {
        let cfg = SweepConfig {
            duration_ns: 500.0,
            ..SweepConfig::uniform(vec![])
        };
        let transpose = SweepConfig {
            pattern: Pattern::Transpose,
            ..cfg.clone()
        };
        // No job names the last trace, and the others' jobs interleave.
        let traces = [
            (&cfg, 300.0),
            (&cfg, 900.0),
            (&transpose, 300.0),
            (&cfg, 1_200.0),
        ];
        let nets = Arch::ALL.map(NetConfig::paper);
        let jobs: Vec<(usize, NetConfig)> = (0..9).map(|j| (j % 3, nets[j % 4])).collect();
        for threads in [1, 2, 8] {
            // Every job keeps its handle, so two traces cannot share an
            // address by turns.
            let seen = run_points(
                "test",
                &Executor::new(threads),
                &traces,
                &jobs,
                |_, rate, net, trace| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    (rate, net.arch, trace.clone())
                },
            );
            assert_eq!(seen.len(), jobs.len());
            let mut events = [None; 4];
            for (&(t, net), (rate, arch, trace)) in jobs.iter().zip(&seen) {
                let (cfg, want_rate) = traces[t];
                assert_eq!((*rate, *arch), (want_rate, net.arch), "{threads} thread(s)");
                assert_eq!(trace.events(), cfg.trace(want_rate).events());
                let ptr = trace.events().as_ptr();
                assert_eq!(
                    *events[t].get_or_insert(ptr),
                    ptr,
                    "{threads} thread(s): trace {t}"
                );
            }
            let mut named: Vec<_> = events.iter().flatten().collect();
            named.sort_unstable();
            named.dedup();
            assert_eq!((named.len(), events[3]), (3, None), "{threads} thread(s)");
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

//! The repo benchmark: four workloads, four end-to-end metrics, and a
//! per-layer ladder, measured only through the public API of the `nox`
//! facade (the shipped feature set). See `README.md` for the glossary
//! and `../BENCHMARK.json` for the contract the driver checks.
//!
//! An untraced run ([`RunArgs::traced`] off) prints the end-to-end
//! metrics. A traced run repeats the workload under
//! `nox_analysis::profile::collect` with spans recorded around every call
//! into a layer and prints the per-layer metrics; it first runs a shorter
//! untraced reference in the same process, so
//! `nox-telemetry.trace_overhead_ratio` is the cost of tracing and no
//! end-to-end number is ever taken from a traced pass.

use std::collections::BTreeMap;
use std::path::PathBuf;

use nox::analysis::harness::Tier;
use nox::analysis::json::Json;
use nox::analysis::profile::{self, ProfileReport};
use nox::sim::config::{Arch, NetConfig};
use nox::sim::network::Network;
use nox::sim::trace::Trace;
use nox::telemetry::phase;

pub mod alloc;
pub mod claims;
pub mod mesh;
pub mod micro;
pub mod serve;
pub mod spans;
pub mod stats;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The four workloads, in suite order.
pub const WORKLOADS: [&str; 4] = [
    "mesh_saturated",
    "mesh_lowload",
    "claims_smoke",
    "serve_mixed",
];

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` every comparison
/// uses. Work is sized from it (segments, repetitions, requests), so a
/// run measures for about this long on the reference box and does the
/// same simulated work on both commits of a comparison.
pub const RUN_SECONDS: u64 = 15;

/// One metric of the registry.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `true` for a simulated count that must repeat bit for bit for a
    /// seed (`repeat.sh` compares these by equality).
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: true,
    }
}

/// The end-to-end metrics: every workload measures all four, untraced.
pub const END_TO_END: &[Def] = &[
    timed("setup_s", "s"),
    timed("wall_s", "s"),
    timed("op_ms", "ms"),
    timed("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, printed by the traced run. A layer a workload
/// never enters reports 0.
pub const PER_LAYER: &[Def] = &[
    // nox-sim, mesh workloads.
    timed("nox-sim.cycles_per_s.nonspec", "1/s"),
    timed("nox-sim.cycles_per_s.specfast", "1/s"),
    timed("nox-sim.cycles_per_s.specacc", "1/s"),
    timed("nox-sim.cycles_per_s.nox", "1/s"),
    timed("nox-sim.ns_per_router_cycle", "ns"),
    timed("nox-sim.cycles_per_s_total", "1/s"),
    timed("nox-sim.segment_cps_p50", "1/s"),
    timed("nox-sim.segment_cps_best", "1/s"),
    timed("nox-sim.phase.deliver_share", "share"),
    timed("nox-sim.phase.credit_share", "share"),
    timed("nox-sim.phase.inject_share", "share"),
    timed("nox-sim.phase.route_share", "share"),
    timed("nox-sim.phase.arbitrate_share", "share"),
    timed("nox-sim.phase.drive_share", "share"),
    timed("nox-sim.phase.encode_share", "share"),
    timed("nox-sim.phase.sink_share", "share"),
    timed("nox-sim.phase.other_share", "share"),
    exact("nox-sim.link_utilization", "share"),
    exact("nox-sim.allocs_per_cycle", "1/cycle"),
    exact("nox-sim.alloc_bytes_per_cycle", "B/cycle"),
    exact("nox-sim.cycles", "count"),
    exact("nox-sim.flits_ejected", "count"),
    exact("nox-sim.link_flits", "count"),
    exact("nox-sim.link_wasted", "count"),
    exact("nox-sim.arbitrations", "count"),
    exact("nox-sim.collisions", "count"),
    exact("nox-sim.encoded_transfers", "count"),
    exact("nox-sim.aborts", "count"),
    exact("nox-sim.buffer_writes", "count"),
    exact("nox-sim.stats_digest", "digest"),
    timed("nox-sim.network_new_ms", "ms"),
    timed("nox-sim.warmup_ms", "ms"),
    // nox-sim, claims_smoke.
    exact("nox-sim.steps", "count"),
    timed("nox-sim.step_share", "share"),
    timed("nox-sim.ns_per_step", "ns"),
    // nox-core microkernels, every workload.
    timed("nox-core.coded_plain_ns", "ns"),
    timed("nox-core.coded_xor_ns", "ns"),
    timed("nox-core.rr_grant_ns", "ns"),
    timed("nox-core.output_ctl_tick_ns", "ns"),
    timed("nox-core.spec_ctl_tick_ns", "ns"),
    timed("nox-core.nonspec_ctl_tick_ns", "ns"),
    timed("nox-core.est_busy_share", "share"),
    // nox-traffic.
    timed("nox-traffic.generate_ms", "ms"),
    exact("nox-traffic.events", "count"),
    timed("nox-traffic.events_per_s", "1/s"),
    timed("nox-traffic.synthetic_generate_s", "s"),
    timed("nox-traffic.cmp_synthesize_s", "s"),
    // nox-analysis, claims_smoke.
    timed("nox-analysis.stage.timing_s", "s"),
    timed("nox-analysis.stage.synthetic_s", "s"),
    timed("nox-analysis.stage.apps_s", "s"),
    timed("nox-analysis.stage.power_area_s", "s"),
    timed("nox-analysis.stage.faults_s", "s"),
    timed("nox-analysis.stage.statics_s", "s"),
    timed("nox-analysis.stage.evaluate_ms", "ms"),
    timed("nox-analysis.stage.to_json_ms", "ms"),
    exact("nox-analysis.points", "count"),
    timed("nox-analysis.wall_s.rep0", "s"),
    timed("nox-analysis.wall_s.rep1", "s"),
    timed("nox-analysis.sweep.low_rate_share", "share"),
    exact("claims_shape", "claims"),
    exact("claims_quant", "claims"),
    // nox-exec, claims_smoke.
    exact("nox-exec.jobs", "count"),
    timed("nox-exec.utilization", "share"),
    timed("nox-exec.job_p50_ms", "ms"),
    timed("nox-exec.job_max_ms", "ms"),
    timed("nox-exec.queue_wait_p50_ms", "ms"),
    // nox-serve, serve_mixed.
    timed("nox-serve.queue_wait_p50_ms", "ms"),
    timed("nox-serve.compute_p50_ms", "ms"),
    timed("nox-serve.cold_p50_ms", "ms"),
    timed("nox-serve.cold_p90_ms", "ms"),
    timed("nox-serve.hit_p50_ms", "ms"),
    timed("nox-serve.hit_p90_ms", "ms"),
    timed("nox-serve.hit_p99_ms", "ms"),
    timed("nox-serve.ping_p50_us", "us"),
    timed("nox-serve.requests_per_s", "1/s"),
    exact("nox-serve.cold_n", "count"),
    timed("nox-serve.hit_n", "samples"),
    exact("nox-serve.computed", "count"),
    timed("nox-serve.cache_hits", "samples"),
    exact("nox-serve.rejected", "count"),
    timed("nox-serve.job.execute_ms", "ms"),
    timed("nox-serve.daemon_overhead_ms", "ms"),
    timed("nox-serve.cache.lookup_hit_us", "us"),
    timed("nox-serve.cache.lookup_miss_us", "us"),
    timed("nox-serve.cache.store_ms", "ms"),
    timed("nox-serve.proto.parse_key_us", "us"),
    exact("nox-serve.cache.bytes", "B"),
    timed("nox-serve.spawn_ms", "ms"),
    // nox-telemetry, every workload.
    timed("nox-telemetry.trace_overhead_ratio", "ratio"),
];

/// How one run was asked for.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload seed; the program under test sees only generated inputs.
    pub seed: u64,
    /// Measured seconds on the reference box; sizes the fixed work.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Where the run may write: trace files, the daemon's socket and
    /// cache. Created on demand, relative paths kept short enough for a
    /// Unix socket address.
    pub scratch: PathBuf,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked: architecture runs, claims, or requests.
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Measured metrics by registry name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (derived rates, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Ends the measured part of an untraced run. Samples `peak_rss_mib`
    /// now, so it covers one set-up and the measured section, and only
    /// then times `more` further set-ups: run before the measurement,
    /// they would leave their allocator state and their threads' stacks
    /// in it.
    ///
    /// `setup_s` is the mean, over the moments set-ups were timed at
    /// (`earlier`, one batch per moment, and now), of each moment's
    /// median. Set-ups are too long to catch the host's fast bursts and
    /// too short to average over its slow stretches, so a batch is all
    /// fast or all slow; the plain median of a run's set-ups would then
    /// flip by 27 % between sets of runs, where the mean of moments 15 s
    /// apart moves in steps a third or half that size.
    pub fn finish_untraced(
        &mut self,
        mut earlier: Vec<Vec<f64>>,
        more: usize,
        mut setup_again: impl FnMut(&mut Outcome) -> f64,
    ) {
        self.set("peak_rss_mib", peak_rss_mib());
        earlier.push((0..more).map(|_| setup_again(self)).collect());
        let moments: Vec<f64> = earlier.iter().map(|b| stats::median(b)).collect();
        self.set(
            "setup_s",
            moments.iter().sum::<f64>() / moments.len() as f64,
        );
    }

    /// `true` when every operation passed and every value is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.values().all(|v| v.is_finite())
    }

    /// The metrics a run in this mode must print, in registry order,
    /// with 0 for per-layer metrics of layers the workload never enters.
    ///
    /// # Panics
    ///
    /// Panics if the workload recorded a name the registry lacks, or (in
    /// an untraced run) left an end-to-end metric unmeasured.
    pub fn metrics(&self, traced: bool) -> Vec<(Def, f64)> {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        for name in self.values.keys() {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not in the registry for this mode"
            );
        }
        defs.iter()
            .map(|d| match self.values.get(d.name) {
                Some(v) => (*d, *v),
                None if traced => (*d, 0.0),
                None => panic!("end-to-end metric {} was not measured", d.name),
            })
            .collect()
    }

    /// The result object the contract asks for on the last stdout line.
    pub fn to_json(&self, traced: bool) -> Json {
        let metrics = self
            .metrics(traced)
            .into_iter()
            .fold(Json::obj(), |doc, (d, v)| {
                doc.field(d.name, Json::obj().field("value", v).field("unit", d.unit))
            });
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }
}

/// Runs one workload body with a fresh outcome and a span recorder that
/// keeps spans only in a traced run.
pub fn with_recorder(
    args: &RunArgs,
    body: impl FnOnce(&mut spans::Spans, &mut Outcome),
) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = spans::Spans::new(std::time::Instant::now(), 0, args.traced);
    body(&mut spans, &mut out);
    out
}

/// Runs workload `name`. `None` for an unknown name.
pub fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "mesh_saturated" => mesh::run(name, &mesh::MeshSpec::saturated(args.seconds), args),
        "mesh_lowload" => mesh::run(name, &mesh::MeshSpec::lowload(args.seconds), args),
        "claims_smoke" => claims::run(args),
        "serve_mixed" => serve::run(&serve::ServeSpec::mixed(args.seconds), args),
        _ => return None,
    })
}

/// Ends a traced run: writes the spans to `<scratch>/<workload>.trace.json`
/// and notes each span name's count, total and self time.
pub fn finish_trace(workload: &str, args: &RunArgs, spans: &spans::Spans, out: &mut Outcome) {
    let path = args.scratch.join(format!("{workload}.trace.json"));
    match spans::write_chrome(&path, workload, spans.spans()) {
        Ok(()) => out.notes.push(format!("trace {}", path.display())),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            out.check(false);
        }
    }
    for (name, (n, total_s, self_s)) in spans::self_times(spans.spans()) {
        out.notes.push(format!(
            "span {name:?} n {n} total_s {total_s} self_s {self_s}"
        ));
    }
}

/// Refuses to measure a feature-starved build: steps a network ten
/// cycles under `profile::collect` and demands ten `sim.step` spans.
/// Without `nox-sim/telemetry` (the shipped default) the step loop has
/// no phase clock, the count is 0, and every per-layer phase metric
/// would silently read 0 too.
pub fn selfcheck() -> Result<(), String> {
    let (_, report) = collect("selfcheck", 1, || {
        Network::new(NetConfig::paper(Arch::Nox), &Trace::new(), (0.0, 0.0)).run(10)
    });
    match report.acc.phase(phase::SIM_STEP).count {
        10 => Ok(()),
        n => Err(format!(
            "feature self-check failed: 10 cycles recorded {n} sim.step spans; this build lacks \
             nox-sim/telemetry, so it is not the shipped feature set (depend on crates/nox with \
             default features)"
        )),
    }
}

/// `profile::collect` at the smoke tier, the only tier the benchmark
/// runs.
pub fn collect<R>(label: &str, threads: usize, f: impl FnOnce() -> R) -> (R, ProfileReport) {
    profile::collect(label, Tier::Smoke, threads, f)
}

const PHASE_SHARES: [(phase::PhaseId, &str); 9] = [
    (phase::SIM_DELIVER, "nox-sim.phase.deliver_share"),
    (phase::SIM_CREDIT, "nox-sim.phase.credit_share"),
    (phase::SIM_INJECT, "nox-sim.phase.inject_share"),
    (phase::SIM_ROUTE, "nox-sim.phase.route_share"),
    (phase::SIM_ARBITRATE, "nox-sim.phase.arbitrate_share"),
    (phase::SIM_DRIVE, "nox-sim.phase.drive_share"),
    (phase::SIM_ENCODE, "nox-sim.phase.encode_share"),
    (phase::SIM_SINK, "nox-sim.phase.sink_share"),
    (phase::SIM_OTHER, "nox-sim.phase.other_share"),
];

/// Records what a collected profile says about the step loop: the step
/// count, ns per step, each phase's share of the `sim.step` nanoseconds,
/// and the step loop's own share of the executor jobs it ran in (of the
/// whole profile when there were none).
pub fn sim_profile(report: &ProfileReport, out: &mut Outcome) {
    let acc = &report.acc;
    let step = acc.phase(phase::SIM_STEP);
    let step_ns = step.nanos.max(1) as f64;
    let around = match acc.phase(phase::EXEC_JOB) {
        jobs if jobs.count > 0 => jobs.nanos,
        _ => report.total_ns(),
    };
    out.set("nox-sim.steps", step.count as f64);
    out.set("nox-sim.ns_per_step", step_ns / step.count.max(1) as f64);
    out.set("nox-sim.step_share", step_ns / around.max(1) as f64);
    for (id, name) in PHASE_SHARES {
        out.set(name, acc.phase(id).nanos as f64 / step_ns);
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let kib = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kib.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU seconds (user + system) this process has used, all threads,
/// from `/proc/self/stat` at the kernel's fixed 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th of the line.
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

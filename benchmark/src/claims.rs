//! `claims_smoke`: the job users and CI actually run — gather every
//! harness the claims registry draws on at the smoke tier on two
//! threads, evaluate the registry, serialise the report, and diff it
//! against the repo's `CLAIMS_BASELINE.json`.
//!
//! It is the one workload where `nox-exec`, `nox-traffic`, `nox-power`,
//! `nox-fault`, `nox-statics` and `nox-analysis` do real work, and where
//! the per-point set-up the mesh workloads exclude (trace generation,
//! `Network::new`, drain) is paid. The registry has no seed: the inputs
//! are the same for every `--seed`.

use std::time::Instant;

use nox::analysis::claims::{evaluate, Baseline, ClaimInputs, ClaimsReport};
use nox::analysis::harness::{appstudy, faults, fig12, fig13, figs237, synthetic, table2, Tier};
use nox::analysis::sweep::{measure_point, SweepConfig};
use nox::exec::Executor;
use nox::sim::config::{Arch, NetConfig};
use nox::sim::topology::Mesh;
use nox::telemetry::phase;
use nox::traffic::synthetic::{generate, SyntheticConfig};
use nox::traffic::WORKLOADS;

use crate::spans::Spans;
use crate::{collect, cpu_seconds, micro, stats, Outcome, RunArgs};

const TIER: Tier = Tier::Smoke;

/// Executor width: the reference box has two cores, and the load
/// generator may not use more threads than that.
const THREADS: usize = 2;

/// Set-ups per batch; an untraced run times a batch before, between and
/// after its passes. A set-up is well under a millisecond, so it takes
/// this many for a steady median.
const SETUPS: usize = 33;

/// The baseline the repo pins, compiled in so the check does not depend
/// on the working directory.
const BASELINE: &str = include_str!("../../CLAIMS_BASELINE.json");

fn setup() -> Baseline {
    crate::selfcheck().expect("feature self-check passed at start-up");
    Baseline::parse(BASELINE).expect("the repo's CLAIMS_BASELINE.json parses")
}

/// Everything after the gather: evaluate, serialise, diff. Returns the
/// report, its bytes, and how many claims fell below the baseline.
fn report(inputs: &ClaimInputs, baseline: &Baseline) -> (ClaimsReport, String, u64) {
    let report = evaluate(inputs);
    let json = report.to_json().to_string();
    let regressions = baseline.regressions(&report).len() as u64;
    (report, json, regressions)
}

/// Books one finished pass (what [`report`] returns): one operation per
/// claim, failed if it regressed, all failed if the bytes differ from
/// the first pass's.
fn book(out: &mut Outcome, first: &mut Option<String>, pass: (ClaimsReport, String, u64)) {
    let (report, json, regressions) = pass;
    let claims = report.outcomes.len() as u64;
    let same = *first.get_or_insert_with(|| json.clone()) == json;
    out.attempted += claims;
    out.failed += if same {
        regressions.min(claims)
    } else {
        claims
    };
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    crate::with_recorder(args, |spans, out| {
        if args.traced {
            traced(args, spans, out);
        } else {
            untraced(args, spans, out);
        }
    })
}

fn untraced(args: &RunArgs, spans: &mut Spans, out: &mut Outcome) {
    let setups = |spans: &mut Spans| -> Vec<f64> {
        (0..SETUPS)
            .map(|_| spans.time("setup", 0, |_| setup()).1)
            .collect()
    };
    let mut setup_batches = vec![setups(spans)];
    let baseline = setup();
    let exec = Executor::new(THREADS);

    // Two passes at least (their bytes must match), more while the
    // budget lasts.
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first = None;
    while walls.len() < 2 || started.elapsed().as_secs() < args.seconds {
        if walls.len() == 1 {
            setup_batches.push(setups(spans));
        }
        let (r, secs) = spans.time("pass", walls.len() as u64, |_| {
            report(&ClaimInputs::gather_with(TIER, &exec), &baseline)
        });
        book(out, &mut first, r);
        walls.push(secs);
    }
    out.finish_untraced(setup_batches, SETUPS, |_| {
        spans.time("setup", 0, |_| setup()).1
    });

    // One operation is one pass. A pass is 15 s of two busy threads, so
    // there is no burst-sized sample to take the best of: the fastest
    // pass and the median pass are all the robustness there is.
    out.set("wall_s", stats::best(&walls));
    out.set("op_ms", stats::median(&walls) * 1e3);
    out.notes.push(format!("passes {} n", walls.len()));
}

/// The gather, stage by stage through the same public functions and in
/// the same order as `ClaimInputs::gather_with`, so each stage is a span.
fn staged_gather(exec: &Executor, spans: &mut Spans, out: &mut Outcome) -> ClaimInputs {
    let ((timing, table2), s) = spans.time("stage.timing", 1, |_| {
        (figs237::run(TIER), table2::run(TIER))
    });
    out.set("nox-analysis.stage.timing_s", s);
    let (synthetic, s) = spans.time("stage.synthetic", 1, |_| synthetic::study_with(TIER, exec));
    out.set("nox-analysis.stage.synthetic_s", s);
    let (apps, s) = spans.time("stage.apps", 1, |_| appstudy::study_with(TIER, exec));
    out.set("nox-analysis.stage.apps_s", s);
    let ((power, area), s) = spans.time("stage.power_area", 1, |_| {
        (fig12::run(TIER), fig13::run(TIER))
    });
    out.set("nox-analysis.stage.power_area_s", s);
    let (faults, s) = spans.time("stage.faults", 1, |_| faults::run_with(TIER, exec));
    out.set("nox-analysis.stage.faults_s", s);
    let (statics, s) = spans.time("stage.statics", 1, |_| nox::statics::standard_report(exec));
    out.set("nox-analysis.stage.statics_s", s);
    ClaimInputs {
        tier: TIER,
        timing,
        table2,
        synthetic,
        apps,
        power,
        area,
        faults,
        statics,
    }
}

fn traced(args: &RunArgs, spans: &mut Spans, out: &mut Outcome) {
    let baseline = setup();
    let exec = Executor::new(THREADS);
    let mut first = None;

    // rep0: the untraced reference, exactly the pass the untraced run
    // times.
    let started = Instant::now();
    let x = ClaimInputs::gather_with(TIER, &exec);
    let r = report(&x, &baseline);
    let rep0 = started.elapsed().as_secs_f64();
    book(out, &mut first, r);
    drop(x);

    // rep1: the same pass under the profiler, stage by stage.
    let cpu0 = cpu_seconds();
    let ((r, rep1), profile) = collect("claims_smoke", THREADS, || {
        spans.time("pass", 1, |spans| {
            let x = staged_gather(&exec, spans, out);
            let (report, s) = spans.time("evaluate", 1, |_| evaluate(&x));
            out.set("nox-analysis.stage.evaluate_ms", s * 1e3);
            let (json, s) = spans.time("to_json", 1, |_| report.to_json().to_string());
            out.set("nox-analysis.stage.to_json_ms", s * 1e3);
            let regressions = baseline.regressions(&report).len() as u64;
            (report, json, regressions)
        })
    });
    let cpu_s = cpu_seconds() - cpu0;
    out.set("claims_shape", r.0.shape_or_better() as f64);
    out.set("claims_quant", r.0.quantitative() as f64);
    book(out, &mut first, r);

    let acc = &profile.acc;
    let job = acc.phase(phase::EXEC_JOB);
    crate::sim_profile(&profile, out);
    out.set(
        "nox-analysis.points",
        acc.phase(phase::HARNESS_POINT).count as f64,
    );
    out.set("nox-analysis.wall_s.rep0", rep0);
    out.set("nox-analysis.wall_s.rep1", rep1);
    out.set("nox-exec.jobs", job.count as f64);
    out.set("nox-exec.utilization", cpu_s / (THREADS as f64 * rep1));
    // Exact job durations come from the span events; the queue wait is
    // only kept as a power-of-two histogram (upper bucket bound).
    let jobs_ms = stats::sorted(
        acc.events()
            .iter()
            .filter(|e| e.phase == phase::EXEC_JOB)
            .map(|e| e.dur_ns as f64 / 1e6)
            .collect(),
    );
    if let Some(max) = jobs_ms.last() {
        out.set("nox-exec.job_p50_ms", stats::quantile(&jobs_ms, 0.5));
        out.set("nox-exec.job_max_ms", *max);
    }
    if let Some(wait) = acc.samples().get("exec.queue_wait_ns") {
        out.set(
            "nox-exec.queue_wait_p50_ms",
            wait.percentile_ns(50.0) as f64 / 1e6,
        );
    }

    regenerate_traces(spans, out);
    low_rate_share(spans, out);
    micro::run(spans, out);
    out.set("nox-telemetry.trace_overhead_ratio", rep1 / rep0);
    crate::finish_trace("claims_smoke", args, spans, out);
}

/// The synthetic study's sweep configuration per scenario, as
/// `synthetic::study_with` builds it.
fn scenario_configs() -> Vec<SweepConfig> {
    let rates = synthetic::rates(TIER);
    synthetic::scenario_defs()
        .iter()
        .map(|&(_, _, pattern, process)| SweepConfig {
            pattern,
            process,
            ..synthetic::sweep_config(TIER, rates.clone())
        })
        .collect()
}

/// `nox-traffic` alone: regenerates, on one thread, every trace the
/// smoke study generates (one per synthetic operating point, one pair
/// per application run).
fn regenerate_traces(spans: &mut Spans, out: &mut Outcome) {
    let mesh = Mesh::new(8, 8);
    let ((), s) = spans.time("nox_traffic::generate (study)", 0, |_| {
        for cfg in scenario_configs() {
            for arch in Arch::ALL {
                for &rate in &cfg.rates_mbps {
                    std::hint::black_box(generate(
                        mesh,
                        &SyntheticConfig {
                            pattern: cfg.pattern,
                            process: cfg.process,
                            rate_mbps_per_node: rate,
                            len: cfg.len,
                            flit_bytes: NetConfig::paper(arch).flit_bytes,
                            duration_ns: cfg.duration_ns,
                            seed: cfg.seed,
                        },
                    ));
                }
            }
        }
    });
    out.set("nox-traffic.synthetic_generate_s", s);
    let (_, trace_ns) = appstudy::app_tier_spec(TIER);
    let ((), s) = spans.time("nox_traffic::cmp::synthesize (study)", 0, |_| {
        for w in WORKLOADS.iter() {
            for _arch in Arch::ALL {
                std::hint::black_box(nox::traffic::cmp::synthesize(
                    mesh,
                    w,
                    trace_ns,
                    appstudy::APP_SEED,
                ));
            }
        }
    });
    out.set("nox-traffic.cmp_synthesize_s", s);
}

/// Checks the ROADMAP 3d assumption that sweeps spend their time at low
/// injection rates: every `measure_point` of the uniform scenario, timed
/// serially, and the share of that time at or below 1000 MB/s/node.
fn low_rate_share(spans: &mut Spans, out: &mut Outcome) {
    let cfg = &scenario_configs()[0];
    let (mut low, mut all) = (0.0, 0.0);
    for arch in Arch::ALL {
        for &rate in &cfg.rates_mbps {
            let (_, s) = spans.time("measure_point", rate as u64, |_| {
                std::hint::black_box(measure_point(arch, cfg, rate))
            });
            all += s;
            if rate <= 1_000.0 {
                low += s;
            }
        }
    }
    out.set("nox-analysis.sweep.low_rate_share", low / all);
}

//! End-to-end telemetry guarantees, exercised through the real harness
//! stack (sweep -> executor -> simulator):
//!
//! - the `nox-bench/profile/v2` artifact's deterministic view is
//!   byte-identical at 1, 2, and 8 threads (durations excluded, phase
//!   counts and counters included);
//! - the profile's executor-worker table is the `exec.job` spans of the
//!   run: its jobs and busy time sum to the phase totals and stage
//!   counters, on at most one lane per worker;
//! - the per-step phase attribution telescopes exactly: the attributed
//!   phases plus the `sim.other` residual sum to `sim.step` to the
//!   nanosecond, with the router loop one `sim.route` span per step and
//!   the work inside it counted (`sim.router_ticks` and five more);
//! - the `--stream` wire format frames every event as one complete JSON
//!   line with a deterministic (event, stage, index) order at any
//!   thread count; and
//! - with profiling and streaming both off, the instrumented paths
//!   allocate no accumulator at all.
//!
//! The profiler and stream sink are process-global, so every test here
//! serializes on one mutex.

use std::io::Write;
use std::sync::{Arc, Mutex};

use nox::analysis::profile::{self, ProfileReport};
use nox::analysis::sweep::{sweep_series, SweepConfig};
use nox::analysis::{Json, Tier};
use nox::exec::Executor;
use nox::prelude::*;
use nox::telemetry::{self, phase, stream};

/// Simulated cycles of `saturating_sweep`'s five runs, and of its two
/// undrained ones (each runs to the drain cap).
const PINNED_CYCLES: u64 = 9_079;
const PINNED_UNDRAINED_CYCLES: u64 = 4_980;

static TELEMETRY: Mutex<()> = Mutex::new(());

/// A sweep small enough to run in a debug-build test but real enough to
/// drive the full instrumented path: executor fan-out, span guards, and
/// the simulator's phase clock.
fn tiny_sweep(exec: &Executor) -> usize {
    let mut cfg = SweepConfig::uniform(vec![300.0, 600.0, 900.0, 1200.0]);
    cfg.duration_ns = 2_500.0;
    cfg.run = RunSpec {
        warmup_ns: 300.0,
        measure_ns: 1_000.0,
        drain_ns: 8_000.0,
    };
    sweep_series("tiny", &[cfg], &[NetConfig::paper(Arch::Nox)], exec)[0][0]
        .points
        .len()
}

fn profiled_tiny_sweep(threads: usize) -> ProfileReport {
    let exec = Executor::new(threads);
    let (points, report) =
        profile::collect("tiny-sweep", Tier::Smoke, threads, || tiny_sweep(&exec));
    assert_eq!(points, 4);
    report
}

#[test]
fn profile_structure_is_identical_at_any_thread_count() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let views: Vec<String> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            profiled_tiny_sweep(threads)
                .deterministic_view()
                .to_string()
        })
        .collect();
    assert_eq!(views[0], views[1], "1 vs 2 threads");
    assert_eq!(views[0], views[2], "1 vs 8 threads");
    // The deterministic view is real structure, not an empty shell.
    assert!(views[0].contains("\"schema\":\"nox-bench/profile/v2\""));
    assert!(views[0].contains("\"sim.step\""));
    assert!(views[0].contains("exec.stage.tiny.runs.jobs"));
    assert!(views[0].contains("\"sweep.runs\":4"));
}

#[test]
fn sim_phase_attribution_telescopes_exactly() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let report = profiled_tiny_sweep(2);
    let step = report.acc.phase(phase::SIM_STEP);
    assert!(step.count > 0, "the sweep stepped the simulator");
    let attributed: u64 = phase::SIM_ATTRIBUTED
        .iter()
        .map(|&p| report.acc.phase(p).nanos)
        .sum();
    let other = report.acc.phase(phase::SIM_OTHER).nanos;
    // The phase clock reads the wall clock once per boundary, so the
    // pieces reassemble into the whole with no gap and no overlap.
    assert_eq!(attributed + other, step.nanos);
    let coverage = report.sim_coverage().expect("sim ran");
    assert!(coverage > 0.9, "named phases cover the step: {coverage}");
    // The router loop is timed as a whole, once a step; what it did
    // inside is counted, not timed.
    assert_eq!(report.acc.phase(phase::SIM_ROUTE).count, step.count);
    for key in [
        "sim.router_ticks",
        "sim.input_visits",
        "sim.output_ticks",
        "sim.source_visits",
        "sim.sink_visits",
        "sim.presents_reused",
    ] {
        let n = report.acc.counters().get(key).copied();
        assert!(n.is_some_and(|n| n > 0), "{key}: {n:?}");
    }
}

#[test]
fn worker_table_agrees_with_spans() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 4] {
        let report = profiled_tiny_sweep(threads);
        let job = report.acc.phase(phase::EXEC_JOB);
        let workers = report.workers();
        let jobs: u64 = workers.iter().map(|&(_, n, _)| n).sum();
        let busy: u64 = workers.iter().map(|&(_, _, ns)| ns).sum();
        let staged: u64 = report
            .acc
            .counters()
            .iter()
            .filter(|(k, _)| k.starts_with("exec.stage.") && k.ends_with(".jobs"))
            .map(|(_, n)| n)
            .sum();
        let at = format!("{threads} thread(s)");
        assert_eq!(jobs, job.count, "{at}: jobs vs exec.job spans");
        assert_eq!(jobs, staged, "{at}: jobs vs stage counters");
        assert_eq!(busy, job.nanos, "{at}: busy vs exec.job time");
        // The lane is the worker index: one lane per worker at most.
        let mut spans = report
            .acc
            .events()
            .iter()
            .filter(|e| e.phase == phase::EXEC_JOB);
        assert!(spans.all(|e| (e.lane as usize) < threads), "{at}");
        // Util is busy over the run's wall time: no worker above 100 %.
        for &(w, _, ns) in &workers {
            assert!(ns <= report.total_ns(), "{at}: worker {w} busy {ns} ns");
        }
    }
}

/// A sweep that crosses saturation: transpose traffic, where Spec-Fast
/// stops draining first, over a short drain cap.
fn saturating_sweep(exec: &Executor) -> Vec<usize> {
    let cfg = SweepConfig {
        pattern: Pattern::Transpose,
        duration_ns: 1_500.0,
        run: RunSpec {
            warmup_ns: 200.0,
            measure_ns: 600.0,
            drain_ns: 1_000.0,
        },
        ..SweepConfig::uniform(vec![500.0, 1_500.0, 2_500.0])
    };
    let nets = [Arch::SpecFast, Arch::Nox].map(NetConfig::paper);
    sweep_series("pinned", &[cfg], &nets, exec)[0]
        .iter()
        .map(|s| s.points.len())
        .collect()
}

#[test]
fn sweep_counters_name_the_work_at_any_thread_count() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 8] {
        let exec = Executor::new(threads);
        let (lens, report) =
            profile::collect("pinned", Tier::Smoke, threads, || saturating_sweep(&exec));
        let at = format!("{threads} thread(s)");
        // Spec-Fast's series ends undrained at 1500 MB/s/node, so its 2500
        // point is never run; NoX's ends undrained at 2500.
        assert_eq!(lens, [2, 3], "{at}");
        let counter = |key: &str| report.acc.counters().get(key).copied();
        assert_eq!(counter("sweep.runs"), Some(5), "{at}");
        assert_eq!(counter("sweep.undrained_runs"), Some(2), "{at}");
        assert_eq!(counter("sweep.cycles"), Some(PINNED_CYCLES), "{at}");
        assert_eq!(
            counter("sweep.undrained_cycles"),
            Some(PINNED_UNDRAINED_CYCLES),
            "{at}"
        );
        assert_eq!(counter("exec.stage.pinned.runs.jobs"), Some(5), "{at}");
        // One harness.point span per run, indexed by its rate.
        let mut rates: Vec<u32> = report
            .acc
            .events()
            .iter()
            .filter(|e| e.phase == phase::HARNESS_POINT)
            .map(|e| e.index)
            .collect();
        rates.sort_unstable();
        assert_eq!(rates, [500, 500, 1_500, 1_500, 2_500], "{at}");
    }
}

/// A stream sink capturing emitted bytes for inspection.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Capture {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the tiny sweep with a capture sink attached and returns the
/// emitted lines.
fn streamed_tiny_sweep(threads: usize) -> Vec<String> {
    let sink = Capture::default();
    stream::set(Box::new(sink.clone()));
    tiny_sweep(&Executor::new(threads));
    stream::clear();
    sink.contents().lines().map(str::to_string).collect()
}

/// The structural prefix of a frame: everything up to the wall-clock
/// `ms` field, which legitimately differs run to run.
fn structure(line: &str) -> &str {
    line.split(",\"ms\":").next().unwrap()
}

#[test]
fn stream_frames_are_complete_json_in_deterministic_order() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let serial = streamed_tiny_sweep(1);
    let wide = streamed_tiny_sweep(4);
    // Per rate, one wave: one fan-out, a stage announcement plus one
    // completion.
    assert_eq!(serial.len(), 8, "{serial:?}");
    for (i, line) in serial.iter().enumerate() {
        let frame = if i % 2 == 0 {
            format!("{{\"event\":\"stage\",\"seq\":{i},\"stage\":\"tiny.runs\",\"jobs\":1}}")
        } else {
            format!(
                "{{\"event\":\"job\",\"seq\":{i},\"stage\":\"tiny.runs\",\"index\":0,\"total\":1"
            )
        };
        assert_eq!(structure(line), frame, "{line}");
    }
    // Every line is one complete JSON document on its own.
    for line in serial.iter().chain(wide.iter()) {
        Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    // The wire order is identical at any width: job i's frame is held
    // until jobs 0..i have been announced.
    let serial_shape: Vec<&str> = serial.iter().map(|l| structure(l)).collect();
    let wide_shape: Vec<&str> = wide.iter().map(|l| structure(l)).collect();
    assert_eq!(serial_shape, wide_shape);
}

#[test]
fn a_panicking_profile_leaves_profiling_off() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let caught = std::panic::catch_unwind(|| {
        profile::collect("panics", Tier::Smoke, 1, || {
            telemetry::with_acc(|a| a.add_count("before.panic", 1));
            panic!("a harness failed");
        })
    });
    assert!(caught.is_err());
    assert!(!telemetry::profiling(), "profiling is still on");
    assert!(
        !telemetry::acc_allocated(),
        "the thread kept an accumulator"
    );
}

#[test]
fn telemetry_off_is_zero_cost() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_profiling(false);
    stream::clear();
    drop(telemetry::take_acc());
    tiny_sweep(&Executor::new(2));
    assert!(
        !telemetry::acc_allocated(),
        "an unprofiled, unstreamed run must not allocate an accumulator"
    );
    assert!(!stream::active());
}

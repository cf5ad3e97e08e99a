//! Phase-attribution profiles: the `nox-bench/profile/v2` artifact.
//!
//! [`collect`] runs a harness under the global profiling switch and
//! gathers everything the workspace's instrumentation recorded — the
//! simulator's mark-based phase totals, the executor's job/queue
//! histograms and `exec.job` span events, and harness span counts — into one
//! [`ProfileReport`] with the usual three views: a human-readable
//! breakdown ([`render`](ProfileReport::render)), the versioned JSON
//! artifact ([`to_json`](ProfileReport::to_json)), and a
//! [`deterministic_view`](ProfileReport::deterministic_view) containing
//! only the scheduling-independent structure (phase set and counts,
//! named counters) that the telemetry tests compare byte-for-byte
//! across thread counts.
//!
//! Durations in a profile are wall-clock and therefore vary run to run;
//! they never feed a claims artifact. The *structure* is deterministic
//! because phases are a closed registry, counters are sums folded in
//! submission order, and everything scheduling-dependent (histograms,
//! span events) is excluded from the deterministic view.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::harness::Tier;
use crate::json::Json;
use crate::Table;
use nox_telemetry::phase::{self, SIM_ATTRIBUTED};
use nox_telemetry::{LogHist, ProfileAcc, Stopwatch};

/// Versioned schema of the profile artifact.
pub const SCHEMA: &str = "nox-bench/profile/v2";

/// One collected profile: a harness run's accumulated telemetry plus the
/// run parameters that contextualize it.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Harness name the profile attributes (e.g. `fig12`).
    pub harness: String,
    /// Tier the harness ran at.
    pub tier: Tier,
    /// Executor width the harness ran with.
    pub threads: usize,
    /// Everything the instrumentation recorded.
    pub acc: ProfileAcc,
}

/// Runs `f` with profiling enabled on a clean accumulator and collects
/// the result into a [`ProfileReport`]. The whole run is recorded as one
/// `profile.total` span, so phase shares have a denominator even when
/// the harness spends time outside the simulator.
pub fn collect<R>(
    harness: &str,
    tier: Tier,
    threads: usize,
    f: impl FnOnce() -> R,
) -> (R, ProfileReport) {
    nox_telemetry::set_profiling(true);
    let _ = nox_telemetry::take_acc();
    let sw = Stopwatch::start();
    let result = f();
    let total_ns = sw.elapsed_ns();
    let mut acc = nox_telemetry::take_acc().map(|b| *b).unwrap_or_default();
    nox_telemetry::set_profiling(false);
    acc.add_span(phase::PROFILE_TOTAL, total_ns);
    (
        result,
        ProfileReport {
            harness: harness.to_string(),
            tier,
            threads,
            acc,
        },
    )
}

impl ProfileReport {
    /// Total profiled wall time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.acc.phase(phase::PROFILE_TOTAL).nanos
    }

    /// The fraction of measured simulator step time attributed to a
    /// named phase (everything but the residual `sim.other`), or `None`
    /// when the harness ran no simulation. The marks partition each step
    /// exactly, so this is 1.0 minus the `sim.other` residual.
    pub fn sim_coverage(&self) -> Option<f64> {
        let step = self.acc.phase(phase::SIM_STEP).nanos;
        if step == 0 {
            return None;
        }
        let attributed: u64 = SIM_ATTRIBUTED
            .iter()
            .map(|&p| self.acc.phase(p).nanos)
            .sum();
        Some(attributed as f64 / step as f64)
    }

    /// Per-worker `(worker, jobs, busy_ns)` rows, in worker order, summed
    /// from the retained `exec.job` span events by lane (a span's lane is
    /// the executor worker index that ran it).
    pub fn workers(&self) -> Vec<(u32, u64, u64)> {
        let mut rows: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for e in self
            .acc
            .events()
            .iter()
            .filter(|e| e.phase == phase::EXEC_JOB)
        {
            let row = rows.entry(e.lane).or_default();
            row.0 += 1;
            row.1 += e.dur_ns;
        }
        rows.into_iter()
            .map(|(w, (jobs, busy))| (w, jobs, busy))
            .collect()
    }

    /// The human-readable breakdown: phase attribution, executor load
    /// balance, and latency histogram summaries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.total_ns().max(1);
        let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
        let pct_of = |ns: u64, of: u64| format!("{:.1}", ns as f64 / of as f64 * 100.0);
        // A phase inside executor jobs sums over every worker, so a phase's
        // share is of the run's wall time on every thread.
        let capacity = total * self.threads.max(1) as u64;
        let share_col = if self.threads > 1 {
            format!("% of {}x run", self.threads)
        } else {
            "% of run".to_string()
        };

        let mut t = Table::new(
            format!(
                "Profile: {} ({}, {} thread{})",
                self.harness,
                self.tier.name(),
                self.threads,
                if self.threads == 1 { "" } else { "s" }
            ),
            &["phase", "count", "total ms", &share_col],
        );
        for (id, slot) in self.acc.phases() {
            if slot.count == 0 {
                continue;
            }
            t.row([
                id.name().to_string(),
                slot.count.to_string(),
                ms(slot.nanos),
                pct_of(slot.nanos, capacity),
            ]);
        }
        let _ = writeln!(out, "{t}");

        if let Some(cov) = self.sim_coverage() {
            let _ = writeln!(
                out,
                "  sim phase coverage: {:.1}% of {} ms stepped is attributed to named phases",
                cov * 100.0,
                ms(self.acc.phase(phase::SIM_STEP).nanos),
            );
        }
        let _ = writeln!(
            out,
            "  wall time: {} ms{}",
            ms(self.total_ns()),
            if self.acc.events_dropped() > 0 {
                format!("  ({} span events dropped)", self.acc.events_dropped())
            } else {
                String::new()
            }
        );
        out.push('\n');

        let jobs = self.acc.phase(phase::EXEC_JOB).count;
        if jobs > 0 {
            // Util is busy over the run's wall time; jobs whose span
            // events were dropped past the event cap are missing here.
            let workers = self.workers();
            let kept: u64 = workers.iter().map(|&(_, n, _)| n).sum();
            let title = if kept < jobs {
                format!("Executor workers (partial: {kept} of {jobs} exec.job spans kept)")
            } else {
                "Executor workers".to_string()
            };
            let mut t = Table::new(title, &["worker", "jobs", "busy ms", "util %"]);
            for (w, n, busy) in workers {
                t.row([w.to_string(), n.to_string(), ms(busy), pct_of(busy, total)]);
            }
            let _ = writeln!(out, "{t}");
        }

        if !self.acc.samples().is_empty() {
            let mut t = Table::new(
                "Latency histograms",
                &[
                    "sample", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms",
                ],
            );
            for (key, h) in self.acc.samples() {
                t.row([
                    key.clone(),
                    h.count().to_string(),
                    format!("{:.2}", h.mean_ns() / 1e6),
                    ms(h.percentile_ns(50.0)),
                    ms(h.percentile_ns(90.0)),
                    ms(h.percentile_ns(99.0)),
                    ms(h.max_ns()),
                ]);
            }
            let _ = writeln!(out, "{t}");
        }

        if !self.acc.counters().is_empty() {
            let mut t = Table::new("Counters", &["counter", "value"]);
            for (key, value) in self.acc.counters() {
                t.row([key.clone(), value.to_string()]);
            }
            let _ = writeln!(out, "{t}");
        }
        out
    }

    fn phases_json(&self, with_durations: bool) -> Json {
        let rows = self
            .acc
            .phases()
            .map(|(id, slot)| {
                let row = Json::obj()
                    .field("phase", id.name())
                    .field("count", slot.count);
                if with_durations {
                    row.field("ns", slot.nanos)
                } else {
                    row
                }
            })
            .collect();
        Json::Arr(rows)
    }

    fn map_json<V: Into<Json>>(entries: impl Iterator<Item = (String, V)>) -> Json {
        let mut obj = Json::obj();
        for (k, v) in entries {
            obj = obj.field(&k, v);
        }
        obj
    }

    fn hist_json(h: &LogHist) -> Json {
        Json::obj()
            .field("count", h.count())
            .field("sum_ns", h.sum_ns())
            .field("min_ns", h.min_ns())
            .field("max_ns", h.max_ns())
            .field("mean_ns", h.mean_ns())
            .field("p50_ns", h.percentile_ns(50.0))
            .field("p90_ns", h.percentile_ns(90.0))
            .field("p99_ns", h.percentile_ns(99.0))
    }

    /// The versioned machine-readable artifact, durations included.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("harness", self.harness.as_str())
            .field("tier", self.tier.name())
            .field("threads", self.threads)
            .field("total_ns", self.total_ns())
            .field("sim_coverage", self.sim_coverage())
            .field("phases", self.phases_json(true))
            .field(
                "counters",
                Self::map_json(self.acc.counters().iter().map(|(k, v)| (k.clone(), *v))),
            )
            .field(
                "samples",
                Self::map_json(
                    self.acc
                        .samples()
                        .iter()
                        .map(|(k, h)| (k.clone(), Self::hist_json(h))),
                ),
            )
            .field("events", self.acc.events().len())
            .field("events_dropped", self.acc.events_dropped())
    }

    /// The scheduling-independent subset of the profile: phase set and
    /// counts (no durations) plus the named counters. This document is
    /// byte-identical at every executor width — the property the
    /// telemetry integration tests pin.
    pub fn deterministic_view(&self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("harness", self.harness.as_str())
            .field("tier", self.tier.name())
            .field("phases", self.phases_json(false))
            .field(
                "counters",
                Self::map_json(self.acc.counters().iter().map(|(k, v)| (k.clone(), *v))),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nox_telemetry::SpanEvent;
    use std::sync::Mutex;

    /// Serializes tests that toggle the global profiling switch.
    static PROFILE: Mutex<()> = Mutex::new(());

    fn build_report() -> ProfileReport {
        let _g = PROFILE.lock().unwrap_or_else(|e| e.into_inner());
        let ((), report) = collect("demo", Tier::Smoke, 2, || {
            nox_telemetry::with_acc(|a| {
                a.add_span(phase::SIM_STEP, 1000);
                a.add_span(phase::SIM_ROUTE, 600);
                a.add_span(phase::SIM_ARBITRATE, 350);
                a.add_count("exec.stage.demo.jobs", 4);
                for (index, lane) in [(0, 0), (1, 1), (2, 0)] {
                    a.add_span(phase::EXEC_JOB, 300);
                    a.push_event(SpanEvent {
                        phase: phase::EXEC_JOB,
                        index,
                        lane,
                        start_ns: 0,
                        dur_ns: 300,
                    });
                }
                a.sample_ns("exec.job_ns", 250);
            });
        });
        report
    }

    #[test]
    fn coverage_is_attributed_over_step() {
        let r = build_report();
        let cov = r.sim_coverage().expect("sim time recorded");
        assert!((cov - 0.95).abs() < 1e-9, "cov = {cov}");
        assert!(r.total_ns() > 0);
    }

    #[test]
    fn json_has_schema_and_all_phases() {
        let r = build_report();
        let doc = r.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("gauges"), None);
        let phases = doc.get("phases").and_then(Json::as_array).unwrap();
        assert_eq!(phases.len(), phase::PHASE_COUNT);
        assert_eq!(
            phases[0].get("phase").and_then(Json::as_str),
            Some("sim.step")
        );
        assert!(phases[0].get("ns").is_some());
        // Round-trips through the parser (integral floats reparse as
        // integers, so compare the serialized text).
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn deterministic_view_excludes_wall_clock_and_scheduling_state() {
        let r = build_report();
        let det = r.deterministic_view().to_string();
        assert!(!det.contains("\"ns\""), "durations leaked: {det}");
        assert!(!det.contains("samples"), "histograms leaked: {det}");
        assert!(!det.contains("threads"), "executor width leaked: {det}");
        assert!(det.contains("exec.stage.demo.jobs"));
    }

    #[test]
    fn render_mentions_phases_workers_and_coverage() {
        let r = build_report();
        let s = r.render();
        assert!(s.contains("sim.route"));
        assert!(s.contains("sim phase coverage: 95.0%"));
        assert!(s.contains("Executor workers\n"));
        assert!(s.contains("exec.job_ns"));
        assert_eq!(r.workers(), vec![(0, 2, 600), (1, 1, 300)]);
    }

    #[test]
    fn no_phase_exceeds_the_run_at_two_threads() {
        // Two workers busy for most of a 1 ms run: the phases inside the
        // jobs sum over both of them.
        let mut acc = ProfileAcc::new();
        acc.add_span(phase::PROFILE_TOTAL, 1_000_000);
        acc.add_span(phase::EXEC_JOB, 1_864_000);
        acc.add_span(phase::SIM_STEP, 1_786_000);
        acc.add_span(phase::HARNESS_POINT, 1_606_000);
        let r = ProfileReport {
            harness: "demo".to_string(),
            tier: Tier::Smoke,
            threads: 2,
            acc,
        };
        let text = r.render();
        // The phase rows: from the rule under the header to the first
        // line that is not a row.
        let shares: Vec<f64> = text
            .lines()
            .skip_while(|l| !l.starts_with("---"))
            .skip(1)
            .map_while(|l| l.split_whitespace().last()?.parse().ok())
            .collect();
        assert_eq!(shares.len(), 4, "{text}");
        assert!(shares.iter().all(|&s| s <= 100.0), "{text}");
        assert!(text.contains("% of 2x run"), "{text}");
    }

    #[test]
    fn worker_table_says_when_job_spans_were_dropped() {
        let mut r = build_report();
        r.acc.add_span(phase::EXEC_JOB, 300);
        assert!(r
            .render()
            .contains("Executor workers (partial: 3 of 4 exec.job spans kept)"));
    }

    #[test]
    fn empty_profile_is_well_formed() {
        let _g = PROFILE.lock().unwrap_or_else(|e| e.into_inner());
        let ((), r) = collect("empty", Tier::Smoke, 1, || {});
        assert_eq!(r.sim_coverage(), None);
        assert!(r.workers().is_empty());
        let doc = r.to_json();
        assert_eq!(doc.get("sim_coverage"), Some(&Json::Null));
        assert!(r.render().contains("% of run"));
    }
}

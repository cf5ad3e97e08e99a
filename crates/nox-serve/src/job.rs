//! Job execution: deadlines, cooperative cancellation, and panic
//! containment around the workspace harnesses.
//!
//! The daemon runs one compute job at a time; each job fans out
//! internally over the shared [`nox_exec::Executor`]. A job is bounded
//! by a [`CancelToken`] — an absolute deadline on the telemetry clock —
//! checked cooperatively at stage boundaries (and per sweep point). The
//! whole dispatch runs under `catch_unwind`, so a poisoned request
//! becomes a structured [`JobError::Panic`] rather than a dead daemon.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nox_analysis::harness::{self, Tier};
use nox_analysis::json::Json;
use nox_analysis::profile;
use nox_analysis::sweep::{run_point, run_rates, SweepConfig, SweepPoint};
use nox_exec::{panic_message, Executor};
use nox_sim::config::NetConfig;
use nox_sim::sim::RunSpec;

use crate::proto::{Body, DebugOp, SweepReq};

/// An absolute deadline on the telemetry clock ([`nox_telemetry::epoch_ns`]).
///
/// Cancellation is *cooperative*: jobs check [`expired`](CancelToken::expired)
/// at stage boundaries (per sweep point, per sleep slice), so a cancel
/// takes effect at the next boundary, not instantly — the price of
/// never tearing a computation mid-state. The watchdog covers the gap:
/// a job that stops reaching boundaries gets flagged.
#[derive(Clone, Copy, Debug)]
pub struct CancelToken {
    deadline_ns: Option<u64>,
}

impl CancelToken {
    /// A token that never expires.
    pub fn unbounded() -> CancelToken {
        CancelToken { deadline_ns: None }
    }

    /// A token expiring `ms` milliseconds from now.
    pub fn expires_in_ms(ms: u64) -> CancelToken {
        CancelToken {
            deadline_ns: Some(
                nox_telemetry::epoch_ns().saturating_add(ms.saturating_mul(1_000_000)),
            ),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        match self.deadline_ns {
            None => false,
            Some(d) => nox_telemetry::epoch_ns() >= d,
        }
    }
}

/// Why a job did not produce an artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job (or one of its points) panicked; the daemon survives
    /// and returns the payload message.
    Panic(String),
    /// The deadline passed before the job finished.
    Deadline,
    /// The request cannot be executed on this daemon (e.g. a `debug`
    /// op without `--debug-ops`).
    Refused(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panic(m) => write!(f, "job panicked: {m}"),
            JobError::Deadline => write!(f, "deadline exceeded"),
            JobError::Refused(m) => write!(f, "refused: {m}"),
        }
    }
}

/// The error kind string used in `error` events.
pub fn error_kind(e: &JobError) -> &'static str {
    match e {
        JobError::Panic(_) => "panic",
        JobError::Deadline => "deadline",
        JobError::Refused(_) => "bad_request",
    }
}

/// Executes one request body to its JSON artifact.
///
/// Every path is panic-contained: a panic anywhere in the harness
/// stack (or in any sweep point, which the fan-out re-raises) returns
/// [`JobError::Panic`]. Deadlines are honored at entry, at stage
/// boundaries, and per sweep point / sleep slice.
pub fn execute(
    body: &Body,
    exec: &Executor,
    token: &CancelToken,
    debug_ops: bool,
) -> Result<Json, JobError> {
    if token.expired() {
        return Err(JobError::Deadline);
    }
    match body {
        Body::Ping => Err(JobError::Refused(
            "ping is answered inline, never queued".into(),
        )),
        Body::Debug(_) if !debug_ops => Err(JobError::Refused(
            "debug ops are disabled; start the daemon with --debug-ops".into(),
        )),
        Body::Debug(DebugOp::Sleep { ms }) => {
            // Sleep in short slices so cancellation stays responsive.
            let mut left = *ms;
            while left > 0 {
                if token.expired() {
                    return Err(JobError::Deadline);
                }
                let slice = left.min(10);
                std::thread::sleep(std::time::Duration::from_millis(slice));
                left -= slice;
            }
            Ok(Json::obj().field("slept_ms", *ms))
        }
        Body::Debug(DebugOp::Panic) => contained(|| panic!("debug-requested panic")),
        Body::Run { harness, tier } => contained(|| harness_run(harness, *tier, exec).json),
        Body::Profile { harness, tier } => contained(|| {
            let (_, report) = profile::collect(harness, *tier, exec.threads(), || {
                harness_run(harness, *tier, exec)
            });
            report.to_json()
        }),
        Body::Sweep(req) => sweep_artifact(req, exec, token),
    }
}

/// Runs one row of the harness table. The protocol parser admits only
/// names that are in it; a hand-built [`Body`] naming anything else
/// panics here, inside [`contained`].
fn harness_run(name: &str, tier: Tier, exec: &Executor) -> harness::Report {
    let row = harness::find(name).unwrap_or_else(|e| panic!("{e}"));
    (row.run)(tier, exec)
}

/// Runs `f` under `catch_unwind`, mapping a panic to [`JobError::Panic`].
fn contained<R>(f: impl FnOnce() -> R) -> Result<R, JobError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| JobError::Panic(panic_message(payload)))
}

/// The sweep configuration of a request: its traffic, and the
/// simulation windows of its tier. Smoke is sized for CI and chaos
/// tests; quick and full use the Figure 8 windows.
fn sweep_spec(req: &SweepReq) -> SweepConfig {
    let base = SweepConfig {
        pattern: req.pattern,
        process: req.process,
        len: req.len,
        seed: req.seed,
        ..SweepConfig::uniform(req.rates.clone())
    };
    match req.tier {
        Tier::Smoke => SweepConfig {
            duration_ns: 6_000.0,
            run: RunSpec {
                warmup_ns: 500.0,
                measure_ns: 1_500.0,
                drain_ns: 8_000.0,
            },
            ..base
        },
        Tier::Quick | Tier::Full => base,
    }
}

/// Runs a sweep request as one [`run_rates`] fan-out (`serve.sweep`)
/// of its (rate, architecture) points, rate-major, so a rate's trace
/// lives only while its points run: a rate may be as high as 1e6
/// MB/s/node. A point that starts after the deadline runs no network,
/// and the sweep answers [`JobError::Deadline`]; a panicking point fails
/// the whole sweep. The points reduce to the
/// `nox-serve/sweep/v1` artifact architecture-major, byte-identical at
/// any thread count.
fn sweep_artifact(req: &SweepReq, exec: &Executor, token: &CancelToken) -> Result<Json, JobError> {
    let cfg = sweep_spec(req);
    let net = if req.cmesh {
        NetConfig::cmesh_paper
    } else {
        NetConfig::paper
    };
    let nets: Vec<NetConfig> = req.archs.iter().map(|&arch| net(arch)).collect();
    let n = nets.len();
    // The point of rate `r` on architecture `a` is `points[r * n + a]`.
    let points = contained(|| {
        run_rates("serve.sweep", exec, &cfg, &nets, |cfg, rate, net, trace| {
            (!token.expired()).then(|| run_point(cfg, rate, net, trace))
        })
    })?
    .into_iter()
    .collect::<Option<Vec<SweepPoint>>>()
    .ok_or(JobError::Deadline)?;
    let series: Vec<Json> = req
        .archs
        .iter()
        .enumerate()
        .flat_map(|(a, arch)| {
            points
                .iter()
                .skip(a)
                .step_by(n)
                .map(move |p| point_json(arch.name(), p))
        })
        .collect();
    Ok(Json::obj()
        .field("schema", "nox-serve/sweep/v1")
        .field("pattern", req.pattern.name())
        .field("len", u64::from(req.len))
        .field("seed", req.seed)
        .field("tier", req.tier.name())
        .field("cmesh", req.cmesh)
        .field("points", Json::Arr(series)))
}

fn point_json(arch: &str, p: &SweepPoint) -> Json {
    Json::obj()
        .field("arch", arch)
        .field("rate_mbps", p.rate_mbps)
        .field("latency_ns", p.latency_ns)
        .field("accepted_mbps", p.accepted_mbps)
        .field("energy_per_packet_pj", p.energy_per_packet_pj)
        .field("ed2", p.ed2)
        .field("power_mw", p.power_mw)
        .field("drained", p.drained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

    fn exec() -> Executor {
        Executor::new(2)
    }

    #[test]
    fn panic_is_contained_as_a_structured_error() {
        let body = Body::Debug(DebugOp::Panic);
        let got = execute(&body, &exec(), &CancelToken::unbounded(), true);
        assert_eq!(got, Err(JobError::Panic("debug-requested panic".into())));
    }

    #[test]
    fn debug_ops_are_gated() {
        let body = Body::Debug(DebugOp::Sleep { ms: 1 });
        let got = execute(&body, &exec(), &CancelToken::unbounded(), false);
        assert!(matches!(got, Err(JobError::Refused(_))));
    }

    #[test]
    fn expired_token_cancels_before_and_during_work() {
        let token = CancelToken::expires_in_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(token.expired());
        let sleep = Body::Debug(DebugOp::Sleep { ms: 10_000 });
        assert_eq!(
            execute(&sleep, &exec(), &token, true),
            Err(JobError::Deadline)
        );
        // A sweep against an expired token dies at the first point.
        let r =
            Request::parse(r#"{"req":"sweep","arch":"nox","rates":[500],"tier":"smoke"}"#).unwrap();
        assert_eq!(
            execute(&r.body, &exec(), &token, false),
            Err(JobError::Deadline)
        );
    }

    #[test]
    fn cmesh_sweep_accepts_what_all_64_cores_offer() {
        let r = Request::parse(
            r#"{"req":"sweep","arch":"nox","rates":[500],"tier":"smoke","cmesh":true}"#,
        )
        .unwrap();
        let doc = execute(&r.body, &exec(), &CancelToken::unbounded(), false).unwrap();
        let accepted = doc
            .get("points")
            .and_then(Json::as_array)
            .and_then(|points| points.first())
            .and_then(|point| point.get("accepted_mbps"))
            .and_then(Json::as_f64)
            .expect("accepted_mbps");
        assert!(
            (accepted - 500.0).abs() / 500.0 < 0.1,
            "a cmesh sweep offered 500 MB/s/node and accepted {accepted}"
        );
    }

    #[test]
    fn sweep_artifact_is_identical_at_any_thread_count() {
        let r = Request::parse(
            r#"{"req":"sweep","arch":"nox","rates":[400,900],"len":1,"seed":11,"tier":"smoke"}"#,
        )
        .unwrap();
        let token = CancelToken::unbounded();
        let one = execute(&r.body, &Executor::new(1), &token, false).unwrap();
        let four = execute(&r.body, &Executor::new(4), &token, false).unwrap();
        assert_eq!(one.to_string(), four.to_string());
        assert!(one
            .to_string()
            .contains("\"schema\":\"nox-serve/sweep/v1\""));
    }
}

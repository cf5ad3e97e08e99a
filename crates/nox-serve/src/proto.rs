//! The serve wire protocol: line-delimited JSON requests and events.
//!
//! A client sends one JSON object per line; the daemon answers with a
//! stream of event frames in exactly the [`nox_telemetry::stream`]
//! format (`{"event":...,"seq":N,...}\n`, one complete line per frame,
//! sequence numbers restarting per connection). Between a request's
//! `start` and its terminal `result`/`error` frame the daemon forwards
//! the executor's live `stage`/`job` progress frames for that request.
//!
//! Requests:
//!
//! ```json
//! {"req":"ping","id":"p0"}
//! {"req":"run","id":"c1","harness":"claims","tier":"smoke","deadline_ms":60000}
//! {"req":"profile","id":"p1","harness":"fig12","tier":"quick"}
//! {"req":"sweep","id":"s1","arch":"nox","pattern":"uniform","rates":[500,1000],"len":1,"seed":7,"tier":"smoke"}
//! {"req":"debug","id":"d1","op":"sleep","ms":500}
//! ```
//!
//! `run` answers with the `--json` document of one row of the harness
//! table, the bytes `noxsim run HARNESS --out F` writes; `profile` with
//! that row's `nox-bench/profile/v2` artifact. Both take the tier from
//! `tier` (default smoke) and list the table when the name is not in it.
//!
//! `id` is a client-chosen **idempotency token** echoed on every frame
//! about the request; resending a request (same or different id) after
//! a reconnect is always safe because cacheable results are
//! content-addressed. `deadline_ms` bounds the request's total time in
//! the daemon (queue wait included); `debug` requests exist for chaos
//! testing and are refused unless the daemon runs with `--debug-ops`.
//!
//! Events the daemon emits (beyond forwarded `stage`/`job` frames):
//! `hello` (connection open: protocol + code version), `pong`, `ack`
//! (queued: cache key + queue depth), `reject` (load shed or draining:
//! `reason`, `retry_after_ms`), `cache_hit`, `start`, `watchdog`
//! (hang flag: `running_ms`), `result` (terminal: `cached`, `key`,
//! `artifact`), and `error` (terminal: `kind` is `bad_request`,
//! `deadline`, `panic`, or `internal`).

use nox_analysis::harness::{self, Tier};
use nox_analysis::json::Json;
use nox_sim::config::Arch;
use nox_traffic::synthetic::Process;
use nox_traffic::Pattern;

/// Protocol revision, announced in the `hello` frame and named by
/// [`crate::CODE_VERSION`].
pub const PROTO_VERSION: u64 = proto_rev!();

/// Longest request line the daemon will read, in bytes. Longer lines
/// are rejected and the connection closed — a malformed client cannot
/// make the daemon buffer without bound.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// Most rate points one sweep request may carry.
pub const MAX_SWEEP_RATES: usize = 64;

/// Longest debug sleep (and largest `deadline_ms`) accepted, ms.
pub const MAX_MS: u64 = 24 * 60 * 60 * 1000;

/// One parsed request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen idempotency/correlation token, echoed on every
    /// frame about this request (`"-"` when the client sent none).
    pub id: String,
    /// Deadline for the whole request (queue wait + compute), ms.
    /// `None` leaves the daemon default in force.
    pub deadline_ms: Option<u64>,
    /// What to run.
    pub body: Body,
}

/// The work a request names.
#[derive(Clone, Debug, PartialEq)]
pub enum Body {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Run one named harness; the artifact is its `--json` document.
    Run {
        /// Harness name (a row of [`harness::HARNESSES`]).
        harness: String,
        /// Harness tier.
        tier: Tier,
    },
    /// Span-profile one named harness. Never cached: the artifact is
    /// wall-clock attribution, different on every run by design.
    Profile {
        /// Harness name (a row of [`harness::HARNESSES`]).
        harness: String,
        /// Harness tier.
        tier: Tier,
    },
    /// A synthetic-traffic latency/throughput sweep on the paper mesh.
    Sweep(SweepReq),
    /// Chaos-testing hook (sleep / panic), gated behind `--debug-ops`.
    Debug(DebugOp),
}

/// Parameters of a sweep request.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReq {
    /// Architectures to sweep (`Arch::ALL` order preserved).
    pub archs: Vec<Arch>,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Arrival process.
    pub process: Process,
    /// Offered loads, MB/s per node.
    pub rates: Vec<f64>,
    /// Packet length in flits.
    pub len: u16,
    /// Trace seed.
    pub seed: u64,
    /// Simulation windows tier.
    pub tier: Tier,
    /// Use the concentrated-mesh configuration.
    pub cmesh: bool,
}

/// A chaos-testing operation.
#[derive(Clone, Debug, PartialEq)]
pub enum DebugOp {
    /// Sleep for `ms`, checking the cancel token every slice.
    Sleep {
        /// Total sleep, ms.
        ms: u64,
    },
    /// Panic inside the job, to exercise containment.
    Panic,
}

impl Request {
    /// Parses one request line (already known to be valid JSON text).
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line.trim())?;
        Request::from_json(&doc)
    }

    /// Parses a request from its JSON document.
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        let id = match doc.get("id") {
            None => "-".to_string(),
            Some(v) => {
                let s = v.as_str().ok_or("\"id\" must be a string")?;
                if s.is_empty() || s.len() > 128 {
                    return Err("\"id\" must be 1..=128 bytes".into());
                }
                s.to_string()
            }
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None => None,
            Some(v) => {
                let ms = v.as_u64().ok_or("\"deadline_ms\" must be an integer")?;
                if ms == 0 || ms > MAX_MS {
                    return Err(format!("\"deadline_ms\" must be 1..={MAX_MS}"));
                }
                Some(ms)
            }
        };
        let kind = doc
            .get("req")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"req\" field")?;
        let body = match kind {
            "ping" => Body::Ping,
            "run" | "profile" => {
                let harness = doc.get("harness").and_then(Json::as_str).ok_or_else(|| {
                    format!(
                        "{kind} needs a string \"harness\" field, one of: {}",
                        harness::names().join(" ")
                    )
                })?;
                let (harness, tier) = (harness::find(harness)?.name.to_string(), tier(doc)?);
                if kind == "run" {
                    Body::Run { harness, tier }
                } else {
                    Body::Profile { harness, tier }
                }
            }
            "sweep" => Body::Sweep(SweepReq::from_json(doc)?),
            "debug" => Body::Debug(match doc.get("op").and_then(Json::as_str) {
                Some("sleep") => {
                    let ms = doc
                        .get("ms")
                        .and_then(Json::as_u64)
                        .ok_or("debug sleep needs an integer \"ms\" field")?;
                    if ms > MAX_MS {
                        return Err(format!("\"ms\" must be <= {MAX_MS}"));
                    }
                    DebugOp::Sleep { ms }
                }
                Some("panic") => DebugOp::Panic,
                _ => return Err("debug needs \"op\":\"sleep\"|\"panic\"".into()),
            }),
            other => return Err(format!("unknown request kind {other:?}")),
        };
        Ok(Request {
            id,
            deadline_ms,
            body,
        })
    }

    /// The canonical serialization the cache key is derived from, or
    /// `None` for uncacheable requests (ping, profile, debug).
    ///
    /// Canonical means: fixed field order, only the fields that change
    /// the artifact's bytes. The id, the deadline, and the executor
    /// width are all excluded — the first two don't affect the result,
    /// and thread-count independence is exactly what the determinism
    /// guarantees (and the cache-soundness tests) establish.
    pub fn canonical(&self) -> Option<String> {
        let doc = match &self.body {
            Body::Ping | Body::Profile { .. } | Body::Debug(_) => return None,
            Body::Run { harness, tier } => Json::obj()
                .field("req", "run")
                .field("harness", harness.as_str())
                .field("tier", tier.name()),
            Body::Sweep(s) => Json::obj()
                .field("req", "sweep")
                .field(
                    "archs",
                    Json::Arr(s.archs.iter().map(|a| Json::from(a.name())).collect()),
                )
                .field("pattern", s.pattern.name())
                .field("process", s.process.name())
                .field(
                    "rates",
                    Json::Arr(s.rates.iter().map(|&r| Json::from(r)).collect()),
                )
                .field("len", u64::from(s.len))
                .field("seed", s.seed)
                .field("tier", s.tier.name())
                .field("cmesh", s.cmesh),
        };
        Some(doc.to_string())
    }
}

impl SweepReq {
    fn from_json(doc: &Json) -> Result<SweepReq, String> {
        let archs = match doc.get("arch") {
            None => Arch::ALL.to_vec(),
            Some(v) => v
                .as_str()
                .and_then(Arch::parse)
                .ok_or("\"arch\" must be all|nonspec|fast|acc|nox")?,
        };
        let pattern = match doc.get("pattern").map(|v| v.as_str()) {
            None => Pattern::UniformRandom,
            Some(Some(name)) => {
                Pattern::parse(name).ok_or_else(|| format!("unknown pattern {name:?}"))?
            }
            Some(None) => return Err("\"pattern\" must be a string".into()),
        };
        let process = match doc.get("process") {
            None => Process::Poisson,
            Some(v) => v
                .as_str()
                .and_then(Process::parse)
                .ok_or("\"process\" must be poisson|pareto")?,
        };
        let rates = match doc.get("rates") {
            None => vec![500.0, 1_000.0, 2_000.0],
            Some(v) => {
                let arr = v.as_array().ok_or("\"rates\" must be an array")?;
                if arr.is_empty() || arr.len() > MAX_SWEEP_RATES {
                    return Err(format!("\"rates\" must have 1..={MAX_SWEEP_RATES} points"));
                }
                let mut rates = Vec::with_capacity(arr.len());
                for r in arr {
                    let x = r.as_f64().ok_or("\"rates\" entries must be numbers")?;
                    if !(1.0..=1e6).contains(&x) {
                        return Err("rates must be in [1, 1e6] MB/s/node".into());
                    }
                    rates.push(x);
                }
                rates
            }
        };
        let len = match doc.get("len") {
            None => 1,
            Some(v) => {
                let n = v.as_u64().ok_or("\"len\" must be an integer")?;
                if !(1..=32).contains(&n) {
                    return Err("\"len\" must be 1..=32 flits".into());
                }
                n as u16
            }
        };
        let seed = match doc.get("seed") {
            None => 7,
            Some(v) => v.as_u64().ok_or("\"seed\" must be an integer")?,
        };
        Ok(SweepReq {
            archs,
            pattern,
            process,
            rates,
            len,
            seed,
            tier: tier(doc)?,
            cmesh: flag(doc, "cmesh")?.unwrap_or(false),
        })
    }
}

fn tier(doc: &Json) -> Result<Tier, String> {
    match doc.get("tier") {
        None => Ok(Tier::Smoke),
        Some(v) => {
            let name = v.as_str().ok_or("\"tier\" must be a string")?;
            Tier::parse(name).ok_or_else(|| format!("unknown tier {name:?} (full|quick|smoke)"))
        }
    }
}

fn flag(doc: &Json, key: &str) -> Result<Option<bool>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a boolean")),
    }
}

/// Starts an event frame about request `id`: `{"event":K,"id":I,...}`.
/// The daemon fills remaining fields builder-style and sends the line.
pub fn event(kind: &str, id: &str) -> Json {
    Json::obj().field("event", kind).field("id", id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_request_kind() {
        let r = Request::parse(r#"{"req":"ping","id":"p"}"#).unwrap();
        assert_eq!((r.id.as_str(), r.body), ("p", Body::Ping));
        let r = Request::parse(r#"{"req":"run","harness":"claims","tier":"quick"}"#).unwrap();
        let claims = Body::Run {
            harness: "claims".into(),
            tier: Tier::Quick,
        };
        assert_eq!((r.id.as_str(), r.body), ("-", claims));
        let r = Request::parse(r#"{"req":"profile","harness":"fig12"}"#).unwrap();
        assert!(
            matches!(r.body, Body::Profile { ref harness, tier: Tier::Smoke } if harness == "fig12")
        );
        let r = Request::parse(r#"{"req":"debug","op":"sleep","ms":50,"deadline_ms":10}"#).unwrap();
        assert_eq!(r.body, Body::Debug(DebugOp::Sleep { ms: 50 }));
        assert_eq!(r.deadline_ms, Some(10));
        let r = Request::parse(
            r#"{"req":"sweep","arch":"nox","pattern":"uniform","rates":[500,1000],"len":2,"seed":9,"tier":"smoke"}"#,
        )
        .unwrap();
        let Body::Sweep(s) = r.body else { panic!() };
        assert_eq!(s.archs, vec![Arch::Nox]);
        assert_eq!(s.rates, vec![500.0, 1000.0]);
        assert_eq!((s.len, s.seed), (2, 9));
    }

    #[test]
    fn run_and_profile_accept_exactly_the_harness_table() {
        for kind in ["run", "profile"] {
            for name in harness::names() {
                let line = format!(r#"{{"req":"{kind}","harness":"{name}"}}"#);
                let r = Request::parse(&line).expect(name);
                let (Body::Run { harness, tier } | Body::Profile { harness, tier }) = r.body else {
                    panic!("{line} parsed as {:?}", r.body)
                };
                assert_eq!((harness.as_str(), tier), (name, Tier::Smoke));
            }
            // Names of retired front ends, near misses and a missing name
            // are refused with the table.
            for name in ["fig13_area", "synthetic", "Fig8", "nope", ""] {
                let line = format!(r#"{{"req":"{kind}","harness":"{name}"}}"#);
                let err = Request::parse(&line).unwrap_err();
                assert!(err.contains(&harness::names().join(" ")), "{err}");
            }
            let err = Request::parse(&format!(r#"{{"req":"{kind}"}}"#)).unwrap_err();
            assert!(err.contains(&harness::names().join(" ")), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            r#"{"id":"x"}"#,
            r#"{"req":"nope"}"#,
            r#"{"req":"run","harness":"table2","tier":"huge"}"#,
            r#"{"req":"profile"}"#,
            r#"{"req":"profile","harness":"nope"}"#,
            // The kinds `run` replaced.
            r#"{"req":"claims"}"#,
            r#"{"req":"faults"}"#,
            r#"{"req":"verify"}"#,
            r#"{"req":"sweep","rates":[]}"#,
            r#"{"req":"sweep","rates":[0.5]}"#,
            r#"{"req":"sweep","len":0}"#,
            r#"{"req":"sweep","arch":"mips"}"#,
            r#"{"req":"sweep","arch":7}"#,
            r#"{"req":"sweep","process":"bursty"}"#,
            r#"{"req":"debug","op":"fork"}"#,
            r#"{"req":"ping","id":""}"#,
            r#"{"req":"ping","deadline_ms":0}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad} should be rejected");
        }
        let too_many = format!(
            r#"{{"req":"sweep","rates":[{}]}}"#,
            vec!["10"; MAX_SWEEP_RATES + 1].join(",")
        );
        assert!(Request::parse(&too_many).is_err());
    }

    #[test]
    fn canonical_excludes_id_deadline_and_is_stable() {
        let a =
            Request::parse(r#"{"req":"run","id":"a","harness":"claims","deadline_ms":5}"#).unwrap();
        let b =
            Request::parse(r#"{"tier":"smoke","req":"run","harness":"claims","id":"b"}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(
            a.canonical().unwrap(),
            r#"{"req":"run","harness":"claims","tier":"smoke"}"#
        );
        // Uncacheable kinds have no canonical form.
        assert_eq!(
            Request::parse(r#"{"req":"ping"}"#).unwrap().canonical(),
            None
        );
        assert_eq!(
            Request::parse(r#"{"req":"profile","harness":"fig12"}"#)
                .unwrap()
                .canonical(),
            None
        );
        // Field order in the *request* does not matter; the canonical
        // form is emitted in one fixed order.
        let x = Request::parse(r#"{"seed":9,"req":"sweep","rates":[500],"arch":"nox"}"#).unwrap();
        let y = Request::parse(r#"{"req":"sweep","arch":"nox","rates":[500],"seed":9}"#).unwrap();
        assert_eq!(x.canonical(), y.canonical());
        // The bytes a sweep's cache key hashes, pinned: display names for
        // the architectures, wire names for pattern and process.
        let z = Request::parse(r#"{"req":"sweep","arch":"acc","process":"pareto","rates":[500]}"#)
            .unwrap();
        assert_eq!(
            z.canonical().unwrap(),
            r#"{"req":"sweep","archs":["Spec-Accurate"],"pattern":"uniform","process":"pareto","rates":[500],"len":1,"seed":7,"tier":"smoke","cmesh":false}"#
        );
    }
}

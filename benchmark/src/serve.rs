//! `serve_mixed`: the only path through `nox-serve` — request parsing,
//! the bounded queue, content-addressed cache lookup and store, and
//! event framing — driven over a real Unix socket against an in-process
//! daemon with one compute thread.
//!
//! Two closed-loop clients share the daemon. The cold client sends
//! sweeps with a unique trace seed each, so every one misses: compute,
//! then store. The hit client repeats requests the set-up prefilled, so
//! every one is a cache lookup (every tenth is a `ping`), with 5 ms of
//! think time, until the cold client finishes. Cache writes therefore
//! happen beside cache reads, and the hit path never steps a network.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use nox::analysis::json::Json;
use nox::exec::Executor;
use nox::serve::cache::{content_key, Cache, Lookup};
use nox::serve::daemon::{self, DaemonHandle, ServeConfig};
use nox::serve::job::{self, CancelToken};
use nox::serve::proto::Request;

use crate::spans::Spans;
use crate::stats::{self, splitmix64};
use crate::{collect, micro, Outcome, RunArgs};

/// Set-ups (daemon spawn, prefill, connect) per untraced run: one before
/// the measured section, the rest after it.
const SETUPS: usize = 3;

/// Length of the hit client's operation cycle.
const HIT_CYCLE: usize = 1_000;

/// Longest the client waits for one frame before giving the request up.
const FRAME_TIMEOUT: Duration = Duration::from_secs(60);

/// Size of the workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Cache entries the set-up computes through the daemon.
    pub prefill: usize,
    /// Cold requests in the measured section.
    pub cold: usize,
    /// Hit-client think time between requests, ms.
    pub think_ms: u64,
}

impl ServeSpec {
    /// 100 cold requests at the benchmark's 15 s (about 150 ms each on
    /// the reference box), beside a 32-entry prefilled cache.
    pub fn mixed(seconds: u64) -> ServeSpec {
        ServeSpec {
            prefill: 32,
            cold: (seconds as usize * 20).div_ceil(3),
            think_ms: 5,
        }
    }

    /// Cold requests of the untraced reference a traced run makes first.
    fn reference_cold(&self) -> usize {
        (self.cold / 4).max(10).min(self.cold)
    }
}

/// One step of the hit client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitOp {
    /// Resend prefilled request number `n`.
    Repeat(usize),
    /// Send a `ping`.
    Ping,
}

/// Every request line of a run: a pure function of the seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Set-up requests: single-architecture, single-rate smoke sweeps,
    /// all distinct.
    pub prefill: Vec<String>,
    /// Cold requests: all four architectures at 1000 MB/s/node, a
    /// unique trace seed each.
    pub cold: Vec<String>,
    /// The hit client's cycle.
    pub hits: Vec<HitOp>,
}

/// Builds the schedule for `seed` with `cold` cold requests.
pub fn schedule(seed: u64, spec: &ServeSpec, cold: usize) -> Schedule {
    const ARCHS: [&str; 4] = ["nonspec", "fast", "acc", "nox"];
    let mut rng = seed;
    // 48 bits leave room to add the request index without overflow.
    let trace_seed = splitmix64(&mut rng) >> 16;
    let prefill = (0..spec.prefill)
        .map(|i| {
            format!(
                r#"{{"req":"sweep","id":"p{i}","arch":"{}","rates":[{}],"tier":"smoke","seed":{trace_seed}}}"#,
                ARCHS[i % 4],
                250 * (1 + i / 4)
            )
        })
        .collect();
    let cold = (0..cold)
        .map(|i| {
            format!(
                r#"{{"req":"sweep","id":"c{i}","arch":"all","rates":[1000],"tier":"smoke","seed":{}}}"#,
                trace_seed + 1 + i as u64
            )
        })
        .collect();
    let hits = (0..HIT_CYCLE)
        .map(|i| {
            if i % 10 == 9 {
                HitOp::Ping
            } else {
                HitOp::Repeat((splitmix64(&mut rng) % spec.prefill as u64) as usize)
            }
        })
        .collect();
    Schedule {
        prefill,
        cold,
        hits,
    }
}

/// How a request ended.
#[derive(Debug)]
enum Terminal {
    Result {
        cached: bool,
        key: String,
        artifact: String,
    },
    Pong,
    /// `error` or `reject`; the frame has been logged.
    Refused,
}

/// One answered request, timed from the write of its line.
#[derive(Debug)]
struct Reply {
    terminal: Terminal,
    /// Send to terminal frame, seconds.
    total_s: f64,
    /// Send to `ack` and `ack` to `start` (queue wait), if queued.
    ack_s: Option<f64>,
    start_s: Option<f64>,
}

/// One client connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(FRAME_TIMEOUT))?;
        let mut c = Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        };
        let hello = c.frame()?.0;
        match hello.get("event").and_then(Json::as_str) {
            Some("hello") => Ok(c),
            _ => Err(std::io::Error::other(format!(
                "expected hello, got {hello}"
            ))),
        }
    }

    /// Reads one frame and the instant its line was complete.
    fn frame(&mut self) -> std::io::Result<(Json, Instant)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("daemon closed the connection"));
        }
        let at = Instant::now();
        let doc = Json::parse(line.trim()).map_err(std::io::Error::other)?;
        Ok((doc, at))
    }

    /// Sends one request line and reads frames up to its terminal one.
    fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        let wire = format!("{line}\n");
        let sent = Instant::now();
        self.writer.write_all(wire.as_bytes())?;
        let (mut ack_s, mut start_s) = (None, None);
        loop {
            let (frame, at) = self.frame()?;
            let since = at.duration_since(sent).as_secs_f64();
            let terminal = match frame.get("event").and_then(Json::as_str) {
                Some("ack") => {
                    ack_s = Some(since);
                    continue;
                }
                Some("start") => {
                    start_s = Some(since);
                    continue;
                }
                Some("result") => Terminal::Result {
                    cached: frame.get("cached").and_then(Json::as_bool).unwrap_or(false),
                    key: frame
                        .get("key")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    artifact: frame
                        .get("artifact")
                        .map(Json::to_string)
                        .unwrap_or_default(),
                },
                Some("pong") => Terminal::Pong,
                Some("error" | "reject") => {
                    eprintln!("daemon refused {line}: {frame}");
                    Terminal::Refused
                }
                // cache_hit, watchdog and forwarded run/stage/job/done
                // telemetry frames.
                _ => continue,
            };
            return Ok(Reply {
                terminal,
                total_s: since,
                ack_s,
                start_s,
            });
        }
    }
}

/// A running daemon with a prefilled cache and two connected clients.
struct Session {
    handle: DaemonHandle,
    dir: PathBuf,
    cold: Client,
    hit: Client,
    /// Artifact first computed for each prefilled request, by position.
    expected: Vec<(String, String)>,
    spawn_s: f64,
    /// Request lines sent so far, for the reconciliation at shutdown.
    sent: u64,
}

fn setup(sched: &Schedule, dir: PathBuf, spans: &mut Spans, out: &mut Outcome) -> Session {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let socket = dir.join("s.sock");
    let (handle, spawn_s) = spans.time("daemon::spawn", 0, |_| {
        daemon::spawn(
            ServeConfig {
                threads: 1,
                ..ServeConfig::new(&socket, dir.join("cache"))
            },
            None,
        )
        .expect("daemon binds a fresh socket")
    });
    let (mut cold, _) = spans.time("connect", 0, |_| {
        Client::connect(&socket).expect("daemon accepts a connection")
    });
    let mut expected = Vec::with_capacity(sched.prefill.len());
    for (i, line) in sched.prefill.iter().enumerate() {
        let (reply, _) = spans.time("prefill request", i as u64, |_| cold.request(line));
        match reply.map(|r| r.terminal) {
            Ok(Terminal::Result {
                cached: false,
                key,
                artifact,
            }) => {
                out.check(true);
                expected.push((key, artifact));
            }
            other => {
                eprintln!("prefill request {i} failed: {other:?}");
                out.check(false);
                expected.push(Default::default());
            }
        }
    }
    let (hit, _) = spans.time("connect", 1, |_| {
        Client::connect(&socket).expect("daemon accepts a second connection")
    });
    Session {
        handle,
        dir,
        cold,
        hit,
        expected,
        spawn_s,
        sent: sched.prefill.len() as u64,
    }
}

/// Stops the daemon and reconciles its counters with what was sent: one
/// more operation.
fn teardown(s: Session, computed: u64, hits: u64, out: &mut Outcome) -> daemon::DaemonStats {
    let Session {
        handle,
        dir,
        cold,
        hit,
        sent,
        ..
    } = s;
    drop((cold, hit));
    handle.shutdown();
    let stats = handle.join();
    let _ = std::fs::remove_dir_all(dir);
    let clean = daemon::DaemonStats {
        requests: sent,
        computed,
        cache_hits: hits,
        ..Default::default()
    };
    if stats != clean {
        eprintln!("daemon counters {stats:?} do not reconcile with the schedule {clean:?}");
    }
    out.check(stats == clean);
    stats
}

/// What the two clients measured, seconds.
#[derive(Default)]
struct ClientLog {
    cold_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    compute_s: Vec<f64>,
    hit_s: Vec<f64>,
    ping_s: Vec<f64>,
    elapsed_s: f64,
}

/// The measured section: both clients, until the cold one has sent
/// `colds`. Every request is one operation.
fn run_clients(
    s: &mut Session,
    colds: &[String],
    sched: &Schedule,
    think: Duration,
    spans: &mut Spans,
    out: &mut Outcome,
) -> ClientLog {
    let done = AtomicBool::new(false);
    let (mut cold_spans, mut hit_spans) = (spans.fork(1), spans.fork(2));
    let (cold, hit, expected) = (&mut s.cold, &mut s.hit, &s.expected);
    let started = Instant::now();
    let (mut log, cold_out, hit_log, hit_out) = std::thread::scope(|scope| {
        let cold_thread = scope.spawn(|| {
            let (mut log, mut o) = (ClientLog::default(), Outcome::default());
            for (i, line) in colds.iter().enumerate() {
                let (reply, _) = cold_spans.time("cold request", i as u64, |_| cold.request(line));
                match reply {
                    Ok(Reply {
                        terminal: Terminal::Result { cached: false, .. },
                        total_s,
                        ack_s: Some(ack),
                        start_s: Some(start),
                    }) => {
                        o.check(true);
                        log.cold_s.push(total_s);
                        log.queue_wait_s.push(start - ack);
                        log.compute_s.push(total_s - start);
                    }
                    other => {
                        eprintln!("cold request {i} failed: {other:?}");
                        o.check(false);
                    }
                }
            }
            log.elapsed_s = started.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            (log, o)
        });
        let hit_thread = scope.spawn(|| {
            let (mut log, mut o) = (ClientLog::default(), Outcome::default());
            for (i, op) in sched.hits.iter().cycle().enumerate() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let (line, want) = match *op {
                    HitOp::Repeat(n) => (sched.prefill[n].as_str(), Some(&expected[n])),
                    HitOp::Ping => (r#"{"req":"ping","id":"ping"}"#, None),
                };
                let name = if want.is_some() {
                    "hit request"
                } else {
                    "ping"
                };
                let (reply, _) = hit_spans.time(name, i as u64, |_| hit.request(line));
                match (reply, want) {
                    (
                        Ok(Reply {
                            terminal:
                                Terminal::Result {
                                    cached: true,
                                    key,
                                    artifact,
                                },
                            total_s,
                            ..
                        }),
                        Some(want),
                    ) if want.0 == key && want.1 == artifact => {
                        o.check(true);
                        log.hit_s.push(total_s);
                    }
                    (
                        Ok(Reply {
                            terminal: Terminal::Pong,
                            total_s,
                            ..
                        }),
                        None,
                    ) => {
                        o.check(true);
                        log.ping_s.push(total_s);
                    }
                    (other, _) => {
                        eprintln!("hit-client request {i} failed: {other:?}");
                        o.check(false);
                    }
                }
                std::thread::sleep(think);
            }
            (log, o)
        });
        let (log, cold_out) = cold_thread.join().expect("cold client thread");
        let (hit_log, hit_out) = hit_thread.join().expect("hit client thread");
        (log, cold_out, hit_log, hit_out)
    });
    spans.absorb(cold_spans);
    spans.absorb(hit_spans);
    log.hit_s = hit_log.hit_s;
    log.ping_s = hit_log.ping_s;
    for o in [cold_out, hit_out] {
        out.attempted += o.attempted;
        out.failed += o.failed;
        s.sent += o.attempted;
    }
    log
}

fn session_dir(args: &RunArgs, n: usize) -> PathBuf {
    args.scratch
        .join(format!("serve-{}-{n}", std::process::id()))
}

/// Runs the workload.
pub fn run(spec: &ServeSpec, args: &RunArgs) -> Outcome {
    crate::with_recorder(args, |spans, out| {
        if args.traced {
            traced(spec, args, spans, out);
        } else {
            untraced(spec, args, spans, out);
        }
    })
}

fn untraced(spec: &ServeSpec, args: &RunArgs, spans: &mut Spans, out: &mut Outcome) {
    let sched = schedule(args.seed, spec, spec.cold);
    let think = Duration::from_millis(spec.think_ms);
    let prefill = spec.prefill as u64;
    let (mut s, first_setup_s) = spans.time("setup", 0, |sp| {
        setup(&sched, session_dir(args, 0), sp, out)
    });
    let log = run_clients(&mut s, &sched.cold, &sched, think, spans, out);
    let (colds, hits) = (log.cold_s.len() as u64, log.hit_s.len() as u64);
    teardown(s, prefill + colds, hits, out);
    out.finish_untraced(vec![vec![first_setup_s]], SETUPS - 1, |out| {
        let (s, secs) = spans.time("setup", 0, |sp| {
            setup(&sched, session_dir(args, 0), sp, out)
        });
        teardown(s, prefill, 0, out);
        secs
    });

    if log.cold_s.is_empty() || log.hit_s.is_empty() {
        // Every request failed and was counted; there is nothing to time.
        out.set("wall_s", f64::NAN);
        out.set("op_ms", f64::NAN);
        return;
    }
    // The whole job is the cold client's requests, each at the fastest
    // one's speed (compute-bound, so interference only adds). One
    // operation is one cached request; its time is socket round trips
    // and thread wake-ups, which have no clean best case, so the median.
    out.set("wall_s", stats::best(&log.cold_s) * spec.cold as f64);
    out.set("op_ms", stats::median(&log.hit_s) * 1e3);
    for (name, samples) in [("cold", &log.cold_s), ("hit", &log.hit_s)] {
        let sorted = stats::sorted(samples.clone());
        let tail = stats::highest_tail(&sorted).map_or(String::new(), |(p, v)| {
            format!(" p{} {} ms", p as f64 / 10.0, v * 1e3)
        });
        out.notes.push(format!(
            "{name}_p50_ms {} ms{tail} (n {})",
            stats::quantile(&sorted, 0.5) * 1e3,
            sorted.len()
        ));
    }
}

fn traced(spec: &ServeSpec, args: &RunArgs, spans: &mut Spans, out: &mut Outcome) {
    let reference_cold = spec.reference_cold();
    let sched = schedule(args.seed, spec, reference_cold + spec.cold);
    let think = Duration::from_millis(spec.think_ms);
    let (reference_lines, lines) = sched.cold.split_at(reference_cold);
    let mut s = setup(&sched, session_dir(args, 0), spans, out);
    out.set("nox-serve.spawn_ms", s.spawn_s * 1e3);

    // The untraced reference runs first, on the same daemon: networks
    // read the profiling switch when they are built, once per request.
    let mut quiet = Spans::new(Instant::now(), 0, false);
    let reference = run_clients(&mut s, reference_lines, &sched, think, &mut quiet, out);
    // The direct probes run under the same profile, on this thread, so
    // the step-phase split of a cold request is harvested from them: the
    // daemon's own threads keep their accumulators to themselves.
    let probe_dir = session_dir(args, 1);
    let ((log, execute_ms), profile) = collect("serve_mixed", 1, || {
        let log = run_clients(&mut s, lines, &sched, think, spans, out);
        (log, probes(&lines[0], &probe_dir, spans, out))
    });
    crate::sim_profile(&profile, out);
    let cache_bytes: u64 = std::fs::read_dir(s.dir.join("cache"))
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let computed = (spec.prefill + reference.cold_s.len() + log.cold_s.len()) as u64;
    let hits = (reference.hit_s.len() + log.hit_s.len()) as u64;
    let stats = teardown(s, computed, hits, out);

    // 0 stands for "too few samples": no median of nothing, no tail with
    // fewer than ten samples beyond it.
    let p50_ms = |s: &[f64]| {
        if s.is_empty() {
            0.0
        } else {
            stats::median(s) * 1e3
        }
    };
    let tail_ms = |s: &[f64], per_mille| {
        stats::tail_percentile(&stats::sorted(s.to_vec()), per_mille).map_or(0.0, |v| v * 1e3)
    };
    let cold_p50 = p50_ms(&log.cold_s);
    let queue_wait_p50 = p50_ms(&log.queue_wait_s);
    out.set("nox-serve.queue_wait_p50_ms", queue_wait_p50);
    out.set("nox-serve.compute_p50_ms", p50_ms(&log.compute_s));
    out.set("nox-serve.cold_p50_ms", cold_p50);
    out.set("nox-serve.cold_p90_ms", tail_ms(&log.cold_s, 900));
    out.set("nox-serve.hit_p50_ms", p50_ms(&log.hit_s));
    out.set("nox-serve.hit_p90_ms", tail_ms(&log.hit_s, 900));
    out.set("nox-serve.hit_p99_ms", tail_ms(&log.hit_s, 990));
    out.set("nox-serve.ping_p50_us", p50_ms(&log.ping_s) * 1e3);
    let requests = log.cold_s.len() + log.hit_s.len() + log.ping_s.len();
    out.set("nox-serve.requests_per_s", requests as f64 / log.elapsed_s);
    out.set("nox-serve.cold_n", log.cold_s.len() as f64);
    out.set("nox-serve.hit_n", log.hit_s.len() as f64);
    out.set("nox-serve.computed", stats.computed as f64);
    out.set("nox-serve.cache_hits", stats.cache_hits as f64);
    out.set(
        "nox-serve.rejected",
        (stats.rejected_overload + stats.rejected_draining) as f64,
    );
    out.set("nox-serve.cache.bytes", cache_bytes as f64);
    out.set(
        "nox-serve.daemon_overhead_ms",
        cold_p50 - queue_wait_p50 - execute_ms,
    );
    micro::run(spans, out);
    out.set(
        "nox-telemetry.trace_overhead_ratio",
        stats::best(&log.cold_s) / stats::best(&reference.cold_s),
    );
    crate::finish_trace("serve_mixed", args, spans, out);
}

/// Each `nox-serve` layer called directly, without the daemon: request
/// parsing and keying, one cold request through `job::execute`, and the
/// cache's store and lookups. Returns the direct execute time, ms.
fn probes(cold_line: &str, dir: &Path, spans: &mut Spans, out: &mut Outcome) -> f64 {
    const PARSES: usize = 20_000;
    const EXECUTES: usize = 5;
    const ENTRIES: usize = 200;

    let ((), s) = spans.time("proto parse+key", 0, |_| {
        for _ in 0..PARSES {
            let req = Request::parse(std::hint::black_box(cold_line)).expect("own request parses");
            let canonical = req.canonical().expect("sweeps are cacheable");
            std::hint::black_box(content_key(&canonical));
        }
    });
    out.set("nox-serve.proto.parse_key_us", s * 1e6 / PARSES as f64);

    let req = Request::parse(cold_line).expect("own request parses");
    let exec = Executor::new(1);
    let mut artifact = Json::Null;
    let executes: Vec<f64> = (0..EXECUTES)
        .map(|i| {
            let (a, s) = spans.time("job::execute", i as u64, |_| {
                job::execute(&req.body, &exec, &CancelToken::unbounded(), false)
            });
            artifact = a.expect("a cold sweep executes");
            s
        })
        .collect();
    let execute_ms = stats::median(&executes) * 1e3;
    out.set("nox-serve.job.execute_ms", execute_ms);

    let _ = std::fs::remove_dir_all(dir);
    let cache = Cache::open(dir).expect("scratch directory is writable");
    let key = |i: usize| content_key(&format!("probe {i}"));
    let mut time_each = |name: &'static str, f: &dyn Fn(usize) -> bool| -> f64 {
        let samples: Vec<f64> = (0..ENTRIES)
            .map(|i| {
                let (ok, s) = spans.time(name, i as u64, |_| f(i));
                out.check(ok);
                s
            })
            .collect();
        stats::median(&samples)
    };
    let miss = time_each("Cache::lookup miss", &|i| {
        cache.lookup(&key(i)) == Lookup::Miss
    });
    let store = time_each("Cache::store", &|i| cache.store(&key(i), &artifact).is_ok());
    let hit = time_each("Cache::lookup hit", &|i| {
        // Compared as text: a parsed artifact holds `1000` where the
        // computed one holds `1000.0`.
        matches!(cache.lookup(&key(i)), Lookup::Hit(a) if a.to_string() == artifact.to_string())
    });
    let _ = std::fs::remove_dir_all(dir);
    out.set("nox-serve.cache.lookup_miss_us", miss * 1e6);
    out.set("nox-serve.cache.store_ms", store * 1e3);
    out.set("nox-serve.cache.lookup_hit_us", hit * 1e6);
    execute_ms
}

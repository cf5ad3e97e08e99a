//! The daemon: accept loop, bounded queue, worker, and watchdog.
//!
//! Thread structure (all state shared through one `Arc<Shared>`):
//!
//! * **accept** — nonblocking `UnixListener`; spawns one detached
//!   handler thread per connection; exits when shutdown is requested.
//! * **handlers** — read request lines (bounded at
//!   [`proto::MAX_LINE_BYTES`]), answer `ping` and cache hits inline,
//!   enqueue compute jobs, and shed load with structured `reject`
//!   frames when the queue is full or the daemon is draining. A
//!   malformed line gets a `bad_request` error frame and the
//!   connection lives on.
//! * **worker** — runs *one* compute job at a time (each job fans out
//!   internally over the whole [`nox_exec`] pool), streaming the job's
//!   telemetry frames to its requesting connection; exits only when
//!   shutdown is requested *and* the queue is drained, which is what
//!   makes SIGTERM a graceful drain.
//! * **watchdog** — flags the running job once it exceeds the hang
//!   threshold (a `watchdog` frame to the client plus a log line);
//!   detection only, by design — killing a thread mid-simulation
//!   would trade a hang for corrupted state.
//!
//! Why one compute lane: the executor already saturates every core for
//! a single job, so concurrent jobs would only fight over cores — and
//! a single lane is what lets the process-global telemetry stream sink
//! be bound to the requesting connection for the duration of a job.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nox_analysis::json::Json;
use nox_exec::Executor;
use nox_telemetry::stream;

use crate::cache::{Cache, Lookup};
use crate::job::{self, CancelToken, JobError};
use crate::proto::{self, Body, Request, MAX_LINE_BYTES, PROTO_VERSION};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Cache directory.
    pub cache_dir: PathBuf,
    /// Bounded queue capacity; a full queue sheds load.
    pub queue_cap: usize,
    /// Executor width for compute jobs (0 = all available cores).
    pub threads: usize,
    /// Deadline applied to requests that don't carry their own, ms.
    pub default_deadline_ms: u64,
    /// Running time after which the watchdog flags a job, ms.
    pub watchdog_ms: u64,
    /// Allow `debug` requests (chaos-testing hooks).
    pub debug_ops: bool,
}

impl ServeConfig {
    /// Defaults for a socket/cache-dir pair.
    pub fn new(socket: impl Into<PathBuf>, cache_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            cache_dir: cache_dir.into(),
            queue_cap: 8,
            threads: 0,
            default_deadline_ms: 600_000,
            watchdog_ms: 30_000,
            debug_ops: false,
        }
    }
}

/// Counters the daemon reports when it exits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Request lines received (any kind).
    pub requests: u64,
    /// Artifacts computed and served.
    pub computed: u64,
    /// Artifacts served straight from the cache.
    pub cache_hits: u64,
    /// Requests shed because the queue was full.
    pub rejected_overload: u64,
    /// Requests refused during drain.
    pub rejected_draining: u64,
    /// Malformed request lines survived.
    pub bad_requests: u64,
    /// Jobs that panicked (contained).
    pub panics: u64,
    /// Jobs cancelled at their deadline.
    pub deadline_misses: u64,
    /// Jobs the watchdog flagged as hung.
    pub watchdog_flags: u64,
}

/// One queued compute job.
struct Queued {
    req: Request,
    key: Option<String>,
    token: CancelToken,
    conn: ConnWriter,
}

/// The job the worker is currently running, for the watchdog.
struct Running {
    id: String,
    started_ns: u64,
    flagged: bool,
    conn: ConnWriter,
}

struct Shared {
    cfg: ServeConfig,
    cache: Cache,
    queue: Mutex<VecDeque<Queued>>,
    wake: Condvar,
    /// Internal shutdown request ([`DaemonHandle::shutdown`]).
    shutdown: AtomicBool,
    /// External shutdown flag (the signal latch), if any.
    ext_shutdown: Option<&'static AtomicBool>,
    /// Set once the worker has drained and exited; lets the watchdog
    /// and lingering connection handlers wind down.
    stopped: AtomicBool,
    running: Mutex<Option<Running>>,
    /// EWMA of recent job duration (ns), for `retry_after_ms` hints.
    recent_job_ns: AtomicU64,
    stats: Stats,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    computed: AtomicU64,
    cache_hits: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_draining: AtomicU64,
    bad_requests: AtomicU64,
    panics: AtomicU64,
    deadline_misses: AtomicU64,
    watchdog_flags: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || self
                .ext_shutdown
                .map(|f| f.load(Ordering::SeqCst))
                .unwrap_or(false)
    }

    fn snapshot(&self) -> DaemonStats {
        let s = &self.stats;
        DaemonStats {
            requests: s.requests.load(Ordering::Relaxed),
            computed: s.computed.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            rejected_overload: s.rejected_overload.load(Ordering::Relaxed),
            rejected_draining: s.rejected_draining.load(Ordering::Relaxed),
            bad_requests: s.bad_requests.load(Ordering::Relaxed),
            panics: s.panics.load(Ordering::Relaxed),
            deadline_misses: s.deadline_misses.load(Ordering::Relaxed),
            watchdog_flags: s.watchdog_flags.load(Ordering::Relaxed),
        }
    }
}

/// A shareable writer for one connection: whole frames only, under one
/// lock, so daemon frames and forwarded telemetry frames never
/// interleave. Write errors latch the `dead` flag (the client hung
/// up); the job still completes and caches — that is what makes
/// resending a request after a reconnect idempotent.
#[derive(Clone)]
struct ConnWriter {
    stream: Arc<Mutex<UnixStream>>,
    dead: Arc<AtomicBool>,
}

impl ConnWriter {
    fn new(stream: UnixStream) -> ConnWriter {
        ConnWriter {
            stream: Arc::new(Mutex::new(stream)),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Sends one event frame (a complete line).
    fn send(&self, frame: &Json) {
        self.send_line(format!("{frame}\n").as_bytes());
    }

    fn send_line(&self, line: &[u8]) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut s = self.stream.lock().expect("conn writer lock");
        if s.write_all(line).and_then(|()| s.flush()).is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }
}

/// A [`stream`] sink bound to one connection: buffers to newline
/// boundaries (the stream already writes one full line per call, but
/// the sink does not rely on that) and forwards each complete frame
/// through the connection's frame lock.
struct ConnSink {
    conn: ConnWriter,
    buf: Vec<u8>,
}

impl Write for ConnSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            self.conn.send_line(&line);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A running daemon started by [`spawn`].
pub struct DaemonHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    worker: JoinHandle<()>,
    watchdog: JoinHandle<()>,
}

impl DaemonHandle {
    /// Requests a graceful drain: stop accepting, finish queued work.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    /// Waits for the drain to complete and returns the final counters.
    pub fn join(self) -> DaemonStats {
        let _ = self.accept.join();
        let _ = self.worker.join();
        self.shared.stopped.store(true, Ordering::SeqCst);
        let _ = self.watchdog.join();
        let _ = std::fs::remove_file(&self.shared.cfg.socket);
        self.shared.snapshot()
    }

    /// The daemon's cache scan report (what startup healing found).
    pub fn scan(&self) -> &crate::cache::ScanReport {
        &self.shared.cache.scan
    }
}

/// Binds the socket and starts the daemon threads. `ext_shutdown`, if
/// given, is polled alongside the handle's own flag (the signal latch
/// in the CLI path).
pub fn spawn(
    cfg: ServeConfig,
    ext_shutdown: Option<&'static AtomicBool>,
) -> Result<DaemonHandle, String> {
    let cache = Cache::open(&cfg.cache_dir)
        .map_err(|e| format!("cache dir {}: {e}", cfg.cache_dir.display()))?;
    let listener = bind(&cfg.socket)?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("socket: {e}"))?;
    let shared = Arc::new(Shared {
        cfg,
        cache,
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
        ext_shutdown,
        stopped: AtomicBool::new(false),
        running: Mutex::new(None),
        recent_job_ns: AtomicU64::new(0),
        stats: Stats::default(),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, listener))
    };
    let worker = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || worker_loop(&shared))
    };
    let watchdog = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || watchdog_loop(&shared))
    };
    Ok(DaemonHandle {
        shared,
        accept,
        worker,
        watchdog,
    })
}

/// Runs a daemon in the foreground until SIGTERM/SIGINT, then drains
/// and returns the final counters. The CLI path.
pub fn run(cfg: ServeConfig) -> Result<DaemonStats, String> {
    let flag = crate::signal::install();
    let socket = cfg.socket.clone();
    let handle = spawn(cfg, Some(flag))?;
    eprintln!(
        "noxsim serve: listening on {} ({} valid cache entries, {} quarantined)",
        socket.display(),
        handle.scan().valid,
        handle.scan().quarantined
    );
    let stats = handle.join();
    eprintln!(
        "noxsim serve: drained and stopped ({} computed, {} cache hits, {} shed)",
        stats.computed, stats.cache_hits, stats.rejected_overload
    );
    Ok(stats)
}

/// Binds the listener, recovering a stale socket file (a previous
/// daemon that died without unlinking) by probing it with a connect:
/// refused means stale, accepted means a live daemon already owns it.
fn bind(path: &std::path::Path) -> Result<UnixListener, String> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(format!("{}: a daemon is already running", path.display()));
            }
            std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
            UnixListener::bind(path).map_err(|e| format!("{}: {e}", path.display()))
        }
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: UnixListener) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_conn(&shared, stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // Wake the worker so it notices the drain even with an empty queue.
    shared.wake.notify_all();
}

fn handle_conn(shared: &Arc<Shared>, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let conn = ConnWriter::new(match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    });
    conn.send(
        &Json::obj()
            .field("event", "hello")
            .field("proto", PROTO_VERSION)
            .field("code_version", crate::CODE_VERSION),
    );
    let mut reader = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => {
                // EOF: a final unterminated line is still a request.
                if !buf.is_empty() {
                    let line = String::from_utf8_lossy(&buf).into_owned();
                    handle_line(shared, &conn, &line);
                }
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line).into_owned();
                    if !line.trim().is_empty() {
                        handle_line(shared, &conn, &line);
                    }
                }
                if buf.len() as u64 > MAX_LINE_BYTES {
                    conn.send(
                        &proto::event("error", "-")
                            .field("kind", "bad_request")
                            .field("message", "request line exceeds 1 MiB"),
                    );
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stopped.load(Ordering::SeqCst) || conn.dead.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Handles one request line on a connection.
fn handle_line(shared: &Arc<Shared>, conn: &ConnWriter, line: &str) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err(msg) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            conn.send(
                &proto::event("error", "-")
                    .field("kind", "bad_request")
                    .field("message", msg),
            );
            return;
        }
    };
    if matches!(req.body, Body::Ping) {
        let depth = shared.queue.lock().expect("queue lock").len();
        conn.send(
            &proto::event("pong", &req.id)
                .field("queue_depth", depth)
                .field("draining", shared.shutting_down()),
        );
        return;
    }
    // Cacheable requests are answered from the cache without queueing.
    let key = req.canonical().map(|c| crate::cache::content_key(&c));
    if let Some(key) = &key {
        match shared.cache.lookup(key) {
            Lookup::Hit(artifact) => {
                shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                conn.send(&proto::event("cache_hit", &req.id).field("key", key.as_str()));
                conn.send(
                    &proto::event("result", &req.id)
                        .field("cached", true)
                        .field("key", key.as_str())
                        .field("artifact", artifact),
                );
                return;
            }
            Lookup::Quarantined => {
                // Corrupt entry healed out of the way; fall through and
                // recompute (the store will rewrite a good entry).
                eprintln!("noxsim serve: quarantined corrupt cache entry {key}");
            }
            Lookup::Miss => {}
        }
    }
    if shared.shutting_down() {
        shared
            .stats
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        conn.send(
            &proto::event("reject", &req.id)
                .field("reason", "draining")
                .field("retry_after_ms", 1_000u64),
        );
        return;
    }
    let deadline_ms = req.deadline_ms.unwrap_or(shared.cfg.default_deadline_ms);
    let token = CancelToken::expires_in_ms(deadline_ms);
    let mut q = shared.queue.lock().expect("queue lock");
    if q.len() >= shared.cfg.queue_cap {
        drop(q);
        shared
            .stats
            .rejected_overload
            .fetch_add(1, Ordering::Relaxed);
        conn.send(
            &proto::event("reject", &req.id)
                .field("reason", "overload")
                .field("retry_after_ms", retry_after_ms(shared)),
        );
        return;
    }
    let id = req.id.clone();
    q.push_back(Queued {
        req,
        key,
        token,
        conn: conn.clone(),
    });
    let depth = q.len();
    drop(q);
    shared.wake.notify_all();
    conn.send(&proto::event("ack", &id).field("queue_depth", depth));
}

/// The load-shedding hint: scale the recent-job EWMA by the queue
/// depth, clamped to something a client can reasonably sleep.
fn retry_after_ms(shared: &Shared) -> u64 {
    let ewma_ns = shared.recent_job_ns.load(Ordering::Relaxed);
    if ewma_ns == 0 {
        return 1_000;
    }
    let depth = shared.queue.lock().expect("queue lock").len() as u64 + 1;
    ((ewma_ns / 1_000_000).saturating_mul(depth)).clamp(100, 60_000)
}

fn worker_loop(shared: &Arc<Shared>) {
    let exec = if shared.cfg.threads == 0 {
        Executor::default()
    } else {
        Executor::new(shared.cfg.threads)
    };
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutting_down() {
                    return; // drained: graceful exit
                }
                let (guard, _) = shared
                    .wake
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("queue lock");
                q = guard;
            }
        };
        run_job(shared, &exec, job);
    }
}

fn run_job(shared: &Arc<Shared>, exec: &Executor, job: Queued) {
    let Queued {
        req,
        key,
        token,
        conn,
    } = job;
    if token.expired() {
        shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        conn.send(
            &proto::event("error", &req.id)
                .field("kind", "deadline")
                .field("message", "deadline passed while queued"),
        );
        return;
    }
    let started_ns = nox_telemetry::epoch_ns();
    *shared.running.lock().expect("running lock") = Some(Running {
        id: req.id.clone(),
        started_ns,
        flagged: false,
        conn: conn.clone(),
    });
    conn.send(&proto::event("start", &req.id));
    // Bind the process-global telemetry stream to this connection for
    // the duration of the job: the client sees the same run/stage/job
    // frames `--stream` would print, seq restarting at 0 per job.
    stream::set(Box::new(ConnSink {
        conn: conn.clone(),
        buf: Vec::new(),
    }));
    stream::emit(
        "run",
        &[("cmd", Json::from("serve")), ("id", Json::from(&*req.id))],
    );
    let outcome = job::execute(&req.body, exec, &token, shared.cfg.debug_ops);
    stream::emit("done", &[]);
    stream::clear();
    *shared.running.lock().expect("running lock") = None;
    let elapsed_ns = nox_telemetry::epoch_ns().saturating_sub(started_ns);
    // EWMA with alpha 0.3, folded in integer ns.
    let prev = shared.recent_job_ns.load(Ordering::Relaxed);
    let next = if prev == 0 {
        elapsed_ns
    } else {
        (prev / 10) * 7 + (elapsed_ns / 10) * 3
    };
    shared.recent_job_ns.store(next, Ordering::Relaxed);
    match outcome {
        Ok(artifact) => {
            if let Some(key) = &key {
                if let Err(e) = shared.cache.store(key, &artifact) {
                    // Serving still succeeds; only future hits are lost.
                    eprintln!("noxsim serve: cache store failed for {key}: {e}");
                }
            }
            shared.stats.computed.fetch_add(1, Ordering::Relaxed);
            let mut frame = proto::event("result", &req.id).field("cached", false);
            if let Some(key) = &key {
                frame = frame.field("key", key.as_str());
            }
            conn.send(&frame.field("artifact", artifact));
        }
        Err(e) => {
            match e {
                JobError::Panic(_) => shared.stats.panics.fetch_add(1, Ordering::Relaxed),
                JobError::Deadline => shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed),
                JobError::Refused(_) => shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed),
            };
            conn.send(
                &proto::event("error", &req.id)
                    .field("kind", job::error_kind(&e))
                    .field("message", e.to_string()),
            );
        }
    }
}

fn watchdog_loop(shared: &Arc<Shared>) {
    let threshold_ns = shared.cfg.watchdog_ms.saturating_mul(1_000_000);
    while !shared.stopped.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        let mut running = shared.running.lock().expect("running lock");
        if let Some(r) = running.as_mut() {
            let elapsed = nox_telemetry::epoch_ns().saturating_sub(r.started_ns);
            if !r.flagged && elapsed > threshold_ns {
                r.flagged = true;
                shared.stats.watchdog_flags.fetch_add(1, Ordering::Relaxed);
                let running_ms = elapsed / 1_000_000;
                eprintln!(
                    "noxsim serve: watchdog: job {} running {running_ms} ms (threshold {} ms)",
                    r.id, shared.cfg.watchdog_ms
                );
                r.conn.send(
                    &proto::event("watchdog", &r.id)
                        .field("running_ms", running_ms)
                        .field("threshold_ms", shared.cfg.watchdog_ms),
                );
            }
        }
    }
}

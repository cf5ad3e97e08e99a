//! Deterministic parallel execution for sweep-style workloads.
//!
//! Every harness in this workspace — figure sweeps, fault campaigns, the
//! bounded model checker — is a map over an indexed list of independent
//! simulation points. This crate runs that map across a `std::thread`
//! worker pool while guaranteeing that the *reduction is in submission
//! order*: the result vector is indexed by the position of the work item,
//! never by completion time. Any artifact derived by folding the result
//! vector left-to-right is therefore bit-identical at every thread count,
//! and `threads = 1` executes the exact same code path as the historical
//! serial loops.
//!
//! The same submission-order discipline extends to telemetry: when
//! profiling is on, each job's measurements are captured into a private
//! delta (`nox_telemetry::capture`) and absorbed back one job at a time,
//! in submission order — so a merged profile's *structure* is identical
//! at every thread count. When streaming is on, job-completion events
//! pass through an in-order cursor: a finished job is announced only
//! once every earlier job has been announced, making the event order on
//! the wire deterministic while staying live.
//!
//! The only dependency is `nox-telemetry` (itself `std`-only; the
//! workspace builds offline); workers are scoped threads, so borrowed
//! inputs work without `'static` bounds.
//!
//! # Example
//!
//! ```
//! use nox_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let squares = exec.map_stage("squares", 0..10u64, |_, n| n * n);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
//! // Same bits at any thread count:
//! let serial = Executor::sequential().map_stage("squares", 0..10u64, |_, n| n * n);
//! assert_eq!(squares, serial);
//! ```

use std::sync::Mutex;

use nox_telemetry::Json;
use nox_telemetry::{phase, ProfileAcc, SpanEvent};

/// A fixed-width worker pool that maps closures over indexed work lists
/// and reduces results in submission order.
///
/// The pool is cheap to construct (threads are scoped per call, not kept
/// alive between calls) — treat it as a value describing *how wide* to
/// fan out, created once near the CLI entry point and passed down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

/// What one job left behind besides its result: its telemetry delta and
/// its wall duration. Empty (and free) unless profiling or streaming is
/// on.
struct JobRecord {
    delta: Option<Box<ProfileAcc>>,
    dur_ns: u64,
}

/// The in-order completion cursor for stream events: job `i`'s event is
/// emitted only once jobs `0..i` have all been emitted, so the wire
/// order is by submission index at any thread count — live, but
/// deterministic.
struct Progress<'a> {
    stage: &'a str,
    total: usize,
    next: usize,
    done: Vec<Option<u64>>,
}

impl Progress<'_> {
    fn complete(&mut self, index: usize, dur_ns: u64) {
        self.done[index] = Some(dur_ns);
        while self.next < self.total {
            let Some(dur) = self.done[self.next] else {
                break;
            };
            nox_telemetry::stream::emit(
                "job",
                &[
                    ("stage", Json::from(self.stage)),
                    ("index", Json::from(self.next)),
                    ("total", Json::from(self.total)),
                    ("ms", Json::from(dur as f64 / 1e6)),
                ],
            );
            self.next += 1;
        }
    }
}

/// Runs one job, measuring it when the stage is observed (`stage_start_ns`
/// is `Some`): the job's telemetry lands in a private capture delta
/// (later absorbed in submission order), annotated with its own `exec.job`
/// span and its queue wait, from the stage's start to this pickup. The
/// span event, on the worker's lane, is the one record of the job: the
/// profile's per-worker table is built from these events.
fn run_job<T, R>(
    f: &(impl Fn(usize, T) -> R + Sync),
    i: usize,
    item: T,
    stage_start_ns: Option<u64>,
) -> (R, JobRecord) {
    let Some(stage_start_ns) = stage_start_ns else {
        return (
            f(i, item),
            JobRecord {
                delta: None,
                dur_ns: 0,
            },
        );
    };
    let start_ns = nox_telemetry::epoch_ns();
    let (result, mut delta) = nox_telemetry::capture(|| f(i, item));
    let dur_ns = nox_telemetry::epoch_ns().saturating_sub(start_ns);
    if nox_telemetry::profiling() {
        let d = delta.get_or_insert_with(|| Box::new(ProfileAcc::new()));
        d.add_span(phase::EXEC_JOB, dur_ns);
        d.push_event(SpanEvent {
            phase: phase::EXEC_JOB,
            index: i as u32,
            lane: nox_telemetry::lane(),
            start_ns,
            dur_ns,
        });
        d.sample_ns("exec.job_ns", dur_ns);
        d.sample_ns(
            "exec.queue_wait_ns",
            start_ns.saturating_sub(stage_start_ns),
        );
    }
    (result, JobRecord { delta, dur_ns })
}

/// Extracts a printable message from a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Executor {
    /// An executor that fans out over `threads` workers. A width of zero
    /// is clamped to one.
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The single-threaded executor: runs every closure inline, in
    /// submission order, on the calling thread — byte-for-byte the
    /// historical serial behavior.
    pub fn sequential() -> Self {
        Executor { threads: 1 }
    }

    /// Number of workers this executor fans out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` as the fan-out named `stage`, returning
    /// results **in submission order**.
    ///
    /// `f` receives the submission index alongside the item. With more
    /// than one worker, closures run concurrently on scoped threads; the
    /// result vector is still indexed by submission slot, so folds over
    /// it are independent of scheduling. A panic in any closure
    /// propagates to the caller once the pool joins.
    ///
    /// The label names this fan-out in profile counters
    /// (`exec.stage.<label>.jobs`) and on streamed progress events.
    pub fn map_stage<T, R, F>(
        &self,
        stage: &str,
        items: impl IntoIterator<Item = T>,
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let items: Vec<T> = items.into_iter().collect();
        let n = items.len();
        let profiling = nox_telemetry::profiling();
        let streaming = nox_telemetry::stream::active();
        // Read once, so that a job's queue wait is its pickup time less
        // the stage's start, on both paths.
        let stage_start_ns = (profiling || streaming).then(nox_telemetry::epoch_ns);
        if profiling {
            nox_telemetry::with_acc(|a| a.add_count(&format!("exec.stage.{stage}.jobs"), n as u64));
        }
        if streaming {
            nox_telemetry::stream::emit(
                "stage",
                &[("stage", Json::from(stage)), ("jobs", Json::from(n))],
            );
        }
        let mut progress = Progress {
            stage,
            total: n,
            next: 0,
            done: if streaming { vec![None; n] } else { Vec::new() },
        };

        if self.threads == 1 || n <= 1 {
            // The historical serial path: inline, on the calling thread
            // (and its lane).
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let (r, rec) = run_job(&f, i, t, stage_start_ns);
                    if let Some(delta) = rec.delta {
                        nox_telemetry::absorb(delta);
                    }
                    if streaming {
                        progress.complete(i, rec.dur_ns);
                    }
                    r
                })
                .collect();
        }

        let workers = self.threads.min(n);
        // Shared work queue: each worker pulls the next (index, item) pair
        // and writes its result into the slot for that index. Work items
        // are coarse (whole simulation runs), so the mutexes see no
        // meaningful contention.
        let queue = Mutex::new(items.into_iter().enumerate());
        let slots: Vec<Mutex<Option<(R, JobRecord)>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let progress = Mutex::new(progress);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (queue, slots, progress, f) = (&queue, &slots, &progress, &f);
                    scope.spawn(move || {
                        nox_telemetry::set_lane(w as u32);
                        loop {
                            let next = queue.lock().expect("work queue poisoned").next();
                            let Some((i, item)) = next else { break };
                            let (r, rec) = run_job(f, i, item, stage_start_ns);
                            let dur_ns = rec.dur_ns;
                            *slots[i].lock().expect("result slot poisoned") = Some((r, rec));
                            if streaming {
                                progress
                                    .lock()
                                    .expect("progress cursor poisoned")
                                    .complete(i, dur_ns);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                // Re-raise a worker's panic with its original payload.
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        // Drain the slots — and absorb each job's telemetry delta — in
        // submission order, so the merged accumulator's structure is
        // independent of which worker ran which job.
        slots
            .into_iter()
            .map(|slot| {
                let (r, rec) = slot
                    .into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without filling its slot");
                if let Some(delta) = rec.delta {
                    nox_telemetry::absorb(delta);
                }
                r
            })
            .collect()
    }
}

impl Default for Executor {
    /// As wide as the machine ([`available_parallelism`]), like the CLI.
    fn default() -> Self {
        #[expect(clippy::disallowed_methods, reason = "sizes the pool only")]
        let threads = available_parallelism();
        Executor::new(threads)
    }
}

/// The machine's available parallelism, or 1 when it cannot be queried.
pub fn available_parallelism() -> usize {
    #[expect(clippy::disallowed_methods, reason = "the one query point")]
    let threads = std::thread::available_parallelism();
    threads.map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Parses a `--threads` CLI value: a positive integer, or the word
/// `auto` for the machine's available parallelism.
///
/// # Example
///
/// ```
/// assert_eq!(nox_exec::parse_threads("3"), Ok(3));
/// assert!(nox_exec::parse_threads("auto").unwrap() >= 1);
/// assert!(nox_exec::parse_threads("0").is_err());
/// ```
pub fn parse_threads(s: &str) -> Result<usize, String> {
    if s == "auto" {
        #[expect(clippy::disallowed_methods, reason = "`--threads auto` asks for it")]
        return Ok(available_parallelism());
    }
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid --threads value '{s}': expected a positive integer or 'auto'"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn results_are_in_submission_order() {
        let _g = telemetry_lock();
        let exec = Executor::new(8);
        // Stagger completion so late submissions finish first.
        let out = exec.map_stage("demo", 0..64u64, |i, n| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            n * 3 + 1
        });
        assert_eq!(out, (0..64u64).map(|n| n * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let _g = telemetry_lock();
        let work: Vec<u64> = (0..100).collect();
        let f = |i: usize, n: u64| format!("{i}:{}", n.wrapping_mul(0x9E37_79B9));
        let serial = Executor::sequential().map_stage("demo", work.clone(), f);
        for threads in [2, 3, 8] {
            assert_eq!(
                Executor::new(threads).map_stage("demo", work.clone(), f),
                serial
            );
        }
    }

    #[test]
    fn all_items_run_exactly_once() {
        let _g = telemetry_lock();
        let count = AtomicUsize::new(0);
        let out = Executor::new(4).map_stage("demo", 0..57, |i, _| {
            count.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(count.load(Ordering::SeqCst), 57);
        assert_eq!(out, (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn zero_width_clamps_to_one_worker() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn empty_and_singleton_work_lists() {
        let _g = telemetry_lock();
        let exec = Executor::new(4);
        assert_eq!(
            exec.map_stage("demo", Vec::<u32>::new(), |_, x| x),
            Vec::<u32>::new()
        );
        assert_eq!(
            exec.map_stage("demo", vec![42], |i, x| (i, x)),
            vec![(0, 42)]
        );
    }

    #[test]
    fn borrows_non_static_inputs() {
        let _g = telemetry_lock();
        let data = [1u32, 2, 3];
        let slice = &data[..];
        let out = Executor::new(2).map_stage("demo", slice, |_, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _g = telemetry_lock();
        Executor::new(4).map_stage("demo", 0..8, |i, _| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn panic_message_keeps_str_and_string_payloads() {
        let message = |f: fn()| panic_message(std::panic::catch_unwind(f).unwrap_err());
        assert_eq!(message(|| panic!("plain")), "plain");
        assert_eq!(
            message(|| std::panic::panic_any(format!("typed {}", 1))),
            "typed 1"
        );
        assert_eq!(
            message(|| std::panic::panic_any(7u8)),
            "non-string panic payload"
        );
    }

    #[test]
    fn parse_threads_accepts_auto_and_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("16"), Ok(16));
        assert!(parse_threads("auto").unwrap() >= 1);
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("four").is_err());
    }

    // -------------------------------------------------------- telemetry

    /// Serializes every test that runs an executor. A running executor
    /// writes to process-global telemetry state (the stream sink, the
    /// profiling switch), which the telemetry tests set and capture;
    /// a job of a concurrent test would land in their capture.
    static TELEMETRY: Mutex<()> = Mutex::new(());

    fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
        TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Capture {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
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

    #[test]
    fn telemetry_off_allocates_no_accumulator() {
        let _g = telemetry_lock();
        nox_telemetry::set_profiling(false);
        nox_telemetry::stream::clear();
        let _ = nox_telemetry::take_acc();
        Executor::new(4).map_stage("demo", 0..16, |_, i| i * 2);
        assert!(
            !nox_telemetry::acc_allocated(),
            "map must not touch telemetry when profiling and streaming are off"
        );
    }

    #[test]
    fn job_deltas_merge_in_submission_order() {
        let _g = telemetry_lock();
        nox_telemetry::set_profiling(true);
        nox_telemetry::stream::clear();
        let _ = nox_telemetry::take_acc();
        // Jobs record one span event each and finish intentionally out of
        // order; merged event order must still be submission order.
        Executor::new(4).map_stage("demo", 0..16u32, |i, n| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _s = nox_telemetry::SpanGuard::with_index(phase::HARNESS_POINT, n);
            n
        });
        let acc = nox_telemetry::take_acc().expect("profiling allocates the acc");
        nox_telemetry::set_profiling(false);
        let point_events: Vec<u32> = acc
            .events()
            .iter()
            .filter(|e| e.phase == phase::HARNESS_POINT)
            .map(|e| e.index)
            .collect();
        assert_eq!(point_events, (0..16).collect::<Vec<_>>());
        assert_eq!(acc.phase(phase::EXEC_JOB).count, 16);
        assert_eq!(acc.counters().get("exec.stage.demo.jobs"), Some(&16));
        assert_eq!(acc.samples()["exec.job_ns"].count(), 16);
        // Each job and the spans inside it sit on its worker's lane.
        let lanes = |phase| {
            let mut lanes: Vec<u32> = acc
                .events()
                .iter()
                .filter(|e| e.phase == phase)
                .map(|e| e.lane)
                .collect();
            lanes.sort_unstable();
            lanes
        };
        assert_eq!(lanes(phase::EXEC_JOB), lanes(phase::HARNESS_POINT));
        assert!(lanes(phase::EXEC_JOB).iter().all(|&l| l < 4));
    }

    #[test]
    fn queue_wait_runs_from_the_stage_start_to_the_pickup() {
        let _g = telemetry_lock();
        nox_telemetry::set_profiling(true);
        nox_telemetry::stream::clear();
        let _ = nox_telemetry::take_acc();
        // One worker, three 5 ms jobs: the third is picked up after the
        // first two have run, so it waited at least 10 ms.
        Executor::sequential().map_stage("demo", 0..3u32, |_, n| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            n
        });
        let acc = nox_telemetry::take_acc().expect("profiling allocates the acc");
        nox_telemetry::set_profiling(false);
        let wait = &acc.samples()["exec.queue_wait_ns"];
        assert_eq!(wait.count(), 3);
        assert!(
            wait.max_ns() >= 10_000_000,
            "longest queue wait {} ns",
            wait.max_ns()
        );
    }

    #[test]
    fn stream_events_are_in_submission_order_at_any_width() {
        let _g = telemetry_lock();
        nox_telemetry::set_profiling(false);
        let mut per_width = Vec::new();
        for threads in [1usize, 4] {
            let cap = Capture::default();
            nox_telemetry::stream::set(Box::new(cap.clone()));
            Executor::new(threads).map_stage("demo", 0..12u32, |i, n| {
                if i % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                n
            });
            nox_telemetry::stream::clear();
            let lines = cap.lines();
            // One stage frame plus one frame per job, every line a
            // complete JSON object.
            assert_eq!(lines.len(), 13);
            for l in &lines {
                assert!(l.starts_with('{') && l.ends_with('}'), "partial frame: {l}");
            }
            assert!(lines[0].contains(r#""event":"stage","seq":0,"stage":"demo","jobs":12"#));
            // Job frames carry ascending indices regardless of width.
            let indices: Vec<String> = lines[1..]
                .iter()
                .map(|l| {
                    let at = l.find(r#""index":"#).expect("job frame has an index") + 9;
                    l[at - 1..].split(',').next().unwrap().to_string()
                })
                .collect();
            per_width.push(indices);
        }
        assert_eq!(per_width[0], per_width[1], "order must not depend on width");
    }
}

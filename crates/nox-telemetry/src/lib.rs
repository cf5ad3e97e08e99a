//! Phase-attributed self-profiling for the NoX workspace.
//!
//! This crate is the one sanctioned home of wall-clock time. Artifact
//! crates (`nox-sim`, `nox-analysis`, …) are forbidden by the workspace
//! `clippy.toml` from reading clocks — their outputs must be
//! bit-deterministic — so every duration in the workspace flows through
//! the primitives here:
//!
//! - a **static phase registry** ([`phase::PHASES`]) naming the simulator
//!   step phases, executor stages, and harness stages;
//! - scoped **span timers** ([`SpanGuard`]) and a mark-based
//!   [`phase::PhaseClock`] for the simulator hot loop (one clock read per
//!   phase boundary, not two per span);
//! - a per-thread **[`ProfileAcc`]** holding phase totals, named counters,
//!   log-bucketed duration histograms, and span events;
//! - a per-job **capture/absorb** protocol ([`capture`], [`absorb`]) that
//!   lets `nox-exec` merge worker-thread measurements *in submission
//!   order*, so the merged structure (phase set, ordering, counter
//!   values) is identical at every thread count even though the durations
//!   themselves are wall-clock;
//! - a line-delimited JSON **stream sink** ([`stream`]) for live progress
//!   events — the wire format `noxsim serve` speaks;
//! - the workspace's one **JSON value type** ([`Json`]: builder,
//!   serializer, hardened parser), here because this is the leaf crate
//!   every artifact-emitting layer already depends on.
//!
//! Everything is disabled by default: until [`set_profiling`] turns the
//! global switch on, no accumulator is allocated and every hook is a
//! single relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

mod acc;
pub mod json;
pub mod phase;
pub mod stream;

pub use acc::{LogHist, PhaseSlot, ProfileAcc, SpanEvent, EVENT_CAP};
pub use json::Json;
pub use phase::{PhaseClock, PhaseId, PHASES};

/// The global profiling switch. Off by default; when off, every
/// instrumentation hook reduces to one relaxed atomic load.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Turns phase profiling on or off process-wide.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// `true` when phase profiling is enabled.
#[inline]
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

thread_local! {
    /// The calling thread's accumulator, allocated lazily on first use
    /// (and only while profiling is enabled — the zero-cost-when-off
    /// guarantee the stream-framing tests assert).
    static ACC: RefCell<Option<Box<ProfileAcc>>> = const { RefCell::new(None) };
}

/// Runs `f` against the calling thread's accumulator, allocating it on
/// first use. Returns `None` (without allocating) when profiling is off.
pub fn with_acc<R>(f: impl FnOnce(&mut ProfileAcc) -> R) -> Option<R> {
    if !profiling() {
        return None;
    }
    ACC.with(|a| {
        let mut a = a.borrow_mut();
        let acc = a.get_or_insert_with(|| Box::new(ProfileAcc::new()));
        Some(f(acc))
    })
}

/// `true` when the calling thread has an accumulator allocated. Test
/// support for the zero-cost-when-off guarantee.
pub fn acc_allocated() -> bool {
    ACC.with(|a| a.borrow().is_some())
}

/// Detaches and returns the calling thread's accumulator, if any.
pub fn take_acc() -> Option<Box<ProfileAcc>> {
    ACC.with(|a| a.borrow_mut().take())
}

/// Merges `delta` into the calling thread's accumulator. This is how
/// `nox-exec` folds per-job captures back in, one job at a time, in
/// submission order.
pub fn absorb(delta: Box<ProfileAcc>) {
    with_acc(|a| a.absorb(*delta));
}

/// Runs `f` with a fresh accumulator and returns whatever it recorded.
///
/// The caller's accumulator (if any) is parked for the duration and
/// restored afterwards, so a capture nested inside a larger profiled
/// region measures exactly the work of `f` — this is the executor's
/// per-job measurement protocol. Returns `(result, None)` without
/// touching thread state when profiling is off.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Option<Box<ProfileAcc>>) {
    if !profiling() {
        return (f(), None);
    }
    let parked = take_acc();
    let result = f();
    let delta = take_acc();
    ACC.with(|a| *a.borrow_mut() = parked);
    (result, delta)
}

/// The process-wide epoch all span timestamps are relative to.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch (established on first call).
/// Monotonic; shared by every thread, so span events from different
/// workers land on one comparable timeline.
pub fn epoch_ns() -> u64 {
    #[expect(clippy::disallowed_methods, reason = "span timestamps are wall time")]
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// A monotonic wall-clock stopwatch — the only sanctioned way for other
/// workspace crates to measure a duration. The reading never feeds a
/// claims artifact; it exists for profiles, benches, and progress events.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the stopwatch now.
    pub fn start() -> Self {
        #[expect(clippy::disallowed_methods, reason = "the sanctioned stopwatch")]
        let now = Instant::now();
        Stopwatch(now)
    }

    /// Nanoseconds elapsed since [`start`](Self::start).
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Seconds elapsed since [`start`](Self::start).
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

thread_local! {
    static LANE: Cell<u32> = const { Cell::new(0) };
}

/// Puts the calling thread's span events on `lane` (a Chrome trace lane)
/// for the rest of its life. An executor worker sets its worker index
/// once, as it starts; every other thread records on lane 0.
pub fn set_lane(lane: u32) {
    LANE.with(|l| l.set(lane));
}

/// The calling thread's span-event lane (see [`set_lane`]). It never
/// appears in deterministic views.
pub fn lane() -> u32 {
    LANE.with(Cell::get)
}

/// A scoped phase timer: records one span (duration plus a bounded trace
/// event) into the thread accumulator when dropped. Free when profiling
/// is off.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    phase: PhaseId,
    index: u32,
    start_ns: Option<u64>,
}

impl SpanGuard {
    /// Opens a span for `phase`.
    pub fn begin(phase: PhaseId) -> Self {
        Self::with_index(phase, 0)
    }

    /// Opens a span for `phase` carrying a caller-chosen index (e.g. the
    /// executor's job submission index) into the span event.
    pub fn with_index(phase: PhaseId, index: u32) -> Self {
        let start_ns = profiling().then(epoch_ns);
        SpanGuard {
            phase,
            index,
            start_ns,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start_ns) = self.start_ns else {
            return;
        };
        let dur_ns = epoch_ns().saturating_sub(start_ns);
        let (phase, index) = (self.phase, self.index);
        with_acc(|a| {
            a.add_span(phase, dur_ns);
            a.push_event(SpanEvent {
                phase,
                index,
                lane: lane(),
                start_ns,
                dur_ns,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that toggle the global profiling switch.
    static GLOBAL: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_profiling_allocates_nothing() {
        let _g = lock();
        set_profiling(false);
        let _ = take_acc();
        assert!(with_acc(|_| ()).is_none());
        let _span = SpanGuard::begin(phase::EXEC_JOB);
        drop(_span);
        assert!(!acc_allocated());
    }

    #[test]
    fn spans_accumulate_into_the_thread_acc() {
        let _g = lock();
        set_profiling(true);
        let _ = take_acc();
        {
            let _s = SpanGuard::begin(phase::HARNESS_STAGE);
        }
        {
            let _s = SpanGuard::with_index(phase::HARNESS_STAGE, 7);
        }
        let acc = take_acc().expect("acc allocated while profiling");
        set_profiling(false);
        let slot = acc.phase(phase::HARNESS_STAGE);
        assert_eq!(slot.count, 2);
        assert_eq!(acc.events().len(), 2);
        assert_eq!(acc.events()[1].index, 7);
    }

    #[test]
    fn capture_parks_and_restores_the_outer_acc() {
        let _g = lock();
        set_profiling(true);
        let _ = take_acc();
        with_acc(|a| a.add_count("outer", 1));
        let ((), delta) = capture(|| {
            with_acc(|a| a.add_count("inner", 5));
        });
        let delta = delta.expect("capture returns a delta while profiling");
        assert_eq!(delta.counters().get("inner"), Some(&5));
        assert!(delta.counters().get("outer").is_none());
        // The outer accumulator survived the capture untouched.
        let outer = take_acc().expect("outer acc restored");
        set_profiling(false);
        assert_eq!(outer.counters().get("outer"), Some(&1));
        assert!(outer.counters().get("inner").is_none());
    }

    #[test]
    fn absorb_merges_sums_and_appends_events() {
        let _g = lock();
        set_profiling(true);
        let _ = take_acc();
        let mut d1 = ProfileAcc::new();
        d1.add_span(phase::SIM_STEP, 10);
        d1.add_count("jobs", 1);
        let mut d2 = ProfileAcc::new();
        d2.add_span(phase::SIM_STEP, 32);
        d2.add_count("jobs", 2);
        absorb(Box::new(d1));
        absorb(Box::new(d2));
        let acc = take_acc().expect("acc allocated");
        set_profiling(false);
        assert_eq!(acc.phase(phase::SIM_STEP).count, 2);
        assert_eq!(acc.phase(phase::SIM_STEP).nanos, 42);
        assert_eq!(acc.counters().get("jobs"), Some(&3));
    }

    #[test]
    fn epoch_is_monotonic() {
        let a = epoch_ns();
        let b = epoch_ns();
        assert!(b >= a);
    }
}

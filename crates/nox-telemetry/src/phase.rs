//! The static phase registry and the simulator's mark-based phase clock.
//!
//! Phases are a closed, ordered set known at compile time, so profile
//! artifacts list them in one canonical order at every thread count —
//! the structural half of the determinism argument in DESIGN.md §14.
//!
//! `sim.route` times the simulator's whole router loop, one mark per
//! step; the work inside it is counted, not timed (DESIGN.md §18). Three
//! ids are retired and nothing marks them: `sim.arbitrate`, `sim.drive`
//! and `sim.encode`. They stay registered, reading 0, only because the
//! frozen repo benchmark names them; ROADMAP item 1 drops them with the
//! benchmark's share rows and renames `sim.route` to `sim.router`.

/// An index into the static phase registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhaseId(pub u8);

impl PhaseId {
    /// The phase's registered name, e.g. `"sim.route"`.
    pub fn name(self) -> &'static str {
        PHASES[self.0 as usize]
    }

    /// Index into [`PHASES`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

macro_rules! registry {
    ($(($const_name:ident, $idx:expr, $name:expr),)*) => {
        /// All registered phase names, in canonical report order.
        pub const PHASES: &[&str] = &[$($name),*];
        $(pub const $const_name: PhaseId = PhaseId($idx);)*
    };
}

registry![
    (SIM_STEP, 0, "sim.step"),
    (SIM_DELIVER, 1, "sim.deliver"),
    (SIM_CREDIT, 2, "sim.credit"),
    (SIM_INJECT, 3, "sim.inject"),
    (SIM_ROUTE, 4, "sim.route"),
    (SIM_ARBITRATE, 5, "sim.arbitrate"),
    (SIM_DRIVE, 6, "sim.drive"),
    (SIM_ENCODE, 7, "sim.encode"),
    (SIM_SINK, 8, "sim.sink"),
    (SIM_OTHER, 9, "sim.other"),
    (EXEC_JOB, 10, "exec.job"),
    (HARNESS_STAGE, 11, "harness.stage"),
    (HARNESS_POINT, 12, "harness.point"),
    (PROFILE_TOTAL, 13, "profile.total"),
];

/// Number of registered phases.
pub const PHASE_COUNT: usize = PHASES.len();

/// The simulator-facing phases whose sum is audited against `sim.step`
/// (everything inside a step except the residual `sim.other`).
pub const SIM_ATTRIBUTED: &[PhaseId] = &[
    SIM_DELIVER,
    SIM_CREDIT,
    SIM_INJECT,
    SIM_ROUTE,
    SIM_ARBITRATE,
    SIM_DRIVE,
    SIM_ENCODE,
    SIM_SINK,
];

use crate::acc::ProfileAcc;
use std::time::Instant;

/// A mark-based phase timer for the simulator hot loop.
///
/// Instead of opening and closing a span per phase (two clock reads
/// each), the network reads the clock once per phase *boundary*:
/// [`mark`](Self::mark) attributes everything since the previous mark to
/// the named phase. Marks inside one step partition the step interval
/// exactly, so the attributed phases telescope to the step total with no
/// gap and no overlap — `sum(phases) == sim.step` to the nanosecond,
/// which the telemetry integration tests assert.
#[derive(Debug)]
pub struct PhaseClock {
    last: Instant,
    step_start: Instant,
    acc: ProfileAcc,
}

impl Clone for PhaseClock {
    /// Cloning a network must not double-count its history: a clone
    /// starts a fresh, empty clock.
    fn clone(&self) -> Self {
        PhaseClock::start()
    }
}

impl Default for PhaseClock {
    fn default() -> Self {
        PhaseClock::start()
    }
}

impl PhaseClock {
    /// Creates an idle clock.
    pub fn start() -> Self {
        #[expect(clippy::disallowed_methods, reason = "the phase clock")]
        let now = Instant::now();
        PhaseClock {
            last: now,
            step_start: now,
            acc: ProfileAcc::new(),
        }
    }

    /// Opens a new step: discards time elapsed since the previous step
    /// ended (that time belongs to the caller, not the simulator).
    #[inline]
    pub fn begin_step(&mut self) {
        #[expect(clippy::disallowed_methods, reason = "the phase clock")]
        let now = Instant::now();
        self.last = now;
        self.step_start = now;
    }

    /// Attributes everything since the previous mark to `phase`.
    #[inline]
    pub fn mark(&mut self, phase: PhaseId) {
        #[expect(clippy::disallowed_methods, reason = "the phase clock")]
        let now = Instant::now();
        self.acc
            .add_span(phase, now.duration_since(self.last).as_nanos() as u64);
        self.last = now;
    }

    /// Closes the step: records the whole interval since
    /// [`begin_step`](Self::begin_step) as one `sim.step` span. Reads no
    /// clock — the final [`mark`](Self::mark) already fixed the end time,
    /// so the step total equals the telescoped sum of its marks exactly.
    #[inline]
    pub fn end_step(&mut self) {
        let total = self.last.duration_since(self.step_start).as_nanos() as u64;
        self.acc.add_span(SIM_STEP, total);
    }

    /// Flushes everything recorded so far into the calling thread's
    /// accumulator (a no-op when profiling was turned off meanwhile).
    pub fn flush(&mut self) {
        let acc = std::mem::take(&mut self.acc);
        crate::absorb(Box::new(acc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        assert_eq!(PHASES.len(), PHASE_COUNT);
        assert_eq!(SIM_STEP.name(), "sim.step");
        assert_eq!(PROFILE_TOTAL.index(), PHASE_COUNT - 1);
        // Names are unique.
        let mut seen = std::collections::BTreeSet::new();
        for p in PHASES {
            assert!(seen.insert(p), "duplicate phase name {p}");
        }
    }

    #[test]
    fn marks_telescope_exactly_to_the_step_total() {
        let mut clock = PhaseClock::start();
        for _ in 0..100 {
            clock.begin_step();
            clock.mark(SIM_DELIVER);
            clock.mark(SIM_ROUTE);
            clock.mark(SIM_OTHER);
            clock.end_step();
        }
        let attributed: u64 = [SIM_DELIVER, SIM_ROUTE, SIM_OTHER]
            .iter()
            .map(|&p| clock.acc.phase(p).nanos)
            .sum();
        assert_eq!(attributed, clock.acc.phase(SIM_STEP).nanos);
        assert_eq!(clock.acc.phase(SIM_STEP).count, 100);
    }

    #[test]
    fn clone_starts_empty() {
        let mut clock = PhaseClock::start();
        clock.begin_step();
        clock.mark(SIM_DELIVER);
        clock.end_step();
        let clone = clock.clone();
        assert_eq!(clone.acc.phase(SIM_STEP).count, 0);
        assert_eq!(clock.acc.phase(SIM_STEP).count, 1);
    }
}

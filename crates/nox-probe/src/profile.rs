//! Simulator self-profiling: where the wall-clock time of a run went.
//!
//! The ROADMAP's north star — hot paths measurably faster — needs a
//! trajectory, and a trajectory needs numbers. [`SelfProfile`] records the
//! wall time of each phase of a measured run (warmup, measurement window,
//! drain) and the simulation rate in cycles per second, which is the
//! simulator's own figure of merit independent of the modeled network.

use std::time::Duration;

use crate::json::Json;

/// Wall-clock timing of one simulation run, by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfProfile {
    /// Wall time of the warmup phase.
    pub warmup: Duration,
    /// Wall time of the measurement window.
    pub measure: Duration,
    /// Wall time of the drain phase.
    pub drain: Duration,
    /// Total cycles simulated across all phases.
    pub cycles: u64,
}

impl SelfProfile {
    /// Total wall time across all phases.
    pub fn total(&self) -> Duration {
        self.warmup + self.measure + self.drain
    }

    /// Simulated cycles per wall-clock second, or 0 for an instant run.
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.total().as_secs_f64();
        if secs > 0.0 {
            self.cycles as f64 / secs
        } else {
            0.0
        }
    }

    /// The profile as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("warmup_s", self.warmup.as_secs_f64())
            .field("measure_s", self.measure.as_secs_f64())
            .field("drain_s", self.drain.as_secs_f64())
            .field("total_s", self.total().as_secs_f64())
            .field("cycles", self.cycles)
            .field("cycles_per_sec", self.cycles_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_cycles_over_total() {
        let p = SelfProfile {
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(300),
            drain: Duration::from_millis(100),
            cycles: 5_000_000,
        };
        assert!((p.cycles_per_sec() - 1e7).abs() < 1.0);
        assert_eq!(p.total(), Duration::from_millis(500));
    }

    #[test]
    fn instant_run_reports_zero_rate() {
        let p = SelfProfile::default();
        assert_eq!(p.cycles_per_sec(), 0.0);
    }
}

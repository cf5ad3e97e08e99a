//! The per-thread metrics accumulator: phase totals, named counters,
//! log-bucketed duration histograms, and a bounded span trace.
//!
//! Everything in an accumulator is a sum, a map keyed by name, or an
//! append-only list — so merging accumulators is associative, and folding
//! per-job deltas *in submission order* (what `nox-exec` does) yields a
//! structure independent of how jobs were scheduled across workers.

use std::collections::BTreeMap;

use crate::phase::{PhaseId, PHASE_COUNT};

/// Upper bound on retained span events per accumulator; beyond it new
/// events are counted but dropped, keeping long runs memory-light.
pub const EVENT_CAP: usize = 65_536;

/// Accumulated time for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSlot {
    /// Number of spans (or marks) recorded.
    pub count: u64,
    /// Total duration in nanoseconds.
    pub nanos: u64,
}

/// One completed span, for Chrome-trace export. Timestamps are relative
/// to the process epoch ([`crate::epoch_ns`]).
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    /// Which registered phase this span belongs to.
    pub phase: PhaseId,
    /// Caller-chosen index (e.g. executor job submission index).
    pub index: u32,
    /// The recording thread's lane: its executor worker index, 0 off the
    /// pool (see [`crate::set_lane`]).
    pub lane: u32,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A power-of-two log histogram over nanosecond durations. Bucket `b`
/// holds samples in `[2^(b-1), 2^b)` (bucket 0 holds zeros), so 64
/// buckets cover every representable duration.
#[derive(Clone, Debug)]
pub struct LogHist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ns: u64) -> usize {
        (64 - ns.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum += ns;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHist) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0 < p <= 100`), capped at the largest sample, or 0 when empty.
    /// Bucket resolution is a factor of two — enough to expose load
    /// imbalance, not for fine tails.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { (1u64 << b).min(self.max) };
            }
        }
        self.max
    }
}

/// A thread's accumulated telemetry. See the module docs for the merge
/// discipline that keeps its structure deterministic.
#[derive(Clone, Debug, Default)]
pub struct ProfileAcc {
    phases: [PhaseSlot; PHASE_COUNT],
    /// Deterministic event counts (job totals, stage sizes). These are
    /// the values the determinism tests compare byte-for-byte.
    counters: BTreeMap<String, u64>,
    /// Duration histograms (job latency, queue wait). Excluded from
    /// deterministic views.
    samples: BTreeMap<String, LogHist>,
    events: Vec<SpanEvent>,
    events_dropped: u64,
}

impl ProfileAcc {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one span to a phase total.
    pub fn add_span(&mut self, phase: PhaseId, nanos: u64) {
        let slot = &mut self.phases[phase.index()];
        slot.count += 1;
        slot.nanos += nanos;
    }

    /// Increments a named counter.
    pub fn add_count(&mut self, key: &str, n: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += n;
    }

    /// Records one duration sample into a named histogram.
    pub fn sample_ns(&mut self, key: &str, ns: u64) {
        self.samples.entry(key.to_string()).or_default().record(ns);
    }

    /// Appends a span event, dropping (but counting) past [`EVENT_CAP`].
    pub fn push_event(&mut self, ev: SpanEvent) {
        if self.events.len() < EVENT_CAP {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Merges `other` into `self`: phase totals and counters add,
    /// histograms merge, events append (bounded).
    pub fn absorb(&mut self, other: ProfileAcc) {
        for (slot, o) in self.phases.iter_mut().zip(other.phases.iter()) {
            slot.count += o.count;
            slot.nanos += o.nanos;
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in other.samples {
            self.samples.entry(k).or_default().merge(&h);
        }
        self.events_dropped += other.events_dropped;
        for ev in other.events {
            self.push_event(ev);
        }
    }

    /// The accumulated slot for one phase.
    pub fn phase(&self, phase: PhaseId) -> PhaseSlot {
        self.phases[phase.index()]
    }

    /// All phase slots, in registry order.
    pub fn phases(&self) -> impl Iterator<Item = (PhaseId, PhaseSlot)> + '_ {
        self.phases
            .iter()
            .enumerate()
            .map(|(i, s)| (PhaseId(i as u8), *s))
    }

    /// The named counters (deterministic values).
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// The named duration histograms.
    pub fn samples(&self) -> &BTreeMap<String, LogHist> {
        &self.samples
    }

    /// Retained span events.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Events dropped past [`EVENT_CAP`].
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase;

    #[test]
    fn log_hist_buckets_and_percentiles() {
        let mut h = LogHist::new();
        assert_eq!(h.percentile_ns(99.0), 0);
        for ns in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.sum_ns(), 1_001_006);
        // The p100 bucket bound is capped at the max sample.
        assert_eq!(h.percentile_ns(100.0), h.max_ns());
        // Half the samples are <= 3ns.
        assert!(h.percentile_ns(50.0) <= 4);
    }

    #[test]
    fn hist_merge_matches_combined_recording() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        let mut both = LogHist::new();
        for (i, ns) in [5u64, 17, 300, 4096, 9].iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(*ns);
            both.record(*ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum_ns(), both.sum_ns());
        assert_eq!(a.min_ns(), both.min_ns());
        assert_eq!(a.max_ns(), both.max_ns());
    }

    #[test]
    fn event_cap_drops_but_counts() {
        let mut acc = ProfileAcc::new();
        let ev = SpanEvent {
            phase: phase::EXEC_JOB,
            index: 0,
            lane: 0,
            start_ns: 0,
            dur_ns: 1,
        };
        for _ in 0..EVENT_CAP + 10 {
            acc.push_event(ev);
        }
        assert_eq!(acc.events().len(), EVENT_CAP);
        assert_eq!(acc.events_dropped(), 10);
    }

    #[test]
    fn absorb_is_order_insensitive_for_sums() {
        let mut d1 = ProfileAcc::new();
        d1.add_count("points", 3);
        d1.sample_ns("job", 100);
        let mut d2 = ProfileAcc::new();
        d2.add_count("points", 4);
        d2.sample_ns("job", 900);

        let mut ab = ProfileAcc::new();
        ab.absorb(d1.clone());
        ab.absorb(d2.clone());
        let mut ba = ProfileAcc::new();
        ba.absorb(d2);
        ba.absorb(d1);
        assert_eq!(ab.counters(), ba.counters());
        assert_eq!(ab.samples()["job"].sum_ns(), ba.samples()["job"].sum_ns());
    }
}

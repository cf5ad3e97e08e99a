//! Event counters and latency accumulators.
//!
//! The paper's power methodology (§4) complements the cycle-accurate
//! simulator "with necessary event counters to form an accurate power
//! model". [`Counters`] is that set of event counters; `nox-power` maps
//! them to energy. [`LatencyStats`] is a streaming accumulator for packet
//! latencies so multi-million-packet runs need no per-packet storage.

use nox_core::{DecodeAction, DecodeStep};

/// Dynamic-activity event counters for one network.
///
/// Counter semantics (one increment per event):
///
/// * `link_flits` — productive link traversals (one word actually carrying
///   payload crosses an inter-router or ejection channel).
/// * `link_wasted` — link cycles driven with an indeterminate or invalid
///   value: speculative collision cycles (§3.2) and NoX aborts (§2.7).
///   These cost full channel energy but carry nothing.
/// * `xbar_traversals` / `xbar_inputs_active` — switch activations and the
///   total number of inputs simultaneously driving them (for the XOR
///   switch an encoded transfer activates several inputs at once).
/// * `buffer_writes` / `buffer_reads` — SRAM FIFO accesses.
/// * `arbitrations` — output arbiter decisions producing a grant.
/// * `decode_xors` / `decode_reg_writes` — NoX decode-path activity.
/// * `collisions` — speculative-router collision cycles.
/// * `aborts` — NoX multi-flit abort cycles.
/// * `encoded_transfers` — NoX productive encoded link words.
/// * `wasted_reservations` — speculative output reservations that idled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Counters {
    pub cycles: u64,
    pub link_flits: u64,
    pub link_wasted: u64,
    pub xbar_traversals: u64,
    pub xbar_inputs_active: u64,
    pub buffer_writes: u64,
    pub buffer_reads: u64,
    pub arbitrations: u64,
    pub decode_xors: u64,
    pub decode_reg_writes: u64,
    pub collisions: u64,
    pub aborts: u64,
    pub encoded_transfers: u64,
    pub wasted_reservations: u64,
    pub flits_injected: u64,
    pub flits_ejected: u64,
    pub packets_injected: u64,
    pub packets_ejected: u64,
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total link activations, productive or not — what the channel
    /// energy model charges for.
    pub fn link_transitions(&self) -> u64 {
        self.link_flits + self.link_wasted
    }

    /// Counts a decode step committed at a router input or a sink: one
    /// FIFO read, plus the XOR of a presented `register ^ head` and the
    /// register write of a latch or a shift.
    pub(crate) fn count_decode(&mut self, step: DecodeStep) {
        let (xors, reg_writes) = match step {
            DecodeStep::Idle => return,
            DecodeStep::Latch => (0, 1),
            DecodeStep::Present(DecodeAction::Pass) => (0, 0),
            DecodeStep::Present(DecodeAction::DecodeKeep) => (1, 0),
            DecodeStep::Present(DecodeAction::DecodeShift) => (1, 1),
        };
        self.buffer_reads += 1;
        self.decode_xors += xors;
        self.decode_reg_writes += reg_writes;
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// What was counted since the snapshot `open`: `self - open`, field
    /// by field. `open` must be an earlier reading of the same counters.
    pub fn since(&self, open: &Counters) -> Counters {
        self.zip(open, |close, open| close - open)
    }

    /// Combines two counter sets field by field. The only function that
    /// lists every counter, so a new one cannot be left out of
    /// [`merge`](Self::merge) or [`since`](Self::since).
    fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            cycles: f(self.cycles, other.cycles),
            link_flits: f(self.link_flits, other.link_flits),
            link_wasted: f(self.link_wasted, other.link_wasted),
            xbar_traversals: f(self.xbar_traversals, other.xbar_traversals),
            xbar_inputs_active: f(self.xbar_inputs_active, other.xbar_inputs_active),
            buffer_writes: f(self.buffer_writes, other.buffer_writes),
            buffer_reads: f(self.buffer_reads, other.buffer_reads),
            arbitrations: f(self.arbitrations, other.arbitrations),
            decode_xors: f(self.decode_xors, other.decode_xors),
            decode_reg_writes: f(self.decode_reg_writes, other.decode_reg_writes),
            collisions: f(self.collisions, other.collisions),
            aborts: f(self.aborts, other.aborts),
            encoded_transfers: f(self.encoded_transfers, other.encoded_transfers),
            wasted_reservations: f(self.wasted_reservations, other.wasted_reservations),
            flits_injected: f(self.flits_injected, other.flits_injected),
            flits_ejected: f(self.flits_ejected, other.flits_ejected),
            packets_injected: f(self.packets_injected, other.packets_injected),
            packets_ejected: f(self.packets_ejected, other.packets_ejected),
        }
    }
}

/// Streaming mean/min/max/variance accumulator for packet latencies (or
/// any nonnegative sample stream).
///
/// # Example
///
/// ```
/// use nox_sim::stats::LatencyStats;
///
/// let mut s = LatencyStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        LatencyStats {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance, or 0 when empty.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.count as f64 - m * m).max(0.0)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or +inf when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or -inf when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_adds_fields() {
        let mut a = Counters {
            link_flits: 3,
            cycles: 10,
            ..Default::default()
        };
        let b = Counters {
            link_flits: 4,
            link_wasted: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.link_flits, 7);
        assert_eq!(a.link_wasted, 2);
        assert_eq!(a.cycles, 10);
        assert_eq!(a.link_transitions(), 9);
    }

    #[test]
    fn since_undoes_merge_on_every_field() {
        // Both operands name every field (no `..Default::default()`), so
        // a counter added to the struct fails to compile here until it
        // has a value that `since` must get right.
        let open = Counters {
            cycles: 1,
            link_flits: 2,
            link_wasted: 3,
            xbar_traversals: 4,
            xbar_inputs_active: 5,
            buffer_writes: 6,
            buffer_reads: 7,
            arbitrations: 8,
            decode_xors: 9,
            decode_reg_writes: 10,
            collisions: 11,
            aborts: 12,
            encoded_transfers: 13,
            wasted_reservations: 14,
            flits_injected: 15,
            flits_ejected: 16,
            packets_injected: 17,
            packets_ejected: 18,
        };
        let grown = Counters {
            cycles: 100,
            link_flits: 200,
            link_wasted: 300,
            xbar_traversals: 400,
            xbar_inputs_active: 500,
            buffer_writes: 600,
            buffer_reads: 700,
            arbitrations: 800,
            decode_xors: 900,
            decode_reg_writes: 1_000,
            collisions: 1_100,
            aborts: 1_200,
            encoded_transfers: 1_300,
            wasted_reservations: 1_400,
            flits_injected: 1_500,
            flits_ejected: 1_600,
            packets_injected: 1_700,
            packets_ejected: 1_800,
        };
        let mut close = open;
        close.merge(&grown);
        assert_eq!(close.since(&open), grown);
        assert_eq!(close.since(&grown), open);
        assert_eq!(close.since(&close), Counters::new());
    }

    #[test]
    fn latency_stats_moments() {
        let mut s = LatencyStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert!((s.std_dev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let xs = [1.0, 5.0, 2.5, 8.0, 3.0];
        let mut all = LatencyStats::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }
}

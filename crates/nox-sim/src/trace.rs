//! Packet injection traces.
//!
//! Both evaluation modes of the paper are trace-driven: synthetic traffic
//! generators produce a stream of timed injection events, and application
//! traffic replays "processor packet events ... injected into the
//! interconnection network on their corresponding network clock cycles"
//! (§5.2). Times are kept in **nanoseconds** so the same trace drives
//! networks with different clock periods at identical offered load —
//! exactly the paper's "CPU injection bandwidth constant across all
//! interconnection networks" methodology.

use std::sync::Arc;

use crate::topology::NodeId;

/// One packet-injection event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacketEvent {
    /// Creation time in nanoseconds (entry into the source queue).
    pub time_ns: f64,
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Packet length in flits.
    pub len: u16,
}

/// A time-sorted sequence of injection events for one network.
///
/// The events sit behind a shared handle: a clone is a handle to the
/// same events, not a copy of them, and [`push`](Self::push) and
/// [`extend`](Self::extend) copy them only while another handle is
/// alive. So every network built from a trace holds the one event vector
/// (DESIGN.md §16.5), and a caller may drop its own trace once the
/// networks are built.
///
/// # Example
///
/// ```
/// use nox_sim::topology::NodeId;
/// use nox_sim::trace::{PacketEvent, Trace};
///
/// let mut t = Trace::new();
/// t.push(PacketEvent { time_ns: 0.0, src: NodeId(0), dest: NodeId(5), len: 1 });
/// t.push(PacketEvent { time_ns: 3.2, src: NodeId(1), dest: NodeId(2), len: 9 });
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.total_flits(), 10);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    events: Arc<Vec<PacketEvent>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the event is not in time order, has a negative time, or a
    /// zero-length packet.
    pub fn push(&mut self, e: PacketEvent) {
        check(self.events.last(), &e);
        Arc::make_mut(&mut self.events).push(e);
    }

    /// Builds a trace from possibly-unsorted events, sorting by time
    /// (stable, so same-time events keep their relative order). The
    /// events are sorted and checked where they are: the trace keeps the
    /// caller's vector, and when it is already in time order allocates
    /// only the shared handle.
    ///
    /// # Panics
    ///
    /// As [`push`](Self::push), for the first offending event in time
    /// order.
    pub fn from_events(mut events: Vec<PacketEvent>) -> Self {
        let by_time = |a: &PacketEvent, b: &PacketEvent| a.time_ns.total_cmp(&b.time_ns);
        // The stable sort allocates its scratch buffer even for sorted
        // input; one scan decides whether it is needed at all.
        if !events.is_sorted_by(|a, b| by_time(a, b).is_le()) {
            events.sort_by(by_time);
        }
        let mut last = None;
        for e in &events {
            check(last, e);
            last = Some(e);
        }
        Trace {
            events: Arc::new(events),
        }
    }

    /// The events, in time order.
    pub fn events(&self) -> &[PacketEvent] {
        &self.events
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total flits across all packets.
    pub fn total_flits(&self) -> u64 {
        self.events.iter().map(|e| e.len as u64).sum()
    }

    /// Time of the last event, or 0 for an empty trace.
    pub fn horizon_ns(&self) -> f64 {
        self.events.last().map(|e| e.time_ns).unwrap_or(0.0)
    }

    /// Offered load in flits per node per nanosecond over the horizon.
    pub fn offered_flits_per_node_ns(&self, nodes: usize) -> f64 {
        if self.horizon_ns() <= 0.0 || nodes == 0 {
            return 0.0;
        }
        self.total_flits() as f64 / self.horizon_ns() / nodes as f64
    }
}

/// The checks an event must pass to follow `last` in a trace.
fn check(last: Option<&PacketEvent>, e: &PacketEvent) {
    assert!(e.time_ns >= 0.0, "event time must be nonnegative");
    assert!(e.len >= 1, "packets need at least one flit");
    if let Some(last) = last {
        assert!(
            e.time_ns >= last.time_ns,
            "trace events must be time-sorted ({} < {})",
            e.time_ns,
            last.time_ns
        );
    }
}

impl FromIterator<PacketEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = PacketEvent>>(iter: I) -> Self {
        Trace::from_events(iter.into_iter().collect())
    }
}

impl Extend<PacketEvent> for Trace {
    fn extend<I: IntoIterator<Item = PacketEvent>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64) -> PacketEvent {
        PacketEvent {
            time_ns: t,
            src: NodeId(0),
            dest: NodeId(1),
            len: 1,
        }
    }

    #[test]
    fn push_keeps_order() {
        let mut t = Trace::new();
        t.push(ev(1.0));
        t.push(ev(1.0));
        t.push(ev(2.0));
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn out_of_order_push_rejected() {
        let mut t = Trace::new();
        t.push(ev(2.0));
        t.push(ev(1.0));
    }

    #[test]
    fn from_events_sorts() {
        let t = Trace::from_events(vec![ev(3.0), ev(1.0), ev(2.0)]);
        let times: Vec<f64> = t.events().iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_events_keeps_same_time_events_in_input_order() {
        let at = |t, src| PacketEvent {
            src: NodeId(src),
            ..ev(t)
        };
        let t = Trace::from_events(vec![at(2.0, 0), at(1.0, 1), at(2.0, 2), at(1.0, 3)]);
        let srcs: Vec<u16> = t.events().iter().map(|e| e.src.0).collect();
        assert_eq!(srcs, vec![1, 3, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "event time must be nonnegative")]
    fn from_events_rejects_a_negative_time() {
        Trace::from_events(vec![ev(1.0), ev(-1.0)]);
    }

    #[test]
    #[should_panic(expected = "packets need at least one flit")]
    fn from_events_rejects_a_zero_length_packet() {
        Trace::from_events(vec![ev(1.0), PacketEvent { len: 0, ..ev(0.5) }]);
    }

    #[test]
    #[should_panic(expected = "event time must be nonnegative")]
    fn from_events_rejects_a_nan_time() {
        // Sorting puts NaN last; no NaN is nonnegative.
        Trace::from_events(vec![ev(f64::NAN), ev(1.0)]);
    }

    #[test]
    #[should_panic(expected = "trace events must be time-sorted (1 < 2)")]
    fn extend_rejects_out_of_order_events() {
        // `from_events` sorts before it checks, so its time-order check
        // never fires; `extend` and `push` run the same check unsorted.
        Trace::from_events(vec![ev(2.0)]).extend([ev(1.0)]);
    }

    #[test]
    fn offered_load_computation() {
        let mut t = Trace::new();
        t.push(PacketEvent {
            time_ns: 0.0,
            src: NodeId(0),
            dest: NodeId(1),
            len: 4,
        });
        t.push(PacketEvent {
            time_ns: 10.0,
            src: NodeId(1),
            dest: NodeId(0),
            len: 6,
        });
        // 10 flits over 10 ns across 2 nodes = 0.5 flits/node/ns.
        assert!((t.offered_flits_per_node_ns(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.horizon_ns(), 0.0);
        assert_eq!(t.offered_flits_per_node_ns(64), 0.0);
    }
}

/// Error parsing a trace from its text form.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    message: String,
}

impl ParseTraceError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseTraceError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// Serializes the trace to its text form: a `# noxtrace v1` header
    /// followed by one `time_ns src dest len` line per packet.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer. A mutable reference to any
    /// writer can be passed (e.g. `&mut file`).
    pub fn write_to<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "# noxtrace v1")?;
        for e in self.events.iter() {
            writeln!(w, "{} {} {} {}", e.time_ns, e.src.0, e.dest.0, e.len)?;
        }
        Ok(())
    }

    /// Parses a trace from its text form (see [`Trace::write_to`]).
    /// Blank lines and `#` comments are ignored; events may appear in any
    /// order and are sorted by time.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] naming the offending line for any
    /// malformed record.
    pub fn parse(text: &str) -> Result<Trace, ParseTraceError> {
        let mut events = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let mut next = |what: &str| {
                parts
                    .next()
                    .ok_or_else(|| ParseTraceError::new(i + 1, format!("missing {what}")))
            };
            let time_ns: f64 = next("time")?
                .parse()
                .map_err(|_| ParseTraceError::new(i + 1, "invalid time"))?;
            let src: u16 = next("src")?
                .parse()
                .map_err(|_| ParseTraceError::new(i + 1, "invalid src"))?;
            let dest: u16 = next("dest")?
                .parse()
                .map_err(|_| ParseTraceError::new(i + 1, "invalid dest"))?;
            let len: u16 = next("len")?
                .parse()
                .map_err(|_| ParseTraceError::new(i + 1, "invalid len"))?;
            if parts.next().is_some() {
                return Err(ParseTraceError::new(i + 1, "trailing fields"));
            }
            if time_ns < 0.0 {
                return Err(ParseTraceError::new(i + 1, "negative time"));
            }
            if len == 0 {
                return Err(ParseTraceError::new(i + 1, "zero-length packet"));
            }
            events.push(PacketEvent {
                time_ns,
                src: NodeId(src),
                dest: NodeId(dest),
                len,
            });
        }
        Ok(Trace::from_events(events))
    }
}

#[cfg(test)]
mod io_tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(PacketEvent {
            time_ns: 0.5,
            src: NodeId(3),
            dest: NodeId(9),
            len: 1,
        });
        t.push(PacketEvent {
            time_ns: 12.25,
            src: NodeId(0),
            dest: NodeId(63),
            len: 9,
        });
        t
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let t = Trace::parse("# hello\n\n  # more\n1.0 0 1 1\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let t = Trace::parse("5.0 0 1 1\n1.0 1 0 1\n").unwrap();
        assert_eq!(t.events()[0].time_ns, 1.0);
    }

    #[test]
    fn errors_name_the_line() {
        let err = Trace::parse("1.0 0 1 1\nbogus 0 1 1\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_malformed_records() {
        assert!(Trace::parse("1.0 0 1\n").is_err(), "missing field");
        assert!(Trace::parse("1.0 0 1 1 7\n").is_err(), "trailing field");
        assert!(Trace::parse("-1.0 0 1 1\n").is_err(), "negative time");
        assert!(Trace::parse("1.0 0 1 0\n").is_err(), "zero length");
        assert!(Trace::parse("1.0 99999999 1 1\n").is_err(), "src overflow");
    }
}

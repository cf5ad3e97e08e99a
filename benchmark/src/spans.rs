//! Timing every call the benchmark makes into a layer, and (in a traced
//! run) keeping the timings as spans.
//!
//! [`Spans::time`] is the benchmark's only stopwatch. With recording off
//! it is two clock reads; with recording on it also keeps a span (name,
//! start, end, the span that was open when it began, and a caller-chosen
//! id shared by the spans of one request or one architecture) in memory.
//! Spans are written out once, when the run ends, as Chrome trace-event
//! JSON (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use nox::analysis::json::Json;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called, e.g. `Network::run`.
    pub name: &'static str,
    /// Groups the spans of one request / architecture / repetition.
    pub id: u64,
    /// Recording thread (Chrome trace lane).
    pub tid: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the span that was open on this thread at the start.
    pub parent: Option<usize>,
}

/// A per-thread span recorder and stopwatch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    tid: u32,
    record: bool,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    /// A recorder for thread lane `tid`. All recorders of one run share
    /// `epoch` so their spans land on one timeline. With `record` off,
    /// [`time`](Self::time) only measures.
    pub fn new(epoch: Instant, tid: u32, record: bool) -> Spans {
        Spans {
            epoch,
            tid,
            record,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// A recorder on the same timeline and with the same recording
    /// switch, for another thread.
    pub fn fork(&self, tid: u32) -> Spans {
        Spans::new(self.epoch, tid, self.record)
    }

    /// Runs `f`, returning its result and its wall time in seconds.
    /// `f` receives the recorder so nested calls become child spans.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        if !self.record {
            let r = f(self);
            return (r, start.elapsed().as_secs_f64());
        }
        let index = self.done.len();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.done.push(Span {
            name,
            id,
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let r = f(self);
        let elapsed = start.elapsed();
        self.open.pop();
        self.done[index].end_ns = start_ns + elapsed.as_nanos() as u64;
        (r, elapsed.as_secs_f64())
    }

    /// Appends another thread's finished spans, keeping parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.done.len();
        self.done.extend(other.done.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every finished span, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.done
    }
}

/// Count, total time and self time of every span name, in seconds.
/// A span's self time is its duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as f64 / 1e9;
        e.2 += dur.saturating_sub(kids) as f64 / 1e9;
    }
    out
}

/// Writes `spans` as Chrome trace-event JSON (complete `X` events,
/// microsecond timestamps).
pub fn write_chrome(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj()
                .field("name", s.name)
                .field("cat", workload)
                .field("ph", "X")
                .field("ts", s.start_ns as f64 / 1e3)
                .field("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                .field("pid", 1u64)
                .field("tid", u64::from(s.tid))
                .field(
                    "args",
                    Json::obj().field("span", i as u64).field("id", s.id).field(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                )
        })
        .collect();
    let doc = Json::obj()
        .field("displayTimeUnit", "ms")
        .field("traceEvents", Json::Arr(events));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{doc}\n"))
}

//! Chrome trace-event export.
//!
//! Converts a probe's event ring buffer into the Trace Event Format that
//! `chrome://tracing` and Perfetto load directly: one complete (`"X"`)
//! event per simulator event, with the router/core as the process id and
//! the port as the thread id, so the timeline groups per-node per-port
//! lanes. Timestamps are in microseconds of simulated time.

use nox_sim::flit::FlitKey;
use nox_sim::probe::{EventKind, Probe, TraceEvent};

use crate::json::Json;

fn flit_label(keys: &[u64]) -> String {
    let parts: Vec<String> = keys
        .iter()
        .map(|&k| {
            let fk = FlitKey::unpack(k);
            format!("p{}.{}", fk.packet.0, fk.seq)
        })
        .collect();
    parts.join("^")
}

fn event_json(e: &TraceEvent, clock_ns: f64) -> Json {
    let (name, cat, args) = match &e.kind {
        EventKind::Inject { packet } => (
            format!("inject p{}", packet.0),
            "packet",
            Json::obj().field("packet", packet.0),
        ),
        EventKind::Send { keys, encoded } => (
            if *encoded {
                format!("send {} (encoded)", flit_label(keys))
            } else {
                format!("send {}", flit_label(keys))
            },
            "link",
            Json::obj()
                .field("flits", keys.len())
                .field("encoded", *encoded),
        ),
        EventKind::Wasted { colliding, abort } => (
            if *abort {
                "abort (invalid word)".to_string()
            } else {
                "collision (invalid word)".to_string()
            },
            "wasted",
            Json::obj()
                .field("colliding", u64::from(*colliding))
                .field("abort", *abort),
        ),
        EventKind::Latch => ("latch decode register".to_string(), "decode", Json::obj()),
        EventKind::Eject { packet } => (
            format!("eject p{}", packet.0),
            "packet",
            Json::obj().field("packet", packet.0),
        ),
        EventKind::Fault { label } => ((*label).to_string(), "fault", Json::obj()),
    };
    Json::obj()
        .field("name", name)
        .field("cat", cat)
        .field("ph", "X")
        .field("ts", e.cycle as f64 * clock_ns / 1_000.0)
        .field("dur", clock_ns / 1_000.0)
        .field("pid", u64::from(e.node.0))
        .field("tid", u64::from(e.port.0))
        .field("args", args)
}

/// Renders profiler span events (from `nox-telemetry`) as a Chrome
/// trace-event JSON document: one complete (`"X"`) event per recorded
/// span, with the span's lane (its executor worker index) as both
/// process and thread id (so each worker gets one lane), and
/// wall-clock microseconds since the process epoch as the timestamp.
/// This is the span-profile counterpart of [`chrome_trace`], which
/// exports *simulated*-time probe events.
pub fn chrome_spans(events: &[nox_telemetry::SpanEvent]) -> String {
    let spans: Vec<Json> = events
        .iter()
        .map(|e| {
            Json::obj()
                .field("name", e.phase.name())
                .field("cat", "profile")
                .field("ph", "X")
                .field("ts", e.start_ns as f64 / 1_000.0)
                .field("dur", e.dur_ns as f64 / 1_000.0)
                .field("pid", u64::from(e.lane))
                .field("tid", u64::from(e.lane))
                .field("args", Json::obj().field("index", u64::from(e.index)))
        })
        .collect();
    Json::obj()
        .field("traceEvents", Json::Arr(spans))
        .field("displayTimeUnit", "ns")
        .to_string()
}

/// Renders the probe's buffered events as a Chrome trace-event JSON
/// document (the `traceEvents` object form, with metadata).
pub fn chrome_trace(probe: &Probe) -> String {
    let clock_ns = probe.clock_ns();
    let events: Vec<Json> = probe.events().map(|e| event_json(e, clock_ns)).collect();
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ns")
        .field(
            "otherData",
            Json::obj()
                .field("clock_ns", clock_ns)
                .field("events_dropped", probe.events_dropped()),
        )
        .to_string()
}

#[cfg(test)]
mod tests {
    use crate::probed_run;
    use nox_sim::config::{Arch, NetConfig};
    use nox_sim::probe::ProbeConfig;
    use nox_sim::sim::RunSpec;
    use nox_sim::topology::NodeId;
    use nox_sim::trace::{PacketEvent, Trace};

    #[test]
    fn span_export_emits_one_lane_per_worker() {
        use nox_telemetry::{phase, SpanEvent};
        let span = |phase, index, lane, start_ns, dur_ns| SpanEvent {
            phase,
            index,
            lane,
            start_ns,
            dur_ns,
        };
        // Worker 1 runs job 3 with a point inside it; worker 0 runs job 4.
        let events = [
            span(phase::HARNESS_POINT, 0, 1, 2_100, 250),
            span(phase::EXEC_JOB, 3, 1, 2_000, 500),
            span(phase::EXEC_JOB, 4, 0, 2_000, 800),
        ];
        let doc = super::chrome_spans(&events);
        assert!(doc.contains(
            "\"name\":\"harness.point\",\"cat\":\"profile\",\"ph\":\"X\",\"ts\":2.1,\"dur\":0.25,\"pid\":1,\"tid\":1"
        ));
        assert!(doc.contains("\"ts\":2,\"dur\":0.5,\"pid\":1,\"tid\":1,\"args\":{\"index\":3}"));
        assert!(doc.contains("\"ts\":2,\"dur\":0.8,\"pid\":0,\"tid\":0,\"args\":{\"index\":4}"));
    }

    #[test]
    fn trace_has_inject_send_eject_lifecycle() {
        let mut t = Trace::new();
        t.push(PacketEvent {
            time_ns: 0.0,
            src: NodeId(0),
            dest: NodeId(15),
            len: 2,
        });
        let run = probed_run(
            NetConfig::small(Arch::Nox),
            &t,
            &RunSpec::quick(),
            ProbeConfig::default(),
        );
        let doc = super::chrome_trace(&run.probe);
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("inject p0"));
        assert!(doc.contains("send p0.0"));
        assert!(doc.contains("send p0.1"));
        assert!(doc.contains("eject p0"));
        assert!(doc.contains("\"ph\":\"X\""));
    }
}

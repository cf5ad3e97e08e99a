//! Machine-readable JSON run reports.
//!
//! One [`run_report`] call turns a [`ProbedRun`] into a self-describing
//! JSON document: configuration, measurement results, the three probe
//! layers (per-router metrics, windowed saturation telemetry, latency
//! decomposition). Every number in it comes from the simulated run, so
//! the report of one configuration is the same bytes on every run. The
//! schema is versioned via the `schema` field so downstream tooling can
//! evolve.

use nox_core::PortId;
use nox_sim::histogram::LogHistogram;
use nox_sim::probe::Probe;
use nox_sim::stats::LatencyStats;
use nox_sim::topology::NodeId;

use crate::json::Json;
use crate::ProbedRun;

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "nox-probe/run-report/v2";

fn latency_block(stats: &LatencyStats, hist: &LogHistogram) -> Json {
    let mut b = Json::obj()
        .field("count", stats.count())
        .field("mean_ns", stats.mean())
        .field("std_dev_ns", stats.std_dev());
    if stats.count() > 0 {
        b = b
            .field("min_ns", stats.min())
            .field("max_ns", stats.max())
            .field("p50_ns", hist.percentile(50.0))
            .field("p95_ns", hist.percentile(95.0))
            .field("p99_ns", hist.percentile(99.0));
    }
    b
}

fn router_block(probe: &Probe, node: NodeId) -> Json {
    let topo = probe.topology();
    let coord = topo.grid().coord(node);
    let m = &probe.totals()[node.index()];
    let cycles = probe.cycles_observed().max(1);

    let mut links = Vec::new();
    for p in 0..topo.ports() {
        let port = PortId(p);
        if !topo.is_local(port) && topo.link_dest(node, port).is_none() {
            continue; // mesh-edge port: no link attached
        }
        let busy = m.link_busy[port.index()];
        let wasted = m.link_wasted[port.index()];
        links.push(
            Json::obj()
                .field("port", format!("{port}"))
                .field("busy", busy)
                .field("wasted", wasted)
                .field("utilization", (busy + wasted) as f64 / cycles as f64),
        );
    }

    let mode_cycles: [u64; 3] = m.mode_cycles.iter().fold([0; 3], |mut acc, per_out| {
        for (a, b) in acc.iter_mut().zip(per_out) {
            *a += b;
        }
        acc
    });

    Json::obj()
        .field("node", u64::from(node.0))
        .field("x", u64::from(coord.x))
        .field("y", u64::from(coord.y))
        .field("max_link_utilization", probe.max_link_utilization(node))
        .field("avg_buffer_occupancy", probe.avg_occupancy(node))
        .field("collisions", m.collisions)
        .field("aborts", m.aborts)
        .field("encoded", m.encoded)
        .field(
            "fsm_occupancy",
            Json::obj()
                .field("recovery", mode_cycles[0])
                .field("scheduled", mode_cycles[1])
                .field("stream", mode_cycles[2]),
        )
        .field("chain_length_hist", m.chain_hist.clone())
        .field("links", Json::Arr(links))
}

/// Builds the full JSON run report for one probed run.
pub fn run_report(run: &ProbedRun) -> Json {
    let probe = &run.probe;
    let r = &run.result;
    let cfg = &r.cfg;
    let topo = probe.topology();

    let routers: Vec<Json> = (0..topo.routers())
        .map(|i| router_block(probe, NodeId(i as u16)))
        .collect();

    let windows: Vec<Json> = probe
        .windows()
        .iter()
        .map(|w| {
            Json::obj()
                .field("start_cycle", w.start_cycle)
                .field("cycles", w.cycles)
                .field("max_link_utilization", w.max_link_util)
                .field("mean_link_utilization", w.mean_link_util)
                .field("saturated_links", w.saturated_links)
                .field("avg_buffer_occupancy", w.avg_occupancy)
                .field("collisions", w.collisions)
                .field("aborts", w.aborts)
                .field("encoded", w.encoded)
        })
        .collect();

    let modes = probe.mode_occupancy();
    let b = probe.breakdown();

    Json::obj()
        .field("schema", SCHEMA)
        .field(
            "config",
            Json::obj()
                .field("arch", format!("{}", cfg.arch))
                .field("width", u64::from(cfg.width))
                .field("height", u64::from(cfg.height))
                .field("concentration", u64::from(cfg.concentration))
                .field("clock_ps", cfg.clock_ps)
                .field("buffer_depth", cfg.buffer_depth),
        )
        .field(
            "result",
            Json::obj()
                .field("cycles", r.cycles)
                .field("drained", r.drained)
                .field("measured_total", r.measured_total)
                .field("measured_ejected", r.measured_ejected)
                .field("avg_latency_ns", r.avg_latency_ns())
                .field("accepted_mbps_per_node", r.accepted_mbps_per_node())
                .field(
                    "accepted_flits_per_node_cycle",
                    r.accepted_flits_per_node_cycle(),
                ),
        )
        .field(
            "latency_decomposition",
            Json::obj()
                .field("total", latency_block(&b.total, &b.total_hist))
                .field("source_queueing", latency_block(&b.queue, &b.queue_hist))
                .field("network", latency_block(&b.network, &b.network_hist)),
        )
        .field(
            "fsm_occupancy",
            Json::obj()
                .field("recovery", modes[0])
                .field("scheduled", modes[1])
                .field("stream", modes[2]),
        )
        .field("chain_length_hist", probe.chain_histogram())
        .field("routers", Json::Arr(routers))
        .field("windows", Json::Arr(windows))
        .field("saturation_onset_cycle", probe.saturation_onset_cycle())
        .field("avg_sink_occupancy", probe.avg_sink_occupancy())
        .field("events_buffered", probe.events().count())
        .field("events_dropped", probe.events_dropped())
}

#[cfg(test)]
mod tests {
    use crate::probed_run;
    use nox_sim::config::{Arch, NetConfig};
    use nox_sim::probe::ProbeConfig;
    use nox_sim::sim::RunSpec;
    use nox_sim::topology::NodeId;
    use nox_sim::trace::{PacketEvent, Trace};

    fn contended_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..150u32 {
            for src in [6u16, 9] {
                t.push(PacketEvent {
                    time_ns: i as f64 * 4.0,
                    src: NodeId(src),
                    dest: NodeId(10),
                    len: 1,
                });
            }
        }
        t
    }

    #[test]
    fn report_contains_all_sections() {
        let run = probed_run(
            NetConfig::small(Arch::Nox),
            &contended_trace(),
            &RunSpec::quick(),
            ProbeConfig::default(),
        );
        let doc = super::run_report(&run).to_string();
        for key in [
            "\"schema\":\"nox-probe/run-report/v2\"",
            "\"routers\"",
            "\"fsm_occupancy\"",
            "\"recovery\"",
            "\"chain_length_hist\"",
            "\"latency_decomposition\"",
            "\"source_queueing\"",
            "\"p99_ns\"",
            "\"windows\"",
            "\"max_link_utilization\"",
        ] {
            assert!(doc.contains(key), "report missing {key}: {doc}");
        }
        // No wall-clock reading: the run's wall time is the span profiler's.
        assert!(!doc.contains("\"profile\""), "{doc}");
        // 4x4 mesh: 16 router blocks.
        assert_eq!(doc.matches("\"node\":").count(), 16);
    }

    #[test]
    fn contended_nox_run_reports_encoded_activity() {
        let run = probed_run(
            NetConfig::small(Arch::Nox),
            &contended_trace(),
            &RunSpec::quick(),
            ProbeConfig::default(),
        );
        let doc = super::run_report(&run).to_string();
        // The merge router saw encoded words; the histogram's 2-chain
        // bucket must be non-zero, so the array cannot be all zeros.
        let chain = run.probe.chain_histogram();
        assert!(chain[2] > 0, "no encoded chains recorded: {chain:?}");
        assert!(doc.contains("\"chain_length_hist\":[0,0,"));
    }
}

//! The measurement harness: warmup, measurement window, drain.
//!
//! Follows standard interconnect methodology (and §5 of the paper):
//! traffic runs for a warmup period, statistics are collected over packets
//! *created* during the measurement window, and the simulation continues —
//! with injection still running — until all measured packets eject or a
//! drain cap expires (the saturated case).

use crate::config::NetConfig;
use crate::histogram::LogHistogram;
use crate::network::Network;
use crate::stats::{Counters, LatencyStats};
use crate::trace::Trace;

/// Timing of one measured run, in nanoseconds (clock-independent, so one
/// spec drives all four architectures at equal offered load).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// Warmup duration before the measurement window opens.
    pub warmup_ns: f64,
    /// Length of the measurement window.
    pub measure_ns: f64,
    /// Maximum extra time after the window to let measured packets drain.
    pub drain_ns: f64,
}

impl RunSpec {
    /// The `(open, close)` times of the measurement window, ns — what
    /// [`Network::new`] takes to tag the packets created inside it.
    pub fn window(&self) -> (f64, f64) {
        (self.warmup_ns, self.warmup_ns + self.measure_ns)
    }

    /// A short spec for unit tests.
    pub fn quick() -> Self {
        RunSpec {
            warmup_ns: 200.0,
            measure_ns: 500.0,
            drain_ns: 2_000.0,
        }
    }
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            warmup_ns: 2_000.0,
            measure_ns: 8_000.0,
            drain_ns: 30_000.0,
        }
    }
}

/// The outcome of one measured simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Configuration the run used.
    pub cfg: NetConfig,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Event-counter deltas over the measurement window (for power).
    pub window_counters: Counters,
    /// Latency of measured packets, in nanoseconds.
    pub latency_ns: LatencyStats,
    /// Log-bucketed latency histogram of measured packets (percentiles).
    pub latency_hist: LogHistogram,
    /// Packets tagged for measurement / actually ejected by the cap.
    pub measured_total: u64,
    /// Measured packets that finished within the drain cap.
    pub measured_ejected: u64,
    /// Length of the measurement window in nanoseconds.
    pub window_ns: f64,
    /// `true` when every measured packet ejected before the cap — `false`
    /// signals saturation.
    pub drained: bool,
}

impl SimResult {
    /// Mean measured packet latency in nanoseconds.
    pub fn avg_latency_ns(&self) -> f64 {
        self.latency_ns.mean()
    }

    /// The given latency percentile (e.g. 99.0) in nanoseconds, or `NaN`
    /// when no measured packet ejected or `p` is outside `(0, 100]` (see
    /// [`LogHistogram::percentile`]).
    pub fn latency_percentile_ns(&self, p: f64) -> f64 {
        self.latency_hist.percentile(p)
    }

    /// Accepted throughput over the window, in flits per node per cycle.
    pub fn accepted_flits_per_node_cycle(&self) -> f64 {
        let cycles = self.window_ns / self.cfg.clock_ns();
        self.window_counters.flits_ejected as f64 / cycles / self.cfg.nodes() as f64
    }

    /// Accepted throughput over the window, in MB/s per node — the unit
    /// of the paper's Figure 8 x-axis (1 MB/s = 1e6 bytes/s).
    pub fn accepted_mbps_per_node(&self) -> f64 {
        let bytes = self.window_counters.flits_ejected as f64 * self.cfg.flit_bytes as f64;
        // bytes per ns per node = GB/s; ×1000 = MB/s.
        bytes / self.window_ns / self.cfg.nodes() as f64 * 1000.0
    }
}

/// Runs `trace` through a network of the given configuration.
///
/// # Example
///
/// ```
/// use nox_sim::config::{Arch, NetConfig};
/// use nox_sim::sim::{run, RunSpec};
/// use nox_sim::topology::NodeId;
/// use nox_sim::trace::{PacketEvent, Trace};
///
/// let mut trace = Trace::new();
/// for i in 0..100u32 {
///     trace.push(PacketEvent {
///         time_ns: i as f64 * 10.0,
///         src: NodeId(0),
///         dest: NodeId(15),
///         len: 1,
///     });
/// }
/// let res = run(NetConfig::small(Arch::Nox), &trace, &RunSpec::quick());
/// assert!(res.drained);
/// assert!(res.avg_latency_ns() > 0.0);
/// ```
pub fn run(cfg: NetConfig, trace: &Trace, spec: &RunSpec) -> SimResult {
    let mut net = Network::new(cfg, trace, spec.window());
    run_phases(&mut net, spec)
}

/// Drives a freshly built network (its window set by
/// [`RunSpec::window`]) through `spec`'s three phases and assembles
/// the result. [`run`] and `nox_probe::probed_run` (a network with a
/// probe attached) share this one loop.
pub fn run_phases(net: &mut Network, spec: &RunSpec) -> SimResult {
    let cfg = *net.config();
    let clock = cfg.clock_ns();

    let warmup_cycles = (spec.warmup_ns / clock).ceil() as u64;
    let window_cycles = (spec.measure_ns / clock).ceil() as u64;
    let drain_cycles = (spec.drain_ns / clock).ceil() as u64;

    net.run(warmup_cycles);
    let at_open = *net.counters();
    net.run(window_cycles);
    let at_close = *net.counters();

    // Drain: keep running (injection continues from the trace) until all
    // measured packets are out or the cap expires.
    let mut remaining = drain_cycles;
    while remaining > 0 && net.measured_ejected() < net.measured_total() {
        net.step();
        remaining -= 1;
    }

    SimResult {
        cfg,
        cycles: net.cycle(),
        window_counters: at_close.since(&at_open),
        latency_ns: *net.latency_measured_ns(),
        latency_hist: net.latency_histogram_ns().clone(),
        measured_total: net.measured_total(),
        measured_ejected: net.measured_ejected(),
        window_ns: window_cycles as f64 * clock,
        drained: net.measured_ejected() == net.measured_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;
    use crate::topology::NodeId;
    use crate::trace::PacketEvent;

    fn ping_trace(n: usize, gap_ns: f64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            t.push(PacketEvent {
                time_ns: i as f64 * gap_ns,
                src: NodeId(0),
                dest: NodeId(15),
                len: 1,
            });
        }
        t
    }

    #[test]
    fn light_load_drains_on_all_architectures() {
        for arch in Arch::ALL {
            let res = run(
                NetConfig::small(arch),
                &ping_trace(200, 10.0),
                &RunSpec::quick(),
            );
            assert!(res.drained, "{arch} failed to drain");
            assert!(res.measured_total > 0);
            assert!(res.avg_latency_ns() > 0.0, "{arch} lost latency stats");
        }
    }

    #[test]
    fn zero_load_latency_ranks_by_clock_and_pipeline() {
        // A single-flit packet crossing 6 hops with no contention:
        // single-cycle routers take ~1 cycle/hop, the sequential router ~2.
        let mut lat = std::collections::BTreeMap::new();
        for arch in Arch::ALL {
            let res = run(
                NetConfig::small(arch),
                &ping_trace(50, 100.0),
                &RunSpec::quick(),
            );
            assert!(res.drained);
            lat.insert(arch, res.avg_latency_ns());
        }
        // Spec-Fast has the shortest clock -> best zero-load latency;
        // the sequential router is worst despite no contention.
        assert!(lat[&Arch::SpecFast] < lat[&Arch::SpecAccurate]);
        assert!(lat[&Arch::SpecAccurate] < lat[&Arch::Nox]);
        assert!(lat[&Arch::Nox] < lat[&Arch::NonSpec]);
    }

    #[test]
    fn window_counters_are_deltas() {
        let res = run(
            NetConfig::small(Arch::Nox),
            &ping_trace(500, 2.0),
            &RunSpec::quick(),
        );
        assert!(res.window_counters.cycles > 0);
        assert!(res.window_counters.cycles < res.cycles);
        assert!(res.window_counters.flits_ejected > 0);
    }

    #[test]
    fn throughput_units_are_consistent() {
        let res = run(
            NetConfig::small(Arch::SpecAccurate),
            &ping_trace(500, 2.0),
            &RunSpec::quick(),
        );
        let fpc = res.accepted_flits_per_node_cycle();
        let mbps = res.accepted_mbps_per_node();
        // 1 flit/node/cycle = 8 bytes per clock_ns per node.
        let expect = fpc * 8.0 / res.cfg.clock_ns() * 1000.0;
        assert!((mbps - expect).abs() < 1e-6 * expect.max(1.0));
    }
}

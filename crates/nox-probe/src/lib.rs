//! Telemetry analysis and export for probed NoX simulations.
//!
//! `Network::enable_probe` attaches an observer — the [`Probe`] — to the
//! simulator's step loop at run time, like the sanitizer, the fault layer
//! and the phase clock; this crate turns what it collects into artifacts:
//!
//! * [`report::run_report`] — a machine-readable JSON run report with
//!   per-router link utilization, NoX FSM occupancy, encoded-chain
//!   histograms, windowed saturation telemetry, per-packet latency
//!   decomposition percentiles — simulated time only, so two runs of
//!   one configuration write the same bytes;
//! * [`chrome::chrome_trace`] — the event ring buffer as Chrome
//!   trace-event JSON (load it in `chrome://tracing` or Perfetto);
//! * [`waveform::waveform`] — the same events as the textual waveform
//!   format of the paper's Figure 2/3/7 timing diagrams, for any router
//!   of any run;
//! * [`heatmap::render`] — per-router utilization/occupancy grids.
//!
//! The entry point is [`probed_run`], a drop-in variant of
//! [`nox_sim::sim::run`] that attaches a probe. (The wall time of a run
//! is the span profiler's, `nox-telemetry`; `noxsim profile HARNESS`.)
//!
//! ```
//! use nox_probe::probed_run;
//! use nox_sim::config::{Arch, NetConfig};
//! use nox_sim::probe::ProbeConfig;
//! use nox_sim::sim::RunSpec;
//! use nox_sim::topology::NodeId;
//! use nox_sim::trace::{PacketEvent, Trace};
//!
//! let mut trace = Trace::new();
//! for i in 0..50u32 {
//!     trace.push(PacketEvent {
//!         time_ns: i as f64 * 10.0,
//!         src: NodeId(0),
//!         dest: NodeId(15),
//!         len: 1,
//!     });
//! }
//! let run = probed_run(
//!     NetConfig::small(Arch::Nox),
//!     &trace,
//!     &RunSpec::quick(),
//!     ProbeConfig::default(),
//! );
//! assert!(run.result.drained);
//! let report = nox_probe::report::run_report(&run);
//! assert!(report.to_string().contains("\"routers\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod heatmap;
pub mod report;
pub mod waveform;

/// The workspace-wide JSON value type (builder + parser), re-exported so
/// probe reports share one serializer with the harness `--json` outputs
/// and the claims report.
pub use nox_telemetry::json;

use nox_sim::config::NetConfig;
use nox_sim::network::Network;
use nox_sim::probe::{Probe, ProbeConfig};
use nox_sim::sim::{run_phases, RunSpec, SimResult};
use nox_sim::trace::Trace;

pub use json::Json;

/// The outcome of one probed simulation run: the ordinary measurement
/// result and the telemetry collector (windows already flushed).
#[derive(Clone, Debug)]
pub struct ProbedRun {
    /// The standard measurement-harness result.
    pub result: SimResult,
    /// The probe, with [`Probe::finish`] already called.
    pub probe: Probe,
}

/// Runs `trace` through a probed network: [`nox_sim::sim::run`]'s own
/// warmup / measurement window / drain loop
/// ([`nox_sim::sim::run_phases`]), with a [`Probe`] attached from cycle
/// zero.
pub fn probed_run(
    cfg: NetConfig,
    trace: &Trace,
    spec: &RunSpec,
    probe_cfg: ProbeConfig,
) -> ProbedRun {
    let mut net = Network::new(cfg, trace, spec.window());
    net.enable_probe(probe_cfg);
    let result = run_phases(&mut net, spec);
    let mut probe = net.take_probe().expect("probe was attached above");
    probe.finish();

    ProbedRun { result, probe }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nox_sim::config::Arch;
    use nox_sim::topology::NodeId;
    use nox_sim::trace::PacketEvent;

    fn light_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..200u32 {
            t.push(PacketEvent {
                time_ns: i as f64 * 5.0,
                src: NodeId((i % 16) as u16),
                dest: NodeId(((i * 7 + 3) % 16) as u16),
                len: 1 + (i % 3) as u16,
            });
        }
        t
    }

    #[test]
    fn probed_run_matches_plain_run() {
        // Observation must not perturb the simulation: the measurement
        // results of a probed run and a plain run are identical.
        for arch in Arch::ALL {
            let spec = RunSpec::quick();
            let plain = nox_sim::sim::run(NetConfig::small(arch), &light_trace(), &spec);
            let probed = probed_run(
                NetConfig::small(arch),
                &light_trace(),
                &spec,
                ProbeConfig::default(),
            );
            assert_eq!(probed.result.cycles, plain.cycles, "{arch}");
            assert_eq!(
                probed.result.window_counters, plain.window_counters,
                "{arch}"
            );
            assert_eq!(
                probed.result.latency_ns.mean(),
                plain.latency_ns.mean(),
                "{arch}"
            );
            assert_eq!(probed.result.drained, plain.drained, "{arch}");
        }
    }

    #[test]
    fn probe_observes_every_cycle() {
        let run = probed_run(
            NetConfig::small(Arch::Nox),
            &light_trace(),
            &RunSpec::quick(),
            ProbeConfig::default(),
        );
        assert_eq!(run.probe.cycles_observed(), run.result.cycles);
    }

    #[test]
    fn run_report_repeats_byte_for_byte() {
        // A run report holds only simulated time, so two runs of one
        // configuration serialise to the same bytes.
        let report = || {
            let run = probed_run(
                NetConfig::small(Arch::Nox),
                &light_trace(),
                &RunSpec::quick(),
                ProbeConfig::default(),
            );
            report::run_report(&run).to_string()
        };
        assert_eq!(report(), report());
    }
}

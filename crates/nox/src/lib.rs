//! # NoX — a reproduction of "The NoX Router" (MICRO 2011)
//!
//! This facade crate re-exports the full public API of the workspace that
//! reproduces Hayenga & Lipasti's NoX router: XOR-coded crossbar
//! arbitration that hides switch-arbitration latency by transmitting the
//! XOR superposition of colliding flits and letting the receiver decode
//! them from consecutive link words.
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | coding algebra, arbiters, the NoX output/decode FSMs, baseline router control |
//! | [`sim`] | cycle-accurate 8x8 wormhole mesh simulator for all four architectures |
//! | [`traffic`] | synthetic patterns, self-similar Pareto sources, CMP coherence synthesizer |
//! | [`power`] | channel, logical-effort timing (Table 2), event-energy (Fig 12), area (Fig 13) |
//! | [`analysis`] | sweeps, saturation/crossover detection, application runs, tables, the figure harness table, the claims registry |
//! | [`probe`] | probed runs and their export: JSON run reports, Chrome traces, waveforms, heatmaps |
//! | [`exec`] | deterministic parallel executor: ordered reduction over a thread pool |
//! | [`statics`] | static design analysis: channel-dependency deadlock proofs, credit sizing |
//! | [`telemetry`] | span profiler, metrics registry, the line-delimited JSON event stream, and the workspace's JSON value type |
//! | [`verify`] | bounded model checker for the protocol invariants + mutation smoke |
//! | [`serve`] | crash-safe simulation daemon: Unix-socket service with backpressure, deadlines, a watchdog, and a content-addressed result cache |
//!
//! # Quickstart
//!
//! ```
//! use nox::prelude::*;
//!
//! // Uniform random traffic at 1 GB/s/node on the paper's 8x8 mesh.
//! let mesh = Mesh::new(8, 8);
//! let trace = nox::traffic::synthetic::generate(
//!     mesh,
//!     &SyntheticConfig::uniform(1000.0, 5_000.0),
//! );
//! let result = nox::sim::run(NetConfig::paper(Arch::Nox), &trace, &RunSpec::quick());
//! println!(
//!     "NoX @ 1 GB/s/node: {:.2} ns mean latency, {:.0} MB/s/node accepted",
//!     result.avg_latency_ns(),
//!     result.accepted_mbps_per_node()
//! );
//! ```
//!
//! See the `examples/` directory for runnable scenarios: `quickstart`,
//! `timing_diagram` (the paper's Figures 2/3/7 replayed cycle by cycle
//! through a real router),
//! `saturation_sweep` (a miniature Figure 8), and `cmp_workload` (a
//! miniature Figure 10/11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nox_analysis as analysis;
pub use nox_core as core;
pub use nox_exec as exec;
pub use nox_fault as fault;
pub use nox_power as power;
pub use nox_probe as probe;
pub use nox_serve as serve;
pub use nox_sim as sim;
pub use nox_statics as statics;
pub use nox_telemetry as telemetry;
pub use nox_traffic as traffic;
pub use nox_verify as verify;

/// The most commonly used types, importable with one line.
pub mod prelude {
    pub use nox_analysis::{run_workload, sweep_series, SweepConfig, Table};
    pub use nox_core::{Coded, DecodePort, OutputCtl, PortId, PortSet, RequestSet};
    pub use nox_power::{Channel, CriticalPath, EnergyModel, Floorplan};
    pub use nox_sim::{run, Arch, Mesh, NetConfig, NodeId, PacketEvent, RunSpec, Trace};
    pub use nox_traffic::{Pattern, SyntheticConfig, WORKLOADS};
}

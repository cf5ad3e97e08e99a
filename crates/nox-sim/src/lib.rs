//! Cycle-accurate wormhole NoC simulator for the NoX router reproduction
//! (Hayenga & Lipasti, MICRO 2011).
//!
//! This crate rebuilds, from scratch, the evaluation substrate the paper's
//! C++ simulator provided: a mesh of five-port wormhole routers with
//! credit-based flow control, dimension-ordered routing, per-node sources
//! and sinks, and event counters feeding the `nox-power` energy model. All
//! four router architectures from the paper are cycle-accurate models
//! driven by the control state machines in `nox-core`:
//!
//! | architecture | variant | paper |
//! |---|---|---|
//! | Non-speculative (sequential) | [`config::Arch::NonSpec`] | §3.1.1 |
//! | Spec-Fast | [`config::Arch::SpecFast`] | §3.1.2 |
//! | Spec-Accurate | [`config::Arch::SpecAccurate`] | §3.1.2 |
//! | NoX | [`config::Arch::Nox`] | §2 |
//!
//! # Quickstart
//!
//! ```
//! use nox_sim::config::{Arch, NetConfig};
//! use nox_sim::sim::{run, RunSpec};
//! use nox_sim::topology::NodeId;
//! use nox_sim::trace::{PacketEvent, Trace};
//!
//! // A trickle of single-flit packets corner to corner on a 4x4 mesh.
//! let mut trace = Trace::new();
//! for i in 0..50u32 {
//!     trace.push(PacketEvent {
//!         time_ns: i as f64 * 20.0,
//!         src: NodeId(0),
//!         dest: NodeId(15),
//!         len: 1,
//!     });
//! }
//! let result = run(NetConfig::small(Arch::Nox), &trace, &RunSpec::quick());
//! assert!(result.drained);
//! println!("avg latency: {:.2} ns", result.avg_latency_ns());
//! ```
//!
//! The simulator self-checks continuously: credit conservation, per-packet
//! flit ordering, XOR payload integrity at ejection, and buffer bounds are
//! all asserted every cycle of every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active_set;
pub mod config;
pub mod fault;
pub mod flit;
pub mod histogram;
pub mod network;
pub mod probe;
pub mod router;
pub mod routing;
pub mod sanitize;
pub mod sim;
pub mod sink;
pub mod source;
pub mod stats;
pub mod topology;
pub mod trace;

pub use config::{Arch, NetConfig};
pub use histogram::LogHistogram;
pub use network::Network;
pub use sim::{run, RunSpec, SimResult};
pub use stats::{Counters, LatencyStats};
pub use topology::{Mesh, NodeId, Port};
pub use trace::{PacketEvent, Trace};

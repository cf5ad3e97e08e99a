//! Experiment harness for the NoX router reproduction.
//!
//! Glues the cycle-accurate simulator (`nox-sim`), traffic generators
//! (`nox-traffic`), and physical models (`nox-power`) into the runs that
//! regenerate the paper's evaluation:
//!
//! * [`mod@sweep`] — injection-rate sweeps with saturation and crossover
//!   detection (Figures 8 and 9);
//! * [`apps`] — dual-network application-workload runs and the mean
//!   energy-delay^2 comparison (Figures 10 and 11);
//! * [`harness`] — one library module per figure or table, each
//!   returning a structured result type with `render()` (the human
//!   table) and `to_json()` (a versioned `nox-bench/<harness>/vN`
//!   document), and the one table ([`harness::HARNESSES`]) through which
//!   `noxsim run`, `noxsim profile` and the serve daemon reach them;
//! * [`claims`] — the machine-checkable conformance registry binding
//!   every EXPERIMENTS.md claim to a harness measurement;
//! * [`mod@profile`] — the `nox-bench/profile/v2` phase-attribution
//!   artifact collected by `noxsim profile`;
//! * [`mod@json`] — the workspace's one JSON value, serializer, and
//!   parser (it lives in the leaf crate `nox-telemetry`; this is a plain
//!   re-export);
//! * [`table`] — shared plain-text / CSV table rendering for every
//!   harness.
//!
//! # Example
//!
//! ```no_run
//! use nox_analysis::sweep::{sweep_series, SweepConfig};
//! use nox_exec::Executor;
//! use nox_sim::config::{Arch, NetConfig};
//!
//! let cfg = SweepConfig::uniform(vec![500.0, 1500.0, 2500.0]);
//! let nets = [NetConfig::paper(Arch::Nox)];
//! let series = &sweep_series("example", &[cfg], &nets, &Executor::default())[0][0];
//! println!("saturation: {:.0} MB/s/node", series.saturation_mbps(15.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod claims;
pub mod harness;
pub mod profile;
pub mod sweep;
pub mod table;

pub use apps::{mean_ed2_improvement_pct, run_workload, AppResult};
pub use harness::Tier;
pub use nox_telemetry::json::{self, Json};
pub use sweep::{crossover_mbps, sweep_series, ArchSeries, SweepConfig, SweepPoint};
pub use table::Table;

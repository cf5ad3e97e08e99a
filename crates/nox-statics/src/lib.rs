//! Static design analysis for the NoX reproduction, wired into
//! `noxsim statics` and CI.
//!
//! [`cdg`], [`credit`] and [`report`] extract the channel-dependency
//! graph of any [`nox_sim::topology::Topology`] × routing function by
//! walking the simulator's own route decisions, run SCC/cycle detection
//! for the Dally-Seitz deadlock-freedom verdict (with concrete witness
//! cycles when unsafe), and statically check credit round-trip against
//! buffer depth. Results ship as the `nox-bench/statics/v1` JSON
//! artifact, byte-identical at any thread count.
//!
//! This crate deliberately sits *below* `nox-analysis` so the claims
//! registry can cite its verdicts as machine-checked claims.

pub mod cdg;
pub mod credit;
pub mod report;

pub use report::{standard_report, StaticsReport, SCHEMA};

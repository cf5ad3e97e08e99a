//! Static analysis for the NoX reproduction.
//!
//! Two independent passes, both wired into `noxsim` and CI:
//!
//! - **Design analysis** ([`cdg`], [`credit`], [`report`]): extracts the
//!   channel-dependency graph of any [`nox_sim::topology::Topology`] ×
//!   routing function by walking the simulator's own route decisions,
//!   runs SCC/cycle detection for the Dally-Seitz deadlock-freedom
//!   verdict (with concrete witness cycles when unsafe), and statically
//!   checks credit round-trip against buffer depth. Results ship as the
//!   `nox-bench/statics/v1` JSON artifact, byte-identical at any thread
//!   count.
//! - **Codebase lint** ([`lint`], run as `noxsim lint`): scans workspace
//!   sources for determinism hazards — unordered hash-container usage in
//!   artifact-feeding code, wall-clock reads, thread-count-dependent
//!   output — with a `// detlint: allow(...)` escape hatch.
//!
//! This crate deliberately sits *below* `nox-analysis` so the claims
//! registry can cite its verdicts as machine-checked claims.

pub mod cdg;
pub mod credit;
pub mod lint;
pub mod report;

pub use report::{standard_report, StaticsReport, SCHEMA};

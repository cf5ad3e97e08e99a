//! `nox-verify` — bounded model checking for the NoX protocol invariants.
//!
//! The NoX router (Hayenga & Lipasti, MICRO 2011) deliberately lets
//! packets collide: under contention an output drives the XOR of every
//! colliding flit and relies on a re-collision protocol, per-output
//! masking, and a per-input decode register to deliver every flit
//! exactly once. The correctness argument is distributed across two
//! interacting FSMs (`nox_core::output::OutputCtl` and the decode
//! register of `nox_core::DecodePort`) plus credit flow control —
//! precisely the kind of argument that unit tests sample but never
//! close.
//!
//! This crate closes it, within explicit bounds. It composes the *real*
//! FSM implementations (not re-implementations) with a model of the
//! plumbing the simulator puts around them — input queues, a credit
//! counter with the zero-credit freeze, a one-cycle link, the receiver
//! FIFO — and exhaustively enumerates the joint reachable state space
//! over a bounded scenario family: up to 5 colliding inputs, multi-flit
//! packets, and *every* interleaving of arrivals, credit returns, and
//! receiver stalls. At every transition it checks:
//!
//! * **I1 exact delivery** — every presented word is a single plain
//!   flit with bit-exact payload ([`ViolationKind::DecodeCorruption`],
//!   [`ViolationKind::PayloadCorruption`]);
//! * **I2 exactly-once, in order** — the receiver reproduces the service
//!   order with no loss or duplication ([`ViolationKind::OrderViolation`]);
//! * **I3 decision structure** — every [`nox_core::Decision`] of the NoX
//!   controller honours its structural contract: a productive word, an
//!   abort or an idle cycle, never a collision or a wasted reservation
//!   ([`ViolationKind::Structural`]);
//! * **I4 chain monotonicity** — loser sets only shrink
//!   ([`ViolationKind::ChainGrowth`]);
//! * **I5 credit conservation** — buffer slots are never lost or
//!   duplicated ([`ViolationKind::CreditAccounting`],
//!   [`ViolationKind::CreditUnderflow`], [`ViolationKind::FifoOverflow`]);
//! * **I6 bounded liveness** — from every reachable state the system
//!   drains within `O(total flits)` cycles once the environment turns
//!   fair ([`ViolationKind::Livelock`]).
//!
//! # Mutation smoke
//!
//! A checker that finds nothing might be checking nothing, so
//! [`mutation_smoke_with`] flips each documented protocol rule in turn — the
//! zero-credit freeze, the switch-mask discipline, the stream lock, the
//! sole-winner rule, abort suppression, the encoded-latch rule, the
//! chain hold, and the `DecodeKeep` commit — and requires the checker to
//! catch every one.
//!
//! # Entry points
//!
//! ```no_run
//! use nox_exec::Executor;
//! use nox_verify::{check_with, mutation_smoke_with, Bounds};
//!
//! let exec = Executor::default();
//! let report = check_with(&Bounds::quick(), &exec);
//! assert!(report.is_clean());
//! for m in mutation_smoke_with(&Bounds::quick(), &exec) {
//!     assert!(m.caught.is_some(), "mutation {} survived", m.mutation.name());
//! }
//! ```
//!
//! # Fault invariant
//!
//! The fault-tolerance layer adds one more exhaustively checked property:
//!
//! * **I7 no silent corruption** — with the CRC-8 sideband enabled, the
//!   decoder never presents a silently-wrong flit: every chain shape,
//!   strike position, and single-bit link mask within bounds is driven
//!   through the real decoder and every corrupted presentation must be
//!   flagged ([`fault::check_decoder_crc_with`]).
//!
//! `noxsim run verify` (the `verify` row of `nox-analysis`'s harness
//! table) runs the same sweep at [`Bounds::full`] (at [`Bounds::quick`]
//! with `--quick` or `--smoke`) plus a sanitized simulation smoke sweep
//! (`nox-sim`'s `sanitize` module) and the I7 fault sweep at
//! [`FaultBounds::quick`].

pub mod checker;
pub mod fault;
pub mod model;
pub mod mutation;
pub mod scenario;

pub use checker::{
    check_mutation, check_scenario, check_with, mutation_smoke_with, CheckReport, MutationReport,
    ScenarioReport,
};
pub use fault::{check_decoder_crc_with, FaultBounds, FaultCheckReport, FaultViolation};
pub use model::{EnvChoice, Model, Violation, ViolationKind};
pub use mutation::Mutation;
pub use scenario::{scenarios, Bounds, Flit, Scenario};

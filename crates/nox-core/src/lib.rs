//! Control and coding primitives of the NoX router (Hayenga & Lipasti,
//! MICRO 2011).
//!
//! The NoX router replaces the multiplexer crossbar of a single-cycle
//! wormhole router with an **XOR-based switch and precomputed input
//! gating**. When several inputs contend for an output, the output drives
//! the bitwise XOR of all colliding flits — an *encoded* word — while a
//! round-robin arbiter, run in parallel, picks a winner. On the following
//! cycles the losers re-collide (minus each cycle's winner), so a receiver
//! can recover every original flit by XORing contiguous received words:
//! `(A ^ B ^ C) ^ (B ^ C) = A`. Every link cycle carries useful payload, and
//! arbitration latency is hidden without the wasted link transitions of
//! speculative routers.
//!
//! This crate contains the *substrate-free* pieces of that design, written
//! so they can be unit- and property-tested in isolation and then dropped
//! into the cycle-accurate simulator in `nox-sim`:
//!
//! * [`PortSet`] / [`PortId`] — tiny bit-set vocabulary for router ports.
//! * [`RoundRobinArbiter`] — the output arbiter shared by every router
//!   architecture in the paper.
//! * [`Coded`] and the [`Xor`] trait — XOR-coding algebra. The simulator
//!   instantiates [`Coded`] with real flits so tests can *prove* that every
//!   decode yields exactly the original word.
//! * [`OutputCtl`] — the NoX per-output arbitration and masking state
//!   machine of §2.6 (Recovery / Scheduled modes, multi-flit aborts of
//!   §2.7).
//! * [`baseline`] — per-output control for the paper's comparison routers
//!   (non-speculative, Spec-Fast, Spec-Accurate from §3.1).
//! * [`Decision`] — what one output does in one cycle, the one answer of
//!   all three control engines: a productive word (possibly XOR-encoded),
//!   an invalid word (a NoX abort or a speculative collision), or
//!   [`Decision::IDLE`].
//! * [`DecodePort`] — the NoX input port of §2.4: the receive FIFO and its
//!   decode-register state machine.
//!
//! # Example
//!
//! Drive one NoX output with the exact stimulus of the paper's Figure 2
//! (packet `A` alone on cycle 0, packets `B` and `C` colliding on cycle 2)
//! and observe the encoded transfer:
//!
//! ```
//! use nox_core::{OutputCtl, PortId, PortSet, RequestSet};
//!
//! let mut out = OutputCtl::new(3);
//!
//! // Cycle 0: A alone on port 0 — passes unmodified.
//! let d = out.tick(RequestSet::single_flit(PortSet::from_iter([PortId(0)])));
//! assert!(!d.encoded && d.serviced.contains(PortId(0)));
//!
//! // Cycle 1: idle.
//! out.tick(RequestSet::default());
//!
//! // Cycle 2: B (port 1) and C (port 2) collide -> encoded B^C drives the
//! // link, port 1 wins the parallel arbitration and is serviced at once.
//! let d = out.tick(RequestSet::single_flit(PortSet::from_iter([PortId(1), PortId(2)])));
//! assert!(d.encoded);
//! assert_eq!(d.serviced.len(), 1);
//!
//! // Cycle 3: the loser is the only switch-enabled input and goes out plain.
//! let loser = PortSet::from_iter([PortId(2)]);
//! let d = out.tick(RequestSet::single_flit(loser));
//! assert!(!d.encoded && d.serviced == loser);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod baseline;
pub mod coded;
pub mod decode;
pub mod output;
pub mod port;

pub use arbiter::RoundRobinArbiter;
pub use baseline::{NonSpecCtl, SpecCtl, SpecMode};
pub use coded::{Coded, Xor};
pub use decode::{DecodeAction, DecodePort, DecodeStep};
pub use output::{Decision, Mode, NoxOptions, OutputCtl, RequestSet};
pub use port::{PortId, PortSet};

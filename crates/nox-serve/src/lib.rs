//! `noxsim serve` — a crash-safe simulation daemon.
//!
//! This crate turns the workspace's harnesses into a long-running
//! service: a dependency-free Unix-domain-socket daemon speaking the
//! line-delimited JSON protocol of [`nox_telemetry::stream`], accepting
//! `run` / `profile` requests for any row of the harness table and
//! `sweep` requests, queuing them onto the [`nox_exec`] pool, and streaming run/stage/job
//! progress events back to the requesting client live.
//!
//! Robustness is the design center, not an afterthought:
//!
//! * **Backpressure** — a bounded request queue with explicit load
//!   shedding: a full queue answers `reject` with a `retry_after_ms`
//!   hint instead of growing without bound ([`daemon`]).
//! * **Deadlines** — every request carries a deadline; cancellation is
//!   cooperative and checked at stage boundaries ([`job::CancelToken`]).
//! * **Panic containment** — a poisoned request is caught at the job
//!   boundary (a `catch_unwind` around the whole job, which a fan-out's
//!   panicking point reaches too) and returned as a structured `error`
//!   event; the daemon itself never goes down with a job.
//! * **A watchdog** — flags jobs that run past the hang threshold with
//!   a `watchdog` event and a log line.
//! * **Graceful drain** — on SIGTERM the daemon finishes accepted work,
//!   refuses new requests with `reject {"reason":"draining"}`, and
//!   exits 0.
//! * **Crash safety** — results are cached content-addressed by
//!   (request, seed, code-version) hash with atomic temp-file+rename
//!   writes and checksummed entries; a startup scan quarantines corrupt
//!   or torn entries, so `kill -9` mid-write loses at most the entry
//!   being written ([`cache`]).
//!
//! The client side ([`client`]) reconnects with capped exponential
//! backoff; request IDs are idempotency tokens — resending one after a
//! reconnect re-serves from the cache rather than duplicating work
//! (the determinism guarantees of the executor make every artifact
//! byte-identical however often it is recomputed).
//!
//! The wire protocol is documented in [`proto`] and DESIGN.md §15.

#![warn(missing_docs)]

/// The protocol revision, written once: [`proto::PROTO_VERSION`] and
/// the suffix of [`CODE_VERSION`] both expand it.
macro_rules! proto_rev {
    () => {
        3
    };
}

pub mod cache;
#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod daemon;
pub mod job;
pub mod proto;
#[cfg(unix)]
pub mod signal;

/// The code-version component of every cache key: bump `proto_rev!`
/// when a change alters any request's meaning or artifact's bytes, and
/// every stale cache entry becomes unreachable (a miss) instead of
/// silently wrong.
pub const CODE_VERSION: &str = concat!(env!("CARGO_PKG_VERSION"), "+serve-proto/v", proto_rev!());

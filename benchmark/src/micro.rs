//! `nox-core` microkernels: ns per call of the public functions the
//! simulator's step loop is made of, in the style of
//! `crates/bench/benches/microbench.rs` but recorded.

use std::hint::black_box;

use nox::core::{
    Coded, NonSpecCtl, OutputCtl, PortId, PortSet, RequestSet, RoundRobinArbiter, SpecCtl, SpecMode,
};

use crate::spans::Spans;
use crate::Outcome;

/// Calls per kernel; the issue's floor is 1e6.
const CALLS: u64 = 2_000_000;

/// Times `CALLS` calls of `op` and returns ns per call.
fn ns_per_call(spans: &mut Spans, name: &'static str, mut op: impl FnMut()) -> f64 {
    let ((), secs) = spans.time(name, 0, |_| {
        for _ in 0..CALLS {
            op();
        }
    });
    secs * 1e9 / CALLS as f64
}

/// The measured kernels, ns per call.
pub struct Micro {
    /// `Coded::plain`: one link word built (one heap allocation today).
    pub coded_plain_ns: f64,
    /// `Coded::xor` of two plain words: one encoded transfer.
    pub coded_xor_ns: f64,
    /// `RoundRobinArbiter::grant` over three requesters of five.
    pub rr_grant_ns: f64,
}

/// Runs every microkernel and records its metric.
pub fn run(spans: &mut Spans, out: &mut Outcome) -> Micro {
    let coded_plain_ns = ns_per_call(spans, "nox-core.coded_plain", || {
        black_box(Coded::plain(black_box(1), black_box(0xDEAD_BEEF_u64)));
    });
    let a = Coded::plain(1, 0xDEAD_BEEF_u64);
    let b = Coded::plain(2, 0xCAFE_F00D_u64);
    let coded_xor_ns = ns_per_call(spans, "nox-core.coded_xor", || {
        black_box(black_box(&a).xor(black_box(&b)));
    });

    let three: PortSet = [PortId(0), PortId(2), PortId(4)].into_iter().collect();
    let mut arb = RoundRobinArbiter::new(5);
    let rr_grant_ns = ns_per_call(spans, "nox-core.rr_grant", || {
        black_box(arb.grant(black_box(three)));
    });

    // Sustained two-way contention, as in microbench.rs: for NoX that is
    // encode, chain, scheduled handoff; for the baselines, arbitration
    // (and collision, when speculating) every cycle.
    let two = RequestSet::single_flit([PortId(1), PortId(3)].into_iter().collect());
    let mut nox = OutputCtl::new(5);
    let output_ctl = ns_per_call(spans, "nox-core.output_ctl_tick", || {
        black_box(nox.tick(black_box(two)));
    });
    let mut spec = SpecCtl::new(5, SpecMode::Accurate);
    let spec_ctl = ns_per_call(spans, "nox-core.spec_ctl_tick", || {
        black_box(spec.tick(black_box(two), PortSet::EMPTY));
    });
    let mut nonspec = NonSpecCtl::new(5);
    let nonspec_ctl = ns_per_call(spans, "nox-core.nonspec_ctl_tick", || {
        black_box(nonspec.tick(black_box(two)));
    });

    out.set("nox-core.coded_plain_ns", coded_plain_ns);
    out.set("nox-core.coded_xor_ns", coded_xor_ns);
    out.set("nox-core.rr_grant_ns", rr_grant_ns);
    out.set("nox-core.output_ctl_tick_ns", output_ctl);
    out.set("nox-core.spec_ctl_tick_ns", spec_ctl);
    out.set("nox-core.nonspec_ctl_tick_ns", nonspec_ctl);
    Micro {
        coded_plain_ns,
        coded_xor_ns,
        rr_grant_ns,
    }
}

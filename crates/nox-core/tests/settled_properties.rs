//! Property tests of the `settled()` contract of the three output
//! control engines.
//!
//! `settled()` is what lets `nox-sim` skip a tick: a settled engine given
//! an empty request set returns its idle decision and does not change, so
//! not calling `tick` at all is indistinguishable. The other direction
//! bounds how long a skipped engine can be owed work: an unsettled engine
//! reaches a settled state after one empty tick, unless it is a
//! Spec-Accurate controller holding a multi-flit stream (which renews its
//! reservation every cycle until the tail passes).
//!
//! Every state the engines reach under the request process below is
//! checked: per-input queues of single- and multi-flit packets, body flits
//! and new packets that show up late (so Stream / `hold` states see empty
//! cycles), output-wide stalls (the simulator's credit exhaustion, which
//! leaves the engine unticked in whatever state it was in), and the
//! Spec-Fast `fresh` sets the simulator derives from its FIFOs.

use std::collections::VecDeque;

use proptest::prelude::*;

use nox_core::{Decision, NonSpecCtl, OutputCtl, PortId, PortSet, RequestSet, SpecCtl, SpecMode};

mod common;

/// One engine behind the interface the request process needs.
trait Engine: Clone + PartialEq + std::fmt::Debug {
    /// `true` for the NoX controller (see [`common::assert_decision`]).
    const NOX: bool = false;
    fn step(&mut self, r: RequestSet, fresh: PortSet) -> Decision;
    fn settled(&self) -> bool;
    /// An unsettled engine that an empty tick need not settle.
    fn holds_stream(&self) -> bool {
        false
    }
}

impl Engine for OutputCtl {
    const NOX: bool = true;
    fn step(&mut self, r: RequestSet, _fresh: PortSet) -> Decision {
        self.tick(r)
    }
    fn settled(&self) -> bool {
        OutputCtl::settled(self)
    }
}

impl Engine for SpecCtl {
    fn step(&mut self, r: RequestSet, fresh: PortSet) -> Decision {
        self.tick(r, fresh)
    }
    fn settled(&self) -> bool {
        SpecCtl::settled(self)
    }
    fn holds_stream(&self) -> bool {
        self.spec_mode() == SpecMode::Accurate && self.hold().is_some()
    }
}

impl Engine for NonSpecCtl {
    fn step(&mut self, r: RequestSet, _fresh: PortSet) -> Decision {
        self.tick(r)
    }
    fn settled(&self) -> bool {
        NonSpecCtl::settled(self)
    }
}

/// What the contract check saw over one run.
#[derive(Default, Debug)]
struct Seen {
    settled: u64,
    unsettled: u64,
    stream_held: u64,
}

/// Checks the contract on a clone of `e`, leaving `e` untouched.
fn check_contract<E: Engine>(e: &E, seen: &mut Seen) {
    let mut probe = e.clone();
    let idle = probe.step(RequestSet::default(), PortSet::EMPTY) == Decision::IDLE;
    if e.settled() {
        seen.settled += 1;
        assert!(idle, "settled engine decided something: {e:?}");
        assert_eq!(&probe, e, "settled engine changed on an empty tick");
    } else if probe.holds_stream() {
        seen.stream_held += 1;
        assert!(e.holds_stream(), "an empty tick started a stream: {e:?}");
    } else {
        seen.unsettled += 1;
        assert!(
            probe.settled(),
            "one empty tick did not settle {e:?} (now {probe:?})"
        );
    }
}

/// One flit of a scripted packet.
#[derive(Clone, Copy, Debug)]
struct Flit {
    multiflit: bool,
    tail: bool,
    /// Cycles after its predecessor left before this flit shows up.
    gap: u8,
}

/// `(packet length, arrival gap of each of its flits)`.
type Script = Vec<(usize, u8)>;

fn build_queue(script: &Script) -> VecDeque<Flit> {
    let mut q = VecDeque::new();
    for &(len, gap) in script {
        for i in 0..len {
            q.push_back(Flit {
                multiflit: len > 1,
                tail: i + 1 == len,
                gap,
            });
        }
    }
    q
}

/// Drives `engine` until every queue drains, checking the settled
/// contract on the state before every tick and on the final state, and
/// the decision contract on every tick.
fn run<E: Engine>(mut engine: E, scripts: &[Script], stalls: &[bool]) -> Seen {
    let mut queues: Vec<VecDeque<Flit>> = scripts.iter().map(build_queue).collect();
    // Cycles until each input's head flit has arrived.
    let mut wait: Vec<u8> = queues
        .iter()
        .map(|q| q.front().map_or(0, |f| f.gap))
        .collect();
    let mut fresh = PortSet::EMPTY;
    let mut seen = Seen::default();
    let mut stall_iter = stalls.iter().copied().cycle();

    let mut guard = 0;
    while queues.iter().any(|q| !q.is_empty()) {
        guard += 1;
        assert!(guard < 100_000, "engine failed to drain: livelock");
        check_contract(&engine, &mut seen);

        // Credit exhaustion freezes the whole output: the simulator does
        // not tick the engine at all on such a cycle.
        let serviced = if stall_iter.next().unwrap() {
            PortSet::EMPTY
        } else {
            let mut r = RequestSet::default();
            for (i, q) in queues.iter().enumerate() {
                let Some(f) = q.front() else { continue };
                if wait[i] > 0 {
                    continue;
                }
                let p = PortId(i as u8);
                r.req.insert(p);
                if f.multiflit {
                    r.multiflit.insert(p);
                }
                if f.tail {
                    r.tail.insert(p);
                }
            }
            let d = engine.step(r, fresh.intersect(r.req));
            common::assert_decision(&d, E::NOX);
            d.serviced
        };

        // A packet is fresh on the cycle after the tail before it left,
        // if it was already queued behind that tail.
        fresh = PortSet::EMPTY;
        for (i, q) in queues.iter_mut().enumerate() {
            let p = PortId(i as u8);
            if serviced.contains(p) {
                let left = q.pop_front().unwrap();
                if let Some(next) = q.front() {
                    wait[i] = next.gap;
                    if left.tail && next.gap == 0 {
                        fresh.insert(p);
                    }
                }
            } else if wait[i] > 0 {
                wait[i] -= 1;
            }
        }
    }
    check_contract(&engine, &mut seen);
    seen
}

fn scripts(n: u8) -> impl Strategy<Value = Vec<Script>> {
    prop::collection::vec(
        prop::collection::vec((1usize..=4, 0u8..=3), 0..6),
        n as usize,
    )
}

fn stall_pattern() -> impl Strategy<Value = Vec<bool>> {
    // End unstalled so the cyclic pattern cannot wedge the output.
    prop::collection::vec(prop::bool::weighted(0.25), 1..12).prop_map(|mut v| {
        v.push(false);
        v
    })
}

proptest! {
    #[test]
    fn nox_settled_contract(s in scripts(4), stalls in stall_pattern()) {
        run(OutputCtl::new(4), &s, &stalls);
    }

    #[test]
    fn spec_fast_settled_contract(s in scripts(4), stalls in stall_pattern()) {
        run(SpecCtl::new(4, SpecMode::Fast), &s, &stalls);
    }

    #[test]
    fn spec_accurate_settled_contract(s in scripts(4), stalls in stall_pattern()) {
        run(SpecCtl::new(4, SpecMode::Accurate), &s, &stalls);
    }

    #[test]
    fn nonspec_settled_contract(s in scripts(4), stalls in stall_pattern()) {
        let seen = run(NonSpecCtl::new(4), &s, &stalls);
        prop_assert_eq!(seen.unsettled + seen.stream_held, 0);
    }
}

/// The properties above are not vacuous: one fixed script walks every
/// engine through both sides of the predicate, and Spec-Accurate through
/// a held stream with its body flit late.
#[test]
fn both_sides_of_the_predicate_are_reached() {
    let s: Vec<Script> = vec![
        vec![(1, 0), (1, 0), (3, 2)],
        vec![(1, 0), (2, 1), (1, 0)],
        vec![(1, 0), (1, 3)],
    ];
    let stalls = [false, false, true, false];

    let nox = run(OutputCtl::new(3), &s, &stalls);
    assert!(nox.settled > 0 && nox.unsettled > 0, "{nox:?}");
    let fast = run(SpecCtl::new(3, SpecMode::Fast), &s, &stalls);
    assert!(fast.settled > 0 && fast.unsettled > 0, "{fast:?}");
    let acc = run(SpecCtl::new(3, SpecMode::Accurate), &s, &stalls);
    assert!(
        acc.settled > 0 && acc.unsettled > 0 && acc.stream_held > 0,
        "{acc:?}"
    );
    let nonspec = run(NonSpecCtl::new(3), &s, &stalls);
    assert!(nonspec.settled > 0 && nonspec.unsettled == 0, "{nonspec:?}");
}

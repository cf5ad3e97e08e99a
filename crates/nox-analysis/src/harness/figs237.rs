//! Figures 2, 3 and 7 — the paper's golden cycle-by-cycle timing
//! examples — replayed against the real control state machines. Each
//! trace records its expected and actual event sequences, so any
//! divergence shows up as a failed check instead of a panic; this is the
//! executable specification of §2.3 and §3.2.

use std::fmt::Write as _;

use crate::harness::Tier;
use crate::json::Json;
use nox_core::{
    Coded, Decision, DecodePort, DecodeStep, NonSpecCtl, OutputCtl, PortId, PortSet, RequestSet,
    SpecCtl, SpecMode,
};

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/figs237/v1";

/// One golden trace check: the figure it reproduces, its expected and
/// actual event strings, and whether they matched.
#[derive(Clone, Debug)]
pub struct TraceCheck {
    /// Stable key (`fig2`, `fig3`, `fig7a`, `fig7b`, `fig7c`).
    pub key: &'static str,
    /// The printed one-line description.
    pub label: &'static str,
    /// The expected event sequence, rendered canonically.
    pub expected: String,
    /// The measured event sequence, same rendering.
    pub actual: String,
}

impl TraceCheck {
    /// `true` when the measured trace matched the golden one.
    pub fn pass(&self) -> bool {
        self.expected == self.actual
    }
}

/// The Figures 2/3/7 result: all five golden trace checks.
#[derive(Clone, Debug)]
pub struct TimingResult {
    /// The five checks, in figure order.
    pub checks: Vec<TraceCheck>,
}

/// The shared stimulus: requests present per cycle (A=p0 @0; B=p1,C=p2
/// @2, persisting until serviced).
struct Stim {
    queues: [Vec<(u64, char)>; 3],
}

impl Stim {
    fn new() -> Self {
        Stim {
            queues: [vec![(0, 'A')], vec![(2, 'B')], vec![(2, 'C')]],
        }
    }
    fn req(&self, cycle: u64) -> RequestSet {
        let mut r = PortSet::EMPTY;
        for (i, q) in self.queues.iter().enumerate() {
            if q.first().is_some_and(|&(c, _)| c <= cycle) {
                r.insert(PortId(i as u8));
            }
        }
        RequestSet::single_flit(r)
    }
    fn pop(&mut self, p: PortId) {
        self.queues[p.index()].remove(0);
    }
}

fn events(seq: &[(u64, String)]) -> String {
    seq.iter()
        .map(|(c, l)| format!("{l}@{c}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Ticks one output engine for `cycles` cycles against the shared
/// stimulus, popping each serviced packet. Returns each productive link
/// word as the names of the packets it superposes (`"BC"` for the encoded
/// `B^C`) with its cycle, and the cycles that drove an invalid word.
fn replay(
    cycles: u64,
    mut tick: impl FnMut(RequestSet) -> Decision,
) -> (Vec<(u64, String)>, Vec<u64>) {
    let mut stim = Stim::new();
    let (mut sent, mut wasted) = (Vec::new(), Vec::new());
    for cycle in 0..cycles {
        let d = tick(stim.req(cycle));
        if !d.wasted.is_empty() {
            wasted.push(cycle);
        }
        if !d.drive.is_empty() {
            let names = d.drive.iter().map(|i| stim.queues[i.index()][0].1);
            sent.push((cycle, names.collect()));
        }
        for i in d.serviced.iter() {
            stim.pop(i);
        }
    }
    (sent, wasted)
}

/// Replays all five golden traces. The tier is accepted for interface
/// uniformity; the traces are a few cycles long and always run in full.
pub fn run(_tier: Tier) -> TimingResult {
    let mut checks = Vec::new();

    // ------------------------------------------------ Figure 2 (NoX send)
    let mut out = OutputCtl::new(3);
    let (sent, _) = replay(5, |r| out.tick(r));
    checks.push(TraceCheck {
        key: "fig2",
        label: "Figure 2  (NoX transmit):  A@0, (B^C)@2 encoded, C@3",
        expected: events(&[(0, "A".into()), (2, "BC".into()), (3, "C".into())]),
        actual: events(&sent),
    });

    // --------------------------------------------- Figure 3 (NoX receive)
    // The link words of Figure 2, each the XOR of the packets it names.
    let mut port = DecodePort::new(sent.len());
    for (_, names) in &sent {
        port.receive(
            names
                .chars()
                .map(|c| Coded::plain(c as u64, c as u64))
                .collect(),
        );
    }
    let mut presented = Vec::new();
    for _ in 0..6 {
        match port.step() {
            DecodeStep::Idle => break,
            DecodeStep::Latch => {
                port.latch();
                presented.push("latch".to_string());
            }
            DecodeStep::Present(action) => {
                let (word, _) = port.take(action);
                presented.push(
                    char::from_u32(word.sole_key().expect("decoded word has one key") as u32)
                        .expect("ascii key")
                        .to_string(),
                );
            }
        }
    }
    checks.push(TraceCheck {
        key: "fig3",
        label: "Figure 3  (NoX receive):   A, latch(B^C), B, C",
        expected: "A latch B C".to_string(),
        actual: presented.join(" "),
    });

    // --------------------------------------------- Figure 7a (sequential)
    let mut out = NonSpecCtl::new(3);
    let (sent, _) = replay(5, |r| out.tick(r));
    checks.push(TraceCheck {
        key: "fig7a",
        label: "Figure 7a (sequential):    A@0, B@2, C@3",
        expected: events(&[(0, "A".into()), (2, "B".into()), (3, "C".into())]),
        actual: events(&sent),
    });

    // ------------------------------------------------------- Figure 7b/7c
    for (key, mode, expect, label) in [
        (
            "fig7b",
            SpecMode::Fast,
            vec![(0, 'A'), (3, 'B'), (5, 'C')],
            "Figure 7b (Spec-Fast):     A@0, XX@2, B@3, --@4, C@5",
        ),
        (
            "fig7c",
            SpecMode::Accurate,
            vec![(0, 'A'), (3, 'B'), (4, 'C')],
            "Figure 7c (Spec-Accurate): A@0, XX@2, B@3, C@4",
        ),
    ] {
        let mut out = SpecCtl::new(3, mode);
        let (sent, wasted) = replay(7, |r| out.tick(r, PortSet::EMPTY));
        let expected: Vec<(u64, String)> = expect
            .into_iter()
            .map(|(c, l)| (c, l.to_string()))
            .collect();
        checks.push(TraceCheck {
            key,
            label,
            expected: format!("{} collide@{:?}", events(&expected), vec![2u64]),
            actual: format!("{} collide@{:?}", events(&sent), wasted),
        });
    }

    TimingResult { checks }
}

impl TimingResult {
    /// `true` when every golden trace reproduced cycle for cycle.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(TraceCheck::pass)
    }

    /// The verified/diverged report the harness has always printed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            if c.pass() {
                let _ = writeln!(out, "{}  ... verified", c.label);
            } else {
                let _ = writeln!(
                    out,
                    "{}  ... DIVERGED\n    expected: {}\n    actual:   {}",
                    c.label, c.expected, c.actual
                );
            }
        }
        if self.all_pass() {
            out.push_str("\nAll golden timing traces of §2.3 and §3.2 reproduced exactly.\n");
        }
        out
    }

    /// The versioned machine-readable document.
    pub fn to_json(&self) -> Json {
        let traces = self
            .checks
            .iter()
            .map(|c| {
                Json::obj()
                    .field("key", c.key)
                    .field("expected", c.expected.clone())
                    .field("actual", c.actual.clone())
                    .field("pass", c.pass())
            })
            .collect::<Vec<_>>();
        Json::obj()
            .field("schema", SCHEMA)
            .field("all_pass", self.all_pass())
            .field("traces", Json::Arr(traces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_traces_reproduce() {
        let r = run(Tier::Quick);
        assert_eq!(r.checks.len(), 5);
        for c in &r.checks {
            assert!(
                c.pass(),
                "{} diverged: {} != {}",
                c.key,
                c.actual,
                c.expected
            );
        }
    }
}

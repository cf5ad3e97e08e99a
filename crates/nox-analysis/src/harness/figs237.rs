//! Figures 2, 3 and 7 — the paper's golden cycle-by-cycle timing
//! examples — replayed through a real five-port [`Router`] of each
//! architecture, the router every network of the simulator is built
//! from: its present stage, engine, decision apply, link drive and
//! counters all run. Each trace records its expected and actual event
//! sequences, so any divergence shows up as a failed check instead of a
//! panic; this is the executable specification of §2.3 and §3.2. The
//! `timing_diagram` example prints the same [`replay`] and [`decode`].

use std::fmt::Write as _;

use crate::harness::Tier;
use crate::json::Json;
use nox_core::{DecodePort, DecodeStep, Mode, PortId};
use nox_sim::flit::{word_for, FlitKey, PacketMeta, PacketTable, Word};
use nox_sim::router::{Router, TickCtx};
use nox_sim::topology::{Port, Topology};
use nox_sim::{Arch, Counters, NodeId};

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

/// The stimulus of §3.2: the input port and arrival cycle of packets
/// A, B and C, in that order.
const ARRIVALS: [(u8, u64); 3] = [(0, 0), (1, 2), (2, 2)];

/// One cycle of a [`replay`], seen at the South output all three packets
/// request.
#[derive(Clone, Debug)]
pub struct Cycle {
    /// The NoX output engine's mode before the tick (`None` for a
    /// baseline).
    pub mode: Option<Mode>,
    /// The productive link word driven, if any.
    pub sent: Option<Word>,
    /// An invalid word was driven (`link_wasted` went up).
    pub collided: bool,
    /// A reservation idled (`wasted_reservations` went up).
    pub wasted_reservation: bool,
}

/// Scripts router 5 of a 4x4 mesh of `arch` with the paper's stimulus
/// for `cycles` cycles: single-flit packets from node 0 to node 13, A on
/// input 0 at cycle 0, B and C on inputs 1 and 2 at cycle 2. XY routing
/// sends all three out of the South port. Returns one record per cycle
/// and the router's counters after the last.
pub fn replay(arch: Arch, cycles: u64) -> (Vec<Cycle>, Counters) {
    let mut packets = PacketTable::new();
    let arrivals = ARRIVALS.map(|(port, cycle)| {
        let packet = packets.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(13),
            len: 1,
            created_cycle: cycle,
            measured: false,
        });
        (PortId(port), cycle, word_for(FlitKey { packet, seq: 0 }))
    });
    let mut router = Router::new(NodeId(5), arch, Topology::mesh(4, 4), 4);
    let (mut counters, mut sends, mut credits) = (Counters::new(), Vec::new(), Vec::new());
    let south = Port::South.id();
    let mut trace = Vec::new();
    for cycle in 0..cycles {
        for (port, _, word) in arrivals.iter().filter(|a| a.1 == cycle) {
            router.receive(*port, word.clone());
        }
        let (mode, before) = (router.output_mode(south), counters);
        router.tick(&mut TickCtx::new(
            &packets,
            &mut counters,
            &mut sends,
            &mut credits,
        ));
        assert!(
            sends.len() <= 1 && sends.iter().all(|s| s.out == south),
            "only the South output is requested"
        );
        trace.push(Cycle {
            mode,
            sent: sends.pop().map(|s| s.word),
            collided: counters.link_wasted > before.link_wasted,
            wasted_reservation: counters.wasted_reservations > before.wasted_reservations,
        });
    }
    (trace, counters)
}

/// The names of the packets a [`replay`] word superposes (packets 0, 1
/// and 2 are A, B and C), joined by `sep`.
pub fn names(word: &Word, sep: &str) -> String {
    let names: Vec<String> = word
        .keys()
        .iter()
        .map(|&k| char::from(b'A' + FlitKey::unpack(k).packet.0 as u8).to_string())
        .collect();
    names.join(sep)
}

/// Figure 3: receives the link words of a replay, in order, at one
/// [`DecodePort`] and steps it for `cycles` cycles. Each step is the word
/// latched into the decode register or presented to the switch, `None`
/// when the port idles.
pub fn decode(trace: &[Cycle], cycles: usize) -> Vec<Option<(DecodeStep, Word)>> {
    let link: Vec<&Word> = trace.iter().filter_map(|c| c.sent.as_ref()).collect();
    let mut port = DecodePort::new(link.len());
    link.into_iter().for_each(|w| port.receive(w.clone()));
    (0..cycles)
        .map(|_| match port.step() {
            DecodeStep::Idle => None,
            DecodeStep::Latch => {
                port.latch();
                let reg = port.register().expect("a latch fills the register");
                Some((DecodeStep::Latch, reg.clone()))
            }
            step @ DecodeStep::Present(action) => Some((step, port.take(action).0)),
        })
        .collect()
}

/// The productive link words of a trace as `NAMES@cycle` events (`BC@2`
/// for the encoded `B^C`).
fn sent(trace: &[Cycle]) -> String {
    let events: Vec<String> = trace
        .iter()
        .enumerate()
        .filter_map(|(c, r)| Some(format!("{}@{c}", names(r.sent.as_ref()?, ""))))
        .collect();
    events.join(" ")
}

/// [`sent`], then the cycles that drove an invalid word.
fn sent_and_collided(trace: &[Cycle]) -> String {
    let collided: Vec<usize> = (0..trace.len()).filter(|&c| trace[c].collided).collect();
    format!("{} collide@{collided:?}", sent(trace))
}

/// Replays all five golden traces through the router, seven cycles per
/// architecture. The tier is accepted for interface uniformity; the
/// traces are a few cycles long and always run in full.
pub fn run(_tier: Tier) -> TimingResult {
    let [nonspec, fast, accurate, nox] = Arch::ALL.map(|arch| replay(arch, 7).0);
    let fig3: Vec<String> = decode(&nox, 6)
        .iter()
        .map_while(|step| match step.as_ref()? {
            (DecodeStep::Latch, _) => Some("latch".to_string()),
            (_, word) => Some(names(word, "")),
        })
        .collect();
    let check = |key, label, expected: &str, actual| TraceCheck {
        key,
        label,
        expected: expected.to_string(),
        actual,
    };
    TimingResult {
        checks: vec![
            check(
                "fig2",
                "Figure 2  (NoX transmit):  A@0, (B^C)@2 encoded, C@3",
                "A@0 BC@2 C@3",
                sent(&nox),
            ),
            check(
                "fig3",
                "Figure 3  (NoX receive):   A, latch(B^C), B, C",
                "A latch B C",
                fig3.join(" "),
            ),
            check(
                "fig7a",
                "Figure 7a (sequential):    A@0, B@2, C@3",
                "A@0 B@2 C@3",
                sent(&nonspec),
            ),
            check(
                "fig7b",
                "Figure 7b (Spec-Fast):     A@0, XX@2, B@3, --@4, C@5",
                "A@0 B@3 C@5 collide@[2]",
                sent_and_collided(&fast),
            ),
            check(
                "fig7c",
                "Figure 7c (Spec-Accurate): A@0, XX@2, B@3, C@4",
                "A@0 B@3 C@4 collide@[2]",
                sent_and_collided(&accurate),
            ),
        ],
    }
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
        // The router's own accounting of the same cycles: (link_flits,
        // link_wasted, collisions, encoded_transfers, wasted_reservations).
        for (arch, want) in [
            (Arch::NonSpec, (3, 0, 0, 0, 0)),
            (Arch::SpecFast, (3, 1, 1, 0, 3)),
            (Arch::SpecAccurate, (3, 1, 1, 0, 0)),
            (Arch::Nox, (3, 0, 0, 1, 0)),
        ] {
            let c = replay(arch, 7).1;
            let got = (
                c.link_flits,
                c.link_wasted,
                c.collisions,
                c.encoded_transfers,
                c.wasted_reservations,
            );
            assert_eq!(got, want, "{arch} counters");
        }
    }
}

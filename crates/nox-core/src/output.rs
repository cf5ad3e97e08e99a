//! The NoX per-output arbitration and masking state machine (§2.6, §2.7).
//!
//! Each output port owns an arbiter and two request masks — a *switch
//! mask* gating which inputs may drive the XOR switch, and an *arbitration
//! mask* gating which inputs the arbiter sees. The controller operates in
//! one of two paper-defined modes plus a streaming lock:
//!
//! * **Recovery** — optimistic: switch and arbitration masks are identical,
//!   collisions may freely occur in the XOR switch, and the controller
//!   reacts. On a collision the colliding flits drive the link as one
//!   *encoded* word, the arbiter picks a winner (serviced immediately), and
//!   the masks are narrowed to the losers so they re-collide on following
//!   cycles, sequencing the output for the receiver's decoder.
//! * **Scheduled** — fully pre-scheduled: the switch mask enables exactly
//!   one input and the arbitration mask is its bitwise complement, letting
//!   the arbiter schedule the *next* cycle while the current flit
//!   traverses. Losing a grant cycle (no requests) falls back to Recovery.
//! * **Stream** — wormhole lock while a multi-flit packet crosses this
//!   output; arbitration is overridden until the tail passes (§2.7). The
//!   same lock serializes the survivors of an *abort* (a collision
//!   involving a multi-flit packet, which drives an invalid word and wastes
//!   the cycle — the only unproductive link transition NoX can make).
//!
//! # Divergence from the paper (documented in `DESIGN.md`)
//!
//! When a collision chain is outstanding (losers not yet retransmitted) the
//! controller refuses to widen the masks even if a stall leaves the arbiter
//! grant-less; otherwise an unrelated packet could slip between two words
//! of a chain and corrupt the downstream decode register. Because credit
//! qualification is per-output, chain members stall and resume in lockstep,
//! so this never costs throughput relative to the paper's description.

use crate::arbiter::RoundRobinArbiter;
use crate::port::{PortId, PortSet};

/// The controller mode during a given cycle (for traces and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Optimistic mode: collisions allowed, masks identical.
    Recovery,
    /// Pre-scheduled mode: one input switches while the rest arbitrate.
    Scheduled,
    /// Multi-flit wormhole lock: arbitration overridden until the tail.
    Stream,
}

/// Per-cycle switch requests presented to one output port.
///
/// All three sets are indexed by *input* port. `multiflit` and `tail`
/// qualify the flit each requesting input presents:
/// `multiflit` ∋ i ⇔ input i's flit belongs to a packet of more than one
/// flit; `tail` ∋ i ⇔ it is the packet's last flit. A single-flit packet is
/// in `tail` but not in `multiflit`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RequestSet {
    /// Inputs presenting a decodable, credit-qualified flit for this output.
    pub req: PortSet,
    /// Subset of `req` whose flit belongs to a multi-flit packet.
    pub multiflit: PortSet,
    /// Subset of `req` whose flit is its packet's tail.
    pub tail: PortSet,
}

impl RequestSet {
    /// Convenience constructor for all-single-flit traffic (every request
    /// is its own tail), the common case in the paper's synthetic studies.
    pub fn single_flit(req: PortSet) -> Self {
        RequestSet {
            req,
            multiflit: PortSet::EMPTY,
            tail: req,
        }
    }

    /// Validates the subset relations; every engine's `tick` calls it.
    pub(crate) fn check(&self) {
        assert!(
            self.multiflit.is_subset(self.req) && self.tail.is_subset(self.req),
            "multiflit/tail must be subsets of req: {self:?}"
        );
    }
}

/// What one output port does in one cycle, whichever engine decides it.
///
/// A cycle drives a productive word (`drive` non-empty: the word is the
/// XOR of those inputs' flits, `encoded` when there are several), drives
/// an invalid word (`wasted` non-empty: a NoX abort or a speculative
/// collision), or idles. The two never share a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Inputs whose flits form this cycle's productive link word.
    pub drive: PortSet,
    /// Inputs whose presented flit is consumed this cycle, a subset of
    /// `drive`. Under an encoded transfer this is exactly the arbitration
    /// winner; its buffer frees immediately even though the receiver
    /// decodes it later.
    pub serviced: PortSet,
    /// `true` when `drive` superposes more than one flit (the link word is
    /// marked encoded for the receiver).
    pub encoded: bool,
    /// Colliding inputs that drove an *invalid* word this cycle: full link
    /// energy, nothing delivered, no credit consumed.
    pub wasted: PortSet,
    /// `true` when the invalid word is a NoX abort (a collision involving
    /// a multi-flit packet, §2.7), `false` when it is a speculative
    /// collision (§3.1.2). Meaningful only with a non-empty `wasted`.
    pub aborted: bool,
    /// The grant the output arbiter produced this cycle, if any: the
    /// pre-scheduled or winning input for NoX, the next cycle's
    /// reservation for the speculative routers, the traversing winner for
    /// the sequential one.
    pub granted: Option<PortId>,
    /// The output held a reservation for an input that had nothing to
    /// send — an idle cycle caused by sloppy scheduling (Spec-Fast's
    /// signature inefficiency).
    pub wasted_reservation: bool,
}

impl Decision {
    /// The decision of a cycle in which nothing drives, nothing is
    /// serviced and nothing is granted — what a settled engine returns for
    /// an empty request set.
    pub const IDLE: Decision = Decision {
        drive: PortSet::EMPTY,
        serviced: PortSet::EMPTY,
        encoded: false,
        wasted: PortSet::EMPTY,
        aborted: false,
        granted: None,
        wasted_reservation: false,
    };
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum State {
    Recovery { chain: PortSet },
    Scheduled { input: PortId, chain: bool },
    Stream { input: PortId },
}

/// Ablation switches for architecture studies (see the `ablation` harness,
/// `noxsim run ablation`). The real NoX router enables everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NoxOptions {
    /// Enable *Scheduled* mode (§2.6). When disabled the controller stays
    /// in Recovery: collision losers still chain correctly, but nothing is
    /// ever pre-scheduled, so contention keeps resolving through fresh
    /// collisions — isolating how much of NoX's throughput comes from the
    /// scheduling half of the design versus the coding half.
    pub scheduled_mode: bool,
}

impl Default for NoxOptions {
    fn default() -> Self {
        NoxOptions {
            scheduled_mode: true,
        }
    }
}

/// The NoX output arbitration and masking controller for one output port.
///
/// Drive it with one [`RequestSet`] per cycle via [`tick`](Self::tick) and
/// apply the returned [`Decision`]: XOR the `drive` flits onto the link,
/// consume the `serviced` flits. See the [crate-level example](crate) for
/// the paper's Figure 2 replayed against this type.
///
/// `Eq`/`Hash` compare the full architectural state (mode, masks, chain,
/// arbiter priority) — `nox-verify` uses them to deduplicate states while
/// exhaustively exploring the protocol's reachable state space.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct OutputCtl {
    n: u8,
    state: State,
    arbiter: RoundRobinArbiter,
    options: NoxOptions,
}

impl OutputCtl {
    /// Creates a controller for an output fed by `n` input ports, starting
    /// in Recovery mode with all inputs enabled.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 32`.
    pub fn new(n: u8) -> Self {
        Self::with_options(n, NoxOptions::default())
    }

    /// Creates a controller with explicit [`NoxOptions`] (for ablations).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 32`.
    pub fn with_options(n: u8, options: NoxOptions) -> Self {
        OutputCtl {
            n,
            state: State::Recovery {
                chain: PortSet::EMPTY,
            },
            arbiter: RoundRobinArbiter::new(n),
            options,
        }
    }

    /// The ablation options in effect.
    pub fn options(&self) -> NoxOptions {
        self.options
    }

    /// The controller's current mode (the mode the *next* tick will run in).
    pub fn mode(&self) -> Mode {
        match self.state {
            State::Recovery { .. } => Mode::Recovery,
            State::Scheduled { .. } => Mode::Scheduled,
            State::Stream { .. } => Mode::Stream,
        }
    }

    /// The outstanding collision-chain members still owed to the receiver
    /// (empty when no chain is in flight). Exposed for tests and tracing.
    pub fn chain(&self) -> PortSet {
        match self.state {
            State::Recovery { chain } => chain,
            State::Scheduled {
                input, chain: true, ..
            } => PortSet::single(input),
            _ => PortSet::EMPTY,
        }
    }

    /// The switch mask in effect for the next cycle (which inputs may
    /// drive the XOR switch).
    pub fn switch_mask(&self) -> PortSet {
        match self.state {
            State::Recovery { chain } => {
                if chain.is_empty() {
                    PortSet::all(self.n)
                } else {
                    chain
                }
            }
            State::Scheduled { input, .. } | State::Stream { input } => PortSet::single(input),
        }
    }

    /// The arbitration mask in effect for the next cycle (which inputs the
    /// output arbiter considers).
    pub fn arb_mask(&self) -> PortSet {
        match self.state {
            State::Recovery { .. } => self.switch_mask(),
            State::Scheduled { input, .. } => PortSet::single(input).complement(self.n),
            State::Stream { .. } => PortSet::EMPTY,
        }
    }

    /// `true` when a tick with an empty request set is the identity: it
    /// returns [`Decision::IDLE`] and leaves the controller unchanged, so
    /// a caller with nothing to request may skip the tick. Every state is
    /// settled except a non-chain Scheduled slot, which needs one
    /// grant-less tick to fall back to Recovery (§2.6). Recovery holds its
    /// chain, a chain loser's Scheduled slot holds its lock, and Stream
    /// holds the wormhole across empty ticks.
    pub fn settled(&self) -> bool {
        !matches!(self.state, State::Scheduled { chain: false, .. })
    }

    /// Advances the controller by one cycle. The cycle runs in the
    /// [`mode`](Self::mode) the controller had before the call.
    ///
    /// # Panics
    ///
    /// Panics if `r.multiflit` or `r.tail` is not a subset of `r.req`.
    pub fn tick(&mut self, r: RequestSet) -> Decision {
        r.check();
        match self.state.clone() {
            State::Recovery { chain } => self.tick_recovery(r, chain),
            State::Scheduled { input, chain } => self.tick_scheduled(r, input, chain),
            State::Stream { input } => self.tick_stream(r, input),
        }
    }

    fn tick_recovery(&mut self, r: RequestSet, chain: PortSet) -> Decision {
        let sm = if chain.is_empty() {
            PortSet::all(self.n)
        } else {
            chain
        };
        let s = r.req.intersect(sm);

        if s.is_empty() {
            // No eligible requests: masks stay as they are. With an empty
            // chain they are already all-enabled (the paper's reset rule);
            // with a pending chain we hold it (divergence note above).
            return Decision::IDLE;
        }

        // Chain members stall and resume in lockstep (credit is per
        // output), so a partial chain re-collision cannot happen.
        debug_assert!(
            chain.is_empty() || s == chain,
            "collision chain must re-request in lockstep (chain {chain:?}, s {s:?})"
        );

        if let Some(i) = s.sole() {
            // Uncontested traversal. The parallel arbitration decision is
            // made but unnecessary (Figure 2, cycle 0).
            let granted = self.arbiter.grant(s);
            self.state = if r.multiflit.contains(i) && !r.tail.contains(i) {
                State::Stream { input: i }
            } else {
                State::Recovery {
                    chain: PortSet::EMPTY,
                }
            };
            return Decision {
                drive: s,
                serviced: s,
                granted,
                ..Decision::IDLE
            };
        }

        // Collision. In Recovery the arbitration mask equals the switch
        // mask, so the arbiter chooses among exactly the colliding inputs.
        let g = self
            .arbiter
            .grant(s)
            .expect("non-empty request set must yield a grant");

        if !s.intersect(r.multiflit).is_empty() {
            // Abort (§2.7): a multi-flit packet collided. The link word is
            // invalid; nobody is serviced; the winner streams exclusively
            // starting next cycle, with no other arbitration winners until
            // its tail passes.
            self.state = State::Stream { input: g };
            return Decision {
                wasted: s,
                aborted: true,
                granted: Some(g),
                ..Decision::IDLE
            };
        }

        // Productive encoded transfer: all colliding flits XOR onto the
        // link, the winner is serviced immediately, and the losers become
        // the only enabled inputs so the receiver can decode.
        let losers = s.without(g);
        self.state = match losers.sole() {
            Some(l) if self.options.scheduled_mode => State::Scheduled {
                input: l,
                chain: true,
            },
            _ => State::Recovery { chain: losers },
        };
        Decision {
            drive: s,
            serviced: PortSet::single(g),
            encoded: true,
            granted: Some(g),
            ..Decision::IDLE
        }
    }

    fn tick_scheduled(&mut self, r: RequestSet, x: PortId, chain: bool) -> Decision {
        let am = PortSet::single(x).complement(self.n);
        let a = r.req.intersect(am);
        let g = self.arbiter.grant(a);

        if r.req.contains(x) {
            let drive = PortSet::single(x);
            self.state = if r.multiflit.contains(x) && !r.tail.contains(x) {
                // A multi-flit head was pre-scheduled: arbitration is
                // overridden while it streams; any grant this cycle lapses
                // (the grantee keeps requesting and will be re-arbitrated).
                State::Stream { input: x }
            } else {
                match g {
                    Some(next) => State::Scheduled {
                        input: next,
                        chain: false,
                    },
                    None => State::Recovery {
                        chain: PortSet::EMPTY,
                    },
                }
            };
            return Decision {
                drive,
                serviced: drive,
                granted: g,
                ..Decision::IDLE
            };
        }

        // Scheduled input did not request.
        if chain {
            // It is a collision loser owed to the receiver's decoder; hold
            // the lock. Per-output credit means nobody else requested
            // either, so no real grant is being dropped.
            debug_assert!(g.is_none(), "chain stall implies an output-wide stall");
            return Decision::IDLE;
        }
        self.state = match g {
            Some(next) => State::Scheduled {
                input: next,
                chain: false,
            },
            None => State::Recovery {
                chain: PortSet::EMPTY,
            },
        };
        Decision {
            granted: g,
            ..Decision::IDLE
        }
    }

    fn tick_stream(&mut self, r: RequestSet, x: PortId) -> Decision {
        if !r.req.contains(x) {
            // Body flit not yet available (or output stalled): hold the lock.
            return Decision::IDLE;
        }
        let drive = PortSet::single(x);
        let mut granted = None;
        if r.tail.contains(x) {
            // "No other arbitration winners until the tail flit has
            // passed" (§2.7): on the tail cycle arbitration resumes, so a
            // waiting input is pre-scheduled and the stream hands off
            // without a collision — mirroring Scheduled-mode behaviour.
            if self.options.scheduled_mode {
                let a = r.req.intersect(PortSet::single(x).complement(self.n));
                granted = self.arbiter.grant(a);
            }
            self.state = match granted {
                Some(next) => State::Scheduled {
                    input: next,
                    chain: false,
                },
                None => State::Recovery {
                    chain: PortSet::EMPTY,
                },
            };
        }
        Decision {
            drive,
            serviced: drive,
            granted,
            ..Decision::IDLE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ports: &[u8]) -> PortSet {
        ports.iter().map(|&p| PortId(p)).collect()
    }

    fn sf(ports: &[u8]) -> RequestSet {
        RequestSet::single_flit(set(ports))
    }

    /// The paper's Figure 2 stimulus: A on port 0 at cycle 0; B (port 1)
    /// and C (port 2) colliding at cycle 2.
    #[test]
    fn figure2_transmission_timing() {
        let mut out = OutputCtl::new(3);

        // Cycle 0: A passes unmodified in Recovery; arbitration happens but
        // is unneeded.
        assert_eq!(out.mode(), Mode::Recovery);
        let d = out.tick(sf(&[0]));
        assert_eq!(d.drive, set(&[0]));
        assert!(!d.encoded && d.wasted.is_empty());
        assert_eq!(d.serviced, set(&[0]));

        // Cycle 1: idle.
        let d = out.tick(sf(&[]));
        assert!(d.drive.is_empty());

        // Cycle 2: B and C collide; output is B^C marked encoded; port 1
        // receives the grant and is serviced.
        let d = out.tick(sf(&[1, 2]));
        assert_eq!(d.drive, set(&[1, 2]));
        assert!(d.encoded);
        assert_eq!(d.serviced, set(&[1]));
        assert_eq!(d.granted, Some(PortId(1)));
        // One loser remains -> Scheduled mode with masks complementary.
        assert_eq!(out.mode(), Mode::Scheduled);
        assert_eq!(out.switch_mask(), set(&[2]));
        assert_eq!(out.arb_mask(), set(&[0, 1]));

        // Cycle 3: C is the only input allowed switch progression, and the
        // cycle runs in Scheduled mode.
        assert_eq!(out.mode(), Mode::Scheduled);
        let d = out.tick(sf(&[2]));
        assert_eq!(d.drive, set(&[2]));
        assert!(!d.encoded);
        assert_eq!(d.serviced, set(&[2]));

        // Cycle 4: no requests were presented to the arbiter on cycle 3, so
        // the logic transitions back to optimistic Recovery (paper §2.6).
        assert_eq!(out.mode(), Mode::Recovery);
        assert_eq!(out.switch_mask(), PortSet::all(3));
    }

    #[test]
    fn three_way_collision_sequences_all_inputs() {
        let mut out = OutputCtl::new(5);

        // Cycle 0: A, B, C collide -> encoded 3-way word, one winner.
        let d = out.tick(sf(&[0, 1, 2]));
        assert_eq!(d.drive, set(&[0, 1, 2]));
        assert!(d.encoded);
        assert_eq!(d.serviced, set(&[0]));
        // Two losers -> still Recovery, chain = losers.
        assert_eq!(out.mode(), Mode::Recovery);
        assert_eq!(out.chain(), set(&[1, 2]));
        assert_eq!(out.switch_mask(), set(&[1, 2]));

        // Cycle 1: losers re-collide -> encoded 2-way word.
        let d = out.tick(sf(&[1, 2]));
        assert_eq!(d.drive, set(&[1, 2]));
        assert!(d.encoded);
        assert_eq!(d.serviced, set(&[1]));
        assert_eq!(out.mode(), Mode::Scheduled);

        // Cycle 2: final loser goes out plain.
        let d = out.tick(sf(&[2]));
        assert_eq!(d.drive, set(&[2]));
        assert!(!d.encoded);
    }

    #[test]
    fn new_requests_masked_during_chain() {
        let mut out = OutputCtl::new(5);
        out.tick(sf(&[0, 1, 2]));
        // A new request on port 4 appears while the chain {1,2} is owed:
        // it must be inhibited from the switch (not in the chain masks).
        let d = out.tick(sf(&[1, 2, 4]));
        assert_eq!(d.drive, set(&[1, 2]));
        assert_eq!(d.serviced.len(), 1);
        assert!(!d.drive.contains(PortId(4)));
    }

    #[test]
    fn scheduled_mode_preschedules_next_input() {
        let mut out = OutputCtl::new(3);
        // Collide to enter Scheduled with loser = port 1.
        out.tick(sf(&[0, 1]));
        assert_eq!(out.mode(), Mode::Scheduled);
        // While the loser transmits, port 2 arbitrates and is prescheduled.
        let d = out.tick(sf(&[1, 2]));
        assert_eq!(d.drive, set(&[1]));
        assert_eq!(d.granted, Some(PortId(2)));
        assert_eq!(out.mode(), Mode::Scheduled);
        assert_eq!(out.switch_mask(), set(&[2]));
        // Port 2 now traverses non-speculatively, uncontested.
        let d = out.tick(sf(&[2]));
        assert_eq!(d.drive, set(&[2]));
        assert!(!d.encoded);
    }

    #[test]
    fn scheduled_without_grant_falls_back_to_recovery() {
        let mut out = OutputCtl::new(3);
        out.tick(sf(&[0, 1])); // -> Scheduled{1}
        out.tick(sf(&[1])); // loser drains, no arbitration requests
        assert_eq!(out.mode(), Mode::Recovery);
        assert_eq!(out.switch_mask(), PortSet::all(3));
    }

    #[test]
    fn scheduled_idle_without_request_or_grant() {
        let mut out = OutputCtl::new(3);
        out.tick(sf(&[0, 1])); // -> Scheduled{1}, chain
        out.tick(sf(&[1])); // chain completes -> Recovery
        out.tick(sf(&[0, 2])); // -> Scheduled{2 or 0}, chain
        let loser = out.switch_mask().sole().unwrap();
        // Output-wide stall: nobody requests. The chain must hold.
        let d = out.tick(sf(&[]));
        assert!(d.drive.is_empty());
        assert_eq!(out.mode(), Mode::Scheduled);
        assert_eq!(out.switch_mask(), PortSet::single(loser));
        // Stall clears; the loser completes the chain.
        let d = out.tick(RequestSet::single_flit(PortSet::single(loser)));
        assert_eq!(d.serviced, PortSet::single(loser));
    }

    #[test]
    fn chain_holds_across_recovery_stall() {
        let mut out = OutputCtl::new(5);
        out.tick(sf(&[0, 1, 2])); // chain {1,2}
        let d = out.tick(sf(&[])); // output-wide stall
        assert!(d.drive.is_empty());
        assert_eq!(out.chain(), set(&[1, 2]));
        // Chain resumes in lockstep.
        let d = out.tick(sf(&[1, 2]));
        assert!(d.encoded);
    }

    #[test]
    fn multiflit_head_uncontested_locks_stream() {
        let mut out = OutputCtl::new(3);
        let head = RequestSet {
            req: set(&[0]),
            multiflit: set(&[0]),
            tail: PortSet::EMPTY,
        };
        let d = out.tick(head);
        assert_eq!(d.serviced, set(&[0]));
        assert_eq!(out.mode(), Mode::Stream);
        assert_eq!(out.arb_mask(), PortSet::EMPTY);

        // A competing single-flit request is locked out while streaming.
        let body = RequestSet {
            req: set(&[0, 1]),
            multiflit: set(&[0]),
            tail: PortSet::EMPTY,
        };
        let d = out.tick(body);
        assert_eq!(d.drive, set(&[0]));
        assert!(!d.encoded);

        // Tail releases the lock and hands the output to the waiting
        // input without a collision.
        let tail = RequestSet {
            req: set(&[0, 1]),
            multiflit: set(&[0]),
            tail: set(&[0, 1]),
        };
        let d = out.tick(tail);
        assert_eq!(d.drive, set(&[0]));
        assert_eq!(d.granted, Some(PortId(1)), "tail cycle pre-schedules");
        assert_eq!(out.mode(), Mode::Scheduled);
        assert_eq!(out.switch_mask(), set(&[1]));
        // No contenders on the tail cycle -> straight back to Recovery.
        let mut quiet = OutputCtl::new(3);
        quiet.tick(RequestSet {
            req: set(&[0]),
            multiflit: set(&[0]),
            tail: PortSet::EMPTY,
        });
        quiet.tick(RequestSet {
            req: set(&[0]),
            multiflit: set(&[0]),
            tail: set(&[0]),
        });
        assert_eq!(quiet.mode(), Mode::Recovery);
    }

    #[test]
    fn multiflit_collision_aborts_and_serializes() {
        let mut out = OutputCtl::new(3);
        // A multi-flit head (port 0) collides with a single-flit (port 1).
        let r = RequestSet {
            req: set(&[0, 1]),
            multiflit: set(&[0]),
            tail: set(&[1]),
        };
        let d = out.tick(r);
        assert!(d.aborted);
        assert_eq!(d.wasted, set(&[0, 1]), "colliding inputs drove the switch");
        assert!(d.drive.is_empty() && d.serviced.is_empty());
        let winner = d.granted.unwrap();
        assert_eq!(out.mode(), Mode::Stream);
        assert_eq!(out.switch_mask(), PortSet::single(winner));
        // The winner retransmits exclusively on the next cycle.
        let d = out.tick(r);
        assert_eq!(d.drive, PortSet::single(winner));
        assert!(d.wasted.is_empty());
    }

    #[test]
    fn abort_winner_single_flit_releases_immediately() {
        let mut out = OutputCtl::new(3);
        let r = RequestSet {
            req: set(&[0, 1]),
            multiflit: set(&[1]),
            tail: set(&[0]),
        };
        let d = out.tick(r);
        assert!(d.aborted);
        let winner = d.granted.unwrap();
        if winner == PortId(0) {
            // Single-flit winner: streams for one cycle, then unlocks.
            let d = out.tick(sf(&[0]));
            assert_eq!(d.serviced, set(&[0]));
            assert_eq!(out.mode(), Mode::Recovery);
        }
    }

    #[test]
    fn stream_holds_through_body_stall() {
        let mut out = OutputCtl::new(3);
        let head = RequestSet {
            req: set(&[0]),
            multiflit: set(&[0]),
            tail: PortSet::EMPTY,
        };
        out.tick(head);
        // Body flit not yet arrived: lock must hold even with others waiting.
        let d = out.tick(sf(&[1]));
        assert!(d.drive.is_empty());
        assert_eq!(out.mode(), Mode::Stream);
    }

    #[test]
    fn encoded_service_is_exactly_one_input() {
        let mut out = OutputCtl::new(5);
        for reqs in [&[0u8, 1][..], &[0, 1, 2], &[0, 1, 2, 3, 4]] {
            let mut o = out.clone();
            let d = o.tick(sf(reqs));
            assert!(d.encoded);
            assert_eq!(d.serviced.len(), 1);
            assert_eq!(d.drive.len() as usize, reqs.len());
        }
        // Keep `out` used.
        out.tick(sf(&[]));
    }

    #[test]
    #[should_panic(expected = "subsets of req")]
    fn malformed_request_set_rejected() {
        let mut out = OutputCtl::new(3);
        out.tick(RequestSet {
            req: set(&[0]),
            multiflit: set(&[1]),
            tail: PortSet::EMPTY,
        });
    }
}

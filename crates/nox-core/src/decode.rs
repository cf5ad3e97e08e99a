//! The NoX input-port decode state machine (§2.4 of the paper, Figure 3).
//!
//! A NoX input port is an SRAM FIFO, a single *decode register*, and one
//! level of 2-input XOR gates. Flits arriving from an upstream NoX output
//! may be *encoded* (the XOR of several colliding packets); the decode
//! logic recreates the original packets by XORing consecutively received
//! words:
//!
//! * a **plain** head with an **empty** register passes straight through;
//! * an **encoded** head with an empty register cannot be forwarded — it is
//!   latched into the register, costing one cycle (Figure 3, cycle 2);
//! * any head with an **occupied** register presents `register ^ head` to
//!   the switch: one original packet, recovered (Figure 3, cycle 3). When
//!   the head was plain it is *not* consumed — it is itself the final
//!   packet of the chain and is presented by itself on a later cycle
//!   (Figure 3, cycle 4). When the head was encoded it shifts into the
//!   register, continuing a longer chain.
//!
//! The [`Decoder`] here is the planning/commit core of that logic; the FIFO
//! itself lives with the router model in `nox-sim`, so planning works from a
//! borrowed FIFO head and the router commits the resulting [`DecodeAction`]
//! only when the presented word actually wins the switch.
//!
//! Planning comes in two grains. [`Decoder::step`] decides what the port
//! does from the register and the head's encoded bit alone and copies no
//! word; [`Decoder::presented`] then yields the offered word where it sits
//! (the head itself, borrowed, when nothing needs decoding). A caller that
//! moves many words per cycle takes the two separately; [`Decoder::plan`]
//! bundles them into an owned [`DecodePlan`].

use std::borrow::Cow;

use crate::coded::{Coded, Xor};

/// How a presented word relates to the FIFO head and decode register, and
/// therefore what must happen when it is serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecodeAction {
    /// Plain head, empty register: the head itself was presented. On
    /// service, pop the head.
    Pass,
    /// Plain head, occupied register: `register ^ head` was presented. On
    /// service, clear the register but *keep* the head — it still carries
    /// the chain's final packet.
    DecodeKeep,
    /// Encoded head, occupied register: `register ^ head` was presented. On
    /// service, pop the head into the register (the chain continues).
    DecodeShift,
}

/// What an input port does this cycle, as decided by [`Decoder::step`]:
/// a [`DecodePlan`] without the presented word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecodeStep {
    /// FIFO empty: nothing to do.
    Idle,
    /// Encoded head, empty register: pop the head into the register now.
    /// Commit with [`Decoder::latch`].
    Latch,
    /// [`Decoder::presented`] is offered to the switch. If it wins, commit
    /// the action via [`Decoder::commit`].
    Present(DecodeAction),
}

/// What an input port does this cycle, as computed by [`Decoder::plan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodePlan<T> {
    /// FIFO empty: nothing to do.
    Idle,
    /// Encoded head, empty register: pop the head into the register *now*
    /// (this needs no grant and always proceeds); nothing reaches the
    /// switch this cycle. Commit with [`Decoder::latch`].
    Latch,
    /// A word is presented to the switch. If it wins, commit `action` via
    /// [`Decoder::commit`].
    Present {
        /// The word offered to the switch fabric (always plain when the
        /// upstream mask discipline is respected).
        word: Coded<T>,
        /// The commit action to apply if the word is serviced.
        action: DecodeAction,
    },
}

/// The NoX input-port decode register and its control logic.
///
/// # Example
///
/// Replaying the paper's Figure 3: the port receives `A`, then `B ^ C`,
/// then `C`, and must forward `A`, `B`, `C` in that order:
///
/// ```
/// use nox_core::{Coded, DecodeAction, DecodePlan, Decoder};
///
/// let a = Coded::plain(1, 0xAu64);
/// let bc = Coded::plain(2, 0xBu64).xor(&Coded::plain(3, 0xCu64));
/// let c = Coded::plain(3, 0xCu64);
///
/// let mut dec = Decoder::new();
/// // Cycle 0: A is plain and passes through immediately.
/// match dec.plan(Some(&a)) {
///     DecodePlan::Present { word, action } => {
///         assert_eq!(word.sole_key(), Some(1));
///         dec.commit(action, None); // serviced; head popped by the caller
///     }
///     _ => unreachable!(),
/// }
/// // Cycle 2: B^C is encoded — latch it, no switch request.
/// assert_eq!(dec.plan(Some(&bc)), DecodePlan::Latch);
/// dec.latch(bc);
/// // Cycle 3: C arrives behind it; register ^ C presents B.
/// match dec.plan(Some(&c)) {
///     DecodePlan::Present { word, action } => {
///         assert_eq!(word.sole_key(), Some(2)); // logically equivalent to B
///         assert_eq!(action, DecodeAction::DecodeKeep);
///         dec.commit(action, None);
///     }
///     _ => unreachable!(),
/// }
/// // Cycle 4: C itself is presented.
/// match dec.plan(Some(&c)) {
///     DecodePlan::Present { word, .. } => assert_eq!(word.sole_key(), Some(3)),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Decoder<T> {
    reg: Option<Coded<T>>,
}

impl<T: Xor> Decoder<T> {
    /// Creates a decoder with an empty register.
    pub fn new() -> Self {
        Decoder { reg: None }
    }

    /// The current decode-register contents, if any.
    pub fn register(&self) -> Option<&Coded<T>> {
        self.reg.as_ref()
    }

    /// `true` when the register holds a partially-decoded chain.
    pub fn is_mid_chain(&self) -> bool {
        self.reg.is_some()
    }

    /// Decides this cycle's step from the FIFO head, copying nothing.
    ///
    /// This is a pure function of `(register occupied, head encoded)`;
    /// calling it repeatedly on a stalled cycle (presented word not
    /// serviced) yields the same step, which models the input port simply
    /// re-requesting.
    pub fn step(&self, head: Option<&Coded<T>>) -> DecodeStep {
        let Some(head) = head else {
            return DecodeStep::Idle;
        };
        match (self.reg.is_some(), head.is_encoded()) {
            (false, true) => DecodeStep::Latch,
            (false, false) => DecodeStep::Present(DecodeAction::Pass),
            (true, false) => DecodeStep::Present(DecodeAction::DecodeKeep),
            (true, true) => DecodeStep::Present(DecodeAction::DecodeShift),
        }
    }

    /// The word offered to the switch when [`step`](Self::step) says
    /// [`Present`](DecodeStep::Present) for `head`: the head itself,
    /// borrowed, over an empty register, `register ^ head` otherwise.
    pub fn presented<'a>(&self, head: &'a Coded<T>) -> Cow<'a, Coded<T>> {
        match &self.reg {
            None => Cow::Borrowed(head),
            Some(reg) => Cow::Owned(reg.xor(head)),
        }
    }

    /// Computes this cycle's plan from the FIFO head: [`step`](Self::step)
    /// with an owned copy of the [`presented`](Self::presented) word.
    pub fn plan(&self, head: Option<&Coded<T>>) -> DecodePlan<T> {
        match self.step(head) {
            DecodeStep::Idle => DecodePlan::Idle,
            DecodeStep::Latch => DecodePlan::Latch,
            DecodeStep::Present(action) => DecodePlan::Present {
                word: self
                    .presented(head.expect("only a head is presented"))
                    .into_owned(),
                action,
            },
        }
    }

    /// Commits a [`DecodePlan::Latch`]: stores the encoded head that the
    /// caller has popped from the FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the register is already occupied or `word` is not encoded
    /// — either indicates the caller deviated from the planned action.
    pub fn latch(&mut self, word: Coded<T>) {
        assert!(self.reg.is_none(), "decode register already occupied");
        assert!(word.is_encoded(), "latched a word that needs no decoding");
        self.reg = Some(word);
    }

    /// Clears the register, abandoning any partially-decoded chain, and
    /// returns what it held.
    ///
    /// This is the containment action of the fault-tolerance layer
    /// ("chain kill"): when the FSM self-check detects a desynchronized
    /// chain — a presented word that is not one plain flit — the port
    /// truncates the poisoned chain and restarts from scratch rather than
    /// propagating garbage downstream.
    pub fn reset(&mut self) -> Option<Coded<T>> {
        self.reg.take()
    }

    /// Commits a serviced presentation.
    ///
    /// `popped` carries the FIFO head for [`DecodeAction::DecodeShift`]
    /// (the caller pops it and it becomes the new register) and must be
    /// `None` for the other actions.
    ///
    /// # Panics
    ///
    /// Panics if `popped` disagrees with what `action` requires.
    pub fn commit(&mut self, action: DecodeAction, popped: Option<Coded<T>>) {
        match action {
            DecodeAction::Pass => {
                assert!(popped.is_none(), "Pass pops outside the decoder");
            }
            DecodeAction::DecodeKeep => {
                assert!(popped.is_none(), "DecodeKeep must keep the head");
                assert!(self.reg.take().is_some(), "DecodeKeep with empty register");
            }
            DecodeAction::DecodeShift => {
                let head = popped.expect("DecodeShift needs the popped head");
                assert!(self.reg.is_some(), "DecodeShift with empty register");
                self.reg = Some(head);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type W = Coded<u64>;

    fn plain(k: u64, v: u64) -> W {
        Coded::plain(k, v)
    }

    /// Runs a full received stream through the decoder with an
    /// always-granting switch, returning the keys of presented words in
    /// order. Panics if a presented word is not plain.
    fn drain(stream: Vec<W>) -> Vec<u64> {
        let mut fifo: std::collections::VecDeque<W> = stream.into();
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        let mut guard = 0;
        while !fifo.is_empty() || dec.is_mid_chain() {
            guard += 1;
            assert!(guard < 1000, "decoder failed to drain");
            match dec.plan(fifo.front()) {
                DecodePlan::Idle => break,
                DecodePlan::Latch => {
                    let h = fifo.pop_front().unwrap();
                    dec.latch(h);
                }
                DecodePlan::Present { word, action } => {
                    assert!(word.is_plain(), "presented word not decodable: {word:?}");
                    out.push(word.sole_key().unwrap());
                    let popped = match action {
                        DecodeAction::Pass => {
                            fifo.pop_front();
                            None
                        }
                        DecodeAction::DecodeKeep => None,
                        DecodeAction::DecodeShift => Some(fifo.pop_front().unwrap()),
                    };
                    dec.commit(action, popped);
                }
            }
        }
        out
    }

    #[test]
    fn figure3_two_way_chain() {
        // Received: A, (B^C), C  ->  presented: A, B, C.
        let a = plain(1, 0xA);
        let b = plain(2, 0xB);
        let c = plain(3, 0xC);
        let stream = vec![a, b.xor(&c), c];
        assert_eq!(drain(stream), vec![1, 2, 3]);
    }

    #[test]
    fn three_way_chain() {
        // Received: (A^B^C), (B^C), C  ->  presented: A, B, C.
        let a = plain(1, 0xA);
        let b = plain(2, 0xB);
        let c = plain(3, 0xC);
        let abc: W = [a.clone(), b.clone(), c.clone()].into_iter().collect();
        let stream = vec![abc, b.xor(&c), c];
        assert_eq!(drain(stream), vec![1, 2, 3]);
    }

    #[test]
    fn four_way_chain() {
        let f: Vec<W> = (1..=4).map(|k| plain(k, k * 0x11)).collect();
        let w4: W = f.iter().cloned().collect();
        let w3: W = f[1..].iter().cloned().collect();
        let w2: W = f[2..].iter().cloned().collect();
        let stream = vec![w4, w3, w2, f[3].clone()];
        assert_eq!(drain(stream), vec![1, 2, 3, 4]);
    }

    #[test]
    fn back_to_back_chains() {
        // Two independent collisions on the same link must decode cleanly.
        let mk = |k| plain(k, k * 3);
        let stream = vec![mk(1).xor(&mk(2)), mk(2), mk(3).xor(&mk(4)), mk(4)];
        assert_eq!(drain(stream), vec![1, 2, 3, 4]);
    }

    #[test]
    fn plain_stream_passes_untouched() {
        let stream: Vec<W> = (1..=5).map(|k| plain(k, k)).collect();
        assert_eq!(drain(stream), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stalled_presentation_is_stable() {
        // plan() is pure: re-planning a stalled cycle presents the same word.
        let b = plain(2, 0xB);
        let c = plain(3, 0xC);
        let mut dec = Decoder::new();
        dec.latch(b.xor(&c));
        let p1 = dec.plan(Some(&c));
        let p2 = dec.plan(Some(&c));
        assert_eq!(p1, p2);
    }

    #[test]
    fn latch_consumes_a_cycle_without_presentation() {
        let enc = plain(1, 1).xor(&plain(2, 2));
        let dec: Decoder<u64> = Decoder::new();
        assert_eq!(dec.plan(Some(&enc)), DecodePlan::Latch);
    }

    #[test]
    fn idle_on_empty_fifo() {
        let dec: Decoder<u64> = Decoder::new();
        assert_eq!(dec.plan(None), DecodePlan::Idle);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_latch_rejected() {
        let mut dec = Decoder::new();
        dec.latch(plain(1, 1).xor(&plain(2, 2)));
        dec.latch(plain(3, 3).xor(&plain(4, 4)));
    }

    #[test]
    #[should_panic(expected = "needs no decoding")]
    fn latching_plain_word_rejected() {
        let mut dec = Decoder::new();
        dec.latch(plain(1, 1));
    }

    #[test]
    #[should_panic(expected = "DecodeShift needs the popped head")]
    fn shift_without_head_rejected() {
        let mut dec = Decoder::new();
        dec.latch(plain(1, 1).xor(&plain(2, 2)));
        dec.commit(DecodeAction::DecodeShift, None);
    }

    #[test]
    fn reset_abandons_a_chain() {
        let mut dec = Decoder::new();
        let enc = plain(1, 1).xor(&plain(2, 2));
        dec.latch(enc.clone());
        assert!(dec.is_mid_chain());
        assert_eq!(dec.reset(), Some(enc));
        assert!(!dec.is_mid_chain());
        assert_eq!(dec.reset(), None);
        // The decoder is fully reusable afterwards.
        assert_eq!(
            dec.plan(Some(&plain(3, 3))),
            DecodePlan::Present {
                word: plain(3, 3),
                action: DecodeAction::Pass,
            }
        );
    }

    #[test]
    fn payload_bits_verified_through_decode() {
        // The XOR algebra must reproduce exact payload bits, not just keys.
        let b = plain(2, 0xDEAD);
        let c = plain(3, 0xBEEF);
        let dec_word = b.xor(&c).xor(&c);
        assert_eq!(*dec_word.payload(), 0xDEAD);
    }
}

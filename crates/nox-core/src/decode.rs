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
//! [`DecodePort`] is that input port: the FIFO and the decode register
//! with its control logic. Each cycle the port decides a
//! [`DecodeStep`] from the register and its head's encoded bit alone,
//! copying no word, and [`DecodePort::presented`] yields the offered word
//! where it sits (the head itself, borrowed, when nothing needs decoding).
//! Its owner commits the step: a latch at once, a presentation only when
//! the word wins the switch, through [`DecodePort::take`]. The simulator's
//! router inputs and ejection sinks, the figure replays and the protocol
//! model checker all decode through a `DecodePort`.

use std::borrow::Cow;
use std::collections::VecDeque;

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

/// What an input port does this cycle, as decided by [`DecodePort::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecodeStep {
    /// FIFO empty: nothing to do.
    Idle,
    /// Encoded head, empty register: pop the head into the register now
    /// (this needs no grant and always proceeds); nothing reaches the
    /// switch this cycle. Commit with [`DecodePort::latch`].
    Latch,
    /// The presented word is offered to the switch. If it wins, commit the
    /// action with [`DecodePort::take`].
    Present(DecodeAction),
}

/// The NoX input-port decode register and its control logic, committed
/// only through the [`DecodePort`] that owns it.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct Decoder<T> {
    reg: Option<Coded<T>>,
}

impl<T: Xor> Decoder<T> {
    /// Creates a decoder with an empty register.
    pub(crate) fn new() -> Self {
        Decoder { reg: None }
    }

    /// The current decode-register contents, if any.
    pub(crate) fn register(&self) -> Option<&Coded<T>> {
        self.reg.as_ref()
    }

    /// `true` when the register holds a partially-decoded chain.
    pub(crate) fn is_mid_chain(&self) -> bool {
        self.reg.is_some()
    }

    /// Decides this cycle's step from the FIFO head, copying nothing (see
    /// [`DecodePort::step`]).
    pub(crate) fn step(&self, head: Option<&Coded<T>>) -> DecodeStep {
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
    pub(crate) fn presented<'a>(&self, head: &'a Coded<T>) -> Cow<'a, Coded<T>> {
        match &self.reg {
            None => Cow::Borrowed(head),
            Some(reg) => Cow::Owned(reg.xor(head)),
        }
    }

    /// Commits a [`DecodeStep::Latch`]: stores the encoded head that the
    /// caller has popped from the FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the register is already occupied or `word` is not encoded
    /// — either indicates the caller deviated from the decided step.
    pub(crate) fn latch(&mut self, word: Coded<T>) {
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
    pub(crate) fn reset(&mut self) -> Option<Coded<T>> {
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
    pub(crate) fn commit(&mut self, action: DecodeAction, popped: Option<Coded<T>>) {
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

/// A NoX input port: a FIFO of at most `capacity` received words and the
/// decode register that unwinds the encoded ones, committed together so
/// that no caller pops the FIFO by hand.
///
/// `Eq` and `Hash` cover the whole port, FIFO and register, so a model
/// checker can deduplicate states that hold one.
///
/// # Example
///
/// Figure 3 again, through the port: `A`, `B ^ C` and `C` arrive and
/// `A`, `B`, `C` leave.
///
/// ```
/// use nox_core::{Coded, DecodeAction, DecodePort, DecodeStep};
///
/// let c = Coded::plain(3, 0xCu64);
/// let mut port = DecodePort::new(4);
/// port.receive(Coded::plain(1, 0xAu64));
/// port.receive(Coded::plain(2, 0xBu64).xor(&c));
/// port.receive(c);
/// // A passes: the word is the popped head, and its slot frees.
/// assert_eq!(port.step(), DecodeStep::Present(DecodeAction::Pass));
/// let (a, freed) = port.take(DecodeAction::Pass);
/// assert_eq!((a.sole_key(), freed), (Some(1), true));
/// // B^C latches into the register.
/// assert_eq!(port.step(), DecodeStep::Latch);
/// port.latch();
/// // register ^ C is B; C stays, so no slot frees.
/// assert_eq!(port.presented().sole_key(), Some(2));
/// let (b, freed) = port.take(DecodeAction::DecodeKeep);
/// assert_eq!((b.sole_key(), freed), (Some(2), false));
/// // C itself.
/// assert_eq!(port.take(DecodeAction::Pass).0.sole_key(), Some(3));
/// assert!(port.is_idle());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DecodePort<T> {
    fifo: VecDeque<Coded<T>>,
    capacity: usize,
    decoder: Decoder<T>,
}

impl<T: Xor> DecodePort<T> {
    /// Creates an empty port whose FIFO holds `capacity` words.
    pub fn new(capacity: usize) -> Self {
        DecodePort {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            decoder: Decoder::new(),
        }
    }

    /// Accepts an arriving word at the tail of the FIFO.
    ///
    /// # Panics
    ///
    /// Panics on overflow — the upstream credit discipline must make that
    /// impossible.
    #[inline]
    pub fn receive(&mut self, word: Coded<T>) {
        assert!(
            self.has_space(),
            "buffer overflow: credit protocol violated"
        );
        self.fifo.push_back(word);
    }

    /// `true` when the FIFO has room for another word.
    pub fn has_space(&self) -> bool {
        self.fifo.len() < self.capacity
    }

    /// Words in the FIFO.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// `true` when the FIFO holds no word (the register may still hold a
    /// chain waiting for its next one).
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// `true` when the port holds no words and no partial decode.
    pub fn is_idle(&self) -> bool {
        self.fifo.is_empty() && !self.decoder.is_mid_chain()
    }

    /// The buffered words, head first.
    pub fn words(&self) -> impl Iterator<Item = &Coded<T>> {
        self.fifo.iter()
    }

    /// The decode-register contents, if a chain is in progress.
    pub fn register(&self) -> Option<&Coded<T>> {
        self.decoder.register()
    }

    /// Decides this cycle's step from the register and the FIFO head.
    ///
    /// This is a pure function of `(register occupied, head encoded)`;
    /// calling it repeatedly on a stalled cycle (presented word not
    /// serviced) yields the same step, which models the input port simply
    /// re-requesting.
    #[inline]
    pub fn step(&self) -> DecodeStep {
        self.decoder.step(self.fifo.front())
    }

    /// The word this port offers the switch: its FIFO head as seen through
    /// the decode register, borrowed when nothing needs decoding.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty.
    #[inline]
    pub fn presented(&self) -> Cow<'_, Coded<T>> {
        let head = self.fifo.front().expect("an empty port presents nothing");
        self.decoder.presented(head)
    }

    /// Commits a [`DecodeStep::Latch`]: pops the encoded head into the
    /// register. Its slot frees.
    #[inline]
    pub fn latch(&mut self) {
        let head = self.fifo.pop_front().expect("latch on an empty port");
        self.decoder.latch(head);
    }

    /// Commits a serviced [`DecodeStep::Present`] and returns the word that
    /// was presented, with `true` when a FIFO slot freed (every action but
    /// [`DecodeAction::DecodeKeep`]). For [`DecodeAction::Pass`] the word is
    /// the popped head itself, moved, not copied.
    #[inline]
    pub fn take(&mut self, action: DecodeAction) -> (Coded<T>, bool) {
        debug_assert_eq!(self.step(), DecodeStep::Present(action));
        match action {
            DecodeAction::Pass => (self.pop(), true),
            DecodeAction::DecodeKeep => {
                let word = self.presented().into_owned();
                self.decoder.commit(action, None);
                (word, false)
            }
            DecodeAction::DecodeShift => {
                let word = self.presented().into_owned();
                let head = self.pop();
                self.decoder.commit(action, Some(head));
                (word, true)
            }
        }
    }

    /// Chain-kill containment: abandons a poisoned decode chain. The
    /// register is reset and, if the head is encoded (part of the same
    /// broken chain), it is popped too. Returns the number of constituent
    /// flit keys discarded and whether a FIFO slot freed.
    pub fn chain_kill(&mut self) -> (usize, bool) {
        let mut lost = self.decoder.reset().map_or(0, |reg| reg.arity());
        let popped = self.fifo.front().is_some_and(Coded::is_encoded);
        if popped {
            lost += self.pop().arity();
        }
        (lost, popped)
    }

    fn pop(&mut self) -> Coded<T> {
        self.fifo.pop_front().expect("pop from an empty port")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type W = Coded<u64>;

    fn plain(k: u64, v: u64) -> W {
        Coded::plain(k, v)
    }

    /// Runs a full received stream through a port with an always-granting
    /// switch, returning the keys of presented words in order. Panics if a
    /// presented word is not plain.
    fn drain(stream: Vec<W>) -> Vec<u64> {
        let mut port = DecodePort::new(stream.len());
        stream.into_iter().for_each(|w| port.receive(w));
        let mut out = Vec::new();
        let mut guard = 0;
        while !port.is_idle() {
            guard += 1;
            assert!(guard < 1000, "decoder failed to drain");
            match port.step() {
                DecodeStep::Idle => break,
                DecodeStep::Latch => port.latch(),
                DecodeStep::Present(action) => {
                    let (word, _) = port.take(action);
                    assert!(word.is_plain(), "presented word not decodable: {word:?}");
                    out.push(word.sole_key().unwrap());
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
        // step() and presented() are pure: a stalled cycle re-presents the
        // same word.
        let b = plain(2, 0xB);
        let c = plain(3, 0xC);
        let mut dec = Decoder::new();
        dec.latch(b.xor(&c));
        assert_eq!(dec.step(Some(&c)), dec.step(Some(&c)));
        assert_eq!(dec.presented(&c), dec.presented(&c));
    }

    #[test]
    fn latch_consumes_a_cycle_without_presentation() {
        let enc = plain(1, 1).xor(&plain(2, 2));
        let dec: Decoder<u64> = Decoder::new();
        assert_eq!(dec.step(Some(&enc)), DecodeStep::Latch);
    }

    #[test]
    fn idle_on_empty_fifo() {
        let dec: Decoder<u64> = Decoder::new();
        assert_eq!(dec.step(None), DecodeStep::Idle);
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
        let head = plain(3, 3);
        assert_eq!(
            dec.step(Some(&head)),
            DecodeStep::Present(DecodeAction::Pass)
        );
        assert_eq!(*dec.presented(&head), head);
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

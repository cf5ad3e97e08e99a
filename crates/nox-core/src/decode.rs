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
    /// The decode register: a partially-decoded chain, if any.
    reg: Option<Coded<T>>,
}

impl<T: Xor> DecodePort<T> {
    /// Creates an empty port whose FIFO holds `capacity` words.
    pub fn new(capacity: usize) -> Self {
        DecodePort {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            reg: None,
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
        self.fifo.is_empty() && self.reg.is_none()
    }

    /// The buffered words, head first.
    pub fn words(&self) -> impl Iterator<Item = &Coded<T>> {
        self.fifo.iter()
    }

    /// The decode-register contents, if a chain is in progress.
    pub fn register(&self) -> Option<&Coded<T>> {
        self.reg.as_ref()
    }

    /// Decides this cycle's step from the register and the FIFO head.
    ///
    /// This is a pure function of `(register occupied, head encoded)`;
    /// calling it repeatedly on a stalled cycle (presented word not
    /// serviced) yields the same step, which models the input port simply
    /// re-requesting.
    #[inline]
    pub fn step(&self) -> DecodeStep {
        let Some(head) = self.fifo.front() else {
            return DecodeStep::Idle;
        };
        match (self.reg.is_some(), head.is_encoded()) {
            (false, true) => DecodeStep::Latch,
            (false, false) => DecodeStep::Present(DecodeAction::Pass),
            (true, false) => DecodeStep::Present(DecodeAction::DecodeKeep),
            (true, true) => DecodeStep::Present(DecodeAction::DecodeShift),
        }
    }

    /// The word this port offers the switch: its FIFO head as seen through
    /// the decode register — the head itself, borrowed, over an empty
    /// register, `register ^ head` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty.
    #[inline]
    pub fn presented(&self) -> Cow<'_, Coded<T>> {
        let head = self.fifo.front().expect("an empty port presents nothing");
        match &self.reg {
            None => Cow::Borrowed(head),
            Some(reg) => Cow::Owned(reg.xor(head)),
        }
    }

    /// Commits a [`DecodeStep::Latch`]: pops the encoded head into the
    /// register. Its slot frees.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty, the register is already occupied or
    /// the head is not encoded — each means the caller deviated from the
    /// decided step.
    #[inline]
    pub fn latch(&mut self) {
        let head = self.fifo.pop_front().expect("latch on an empty port");
        assert!(self.reg.is_none(), "decode register already occupied");
        assert!(head.is_encoded(), "latched a word that needs no decoding");
        self.reg = Some(head);
    }

    /// Commits a serviced [`DecodeStep::Present`] and returns the word that
    /// was presented, with `true` when a FIFO slot freed (every action but
    /// [`DecodeAction::DecodeKeep`]). For [`DecodeAction::Pass`] the word is
    /// the popped head itself, moved, not copied.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not what [`step`](Self::step) decides (in
    /// release builds only where a decode action finds the register
    /// empty).
    #[inline]
    pub fn take(&mut self, action: DecodeAction) -> (Coded<T>, bool) {
        debug_assert_eq!(
            self.step(),
            DecodeStep::Present(action),
            "take disagrees with step"
        );
        match action {
            DecodeAction::Pass => (self.pop(), true),
            DecodeAction::DecodeKeep => {
                let word = self.presented().into_owned();
                assert!(self.reg.take().is_some(), "DecodeKeep with empty register");
                (word, false)
            }
            DecodeAction::DecodeShift => {
                let word = self.presented().into_owned();
                let head = self.pop();
                assert!(self.reg.is_some(), "DecodeShift with empty register");
                self.reg = Some(head);
                (word, true)
            }
        }
    }

    /// Chain-kill containment: abandons a poisoned decode chain. The
    /// register is reset and, if the head is encoded (part of the same
    /// broken chain), it is popped too. Returns the number of constituent
    /// flit keys discarded and whether a FIFO slot freed.
    pub fn chain_kill(&mut self) -> (usize, bool) {
        let mut lost = self.reg.take().map_or(0, |reg| reg.arity());
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

    /// A port holding `words`, enough room for two more.
    fn port_of(words: Vec<W>) -> DecodePort<u64> {
        let mut port = DecodePort::new(words.len() + 2);
        words.into_iter().for_each(|w| port.receive(w));
        port
    }

    #[test]
    fn stalled_presentation_is_stable() {
        // step() and presented() are pure: a stalled cycle re-presents the
        // same word.
        let b = plain(2, 0xB);
        let c = plain(3, 0xC);
        let mut port = port_of(vec![b.xor(&c), c]);
        port.latch();
        assert_eq!(port.step(), DecodeStep::Present(DecodeAction::DecodeKeep));
        assert_eq!(port.step(), port.step());
        assert_eq!(port.presented(), port.presented());
        assert_eq!(port.presented().sole_key(), Some(2));
    }

    #[test]
    fn latch_consumes_a_cycle_without_presentation() {
        let port = port_of(vec![plain(1, 1).xor(&plain(2, 2))]);
        assert_eq!(port.step(), DecodeStep::Latch);
    }

    #[test]
    fn idle_on_empty_fifo() {
        assert_eq!(DecodePort::<u64>::new(1).step(), DecodeStep::Idle);
        let mut port = port_of(vec![plain(1, 1).xor(&plain(2, 2))]);
        port.latch();
        // A register mid-chain over an empty FIFO is not clocked.
        assert_eq!(port.step(), DecodeStep::Idle);
        assert!(!port.is_idle());
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_latch_rejected() {
        let mut port = port_of(vec![
            plain(1, 1).xor(&plain(2, 2)),
            plain(3, 3).xor(&plain(4, 4)),
        ]);
        port.latch();
        port.latch();
    }

    #[test]
    #[should_panic(expected = "needs no decoding")]
    fn latching_plain_word_rejected() {
        port_of(vec![plain(1, 1)]).latch();
    }

    #[test]
    #[should_panic(expected = "take disagrees with step")]
    fn shift_without_head_rejected() {
        let mut port = port_of(vec![plain(1, 1).xor(&plain(2, 2))]);
        port.latch();
        port.take(DecodeAction::DecodeShift);
    }

    #[test]
    fn reset_abandons_a_chain() {
        let enc = plain(1, 1).xor(&plain(2, 2));
        let mut port = port_of(vec![enc.clone()]);
        port.latch();
        assert_eq!(port.register(), Some(&enc));
        assert_eq!(port.chain_kill(), (2, false));
        assert!(port.is_idle());
        assert_eq!(port.chain_kill(), (0, false));
        // The port is fully reusable afterwards.
        let head = plain(3, 3);
        port.receive(head.clone());
        assert_eq!(port.step(), DecodeStep::Present(DecodeAction::Pass));
        assert_eq!(*port.presented(), head);
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

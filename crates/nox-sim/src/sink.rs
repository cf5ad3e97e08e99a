//! Packet ejection sinks.
//!
//! The network interface at each node ejects at most one flit per cycle —
//! matching the 64-bit link bandwidth. Under the NoX architecture the
//! ejection port can receive *encoded* words (collisions happen on local
//! output ports like any other), so the sink embeds the same decode
//! register and XOR logic as a router input port (§2.4).
//!
//! Every consumed flit is integrity-checked: the payload recovered through
//! however many XOR encodes and decodes it took must equal the flit's
//! original deterministic payload bits (under a fault campaign, a
//! mismatch is classified and counted instead).

use std::collections::VecDeque;

use nox_core::{DecodeAction, DecodeStep, Decoder};

use crate::fault::{DeliveryClass, FaultState};
use crate::flit::{FlitInfo, FlitKey, PacketTable, Word};
use crate::stats::Counters;
use crate::topology::NodeId;

/// What a sink did in one drain cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkOutcome {
    /// A buffer slot freed this cycle (a credit for the local output).
    pub credit_freed: bool,
    /// The flit consumed this cycle, if any.
    pub consumed: Option<FlitInfo>,
    /// Fault-campaign event label for the probe trace, if a fault was
    /// detected or a corruption slipped through at this sink.
    pub fault_event: Option<&'static str>,
}

/// The ejection interface of one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sink {
    node: NodeId,
    fifo: VecDeque<Word>,
    capacity: usize,
    decoder: Decoder<u64>,
}

impl Sink {
    /// Creates a sink with the given ejection buffer depth.
    pub fn new(node: NodeId, capacity: usize) -> Self {
        Sink {
            node,
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            decoder: Decoder::new(),
        }
    }

    /// Accepts an arriving word from the local output channel.
    ///
    /// # Panics
    ///
    /// Panics on overflow — the credit protocol must prevent it.
    pub fn receive(&mut self, word: Word) {
        assert!(
            self.fifo.len() < self.capacity,
            "ejection buffer overflow: credit protocol violated"
        );
        self.fifo.push_back(word);
    }

    /// `true` when no words are buffered and no decode is in progress.
    pub fn is_idle(&self) -> bool {
        self.fifo.is_empty() && !self.decoder.is_mid_chain()
    }

    /// `true` when the ejection buffer can accept another word.
    pub(crate) fn has_space(&self) -> bool {
        self.fifo.len() < self.capacity
    }

    /// Current ejection buffer occupancy in words.
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// Words currently buffered, head first (sanitizer support).
    pub(crate) fn buffered_words(&self) -> impl Iterator<Item = &Word> {
        self.fifo.iter()
    }

    /// The decode register contents, if a chain is in progress
    /// (sanitizer support).
    pub(crate) fn decode_register(&self) -> Option<&Word> {
        self.decoder.register()
    }

    /// Drains at most one presented flit (or performs one decode latch).
    ///
    /// With a fault campaign attached (`faults`), corruption is not a
    /// bug but an outcome to count: a desynchronized decode chain is
    /// truncated (chain kill), a CRC-detected corrupt payload is
    /// discarded at the NIC, and an undetected one is delivered and
    /// counted as a silent corruption. The wrong-node check stays an
    /// assertion either way: headers (keys) are modeled as protected, so
    /// misrouting still indicates a router bug.
    ///
    /// # Panics
    ///
    /// Panics if a consumed flit was delivered to the wrong node, and,
    /// without a campaign, if the presented word is undecodable or fails
    /// the payload integrity check — each indicates a router bug.
    pub fn drain(
        &mut self,
        packets: &PacketTable,
        counters: &mut Counters,
        faults: Option<&mut FaultState>,
    ) -> SinkOutcome {
        let action = match self.decoder.step(self.fifo.front()) {
            DecodeStep::Idle => return SinkOutcome::default(),
            DecodeStep::Latch => return self.latch(counters),
            DecodeStep::Present(action) => action,
        };
        let (raw_key, actual) = self.presented();
        // The fault-free arm is on its own: folding it into the branches
        // below costs the saturated mesh about a fifth of its sink phase.
        let Some(faults) = faults else {
            let key = FlitKey::unpack(raw_key.expect("undecodable word at sink"));
            assert_eq!(
                actual,
                key.payload(),
                "payload corrupted through XOR encode/decode"
            );
            let info = packets.flit_info(key);
            assert_eq!(info.dest, self.node, "flit ejected at wrong node");
            counters.buffer_reads += 1;
            counters.flits_ejected += 1;
            let credit_freed = self.commit_action(action, counters);
            return SinkOutcome {
                credit_freed,
                consumed: Some(info),
                fault_event: None,
            };
        };
        let Some(raw_key) = raw_key else {
            // FSM desync at the ejection port: contain the chain.
            let (lost, popped) = self.chain_kill();
            faults.note_chain_kill(lost);
            if popped {
                counters.buffer_reads += 1;
            }
            return SinkOutcome {
                credit_freed: popped,
                fault_event: Some("detect desync"),
                ..Default::default()
            };
        };
        let key = FlitKey::unpack(raw_key);
        let info = packets.flit_info(key);
        assert_eq!(info.dest, self.node, "flit ejected at wrong node");
        counters.buffer_reads += 1;
        let credit_freed = self.commit_action(action, counters);
        let (consumed, fault_event) = match faults.classify_delivery(key, actual) {
            DeliveryClass::Clean => (Some(info), None),
            // The CRC sideband caught the corruption: the flit is
            // discarded at the NIC, not delivered.
            DeliveryClass::DetectedCrc => (None, Some("detect crc")),
            DeliveryClass::Silent => (Some(info), Some("silent corruption")),
        };
        if consumed.is_some() {
            counters.flits_ejected += 1;
        }
        SinkOutcome {
            credit_freed,
            consumed,
            fault_event,
        }
    }

    /// The sole key (if it has exactly one) and the payload of the word
    /// the ejection port presents: its FIFO head as seen through the
    /// decode register, read where it sits.
    fn presented(&self) -> (Option<u64>, u64) {
        let head = self.fifo.front().expect("an empty sink presents nothing");
        let word = self.decoder.presented(head);
        (word.sole_key(), *word.payload())
    }

    /// Pops the encoded head into the decode register: the slot frees,
    /// nothing is consumed this cycle.
    fn latch(&mut self, counters: &mut Counters) -> SinkOutcome {
        let w = self.fifo.pop_front().expect("latch without head");
        self.decoder.latch(w);
        counters.buffer_reads += 1;
        counters.decode_reg_writes += 1;
        SinkOutcome {
            credit_freed: true,
            ..Default::default()
        }
    }

    /// Commits one decode action on the FIFO, returning whether a slot
    /// freed (mirrors the tail of [`Sink::drain`]).
    fn commit_action(&mut self, action: DecodeAction, counters: &mut Counters) -> bool {
        match action {
            DecodeAction::Pass => {
                self.fifo.pop_front();
                self.decoder.commit(DecodeAction::Pass, None);
                true
            }
            DecodeAction::DecodeKeep => {
                self.decoder.commit(DecodeAction::DecodeKeep, None);
                counters.decode_xors += 1;
                false
            }
            DecodeAction::DecodeShift => {
                let head = self.fifo.pop_front().expect("shift without head");
                self.decoder.commit(DecodeAction::DecodeShift, Some(head));
                counters.decode_xors += 1;
                counters.decode_reg_writes += 1;
                true
            }
        }
    }

    /// Watchdog deadlock recovery: truncates an in-progress decode chain
    /// whose remaining words will never arrive. Returns the number of
    /// constituent keys discarded and whether a FIFO slot freed.
    pub(crate) fn watchdog_flush(&mut self) -> (usize, bool) {
        if self.decoder.is_mid_chain() {
            self.chain_kill()
        } else {
            (0, false)
        }
    }

    /// Truncates a poisoned decode chain at this sink. Returns the number
    /// of constituent keys discarded and whether a FIFO slot freed.
    fn chain_kill(&mut self) -> (usize, bool) {
        let mut lost = 0;
        if let Some(reg) = self.decoder.reset() {
            lost += reg.arity();
        }
        let mut popped = false;
        if self.fifo.front().is_some_and(Word::is_encoded) {
            let head = self.fifo.pop_front().expect("front was Some");
            lost += head.arity();
            popped = true;
        }
        (lost, popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{word_for, PacketMeta};

    fn packet(t: &mut PacketTable, dest: u16, len: u16) -> crate::flit::PacketId {
        t.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(dest),
            len,
            created_cycle: 0,
            measured: false,
        })
    }

    #[test]
    fn drains_plain_flits_one_per_cycle() {
        let mut t = PacketTable::new();
        let mut c = Counters::new();
        let mut sink = Sink::new(NodeId(3), 4);
        for _ in 0..3 {
            let id = packet(&mut t, 3, 1);
            sink.receive(word_for(FlitKey { packet: id, seq: 0 }));
        }
        let mut consumed = 0;
        for _ in 0..3 {
            if sink.drain(&t, &mut c, None).consumed.is_some() {
                consumed += 1;
            }
        }
        assert_eq!(consumed, 3);
        assert!(sink.is_idle());
        assert_eq!(c.flits_ejected, 3);
    }

    #[test]
    fn decodes_encoded_chain_at_ejection() {
        let mut t = PacketTable::new();
        let mut c = Counters::new();
        let mut sink = Sink::new(NodeId(3), 4);
        let a = packet(&mut t, 3, 1);
        let b = packet(&mut t, 3, 1);
        let wa = word_for(FlitKey { packet: a, seq: 0 });
        let wb = word_for(FlitKey { packet: b, seq: 0 });
        sink.receive(wa.xor(&wb));
        sink.receive(wb);

        // Cycle 1: latch, credit freed, nothing consumed.
        let o = sink.drain(&t, &mut c, None);
        assert!(o.credit_freed && o.consumed.is_none());
        // Cycle 2: A recovered.
        let o = sink.drain(&t, &mut c, None);
        assert_eq!(o.consumed.unwrap().packet, a);
        assert!(!o.credit_freed);
        // Cycle 3: B consumed.
        let o = sink.drain(&t, &mut c, None);
        assert_eq!(o.consumed.unwrap().packet, b);
        assert!(o.credit_freed);
        assert!(sink.is_idle());
        assert_eq!(c.decode_xors, 1);
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn misdelivered_flit_detected() {
        let mut t = PacketTable::new();
        let mut c = Counters::new();
        let mut sink = Sink::new(NodeId(3), 4);
        let id = packet(&mut t, 7, 1);
        sink.receive(word_for(FlitKey { packet: id, seq: 0 }));
        let _ = sink.drain(&t, &mut c, None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_detected() {
        let mut t = PacketTable::new();
        let mut sink = Sink::new(NodeId(3), 2);
        for _ in 0..3 {
            let id = packet(&mut t, 3, 1);
            sink.receive(word_for(FlitKey { packet: id, seq: 0 }));
        }
    }
}

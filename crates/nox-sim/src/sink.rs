//! Packet ejection sinks.
//!
//! The network interface at each node ejects at most one flit per cycle —
//! matching the 64-bit link bandwidth. Under the NoX architecture the
//! ejection port can receive *encoded* words (collisions happen on local
//! output ports like any other), so a sink's ejection buffer is the same
//! `nox-core` [`DecodePort`] as a router input: FIFO, decode register and
//! XOR logic (§2.4).
//!
//! Every consumed flit is integrity-checked: the payload recovered through
//! however many XOR encodes and decodes it took must equal the flit's
//! original deterministic payload bits (under a fault campaign, a
//! mismatch is classified and counted instead).

use nox_core::{DecodePort, DecodeStep};

use crate::fault::{DeliveryClass, FaultState};
use crate::flit::{FlitInfo, FlitKey, PacketTable};
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
    /// The ejection buffer and its decode register: words arrive here from
    /// the local output channel.
    pub port: DecodePort<u64>,
}

impl Sink {
    /// Creates a sink with the given ejection buffer depth.
    pub fn new(node: NodeId, capacity: usize) -> Self {
        Sink {
            node,
            port: DecodePort::new(capacity),
        }
    }

    /// Drains at most one presented flit (or performs one decode latch:
    /// the slot frees, nothing is consumed this cycle).
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
        let action = match self.port.step() {
            DecodeStep::Idle => return SinkOutcome::default(),
            DecodeStep::Latch => {
                self.port.latch();
                counters.count_decode(DecodeStep::Latch);
                return SinkOutcome {
                    credit_freed: true,
                    ..Default::default()
                };
            }
            DecodeStep::Present(action) => action,
        };
        // The fault-free arm is on its own: folding it into the branches
        // below costs the saturated mesh about a fifth of its sink phase.
        let Some(faults) = faults else {
            let (word, credit_freed) = self.port.take(action);
            counters.count_decode(DecodeStep::Present(action));
            let key = FlitKey::unpack(word.sole_key().expect("undecodable word at sink"));
            assert_eq!(
                *word.payload(),
                key.payload(),
                "payload corrupted through XOR encode/decode"
            );
            let info = packets.flit_info(key);
            assert_eq!(info.dest, self.node, "flit ejected at wrong node");
            counters.flits_ejected += 1;
            return SinkOutcome {
                credit_freed,
                consumed: Some(info),
                fault_event: None,
            };
        };
        if !self.port.presented().is_plain() {
            // FSM desync at the ejection port: contain the chain.
            let (lost, popped) = self.port.chain_kill();
            faults.note_chain_kill(lost);
            if popped {
                counters.buffer_reads += 1;
            }
            return SinkOutcome {
                credit_freed: popped,
                fault_event: Some("detect desync"),
                ..Default::default()
            };
        }
        let (word, credit_freed) = self.port.take(action);
        counters.count_decode(DecodeStep::Present(action));
        let key = FlitKey::unpack(word.sole_key().expect("a plain word has one key"));
        let info = packets.flit_info(key);
        assert_eq!(info.dest, self.node, "flit ejected at wrong node");
        let (consumed, fault_event) = match faults.classify_delivery(key, *word.payload()) {
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
            sink.port.receive(word_for(FlitKey { packet: id, seq: 0 }));
        }
        let mut consumed = 0;
        for _ in 0..3 {
            if sink.drain(&t, &mut c, None).consumed.is_some() {
                consumed += 1;
            }
        }
        assert_eq!(consumed, 3);
        assert!(sink.port.is_idle());
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
        sink.port.receive(wa.xor(&wb));
        sink.port.receive(wb);

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
        assert!(sink.port.is_idle());
        assert_eq!(c.decode_xors, 1);
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn misdelivered_flit_detected() {
        let mut t = PacketTable::new();
        let mut c = Counters::new();
        let mut sink = Sink::new(NodeId(3), 4);
        let id = packet(&mut t, 7, 1);
        sink.port.receive(word_for(FlitKey { packet: id, seq: 0 }));
        let _ = sink.drain(&t, &mut c, None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_detected() {
        let mut t = PacketTable::new();
        let mut sink = Sink::new(NodeId(3), 2);
        for _ in 0..3 {
            let id = packet(&mut t, 3, 1);
            sink.port.receive(word_for(FlitKey { packet: id, seq: 0 }));
        }
    }
}

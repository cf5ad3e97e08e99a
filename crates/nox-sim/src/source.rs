//! Packet injection sources.
//!
//! Each node has a [`Source`] holding the node's share of the injection
//! trace. Packets enter an unbounded source queue at their creation time
//! (latency measurement starts there, so saturation shows up as unbounded
//! queueing delay, as in the paper's latency curves) and their flits feed
//! the router's local input port at up to one flit per cycle — the
//! injection bandwidth of a 64-bit interface.

use std::collections::VecDeque;

use nox_core::PortId;

use crate::flit::{word_for, FlitKey, PacketId, PacketTable};
use crate::router::Router;
use crate::stats::Counters;

/// The injection process for one node.
#[derive(Clone, Debug)]
pub struct Source {
    /// Packets scheduled for this node, in creation order.
    pending: VecDeque<PacketId>,
    /// Creation cycle of `pending`'s head, `u64::MAX` when it is empty:
    /// a source with nothing due is one compare per cycle, not a packet
    /// table lookup.
    head_due: u64,
    /// Packet currently being injected flit by flit.
    current: Option<(PacketId, u16, u16)>, // (id, next_seq, len)
}

impl Default for Source {
    fn default() -> Self {
        Self::new()
    }
}

impl Source {
    /// Creates an empty source.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty source with room for `packets` queued packets.
    pub(crate) fn with_capacity(packets: usize) -> Self {
        Source {
            pending: VecDeque::with_capacity(packets),
            head_due: u64::MAX,
            current: None,
        }
    }

    /// Schedules a packet created at `created_cycle` (must be pushed in
    /// creation-time order).
    pub fn schedule(&mut self, id: PacketId, created_cycle: u64) {
        if self.pending.is_empty() {
            self.head_due = created_cycle;
        }
        self.pending.push_back(id);
    }

    /// Number of packets not yet fully injected.
    pub fn backlog(&self) -> usize {
        self.pending.len() + usize::from(self.current.is_some())
    }

    /// `true` when everything scheduled has been injected.
    pub fn is_done(&self) -> bool {
        self.backlog() == 0
    }

    /// `true` when [`inject`](Self::inject) at `cycle` has something to
    /// do: a packet is part-way in, or the queue's head has been created.
    /// The network visits exactly the sources for which this holds.
    pub fn can_inject(&self, cycle: u64) -> bool {
        self.current.is_some() || self.head_due <= cycle
    }

    /// Injects up to one flit into input `local` of the core's router,
    /// returning the key of the flit injected this cycle (if any).
    pub fn inject(
        &mut self,
        cycle: u64,
        router: &mut Router,
        local: PortId,
        packets: &PacketTable,
        counters: &mut Counters,
    ) -> Option<FlitKey> {
        if self.current.is_none() {
            if self.head_due > cycle {
                return None;
            }
            let id = self.pending.pop_front().expect("a due head is queued");
            self.head_due = self
                .pending
                .front()
                .map_or(u64::MAX, |&next| packets.meta(next).created_cycle);
            self.current = Some((id, 0, packets.meta(id).len));
            counters.packets_injected += 1;
        }
        let (id, seq, len) = self.current?;
        if !router.input(local).has_space() {
            return None;
        }
        let key = FlitKey { packet: id, seq };
        router.receive(local, word_for(key));
        counters.flits_injected += 1;
        counters.buffer_writes += 1;
        self.current = if seq + 1 == len {
            None
        } else {
            Some((id, seq + 1, len))
        };
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;
    use crate::flit::PacketMeta;
    use crate::topology::{NodeId, Port, Topology};

    fn setup() -> (PacketTable, Router, Counters) {
        (
            PacketTable::new(),
            Router::new(NodeId(0), Arch::Nox, Topology::mesh(2, 2), 4),
            Counters::new(),
        )
    }

    #[test]
    fn injects_one_flit_per_cycle() {
        let (mut packets, mut router, mut counters) = setup();
        let mut src = Source::new();
        let id = packets.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(3),
            len: 3,
            created_cycle: 0,
            measured: false,
        });
        src.schedule(id, packets.meta(id).created_cycle);
        for cycle in 0..3 {
            src.inject(
                cycle,
                &mut router,
                Port::Local.id(),
                &packets,
                &mut counters,
            );
        }
        assert_eq!(router.input(Port::Local.id()).len(), 3);
        assert!(src.is_done());
        assert_eq!(counters.flits_injected, 3);
        assert_eq!(counters.packets_injected, 1);
    }

    #[test]
    fn respects_creation_time() {
        let (mut packets, mut router, mut counters) = setup();
        let mut src = Source::new();
        let id = packets.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(3),
            len: 1,
            created_cycle: 5,
            measured: false,
        });
        src.schedule(id, packets.meta(id).created_cycle);
        src.inject(4, &mut router, Port::Local.id(), &packets, &mut counters);
        assert_eq!(router.input(Port::Local.id()).len(), 0);
        src.inject(5, &mut router, Port::Local.id(), &packets, &mut counters);
        assert_eq!(router.input(Port::Local.id()).len(), 1);
    }

    #[test]
    fn stalls_when_buffer_full() {
        let (mut packets, mut router, mut counters) = setup();
        let mut src = Source::new();
        for _ in 0..6 {
            let id = packets.push(PacketMeta {
                src: NodeId(0),
                dest: NodeId(3),
                len: 1,
                created_cycle: 0,
                measured: false,
            });
            src.schedule(id, packets.meta(id).created_cycle);
        }
        for cycle in 0..6 {
            src.inject(
                cycle,
                &mut router,
                Port::Local.id(),
                &packets,
                &mut counters,
            );
        }
        // Buffer depth is 4: two packets remain queued at the source.
        assert_eq!(router.input(Port::Local.id()).len(), 4);
        assert_eq!(src.backlog(), 2);
    }

    #[test]
    fn multiflit_packets_inject_contiguously() {
        let (mut packets, mut router, mut counters) = setup();
        let mut src = Source::new();
        let a = packets.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(3),
            len: 2,
            created_cycle: 0,
            measured: false,
        });
        let b = packets.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(3),
            len: 1,
            created_cycle: 0,
            measured: false,
        });
        src.schedule(a, 0);
        src.schedule(b, 0);
        for cycle in 0..3 {
            src.inject(
                cycle,
                &mut router,
                Port::Local.id(),
                &packets,
                &mut counters,
            );
        }
        let fifo_keys: Vec<FlitKey> = router
            .input(Port::Local.id())
            .words()
            .map(|w| FlitKey::unpack(w.sole_key().unwrap()))
            .collect();
        assert_eq!(fifo_keys[0].packet, a);
        assert_eq!(fifo_keys[1].packet, a);
        assert_eq!(fifo_keys[2].packet, b);
    }
}

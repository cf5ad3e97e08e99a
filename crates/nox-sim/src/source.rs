//! Packet injection sources.
//!
//! Each node has a [`Source`] holding the node's share of the injection
//! trace. Packets enter an unbounded source queue at their creation time
//! (latency measurement starts there, so saturation shows up as unbounded
//! queueing delay, as in the paper's latency curves) and their flits feed
//! the router's local input port at up to one flit per cycle — the
//! injection bandwidth of a 64-bit interface.
//!
//! A source's share of the trace is not copied into its queue: it is a
//! range of the network's trace order (the trace's packet ids grouped by
//! source, in trace order), and the source is a cursor into it. Packets
//! created during the run queue behind that range.

use std::collections::VecDeque;
use std::ops::Range;

use nox_core::PortId;

use crate::flit::{word_for, FlitKey, PacketId, PacketTable};
use crate::router::Router;
use crate::stats::Counters;

/// The injection process for one node.
#[derive(Clone, Debug)]
pub struct Source {
    /// The trace packets not yet taken: `order[next..end]` of the trace
    /// order [`inject`](Self::inject) is given.
    next: u32,
    end: u32,
    /// The trace id of the first of them, `u32::MAX` once they are all
    /// taken: it is due once the network's trace cursor has passed it,
    /// so a source with nothing due is one compare per cycle, and never
    /// works out a creation cycle.
    head: u32,
    /// Packets created during the run, in creation order, each due at
    /// once. They are served once the trace's share is used up.
    created: VecDeque<PacketId>,
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
        Self::for_share(0..0, &[])
    }

    /// A source whose share of the trace is `order[share]`.
    pub(crate) fn for_share(share: Range<u32>, order: &[u32]) -> Self {
        let mut s = Source {
            next: share.start,
            end: share.end,
            head: u32::MAX,
            created: VecDeque::new(),
            current: None,
        };
        s.find_head(order);
        s
    }

    /// Points `head` at `order[next]`, or past every trace id.
    fn find_head(&mut self, order: &[u32]) {
        self.head = if self.next < self.end {
            order[self.next as usize]
        } else {
            u32::MAX
        };
    }

    /// Queues a packet created this cycle, behind everything queued.
    pub fn schedule(&mut self, id: PacketId) {
        self.created.push_back(id);
    }

    /// Number of packets not yet fully injected.
    pub fn backlog(&self) -> usize {
        (self.end - self.next) as usize + self.created.len() + usize::from(self.current.is_some())
    }

    /// `true` when everything scheduled has been injected.
    pub fn is_done(&self) -> bool {
        self.backlog() == 0
    }

    /// `true` when [`inject`](Self::inject) has something to do once the
    /// trace's packets below `admitted` have been created: a packet is
    /// part-way in, or the queue's head has been created. The network
    /// visits exactly the sources for which this holds.
    pub fn can_inject(&self, admitted: usize) -> bool {
        self.current.is_some()
            || (self.head as usize) < admitted
            || (self.next == self.end && !self.created.is_empty())
    }

    /// Injects up to one flit into input `local` of the core's router,
    /// returning the key of the flit injected this cycle (if any). The
    /// trace's packets below `admitted` have been created, and `order` is
    /// the network's trace order this source's share indexes.
    pub fn inject(
        &mut self,
        admitted: usize,
        router: &mut Router,
        local: PortId,
        packets: &PacketTable,
        order: &[u32],
        counters: &mut Counters,
    ) -> Option<FlitKey> {
        if self.current.is_none() {
            let id = if (self.head as usize) < admitted {
                self.next += 1;
                let id = PacketId(u64::from(self.head));
                self.find_head(order);
                id
            } else if self.next == self.end {
                self.created.pop_front()?
            } else {
                return None;
            };
            self.current = Some((id, 0, packets.len_of(id)));
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
        src.schedule(id);
        for _ in 0..3 {
            src.inject(
                0,
                &mut router,
                Port::Local.id(),
                &packets,
                &[],
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
        for _ in 0..3 {
            packets.push(PacketMeta {
                src: NodeId(0),
                dest: NodeId(3),
                len: 1,
                created_cycle: 0,
                measured: false,
            });
        }
        // Packets 0 and 1 stand for the trace, and packet 1 is this
        // source's share; packet 2 is created during the run.
        let order = [0, 1];
        let mut src = Source::for_share(1..2, &order);
        let local = Port::Local.id();
        assert!(!src.can_inject(1), "packet 1 is not created yet");
        src.inject(1, &mut router, local, &packets, &order, &mut counters);
        assert_eq!(router.input(local).len(), 0);
        // A packet created during the run waits behind the share.
        src.schedule(PacketId(2));
        assert!(!src.can_inject(1));
        assert!(src.can_inject(2), "the cursor passed packet 1");
        src.inject(2, &mut router, local, &packets, &order, &mut counters);
        let head = router
            .input(local)
            .words()
            .next()
            .and_then(|w| w.sole_key());
        assert_eq!(head.map(|k| FlitKey::unpack(k).packet), Some(PacketId(1)));
        assert!(src.can_inject(2), "the run's packet is due now");
        assert_eq!(src.backlog(), 1);
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
            src.schedule(id);
        }
        for _ in 0..6 {
            src.inject(
                0,
                &mut router,
                Port::Local.id(),
                &packets,
                &[],
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
        src.schedule(a);
        src.schedule(b);
        for _ in 0..3 {
            src.inject(
                0,
                &mut router,
                Port::Local.id(),
                &packets,
                &[],
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
